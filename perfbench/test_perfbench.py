"""Self-tests of the benchmark harness.  Run: python3 -m pytest perfbench -q

The end-to-end tests drive run.py on the tiny workloads (a few seconds each)
against a reference recorded into a scratch directory of the checkout.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_metrics  # noqa: E402
from workloads import (WORKLOADS, ZETA_GRID, ac6_bounds, ac7_bounds,  # noqa: E402
                       compare_rows, zeta_for_seed)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def scratch():
    """A directory under the checkout's .perfbench_work, removed afterwards."""
    path = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- pure functions --------------------------------------------------------------


def test_seed_rule():
    assert zeta_for_seed(1e-3, 0) == 1e-3
    values = {zeta_for_seed(1e-3, s) for s in range(200)}
    assert len(values) == ZETA_GRID
    assert min(values) == pytest.approx(1e-3 * 2 ** (-4 / 512), rel=1e-15)
    assert max(values) == pytest.approx(1e-3 * 2 ** (4 / 512), rel=1e-15)
    assert zeta_for_seed(1e-3, 17) == zeta_for_seed(1e-3, 17)


def test_compare_rows_rejects_1e9_relative_perturbation():
    rows = [{"j": 0, "log_norm": -3.25, "ratio": math.nan, "energy": 0.0,
             "clipped_log_norm": -math.inf},
            {"j": 1, "log_norm": -5.5, "ratio": 0.14, "energy": 1.5e-7,
             "clipped_log_norm": -30.0}]
    worst, errors = compare_rows(rows, json.loads(json.dumps(rows)))
    assert worst == 0.0 and errors == []
    bumped = json.loads(json.dumps(rows))
    bumped[1]["energy"] *= 1.0 + 1e-9
    worst, errors = compare_rows(bumped, rows)
    assert errors and worst == pytest.approx(1e-9, rel=1e-3)
    close = json.loads(json.dumps(rows))
    close[1]["energy"] *= 1.0 + 1e-13
    assert compare_rows(close, rows)[1] == []
    assert compare_rows(rows[:1], rows)[1]


def test_acceptance_bounds():
    cfg6 = {"L": 8, "beta": 12 * math.pi}
    ok_rows = [{}, {"ratio": 0.14, "charged_multiplier": 0.125}]
    assert ac6_bounds({"config": cfg6, "rows": ok_rows})[1] == []
    bad_rows = [{}, {"ratio": 0.3, "charged_multiplier": 0.125}]
    assert ac6_bounds({"config": cfg6, "rows": bad_rows})[1]
    cfg7 = {"L": 2, "eps": 0.2}
    rows7 = [{"j": j, "zeta_abs": 1e-2 * 2.0 ** j, "dE": 1e-5,
              "log_norm_tilde": 1.6 * math.log(1e-2 * 2.0 ** j) + 2.0}
             for j in range(-8, 1)]
    detail, errors = ac7_bounds({"config": cfg7, "rows": rows7})
    assert errors == [] and detail["slope"] == pytest.approx(1.6)
    rows7[-1]["log_norm_tilde"] += 20.0
    assert ac7_bounds({"config": cfg7, "rows": rows7})[1]


def test_benchmark_json_matches_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    empty = {"table": {}, "steps": [], "rg_step_s": [], "rg_step_child_s": []}
    assert [m["name"] for m in BENCH["per_layer"]] == [
        *per_layer_metrics(empty, 0.0), "trace.run_s", "trace.overhead"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


# -- end to end on the tiny workloads ---------------------------------------------


@pytest.fixture(scope="module")
def reference(scratch):
    path = scratch / "reference.json"
    for name in ("ir-tiny", "uv-tiny"):
        proc = run_bench("--make-reference", "--workload", name, "--seed", "0",
                         "--reference", str(path))
        assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("name", ["ir-tiny", "uv-tiny", "verify-tiny"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_end_to_end(reference, name, trace):
    proc = run_bench("--workload", name, "--seed", "0", "--seconds", "1",
                     "--trace", trace, "--reference", str(reference))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    lines = proc.stdout.splitlines()
    for m in wanted:  # every metric printed by name with its unit
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    assert any(line.startswith("failed_frac 0.0 fraction") for line in lines)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif name != "verify-tiny":
        assert result["metrics"]["rgmap.rg_step.child_cover"]["value"] >= 0.95


def test_perturbed_reference_is_rejected(reference, scratch):
    ref = json.loads(reference.read_text())
    for entry in ref["entries"].values():
        row = entry["rows"][-1]
        row["log_norm"] *= 1.0 + 1e-9
    bad = scratch / "perturbed.json"
    bad.write_text(json.dumps(ref))
    proc = run_bench("--workload", "ir-tiny", "--seed", "0", "--seconds", "1",
                     "--trace", "0", "--reference", str(bad))
    assert proc.returncode == 0
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "log_norm" in proc.stdout


def test_changed_exact_count_is_rejected(reference, scratch):
    ref = json.loads(reference.read_text())
    for entry in ref["entries"].values():
        entry["trace_counts"]["terms.CovAccess.c.calls"] += 1
    bad = scratch / "counts.json"
    bad.write_text(json.dumps(ref))
    proc = run_bench("--workload", "uv-tiny", "--seed", "0", "--seconds", "1",
                     "--trace", "1", "--reference", str(bad))
    result = last_json(proc)
    assert result["correct"] is False
    assert "terms.CovAccess.c.calls" in proc.stdout


def test_fails_without_source(scratch):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "uv-ac7", "--seed", "0", "--seconds", "10",
                     "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
