"""End-to-end benchmark of the sgrg RG engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ir-ac6,uv-ac7,verify} --seed N \
        --seconds S --trace {0,1}

Each workload iteration runs `sgrg.cli.main` in a fresh process (closed loop,
one process at a time) with BLAS pinned to one thread, then checks its
outputs (workloads.py).  With --trace 0 the run first starts a few set-up
probes, processes that stop at the first unit of work, then runs iterations
while the next one fits in S seconds, and reports the medians of run_s,
setup_s and peak_rss_mb.  With --trace 1 it runs one untraced and one traced
iteration (tracer.py) and reports the per-layer metrics of the traced one,
with the tracing overhead.  The last line of standard output is the result
JSON; the lines before it print every metric by name and unit.

    python3 perfbench/run.py --make-reference --workload W [--seed N]

records reference rows and exact work counts for every input of W (or for
seed N only) in reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS, ZETA_GRID, Check, FlowWorkload, input_key  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES_PER_GAP = 2
RUN_LIMIT_S = 170.0  # the whole run ends well within 180 s
DEFAULT_REFERENCE = HERE / "reference.json"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sgrg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy as np
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "load": "closed loop, one process at a time, fresh process per iteration",
    }


class Runner:
    """Starts workload processes in a scratch directory of the checkout."""

    def __init__(self, workload, seed: int, deadline: float, reference: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.reference = reference
        self.env = child_env()
        self.work = ROOT / ".perfbench_work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.n = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, trace: bool, setup_only: bool) -> dict:
        """Run one process to its end; returns its timings and check."""
        d = self.work / f"p{self.n}"
        self.n += 1
        kind = "probe" if setup_only else "traced" if trace else "iteration"
        out = d / "out"
        out.mkdir(parents=True)
        commands = self.workload.inputs(self.seed)
        spec = {"src": str(SRC), "commands": [[*c, "--out", str(out)] for c in commands],
                "marker": self.workload.marker, "trace": trace,
                "setup_only": setup_only, "result": str(d / "result.json")}
        (d / "spec.json").write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(d / "stdout.txt", "w") as so, open(d / "stderr.txt", "w") as se:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(d / "spec.json")],
                                    cwd=ROOT, env=self.env, stdout=so, stderr=se)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"kind": kind, "ok": False, "wall_s": time.monotonic() - t_spawn,
                        "errors": [f"timed out after {timeout:.0f} s"]}
        wall = time.monotonic() - t_spawn
        if rc != 0 or not (d / "result.json").exists():
            tail = (d / "stderr.txt").read_text()[-2000:]
            return {"kind": kind, "ok": False, "wall_s": wall,
                    "errors": [f"process exit code {rc}", tail]}
        res = json.loads((d / "result.json").read_text())
        rec = {"kind": kind, "wall_s": wall, "setup_s": None, "errors": []}
        if res["t_first"] is not None:
            rec["setup_s"] = res["t_first"] - t_spawn
        if setup_only:
            rec["ok"] = rec["setup_s"] is not None
            if not rec["ok"]:
                rec["errors"].append("the first unit of work was never reached")
            return rec
        rec["run_s"] = res["t_end"] - (res["t_first"] or t_spawn)
        rec["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
        rec["cpu_s"] = res["cpu_s"]
        rec["per_layer"] = res.get("per_layer")
        try:
            check = self.workload.check(out, res["rcs"], res["steps"], self.reference)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            check = Check(False, [f"output check raised {exc!r}"], math.nan, {}, {})
        rec.update(ok=check.ok, errors=check.errors, max_rel_dev=check.max_rel_dev,
                   counts=check.counts, detail=check.detail)
        return rec


def load_reference(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"entries": {}}


def count_errors(label: str, got: dict, ref: dict | None, same_source: bool) -> list:
    """Exact counts must equal the reference's when the source is the same."""
    if ref is None or not same_source:
        return []
    return [f"{label} {key}: {got.get(key)!r} != reference {ref.get(key)!r}"
            for key in sorted(set(got) | set(ref)) if got.get(key) != ref.get(key)]


def trace_counts(per_layer: dict) -> dict:
    return {k: per_layer[k] for k in EXACT_COUNTS}


def make_reference(args, path: Path) -> int:
    workload = WORKLOADS[args.workload]
    if not isinstance(workload, FlowWorkload):
        print("reference rows are recorded for the flow workloads only", file=sys.stderr)
        return 2
    seeds = [args.seed] if args.seed is not None else list(_grid_seeds())
    ref = load_reference(path)
    digest = source_digest()
    status = 0
    for seed in seeds:
        runner = Runner(workload, seed, time.monotonic() + 900.0)
        try:
            plain = runner.spawn(trace=False, setup_only=False)
            traced = runner.spawn(trace=True, setup_only=False)
            out = runner.work / "p0" / "out" / f"flow_{workload.mode}_trajectory.json"
            rows = json.loads(out.read_text())["rows"] if out.exists() else None
        finally:
            runner.close()
        bad = [e for e in plain["errors"] + traced["errors"]
               if not e.startswith("no reference rows")]
        if bad or rows is None or plain.get("counts") != traced.get("counts"):
            print(f"seed {seed}: not recorded: {bad or 'counts differ'}", file=sys.stderr)
            status = 1
            continue
        key = input_key(workload.inputs(seed))
        ref["entries"][key] = {"source_sha256": digest, "rows": rows,
                               "counts": plain["counts"],
                               "trace_counts": trace_counts(traced["per_layer"])}
        print(f"recorded {key}")
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return status


def _grid_seeds():
    """One seed for each point of the zeta grid (seed 0 for the centre)."""
    found = {(ZETA_GRID - 1) // 2: 0}
    seed = 1
    while len(found) < ZETA_GRID:
        found.setdefault(random.Random(seed).randrange(ZETA_GRID), seed)
        seed += 1
    return sorted(found.values())


def median(values):
    return statistics.median(values) if values else math.nan


def run(args, bench: dict, reference_path: Path) -> tuple[dict, list]:
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    reference = load_reference(reference_path)["entries"].get(
        input_key(workload.inputs(args.seed)))
    same_source = (reference is not None
                   and reference.get("source_sha256") == source_digest())
    runner = Runner(workload, args.seed, start + RUN_LIMIT_S, reference)
    probes, iterations = [], []
    try:
        if args.trace:
            iterations.append(runner.spawn(trace=False, setup_only=False))
            iterations.append(runner.spawn(trace=True, setup_only=False))
        else:
            # probes go around every iteration, so that set-up is sampled
            # across the run as the machine's speed drifts
            while True:
                probes += [runner.spawn(trace=False, setup_only=True)
                           for _ in range(PROBES_PER_GAP)]
                walls = [it["wall_s"] for it in iterations]
                if walls and time.monotonic() - start + max(walls) > args.seconds:
                    break
                iterations.append(runner.spawn(trace=False, setup_only=False))
                if time.monotonic() - start > RUN_LIMIT_S / 2:
                    break
    finally:
        runner.close()

    # exact counts repeat between iterations, and match the reference's
    good = [it for it in iterations if it["ok"]]
    for it in good[1:]:
        if it["counts"] != good[0]["counts"]:
            it["ok"] = False
            it["errors"].append(f"work counts differ between iterations of one input: "
                                f"{it['counts']} vs {good[0]['counts']}")
    ref = reference or {}
    for it in iterations:
        if not it["ok"] or "counts" not in it:
            continue
        errs = count_errors("count", it["counts"], ref.get("counts"), same_source)
        if it.get("per_layer"):
            errs += count_errors("traced count", trace_counts(it["per_layer"]),
                                 ref.get("trace_counts"), same_source)
        if errs:
            it["ok"] = False
            it["errors"] += errs

    spawned = probes + iterations
    failed = sum(not p["ok"] for p in spawned)
    timed = [it for it in iterations if "run_s" in it]
    if args.trace:
        traced = iterations[-1]
        metrics = dict(traced.get("per_layer") or {})
        metrics["trace.run_s"] = traced.get("run_s", math.nan)
        metrics["trace.overhead"] = metrics["trace.run_s"] / iterations[0].get("run_s", math.nan)
        wanted = bench["per_layer"]
    else:
        metrics = {
            "run_s": median([it["run_s"] for it in timed]),
            "setup_s": median([p["setup_s"] for p in spawned if p.get("setup_s") is not None]),
            "peak_rss_mb": median([it["peak_rss_mb"] for it in timed]),
        }
        wanted = bench["end_to_end"]
    # a metric that could not be measured reads 0 in a run marked not correct
    missing = [m["name"] for m in wanted if not math.isfinite(metrics.get(m["name"], math.nan))]
    if missing:
        failed = max(failed, 1)
    out = {m["name"]: {"value": 0.0 if m["name"] in missing else metrics[m["name"]],
                       "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0 and bool(timed), "attempted": len(spawned),
              "failed": failed, "metrics": out}
    return result, spawned


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "sgrg" / "cli.py").is_file():
        print(f"error: no sgrg source at {SRC / 'sgrg'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # byte-compile once, as an installed package would be
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "sgrg")],
                   check=True, env=child_env())
    if args.make_reference:
        return make_reference(args, args.reference)
    if args.seed is None:
        ap.error("--seed is required")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    workload = WORKLOADS[args.workload]
    result, spawned = run(args, bench, args.reference)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{input_key(workload.inputs(args.seed))}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(spawned):
        fields = " ".join(f"{k}={_fmt(p[k])}" for k in
                          ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "max_rel_dev")
                          if p.get(k) is not None)
        extra = " ".join(f"{k}={_fmt(v)}" for k, v in (p.get("detail") or {}).items())
        print(f"{p['kind']} {i}: {'ok' if p['ok'] else 'FAILED'} {fields} {extra}".rstrip())
        for err in p["errors"]:
            print(f"  error: {err}")
    print(f"failed_frac {result['failed'] / max(result['attempted'], 1)!r} fraction "
          f"({result['failed']} of {result['attempted']} processes)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
