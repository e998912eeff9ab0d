"""Golden outputs: tiny CLI runs compared by ``repr`` with committed files.

Each case runs ``sgrg.cli.main`` into a temporary directory and collects the
numbers it writes: flow trajectory and contraction rows, identity residuals,
the oracle's Z estimates, pull and relative difference, and the cells of
each kernel kind's covariance table.  Output paths
are not part of the comparison.  A change to a file under ``tests/golden/``
is a change to the program's numbers; regenerate them with

    python tests/golden/regenerate.py

and say in the change log why they moved.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from sgrg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# the flow sizes of the smallest benchmark workloads, with N = 3 on the UV
# side: on a side-2 torus the covariance is ~1e-43 and tree terms vanish
CASES = {
    "flow_ir": ["flow-ir", "--beta", repr(12 * math.pi), "--L", "2", "--M", "2",
                "--steps", "1", "--zeta", "1e-3"],
    # L = 8: 64 offsets per shape, half-integer ties and the wrap on the
    # side-8 coarse torus
    "flow_ir_l8": ["flow-ir", "--beta", repr(12 * math.pi), "--L", "8", "--M", "2",
                   "--steps", "1", "--zeta", "1e-3"],
    "flow_uv": ["flow-uv", "--beta", repr(4 * math.pi), "--L", "2", "--N", "3",
                "--steps", "2", "--zeta", "1e-2"],
    "identities": ["identities", "--torus", "3x3", "--seed", "3"],
    "oracle": ["oracle", "--samples", "20", "--seed", "3"],
    **{f"covariance_{kind}": ["covariance", "--kind", kind, "--grid", "3"]
       for kind in ("slice", "full", "cutoff")},
    "covariance_continuum": ["covariance", "--kind", "continuum"],
}


def _repr_rows(rows):
    return [{k: repr(v) for k, v in row.items()} for row in rows]


def collect(name: str, out: Path) -> dict:
    """Run one case into ``out`` and return its values as repr strings."""
    argv = CASES[name]
    code = main([*argv, "--out", str(out)])
    values: dict = {"exit_code": code}
    if name.startswith("covariance_"):
        with open(out / "covariance.csv", newline="") as fh:
            # a CSV cell holds str() of the value, which for a float is its repr
            values["table"] = list(csv.DictReader(fh))
    elif name.startswith("flow_"):
        mode = name.split("_")[1]
        traj = json.loads((out / f"flow_{mode}_trajectory.json").read_text())
        values["trajectory"] = _repr_rows(traj["rows"])
        with open(out / f"flow_{mode}_contraction.csv", newline="") as fh:
            # a CSV cell holds str() of the value, which for a float is its repr
            values["contraction"] = list(csv.DictReader(fh))
    elif name == "identities":
        report = json.loads((out / "identities_manifest.json").read_text())["report"]
        values["residuals"] = {r["suite"]: repr(r["residual"]) for r in report}
    else:
        inv = json.loads((out / "oracle_manifest.json").read_text())["invariance"]
        values["invariance"] = {
            "z0": {k: repr(v) for k, v in inv["z0"].items()},
            "z1": {k: repr(v) for k, v in inv["z1"].items()},
            "pull": repr(inv["pull"]),
            "rel_diff": repr(inv["rel_diff"]),
        }
    return {"argv": argv, "values": values}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, capsys):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = collect(name, tmp_path)
    capsys.readouterr()
    assert got["argv"] == want["argv"], "the case changed; regenerate the golden file"
    assert got["values"] == want["values"]
