"""Benchmark workloads: the CLI inputs made from a seed, and the output checks.

Seed rule.  For the flows, seed 0 runs the acceptance coupling Z.  Any other
seed draws Z log-uniformly from the 9-point grid Z * 2**(k/512), k = -4..4
(within 0.6% of Z).  The band is narrow because the work of a flow grows
with Z (the UV flow makes 46k tree terms at Z/sqrt 2 and 91k at Z sqrt 2),
and runs of different seeds must measure the same amount of work.  The grid
is finite so that every input has committed reference rows in
reference.json.  The verify workload passes the seed to both commands.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-12
ZETA_GRID = 9
ZETA_STEP = 2.0 ** (1.0 / 512)


def zeta_for_seed(zeta0: float, seed: int) -> float:
    mid = (ZETA_GRID - 1) // 2
    k = mid if seed == 0 else random.Random(seed).randrange(ZETA_GRID)
    return zeta0 * ZETA_STEP ** (k - mid)


@dataclass
class Check:
    ok: bool
    errors: list
    max_rel_dev: float
    counts: dict  # exact work counts of this output
    detail: dict


def compare_rows(got: list, ref: list) -> tuple[float, list]:
    """Largest relative deviation of trajectory rows, and the rows off by > REL_TOL."""
    errors, worst = [], 0.0
    if len(got) != len(ref):
        return math.inf, [f"{len(got)} trajectory rows, reference has {len(ref)}"]
    for i, (g, r) in enumerate(zip(got, ref)):
        if sorted(g) != sorted(r):
            errors.append(f"row {i}: columns {sorted(g)} differ from the reference")
            worst = math.inf
            continue
        for key, b in r.items():
            a = g[key]
            if a == b or (a != a and b != b):  # equal, or both NaN
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                rel = math.inf
            else:
                rel = abs(a - b) / max(abs(a), abs(b))
            worst = max(worst, rel)
            if rel > REL_TOL:
                errors.append(f"row {i} {key}: {a!r} vs reference {b!r} (rel {rel:.3e})")
    return worst, errors


def ac6_bounds(payload: dict) -> tuple[dict, list]:
    """AC6: every step's norm ratio <= 0.25 and charged multiplier within 3x of L^(2-beta/4pi)."""
    cfg, rows = payload["config"], payload["rows"][1:]
    ref = cfg["L"] ** (2.0 - cfg["beta"] / (4.0 * math.pi))
    ratios = [r["ratio"] for r in rows]
    mults = [r["charged_multiplier"] for r in rows]
    errors = [f"AC6 ratio {x} > 0.25" for x in ratios if not x <= 0.25]
    errors += [f"AC6 charged multiplier {m} outside [{ref / 3}, {3 * ref}]"
               for m in mults if not ref / 3.0 <= m <= 3.0 * ref]
    return {"max_ratio": max(ratios, default=math.nan)}, errors


def ac7_bounds(payload: dict) -> tuple[dict, list]:
    """AC7: ||Ktilde|| <= c |zeta|^(2-4 eps), c < 1e3; |dE| likewise, c' < 1e2; live slope."""
    cfg, rows = payload["config"], payload["rows"]
    expo = 2.0 - 4.0 * cfg["eps"]
    c_tilde = max(math.exp(r["log_norm_tilde"] - expo * math.log(r["zeta_abs"])) for r in rows)
    c_de = max((abs(r["dE"]) / r["zeta_abs"] ** expo for r in rows if r["dE"]), default=0.0)
    live = [r for r in rows if cfg["L"] ** abs(r["j"]) >= 8]
    xs = [math.log(r["zeta_abs"]) for r in live]
    ys = [r["log_norm_tilde"] for r in live]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    errors = []
    if not (math.isfinite(c_tilde) and c_tilde < 1e3):
        errors.append(f"AC7 c_tilde {c_tilde} not < 1e3")
    if not (math.isfinite(c_de) and c_de < 1e2):
        errors.append(f"AC7 c_dE {c_de} not < 1e2")
    if not slope >= 0.95 * expo:
        errors.append(f"AC7 live-window slope {slope} < {0.95 * expo}")
    return {"c_tilde": c_tilde, "c_dE": c_de, "slope": slope}, errors


@dataclass(frozen=True)
class FlowWorkload:
    name: str
    why: str
    args: tuple  # CLI arguments without --zeta and --out
    zeta0: float
    bounds: object = None  # ac6_bounds, ac7_bounds or None
    marker: str = "rg_step"

    @property
    def mode(self) -> str:
        return self.args[0].split("-")[1]

    def inputs(self, seed: int) -> list[list[str]]:
        return [[*self.args, "--zeta", repr(zeta_for_seed(self.zeta0, seed))]]

    def check(self, out: Path, rcs: list, steps: list, reference: dict | None) -> Check:
        if rcs != [0]:
            return Check(False, [f"exit codes {rcs}"], math.nan, {}, {})
        with open(out / f"flow_{self.mode}_trajectory.json") as fh:
            payload = json.load(fh)
        counts = {"steps": steps,
                  "dropped": [d["dropped_terms"] for d in payload["diagnostics"]]}
        errors, detail = [], {}
        if reference is None:
            worst = math.nan
            errors.append("no reference rows for this input")
        else:
            worst, errors = compare_rows(payload["rows"], reference["rows"])
        if self.bounds is not None:
            detail, bound_errors = self.bounds(payload)
            errors += bound_errors
        return Check(not errors, errors, worst, counts, detail)


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    why: str
    torus: str
    oracle_args: tuple
    suites: int = 7
    marker: str = "cmd_identities"

    def inputs(self, seed: int) -> list[list[str]]:
        return [["identities", "--torus", self.torus, "--seed", str(seed)],
                [*self.oracle_args, "--seed", str(seed)]]

    def check(self, out: Path, rcs: list, steps: list, reference: dict | None) -> Check:
        if rcs != [0, 0]:
            return Check(False, [f"exit codes {rcs}"], math.nan, {}, {})
        with open(out / "identities_manifest.json") as fh:
            report = json.load(fh)["report"]
        with open(out / "oracle_manifest.json") as fh:
            oracle = json.load(fh)["invariance"]
        errors = [f"identity suite {r['suite']} failed" for r in report if not r["pass"]]
        if len(report) != self.suites:
            errors.append(f"{len(report)} identity suites ran, expected {self.suites}")
        counts = {"residuals": [r["residual"] for r in report],
                  "oracle": [oracle["z0"]["value"], oracle["z1"]["value"]]}
        return Check(not errors, errors, oracle["rel_diff"], counts,
                     {"pull": oracle["pull"]})


BETA_IR = repr(12 * math.pi)
BETA_UV = repr(4 * math.pi)

WORKLOADS = {w.name: w for w in (
    FlowWorkload(
        "ir-ac6",
        "first step of the AC6 IR flow (L=8: 64 offsets per shape); scaling and "
        "the four-term split dominate",
        ("flow-ir", "--beta", BETA_IR, "--L", "8", "--M", "7", "--steps", "1"),
        1e-3, ac6_bounds),
    FlowWorkload(
        "uv-ac7",
        "the AC7 UV flow (L=2, 8 steps); fluctuation tree terms and truncation "
        "dominate, scaling is cheap",
        ("flow-uv", "--beta", BETA_UV, "--L", "2", "--N", "8", "--steps", "8"),
        1e-2, ac7_bounds),
    VerifyWorkload(
        "verify",
        "identity suites and the Z-invariance oracle: pointwise evaluation of the "
        "term algebra and the cloud branches of the maps, no truncated flow",
        "3x3",
        ("oracle", "--beta", "10", "--zeta", "0.05", "--L", "2", "--M", "1",
         "--samples", "400")),
    # tiny configurations that drive the harness in seconds (self-tests)
    FlowWorkload("ir-tiny", "self-test", ("flow-ir", "--beta", BETA_IR, "--L", "2",
                                          "--M", "2", "--steps", "1"), 1e-3),
    FlowWorkload("uv-tiny", "self-test", ("flow-uv", "--beta", BETA_UV, "--L", "2",
                                          "--N", "1", "--steps", "1"), 1e-2),
    VerifyWorkload("verify-tiny", "self-test", "3x3",
                   ("oracle", "--beta", "10", "--zeta", "0.05", "--L", "2", "--M", "1",
                    "--samples", "20")),
)}


def input_key(commands: list[list[str]]) -> str:
    return " | ".join(" ".join(c) for c in commands)
