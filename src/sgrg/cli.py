"""Command-line interface: covariance tables, identity suites, flows, oracle.

Subcommands
-----------
covariance   derivative table of a kernel as CSV
identities   run the algebraic identity suites (exit 1 on any failure)
flow-ir      run the infrared flow, write trajectory CSV/JSON
flow-uv      run the ultraviolet flow, write trajectory CSV/JSON
oracle       partition-function invariance and derivative checks (needs --seed)
plotdata     plot-ready CSV from a stored trajectory JSON

Configuration may come from a JSON file (--config); explicit flags override
file values.  Every run writes a manifest JSON with the resolved
configuration.  Exit codes: 0 pass, 1 check failure, 2 usage error,
3 resource-cap error.  SGRG_OUTDIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, write_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("SGRG_OUTDIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(args, path: Path, command: str, extra=None):
    payload = {
        "command": command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
        },
        "package_version": __version__,
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)


def _with_config_flags(parser, argv, at: int) -> list:
    """``argv`` with the --config file's values inserted at index ``at`` as
    the flags they mirror, so each passes its flag's own type, choices and
    required check, and a flag given on the command line comes later and
    wins."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    with open(known.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {a.dest: a.option_strings[-1] for a in parser._actions if a.option_strings}
    unknown = sorted(set(data) - set(flags))
    if unknown:
        raise KeyError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in data.items():
        if value is None:
            raise ValueError(f"config key {key!r} is null")
        if isinstance(value, list):  # an nargs option such as --x
            tokens += [flags[key], *map(str, value)]
        else:
            tokens.append(f"{flags[key]}={value}")
    return argv[:at] + tokens + argv[at:]


def _checked(kind, ok, what: str):
    """An argparse type: ``kind`` of the text, rejected unless ``ok``; it keeps
    ``kind``'s name, so unparsable text reads "invalid float value"."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    convert.__name__ = kind.__name__
    return convert


FINITE = _checked(float, math.isfinite, "a finite number")  # nan and inf pass float
COUNT = _checked(int, lambda n: n >= 0, ">= 0")


def parse_torus(text: str):
    """'3x3' -> TorusSpec with that side (smallest L >= 2 whose power fits)."""
    from .lattice import TorusSpec

    parts = text.lower().split("x")
    if len(parts) != 2 or parts[0] != parts[1]:
        raise ValueError(f"torus must look like '3x3', got {text!r}")
    side = int(parts[0])
    for L in range(2, side + 1):
        M = round(math.log(side, L))
        if L**M == side:
            return TorusSpec(L, max(M, 1))
    raise ValueError(f"side {side} is not a prime power representable here")


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def cmd_covariance(args) -> int:
    from .covariance import CovarianceKernel, _deriv_alphas, covariance_table
    from .lattice import TorusSpec

    out = _out_dir(args)
    torus = TorusSpec(args.L, args.M) if args.kind != "continuum" else None
    kernel = CovarianceKernel(
        args.kind, sigma=args.sigma, torus=torus,
        L=args.L if args.kind == "continuum" else None,
    )
    xs = [(args.x[0], args.x[1])]
    if args.grid > 0:
        side = args.L**args.M if torus else 4 * args.L
        pts = np.linspace(0.0, side / 2.0, args.grid)
        xs = [(p, 0.0) for p in pts]
    rows = covariance_table(kernel, xs, _deriv_alphas(args.alpha_max))
    table = out / "covariance.csv"
    write_csv(table, rows)
    _write_manifest(args, out / "covariance_manifest.json", "covariance")
    value = kernel.eval((args.x[0], args.x[1]))
    print(f"kernel={args.kind} sigma={args.sigma} x=({args.x[0]},{args.x[1]}) "
          f"value={value:.12g}")
    print(f"wrote {table}")
    if args.kind in ("slice", "continuum") and tuple(args.x) == (0.0, 0.0):
        closed = math.log(args.L) / (2.0 * math.pi * (1.0 + args.sigma))
        print(f"closed form log L / (2 pi (1+sigma)) = {closed:.12g} "
              f"(difference {abs(value - closed):.3e})")
    return EXIT_OK


def _identity_suites(torus, seed: int):
    """Run the identity suites on ``torus`` (side >= 3); yields (name,
    residual, tolerance)."""
    import itertools
    import random

    from .activities import (
        CloudActivity, charge_component, mayer_init_functional, polymer_exp, potentials,
        v_activity, verify_resummation, verify_shift_law, whole_torus,
    )
    from .covariance import CovarianceKernel
    from .fields import random_band_limited, scale_field
    from .interpolation import bonds_on, forest_interpolation_check_multilinear, tree_count
    from .lattice import TorusSpec, polymer
    from .rgmap import convolve_terms, extract_functional, fluctuate_cloud, scale_activity
    from .terms import CloudTerm, CovAccess, evaluate_terms, multiply

    rng = np.random.default_rng(seed)

    # forest interpolation, multilinear n = 3
    r = random.Random(seed)
    coeffs = {}
    for nb in range(len(bonds_on(3)) + 1):
        for A in itertools.combinations(bonds_on(3), nb):
            coeffs[A] = r.uniform(-1, 1)
    yield ("forest-interpolation", forest_interpolation_check_multilinear(3, coeffs), 1e-12)

    cayley_total = sum(
        tree_count(ds) for ds in itertools.product(range(1, 4), repeat=4) if sum(ds) == 6
    )
    yield ("cayley-count", abs(cayley_total - 16), 0.5)

    # Mayer / polymer exponential identity
    zeta = 0.2
    t_small = torus if torus.side <= 3 else TorusSpec(2, 1)
    K0 = mayer_init_functional(zeta, t_small)
    lam = whole_torus(t_small)
    worst = 0.0
    for _ in range(20):
        fld = random_band_limited(t_small, 8, rng, amplitude=0.8, k_max=2)
        lhs = cmath.exp(zeta * sum(potentials(lam.sorted_blocks(), fld)))
        rhs = polymer_exp(K0, lam, fld)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    yield ("mayer-polymer-exp", worst, 1e-10)

    # fluctuation identity on the 2x2-of-L-blocks torus
    t4 = TorusSpec(2, 2)
    kern = CovarianceKernel("slice", sigma=0.0, torus=t4)
    cov = CovAccess(kern, scale=2.0)
    K = CloudActivity(
        t4,
        {
            frozenset({(0, 0)}): [CloudTerm(0.4, ((1, (0.0, 0.0)),)),
                                  CloudTerm(0.4, ((-1, (0.0, 0.0)),))],
            frozenset({(2, 2)}): [CloudTerm(0.3, ((1, (2.0, 2.25)),)),
                                  CloudTerm(0.3, ((-1, (2.0, 2.25)),))],
        },
    )
    FK = fluctuate_cloud(K, cov)
    support = K.support()
    worst = 0.0
    for _ in range(10):
        fld = random_band_limited(t4, 8, rng, amplitude=0.7, k_max=2)
        lhs = 1.0 + sum(
            evaluate_terms(convolve_terms(K.terms(p), cov), fld) for p in support
        )
        both = multiply(K.terms(support[0]), K.terms(support[1]))
        lhs += evaluate_terms(convolve_terms(both, cov), fld)
        rhs = polymer_exp(FK, whole_torus(t4), fld)
        worst = max(worst, abs(lhs - rhs))
    yield ("fluctuation", worst, 1e-8)

    # extraction identity on the configured torus
    t_e = torus
    K_e = CloudActivity(
        t_e,
        {
            frozenset({(0, 0)}): [CloudTerm(0.45, ((1, (0.0, 0.0)),)), CloudTerm(0.1)],
            frozenset({(2, 2), (2, 1)}): [CloudTerm(0.3, ((-1, (2.0, 2.0)),))],
        },
    )
    F_e = CloudActivity(
        t_e,
        {
            frozenset({(0, 0), (0, 1)}): [CloudTerm(0.25)],
            frozenset({(2, 2)}): [
                CloudTerm(0.2, (), (((0, 1), (2.0, 2.0)), ((0, 1), (2.0, 2.0))))
            ],
        },
    )
    E = extract_functional(K_e, F_e)
    worst = 0.0
    for _ in range(10):
        fld = random_band_limited(t_e, 8, rng, amplitude=0.7, k_max=2)
        lhs = polymer_exp(K_e, whole_torus(t_e), fld)
        f_sum = sum(F_e.value(y, fld) for y in F_e.support())
        rhs = cmath.exp(f_sum) * polymer_exp(E, whole_torus(t_e), fld)
        worst = max(worst, abs(lhs - rhs))
    yield ("extraction", worst, 1e-9)

    # scaling identity at L = 2, M = 1
    t_s = TorusSpec(2, 1)
    K_s = CloudActivity(
        t_s,
        {
            frozenset({(0, 0)}): [CloudTerm(0.4, ((1, (0.0, 0.25)),)), CloudTerm(0.1)],
            frozenset({(1, 1)}): [CloudTerm(0.3, ((-1, (1.0, 1.0)),))],
        },
    )
    SK = scale_activity(K_s)
    coarse = t_s.coarse()
    worst = 0.0
    for _ in range(10):
        phi = random_band_limited(coarse, 8, rng, amplitude=0.7, k_max=2)
        phi_L = scale_field(phi)
        lhs = polymer_exp(K_s, whole_torus(t_s), phi_L)
        rhs = polymer_exp(SK, whole_torus(coarse), phi)
        worst = max(worst, abs(lhs - rhs))
    yield ("scaling", worst, 1e-9)

    # charge suite: shift law, resummation, neutral potential component
    V = v_activity(TorusSpec(2, 1), n_q=2, trans_invariant=False)
    fld = random_band_limited(TorusSpec(2, 1), 8, rng, amplitude=0.7, k_max=2)
    res = max(
        verify_shift_law(V, 1, polymer([(0, 0)]), fld, 0.77),
        verify_shift_law(V, -1, polymer([(0, 0)]), fld, -0.31),
        verify_resummation(V, polymer([(1, 1)]), fld, range(-3, 4)),
        0.0 if not charge_component(V, 0).data else 1.0,
    )
    yield ("charge-decomposition", res, 1e-10)


def cmd_identities(args) -> int:
    torus = parse_torus(args.torus)
    if torus.side < 3:
        # the extraction suite's activities sit on blocks up to (2, 2)
        raise ValueError(f"identities need a torus side of at least 3, got side {torus.side}")
    out = _out_dir(args)
    report = []
    failed = 0
    for name, residual, tol in _identity_suites(torus, args.seed):
        ok = residual <= tol
        failed += 0 if ok else 1
        report.append({"suite": name, "residual": residual, "tolerance": tol,
                       "pass": bool(ok)})
        print(f"{'PASS' if ok else 'FAIL'}  {name:24s} residual {residual:.3e} "
              f"(tolerance {tol:.1e})")
    _write_manifest(args, out / "identities_manifest.json", "identities",
                    {"report": report})
    print(f"{len(report) - failed}/{len(report)} identity suites passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_flow(args, mode: str) -> int:
    from .flow import FlowConfig, contraction_report, run_flow

    M, N = (args.M, 0) if mode == "ir" else (0, args.N)
    steps = args.steps if args.steps is not None else M + N
    config = FlowConfig(mode=mode, beta=args.beta, zeta=args.zeta, L=args.L, M=M, N=N,
                        steps=steps)
    for w in config.warnings:
        print(f"warning: {w}", file=sys.stderr)
    traj = run_flow(config)
    overrides: dict = {}
    for d in traj.diagnostics:
        failed = d["hypotheses"].get("failed", [])
        if failed:
            names = ", ".join(
                f"{name} (margin {d['hypotheses'][name]['margin']:.3f})" for name in failed
            )
            print(f"warning: step {d['j']}: hypotheses failed (overridden): {names}",
                  file=sys.stderr)
        for name in failed:
            overrides[name] = overrides.get(name, 0) + 1
    stem = f"flow_{mode}"
    out = _out_dir(args)
    traj.write_csv(out / f"{stem}_trajectory.csv")
    traj.write_json(out / f"{stem}_trajectory.json")
    rows = contraction_report(traj)
    write_csv(out / f"{stem}_contraction.csv", rows)
    _write_manifest(args, out / f"{stem}_manifest.json", f"flow-{mode}",
                    {"hypothesis_overrides": overrides})
    print(f"{len(traj.states)} states written to {out / (stem + '_trajectory.csv')}")
    for r in rows:
        print(
            f"j={r['j']:3d} ratio={r['ratio']:.4f} charged={r['charged_multiplier']:.4f}"
            f" (ref {r['charged_ref']:.4f}, finite volume {r['charged_fv_ref']:.4f})"
        )
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .flow import z_derivative_check, z_invariance_check

    out = _out_dir(args)
    inv = z_invariance_check(
        beta=args.beta, zeta=args.zeta, L=args.L, M=args.M,
        n_samples=args.samples, seed=args.seed, n_g=args.n_g,
    )
    n0, n1 = inv["z0"].n_samples, inv["z1"].n_samples
    if min(n0, n1) < args.samples:
        print(f"note: the invariance check caps --samples {args.samples}: Z(j) used {n0} "
              f"and Z(j+1) {n1} samples; dZ/dzeta uses all {args.samples}", file=sys.stderr)
    der = z_derivative_check(
        beta=args.beta, L=args.L, M=args.M, n_samples=args.samples,
        seed=args.seed + 1, n_g=args.n_g,
    )
    payload = {
        "invariance": {
            "z0": vars(inv["z0"]), "z1": vars(inv["z1"]), "pull": inv["pull"],
            "rel_diff": inv["rel_diff"], "se_floor_used": inv["se_floor_used"],
        },
        "derivative": der,
    }
    _write_manifest(args, out / "oracle_manifest.json", "oracle", payload)
    print(f"Z(j)   = {inv['z0'].value:.10f} +- {inv['z0'].stderr:.2e}")
    print(f"Z(j+1) = {inv['z1'].value:.10f} +- {inv['z1'].stderr:.2e}")
    print(f"pull = {inv['pull']:.3f}  relative difference = {inv['rel_diff']:.2e}")
    print(f"dZ/dzeta: mc={der['mc']:.6f} expected={der['expected']:.6f} pull={der['pull']:.2f}")
    ok = inv["pull"] <= 3.0 and (der["pull"] <= 3.0 or abs(der["mc"] - der["expected"]) < 1e-6)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_plotdata(args) -> int:
    from .flow import contraction_reference

    kinds = ("contraction", "zeta-schedule")
    if args.kind not in kinds:
        print(f"unknown plot kind {args.kind!r}; choose from {kinds}", file=sys.stderr)
        return EXIT_USAGE
    try:  # every row is read before --out is made: a row without a field, or none, fails
        with open(args.trajectory) as fh:
            payload = json.load(fh)
        rows, cfg = payload["rows"], payload["config"]
        if args.kind == "zeta-schedule" and cfg["mode"] != "uv":
            print("zeta-schedule plots need a UV trajectory", file=sys.stderr)
            return EXIT_USAGE
        if args.kind == "contraction":
            _, delta = contraction_reference(cfg["L"], cfg["beta"])
            base = rows[0]["log_norm"]
            out_rows = [
                {"j": r["j"], "log_norm": r["log_norm"],
                 "delta_ref": base + (r["j"] - rows[0]["j"]) * math.log(delta)}
                for r in rows
            ]
        else:
            slope = contraction_reference(cfg["L"], cfg["beta"])[0] * math.log(cfg["L"])
            base = math.log(rows[-1]["zeta_abs"])
            out_rows = [
                {"j": r["j"], "log_zeta": math.log(r["zeta_abs"]),
                 "slope_ref": base + r["j"] * slope}
                for r in rows
                if r["zeta_abs"] > 0
            ]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:  # not a trajectory
        why = exc.strerror if isinstance(exc, OSError) else "not a flow trajectory JSON"
        print(f"cannot read --trajectory {args.trajectory}: {why}", file=sys.stderr)
        return EXIT_USAGE
    path = _out_dir(args) / f"plot_{args.kind}.csv"
    write_csv(path, out_rows)
    print(f"wrote {path}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgrg",
        description="Polymer-expansion RG engine for the 2D sine-Gordon model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser._subparsers_action = sub  # config injection targets the subcommand

    p = sub.add_parser("covariance", help="kernel derivative tables")
    p.add_argument("--config")
    p.add_argument("--kind", default="slice",
                   choices=["slice", "full", "cutoff", "continuum"])
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--M", type=int, default=4)
    p.add_argument("--sigma", type=FINITE, default=0.0)
    p.add_argument("--x", type=FINITE, nargs=2, default=[0.0, 0.0])
    p.add_argument("--alpha-max", type=COUNT, default=2)
    p.add_argument("--grid", type=COUNT, default=0,
                   help="emit a radial table with this many points")
    p.add_argument("--out")
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("identities", help="algebraic identity suites")
    p.add_argument("--config")
    p.add_argument("--seed", type=COUNT, required=True)
    p.add_argument("--torus", default="3x3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_identities)

    for mode in ("ir", "uv"):
        # no prefix matching: a retired flag such as --h must not pass for --help
        p = sub.add_parser(f"flow-{mode}", help=f"{mode.upper()} RG flow", allow_abbrev=False)
        p.add_argument("--config")
        p.add_argument("--beta", type=FINITE, required=True)
        p.add_argument("--zeta", type=FINITE, required=True)
        p.add_argument("--L", type=int, required=True)
        if mode == "ir":
            p.add_argument("--M", type=int, required=True)
        else:
            p.add_argument("--N", type=int, required=True)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--out")
        p.set_defaults(func=lambda a, m=mode: cmd_flow(a, m))

    p = sub.add_parser("oracle", help="partition-function invariance checks")
    p.add_argument("--config")
    p.add_argument("--beta", type=FINITE, default=10.0)
    p.add_argument("--zeta", type=FINITE, default=0.05)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--samples", type=int, default=20000,
                   help="field samples; dZ/dzeta uses all of them, the invariance check at "
                        "most 2000 for Z(j) and 400 for Z(j+1) (flow.Z0_SAMPLE_CAP, "
                        "flow.Z1_SAMPLE_CAP)")
    p.add_argument("--n-g", type=COUNT, default=8)
    p.add_argument("--seed", type=COUNT, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("plotdata", help="plot-ready CSV from a trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        command = next((a for a in argv if not a.startswith("-")), None)
        target = parser._subparsers_action.choices.get(command, parser)
        at = argv.index(command) + 1 if command else 0
        args = parser.parse_args(_with_config_flags(target, argv, at))
    except (KeyError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to exit-code contract
        from .lattice import CapError

        if isinstance(exc, CapError):
            print(f"resource cap: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        if isinstance(exc, ValueError):
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
