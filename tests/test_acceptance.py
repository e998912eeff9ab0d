"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from sgrg.activities import (
    CloudActivity,
    activity_norm,
    charge_component,
    mayer_init_functional,
    polymer_exp,
    potentials,
    v_activity,
    vbd_norms,
    verify_resummation,
    verify_shift_law,
    whole_torus,
)
from sgrg.covariance import CovarianceKernel, verify_scale_decomposition
from sgrg.fields import (
    RegulatorParams,
    log_regulator,
    measure_sobolev_constant,
    random_band_limited,
    scale_field,
)
from sgrg.flow import (
    FlowConfig,
    run_flow,
    uv_zeta_schedule,
    z_derivative_check,
    z_invariance_check,
)
from sgrg.interpolation import (
    bonds_on,
    construct_gamma,
    factorial_bound_check,
    forest_interpolation_check_multilinear,
    forest_interpolation_check_smooth,
    sigma_matrix,
    tree_count,
    trees_on,
)
from sgrg.lattice import TorusSpec, polymer
from sgrg.rgmap import (
    convolve_terms,
    extract_functional,
    fluctuate_cloud,
    fluctuate_linear,
    scale_activity,
    scale_linear,
)
from sgrg.terms import CloudTerm, CovAccess, evaluate_terms, multiply


def report(line):
    print(f"\n{line}")


class TestAcceptance:
    def test_ac1_covariance_closed_form(self):
        worst = 0.0
        for L in (2, 4, 8):
            for sigma in (0.0, 0.05, 0.1):
                k = CovarianceKernel("continuum", sigma=sigma, L=L)
                closed = math.log(L) / (2.0 * math.pi * (1.0 + sigma))
                worst = max(worst, abs(k.at_zero() - closed))
        assert worst < 1e-6
        rows = []
        for L, M in [(2, 2), (2, 3), (2, 4), (4, 2)]:
            t = TorusSpec(L, M)
            corr = abs(
                CovarianceKernel("slice", sigma=0.0, torus=t).at_zero()
                - math.log(L) / (2.0 * math.pi)
            )
            rows.append((corr, math.exp(-(L ** (M - 1)) / 2.0)))
        c_measured = max(c / e for c, e in rows)
        assert all(c <= c_measured * e * (1 + 1e-12) for c, e in rows)
        assert c_measured < 10.0
        report(
            f"AC1 PASS closed-form C(0) within {worst:.2e} (tol 1e-6); "
            f"torus correction constant {c_measured:.3f}"
        )

    def test_ac2_scale_decomposition(self):
        worst = 0.0
        rng = np.random.default_rng(2)
        for L, M, j in [(2, 2, 1), (2, 3, 2)]:
            side = L**M
            xs = rng.uniform(-side / 2, side / 2, size=(20, 2))
            worst = max(worst, verify_scale_decomposition(L, M, j, xs, 0.0))
        assert worst < 1e-8
        report(f"AC2 PASS scale decomposition residual {worst:.2e} (tol 1e-8)")

    def test_ac3_forest_interpolation(self):
        rng = random.Random(3)
        worst_ml = 0.0
        for n in (2, 3, 4):
            bonds = bonds_on(n)
            for _ in range(3):
                coeffs = {}
                for r in range(len(bonds) + 1):
                    for A in itertools.combinations(bonds, r):
                        coeffs[A] = rng.uniform(-1, 1)
                worst_ml = max(worst_ml, forest_interpolation_check_multilinear(n, coeffs))
        assert worst_ml < 1e-12
        c = {b: rng.uniform(-0.3, 0.3) for b in bonds_on(3)}

        def f(mat):
            return math.exp(sum(cv * mat[b[0], b[1]] for b, cv in c.items()))

        def df_prod(G, mat):
            val = f(mat)
            for b in G:
                val *= c[b]
            return val

        smooth = forest_interpolation_check_smooth(3, f, df_prod)
        assert smooth < 1e-8
        total = sum(
            tree_count(ds) for ds in itertools.product(range(1, 4), repeat=4)
            if sum(ds) == 6
        )
        assert total == 16
        report(
            f"AC3 PASS forest identity: multilinear {worst_ml:.2e} (tol 1e-12), "
            f"smooth {smooth:.2e} (tol 1e-8), Cayley N=4 total {total}"
        )

    def test_ac4_rg_identities_pointwise(self):
        rng = np.random.default_rng(4)
        # Mayer / polymer exponential on the 3x3 torus
        t3 = TorusSpec(3, 1)
        zeta = 0.2
        K0 = mayer_init_functional(zeta, t3)
        lam3 = whole_torus(t3)
        worst_mayer = 0.0
        for _ in range(100):
            fld = random_band_limited(t3, 8, rng, amplitude=0.8, k_max=2)
            lhs = cmath.exp(zeta * sum(potentials(lam3.sorted_blocks(), fld)))
            rhs = polymer_exp(K0, lam3, fld)
            worst_mayer = max(worst_mayer, abs(lhs - rhs))
        assert worst_mayer < 1e-8

        # fluctuation identity on the 2x2-of-L-blocks torus, exact Gaussians
        t4 = TorusSpec(2, 2)
        kern = CovarianceKernel("slice", sigma=0.0, torus=t4)
        cov = CovAccess(kern, scale=2.0)
        K = CloudActivity(
            t4,
            {
                frozenset({(0, 0)}): [
                    CloudTerm(0.4, ((1, (0.0, 0.0)),)),
                    CloudTerm(0.4, ((-1, (0.0, 0.0)),)),
                ],
                frozenset({(2, 2)}): [
                    CloudTerm(0.3, ((1, (2.0, 2.25)),)),
                    CloudTerm(0.3, ((-1, (2.0, 2.25)),)),
                ],
                frozenset({(0, 2)}): [
                    CloudTerm(0.2, ((1, (0.0, 2.0)),), (((1, 0), (0.25, 2.0)),))
                ],
            },
        )
        FK = fluctuate_cloud(K, cov)
        support = K.support()
        worst_fluct = 0.0
        from sgrg.lattice import region_disjoint

        collections = []
        for r in range(1, len(support) + 1):
            for combo in itertools.combinations(support, r):
                if all(
                    region_disjoint(a, b, t4)
                    for a, b in itertools.combinations(combo, 2)
                ):
                    collections.append(combo)
        conv_cache = {}
        for combo in collections:
            terms = [CloudTerm(1.0)]
            for p in combo:
                terms = multiply(terms, K.terms(p))
            conv_cache[combo] = convolve_terms(terms, cov)
        for _ in range(100):
            fld = random_band_limited(t4, 8, rng, amplitude=0.7, k_max=2)
            lhs = 1.0 + sum(evaluate_terms(conv_cache[c], fld) for c in collections)
            rhs = polymer_exp(FK, whole_torus(t4), fld)
            worst_fluct = max(worst_fluct, abs(lhs - rhs))
        assert worst_fluct < 1e-8

        # extraction identity on the 3x3 torus
        K_e = CloudActivity(
            t3,
            {
                frozenset({(0, 0)}): [CloudTerm(0.45, ((1, (0.0, 0.0)),)), CloudTerm(0.1)],
                frozenset({(2, 2), (2, 1)}): [CloudTerm(0.3, ((-1, (2.0, 2.0)),))],
            },
        )
        F_e = CloudActivity(
            t3,
            {
                frozenset({(0, 0), (0, 1)}): [
                    CloudTerm(0.25),
                    CloudTerm(0.15, (), (((1, 0), (0.0, 1.0)), ((1, 0), (0.0, 1.0)))),
                ],
                frozenset({(2, 2)}): [
                    CloudTerm(0.2, (), (((0, 1), (2.0, 2.0)), ((0, 1), (2.0, 2.0))))
                ],
            },
        )
        E = extract_functional(K_e, F_e)
        worst_ex = 0.0
        for _ in range(100):
            fld = random_band_limited(t3, 8, rng, amplitude=0.7, k_max=2)
            lhs = polymer_exp(K_e, lam3, fld)
            f_sum = sum(F_e.value(y, fld) for y in F_e.support())
            rhs = cmath.exp(f_sum) * polymer_exp(E, lam3, fld)
            worst_ex = max(worst_ex, abs(lhs - rhs))
        assert worst_ex < 1e-9

        # scaling identity at L=2, M=1
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
        worst_sc = 0.0
        for _ in range(100):
            phi = random_band_limited(coarse, 8, rng, amplitude=0.7, k_max=2)
            phi_L = scale_field(phi)
            lhs = polymer_exp(K_s, whole_torus(t_s), phi_L)
            rhs = polymer_exp(SK, whole_torus(coarse), phi)
            worst_sc = max(worst_sc, abs(lhs - rhs))
        assert worst_sc < 1e-9
        report(
            "AC4 PASS pointwise identities (100 fields each): "
            f"mayer {worst_mayer:.2e} (1e-8), fluctuation {worst_fluct:.2e} (1e-8), "
            f"extraction {worst_ex:.2e} (1e-9), scaling {worst_sc:.2e} (1e-9)"
        )

    def test_ac5_linearized_flow_exactness(self):
        worst_mult = 0.0
        t = TorusSpec(2, 2)
        kern = CovarianceKernel("slice", sigma=0.0, torus=t)
        for beta in (4 * math.pi, 6 * math.pi):
            cov = CovAccess(kern, scale=beta)
            V = v_activity(t, n_q=1, trans_invariant=True)
            out = scale_linear(fluctuate_linear(V, cov), {})
            mult_expected = t.L**2 * math.exp(-beta * kern.at_zero() / 2.0)
            key = tuple([(0, 0)])
            got = {x.key(): x.coeff for x in out.shapes[key]}
            for x in V.shapes[key]:
                worst_mult = max(
                    worst_mult,
                    abs(got[x.key()] / x.coeff - mult_expected) / mult_expected,
                )
        assert worst_mult < 1e-10
        worst_slope = 0.0
        L = 2
        for beta in (4 * math.pi, 6 * math.pi):
            cfg = FlowConfig(mode="uv", beta=beta, zeta=1e-2, L=L, M=0, N=6, steps=6)
            zs = uv_zeta_schedule(cfg)
            for idx, j in enumerate(range(-6, 0)):
                tj = TorusSpec(L, abs(j))
                c0 = CovarianceKernel("slice", sigma=0.0, torus=tj).at_zero()
                corr = c0 - math.log(L) / (2.0 * math.pi)
                slope = (
                    math.log(abs(zs[idx + 1] / zs[idx])) + beta * corr / 2.0
                )
                worst_slope = max(
                    worst_slope,
                    abs(slope - (2.0 - beta / (4.0 * math.pi)) * math.log(L)),
                )
        assert worst_slope < 1e-6
        report(
            f"AC5 PASS linearized multiplier rel err {worst_mult:.2e} (tol 1e-10); "
            f"zeta-schedule slope err {worst_slope:.2e} (tol 1e-6)"
        )

    def test_ac6_ir_contraction(self):
        cfg = FlowConfig(mode="ir", beta=12 * math.pi, zeta=1e-3, L=8, M=7, N=0, steps=6)
        traj = run_flow(cfg)
        ratios = [s.ratio for s in traj.states[1:]]
        assert all(r <= 0.25 for r in ratios), f"ratios {ratios}"
        ref = cfg.L ** (2.0 - cfg.beta / (4.0 * math.pi))
        mults = [s.charged_multiplier for s in traj.states[1:]]
        for m in mults:
            assert ref / 3.0 <= m <= 3.0 * ref, f"charged multiplier {m} vs ref {ref}"
        report(
            "AC6 PASS IR contraction (beta=12pi, L=8, zeta=1e-3, 6 steps): "
            f"max ratio {max(ratios):.4f} (<= 0.25), charged multipliers "
            f"{min(mults):.4f}..{max(mults):.4f} vs L^(2-beta/4pi) = {ref:.4f}"
        )

    def test_ac7_uv_second_order(self):
        cfg = FlowConfig(mode="uv", beta=4 * math.pi, zeta=1e-2, L=2, M=0, N=8, steps=8)
        traj = run_flow(cfg)
        expo = 2.0 - 4.0 * cfg.eps
        c_tilde = 0.0
        c_de = 0.0
        for s in traj.states:
            target = expo * math.log(abs(s.zeta_j))
            c_tilde = max(c_tilde, math.exp(s.log_norm_tilde - target))
            if s.dE:
                c_de = max(c_de, abs(s.dE) / abs(s.zeta_j) ** expo)
        assert math.isfinite(c_tilde) and c_tilde < 1e3
        assert math.isfinite(c_de) and c_de < 1e2
        # second-order scaling measured where the fluctuation step is alive
        live = [s for s in traj.states if cfg.L ** abs(s.j) >= 8]
        xs = [math.log(abs(s.zeta_j)) for s in live]
        ys = [s.log_norm_tilde for s in live]
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope >= expo * 0.95
        report(
            "AC7 PASS UV second order (N=8, beta=4pi, L=2, zeta=1e-2): "
            f"||Ktilde|| <= c |zeta_j|^{expo} with measured c = {c_tilde:.2f}; "
            f"|dE_j| <= c' |zeta_j|^{expo} with c' = {c_de:.3f}; "
            f"live-window slope {slope:.2f} >= {expo}"
        )

    def test_ac8_partition_invariance(self):
        beta = 10.0
        inv = z_invariance_check(beta=beta, zeta=0.05, L=2, M=1,
                                 n_samples=40000, seed=11, n_g=8)
        rel_se0 = inv["z0"].stderr / abs(inv["z0"].value)
        assert rel_se0 <= 0.01
        assert inv["pull"] <= 3.0
        der = z_derivative_check(beta=beta, L=2, M=1, n_samples=20000, seed=3, n_g=8)
        d_err = abs(der["mc"] - der["expected"])
        assert d_err <= 3.0 * der["stderr"] or d_err <= 1e-6 * abs(der["expected"])
        der4 = z_derivative_check(beta=beta, L=4, M=1, n_samples=20000, seed=5, n_g=4)
        assert abs(der4["mc"] - der4["expected"]) <= 3.0 * der4["stderr"]
        note = " (fluctuation-free torus: deterministic margin)" if inv["se_floor_used"] else ""
        report(
            "AC8 PASS partition invariance (L=2, M=1, zeta=0.05): pull "
            f"{inv['pull']:.2e}, relative difference {inv['rel_diff']:.2e}{note}; "
            f"dZ/dzeta pulls: {d_err / max(der['stderr'], 1e-12):.2f} (L=2), "
            f"{abs(der4['mc'] - der4['expected']) / der4['stderr']:.2f} (L=4)"
        )

    def test_ac9_randomized_bound_suites(self):
        rng = random.Random(9)
        nrng = np.random.default_rng(9)
        # (a) factorial-distance bound
        gamma = construct_gamma(40.0)
        for _ in range(1000):
            n = rng.randrange(1, 13)
            blocks = set()
            while len(blocks) < n:
                b = (rng.randrange(-12, 13), rng.randrange(-12, 13))
                if b != (0, 0):
                    blocks.add(b)
            ok = factorial_bound_check((0, 0), sorted(blocks), gamma)
            assert ok
        # (b) charge-sector norms never exceed the full norm
        t = TorusSpec(2, 2)
        for _ in range(1000):
            terms = []
            for _ in range(rng.randrange(1, 5)):
                charges = tuple(
                    (rng.randrange(-2, 3), (rng.uniform(0, 1), rng.uniform(0, 1)))
                    for _ in range(rng.randrange(1, 3))
                )
                terms.append(CloudTerm(complex(rng.gauss(0, 1), rng.gauss(0, 1)), charges))
            K = CloudActivity(t, {frozenset({(0, 0)}): terms})
            total = activity_norm(K, 0)
            q = rng.randrange(-3, 4)
            part = activity_norm(charge_component(K, q), 0)
            assert part <= total + 1e-12
        # (c) shift law
        t2 = TorusSpec(2, 1)
        V = v_activity(t2, n_q=2, trans_invariant=False)
        for i in range(1000):
            fld = random_band_limited(t2, 8, nrng, amplitude=0.6, k_max=2)
            q = rng.choice([-2, -1, 1, 2])
            c = rng.uniform(-3, 3)
            assert verify_shift_law(V, q, polymer([(0, 0)]), fld, c) < 1e-10
        # (d) regulator multiplicativity and dissolve monotonicity
        t3 = TorusSpec(2, 2)
        c_s = measure_sobolev_constant()
        params_reg = RegulatorParams(kappa=0.01, c=min(0.9 / (4 * c_s), 1.0))
        X = polymer([(0, 0)])
        Y = polymer([(2, 2)])
        XY = polymer([(0, 0), (2, 2)])
        Z = polymer([(0, 0), (0, 1), (1, 0), (1, 1)])
        for i in range(1000):
            fld = random_band_limited(t3, 8, nrng, amplitude=0.8, k_max=2)
            lx = log_regulator(fld, X, params_reg, False)
            ly = log_regulator(fld, Y, params_reg, False)
            lxy = log_regulator(fld, XY, params_reg, False)
            assert abs(lx + ly - lxy) < 1e-9
            lz = log_regulator(fld, Z, params_reg, False)
            assert lx <= lz + 1e-12
        # (e) path-minimum coupling matrices are PSD on trees
        for n in (2, 3, 4, 5):
            trees = trees_on(n)
            for _ in range(1000 // len(trees) + 1):
                for T in trees:
                    s = {b: rng.random() for b in T}
                    w = np.linalg.eigvalsh(sigma_matrix(T, s, n))
                    assert w.min() >= -1e-10
        report(
            "AC9 PASS randomized suites (>= 1000 trials each, zero violations): "
            "factorial bound, charge-sector norm domination, shift law, "
            "regulator multiplicativity + dissolve, tree-coupling PSD"
        )

    def test_ac10_potential_norm_series(self):
        eps = 0.1
        lines = []
        for h in (1.0, 2.0):
            rep = vbd_norms(1e-12, h=h, eps=eps)
            assert rep["v_norm_series"] <= rep["v_norm_bound"] + 1e-9
            z1 = 0.5 * rep["threshold_first_order"]
            r1 = vbd_norms(z1, h=h, eps=eps)
            assert r1["exp_minus_one"] <= z1 ** (1.0 - eps)
            z2 = 0.5 * rep["threshold_second_order"]
            r2 = vbd_norms(z2, h=h, eps=eps)
            assert r2["exp_minus_linear"] <= z2 ** (2.0 - eps)
            lines.append(
                f"h={h}: ||V|| {rep['v_norm_series']:.4f} <= e^h {rep['v_norm_bound']:.4f}, "
                f"thresholds {rep['threshold_first_order']:.2e}/{rep['threshold_second_order']:.2e}"
            )
        report("AC10 PASS potential norm series; " + "; ".join(lines))
