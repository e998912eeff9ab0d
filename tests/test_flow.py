import math

import numpy as np
import pytest

from sgrg import flow
from sgrg.covariance import CovarianceKernel, trlog_T
from sgrg.flow import (
    FlowConfig,
    FlowTrajectory,
    contraction_report,
    run_flow,
    uv_multiplier,
    uv_zeta_schedule,
    z_derivative_check,
    z_invariance_check,
)
from sgrg.lattice import TorusSpec
from test_fields import dense_covariance
from test_rgmap import step_c_star


class TestZetaSchedule:
    def test_schedule_matches_stepwise_multiplier(self):
        # zeta_{j+1}/zeta_j = L^2 e^{-beta C^{|j|}(0)/2} via the scale split
        for beta in (4 * math.pi, 6 * math.pi):
            cfg = FlowConfig(mode="uv", beta=beta, zeta=1e-2, L=2, M=0, N=5, steps=5)
            zs = uv_zeta_schedule(cfg)
            for idx, j in enumerate(range(-5, 0)):
                ratio = zs[idx + 1] / zs[idx]
                assert abs(ratio - uv_multiplier(cfg, j)) < 1e-10

    def test_slope_after_periodization_correction(self):
        # log multiplier + beta corr / 2 = (2 - beta/4pi) log L to 1e-6
        L = 2
        for beta in (4 * math.pi, 6 * math.pi):
            cfg = FlowConfig(mode="uv", beta=beta, zeta=1e-2, L=L, M=0, N=6, steps=6)
            for j in range(-6, -1):
                t = TorusSpec(L, abs(j))
                c0 = CovarianceKernel("slice", sigma=0.0, torus=t).at_zero()
                corr = c0 - math.log(L) / (2.0 * math.pi)
                slope = math.log(uv_multiplier(cfg, j)) + beta * corr / 2.0
                assert slope == pytest.approx(
                    (2.0 - beta / (4.0 * math.pi)) * math.log(L), abs=1e-6
                )

    def test_beta_4pi_multiplier_two(self):
        cfg = FlowConfig(mode="uv", beta=4 * math.pi, zeta=1e-2, L=2, M=0, N=6, steps=6)
        # far from the small-torus regime the multiplier approaches 2
        assert uv_multiplier(cfg, -6) == pytest.approx(2.0, abs=1e-3)


class TestFlowDrivers:
    def test_zero_coupling_ir(self):
        cfg = FlowConfig(mode="ir", beta=12 * math.pi, zeta=0.0, L=2, M=3, N=0, steps=2)
        traj = run_flow(cfg)
        for s in traj.states:
            assert s.sigma == 0.0 and s.energy == 0.0 and s.dE == 0.0
            assert s.log_norm == -math.inf

    def test_small_ir_flow_runs(self):
        cfg = FlowConfig(mode="ir", beta=12 * math.pi, zeta=1e-3, L=2, M=3, N=0, steps=2)
        traj = run_flow(cfg)
        assert len(traj.states) == 3
        assert abs(traj.states[-1].sigma) < 0.01
        rows = contraction_report(traj)
        assert len(rows) == 2
        assert all(np.isfinite(r["ratio"]) for r in rows)
        # both extractions of every step report their isotropy measure
        assert len(traj.diagnostics) == 2
        for d in traj.diagnostics:
            assert len(d["anisotropy"]) == 2
            assert all(math.isfinite(a) and a >= 0.0 for a in d["anisotropy"])

    def test_small_uv_flow_runs_and_tracks_split(self):
        cfg = FlowConfig(mode="uv", beta=4 * math.pi, zeta=1e-2, L=2, M=0, N=3, steps=3)
        traj = run_flow(cfg)
        assert len(traj.states) == 4
        zs = uv_zeta_schedule(cfg)
        for s, z in zip(traj.states, zs):
            assert abs(s.zeta_j - z) < 1e-14
            # the tilde part stays below the full activity
            assert s.log_norm_tilde <= s.log_norm + 1e-9

    def test_uv_dE_second_order(self):
        cfg = FlowConfig(mode="uv", beta=4 * math.pi, zeta=1e-2, L=2, M=0, N=4, steps=4)
        traj = run_flow(cfg)
        for s in traj.states[1:]:
            if s.dE != 0.0:
                assert abs(s.dE) <= 10.0 * abs(s.zeta_j) ** 1.2

    def test_ir_requires_real_zeta(self):
        with pytest.raises(ValueError):
            FlowConfig(mode="ir", beta=12 * math.pi, zeta=1e-3 + 1e-3j, L=2, M=3, N=0, steps=1)

    def test_beta_preset_warnings(self):
        cfg = FlowConfig(mode="ir", beta=4 * math.pi, zeta=1e-3, L=2, M=2, N=0, steps=1)
        assert cfg.warnings
        cfg2 = FlowConfig(mode="uv", beta=12 * math.pi, zeta=1e-3, L=2, M=0, N=2, steps=1)
        assert cfg2.warnings

    def test_trajectory_persistence(self, tmp_path):
        cfg = FlowConfig(mode="uv", beta=4 * math.pi, zeta=1e-2, L=2, M=0, N=2, steps=2)
        traj = run_flow(cfg)
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.json"
        traj.write_csv(csv_path)
        traj.write_json(json_path)
        import csv as csvmod
        import json as jsonmod

        with open(csv_path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == 3
        payload = jsonmod.load(open(json_path))
        assert payload["config"]["mode"] == "uv"
        assert len(payload["rows"]) == 3


class TestEnergyBookkeeping:
    def test_trlog_against_dense_grid_determinant(self):
        # independent path: dense covariance matrix + spectral gradient
        # quadratic form on the discretized torus
        torus = TorusSpec(2, 2)
        sigma, dsigma, beta = 0.02, 3e-3, 7.0
        n_g = 4
        kern = CovarianceKernel("full", sigma=sigma, torus=torus)
        cov = dense_covariance(kern, torus, n_g, beta)
        n = torus.side * n_g
        # spectral derivative matrices via FFT on the grid
        eye = np.eye(n * n)
        arrays = eye.reshape(n * n, n, n)
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / torus.side
        kx = k.copy()
        if n % 2 == 0:
            kx[n // 2] = 0.0
        D = []
        for axis in range(2):
            mult = (1j * kx)[:, None] * np.ones(n)[None, :]
            if axis == 1:
                mult = mult.T
            cols = np.fft.ifft2(np.fft.fft2(arrays, axes=(1, 2)) * mult, axes=(1, 2))
            D.append(np.real(cols.reshape(n * n, n * n)).T)
        quad = (D[0].T @ D[0] + D[1].T @ D[1]) / n_g**2
        A = (dsigma / beta) * quad
        w = np.linalg.eigvalsh(0.5 * (cov @ A + (cov @ A).T))
        dense = float(np.sum(np.log1p(np.clip(w, -0.999, None))))
        mode_sum = trlog_T(torus, sigma, dsigma)
        assert dense == pytest.approx(mode_sum, abs=1e-8)


class TestOracle:
    def test_derivative_check_fluctuating_torus(self):
        out = z_derivative_check(beta=10.0, L=4, M=1, n_samples=4000, seed=5, n_g=4)
        se = max(out["stderr"], 1e-9 * abs(out["expected"]))
        assert abs(out["mc"] - out["expected"]) <= 4.0 * se

    def test_invariance_small_sample(self, monkeypatch):
        monkeypatch.setattr(flow, "ORACLE_ORDER", 5)
        out = z_invariance_check(beta=10.0, zeta=0.05, L=2, M=1,
                                 n_samples=500, seed=2, n_g=8)
        # loose gate here; the acceptance suite runs the full-precision version
        assert out["pull"] < 6.0
        assert out["rel_diff"] < 1e-4


    def test_closed_form_matches_subset_dps(self):
        from sgrg.fields import random_band_limited

        torus = TorusSpec(2, 1)
        k_sharp, F, _ = oracle_activities(10.0, 0.05, torus)
        rng = np.random.default_rng(16)
        worst = 0.0
        for amplitude in (0.0, 0.3, 1.0):
            for _ in range(5):
                psi = random_band_limited(torus, 8, rng, k_max=3, amplitude=amplitude)
                want = subset_dp_rep_j1_value(k_sharp, F, psi)
                got = flow._rep_j1_value(k_sharp, F, psi)
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-13

    @pytest.mark.parametrize("seed", [3, 7])
    def test_point_mass_z1_matches_sampled_loop(self, seed):
        beta, zeta, n_g, count = 10.0, 0.05, 8, 20
        torus = TorusSpec(2, 1)
        coarse = torus.coarse()
        k_sharp, F, coeffs = oracle_activities(beta, zeta, torus)
        want = sampled_z1_values(k_sharp, F, coarse, coeffs.dsigma, count, n_g, seed + 1, beta)
        got = flow._z1_values(k_sharp, F, coarse, coeffs.dsigma, count, n_g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the check's Z(j+1) is the estimate from those draws, bit for bit
        out = z_invariance_check(beta, zeta, L=2, M=1, n_samples=count, seed=seed, n_g=n_g)
        weight = math.exp(coeffs.dE * torus.volume - 0.5 * trlog_T(coarse, 0.0, coeffs.dsigma))
        assert repr(out["z1"].value) == repr(float(np.mean(want)) * weight)
        assert repr(out["z1"].stderr) == repr(
            float(np.std(want, ddof=1) / math.sqrt(count)) * weight)
        assert out["z1"].n_samples == count

    def test_coarse_measure_with_modes_raises(self, monkeypatch):
        # a coarse kernel with a mode is not a point mass; the check must not
        # fall back to sampling it
        plain = CovarianceKernel.modes

        def one_coarse_mode(self):
            if self.torus is not None and self.torus.side == 1:
                return np.array([2.0 * math.pi]), np.array([0.0]), np.array([1e-3])
            return plain(self)

        monkeypatch.setattr(CovarianceKernel, "modes", one_coarse_mode)
        with pytest.raises(ValueError, match="not a point mass"):
            z_invariance_check(beta=10.0, zeta=0.05, L=2, M=1, n_samples=4, seed=3, n_g=8)


def oracle_activities(beta, zeta, torus):
    """The side-2 oracle's K#, F and extraction coefficients, built as
    z_invariance_check builds them."""
    from sgrg.activities import mayer_init_cloud
    from sgrg.rgmap import extraction_coefficients, fluctuate_linear
    from sgrg.terms import CovAccess

    K0 = mayer_init_cloud(zeta, torus, flow.ORACLE_N_Q, flow.ORACLE_ORDER, torus.n_blocks)
    kern = CovarianceKernel("slice", sigma=0.0, torus=torus)
    k_sharp = fluctuate_linear(K0, CovAccess(kern, scale=beta))
    coeffs = extraction_coefficients(k_sharp, "ir", beta)
    return k_sharp, coeffs.F, coeffs


def sampled_z1_values(k_sharp, F, coarse, dsigma, count, n_g, seed, beta):
    """Z(j+1)'s integrand as the oracle sampled it before the point mass:
    one evaluation per field drawn from the coarse ensemble."""
    from sgrg.fields import gaussian_ensemble, scale_field

    kern_c = CovarianceKernel("full", sigma=dsigma, torus=coarse)
    ens_c = gaussian_ensemble(kern_c, coarse, n_g, seed=seed, scale=beta)
    return np.array([flow._rep_j1_value(k_sharp, F, scale_field(f))
                     for f in ens_c.sample(count)])


def subset_dp_rep_j1_value(k_sharp, F, psi) -> float:
    """The step-(j+1) integrand as the oracle assembled it before the closed
    form: Ktilde = K# - (e^F - 1)^+ and the Y-subset sums, both as subset DPs
    over the F polymers (on a side-2 torus every polymer pair touches)."""
    supp = k_sharp.support()
    f_supp = F.support()
    ksh = {p.blocks: v for p, v in zip(supp, k_sharp.values(supp, psi))}
    f_val = {p.blocks: v for p, v in zip(f_supp, F.values(f_supp, psi))}
    # (e^F - 1)^+ via subset DP over F polymers
    plus: dict = {frozenset(): 1.0}
    for p in f_supp:
        fy = np.exp(f_val[p.blocks]) - 1.0
        for B, c in list(plus.items()):
            key = B | p.blocks
            plus[key] = plus.get(key, 0.0) + c * fy
    ktilde = {}
    for p in supp:
        ktilde[p.blocks] = ksh[p.blocks] - plus.get(p.blocks, 0.0)
    for B, c in plus.items():
        if B and B not in ktilde:
            ktilde[B] = -c
    gys = [(p.blocks, np.exp(-f_val[p.blocks]) - 1.0) for p in f_supp]
    total = 1.0
    for xb, kt in ktilde.items():
        if kt == 0.0:
            continue
        # Y-subset DP: collections of distinct F polymers joined to X
        reach: dict = {xb: 1.0}
        for blocks, gy in gys:
            for B, c in list(reach.items()):
                key = B | blocks
                reach[key] = reach.get(key, 0.0) + c * gy
        for B, c in reach.items():
            total += (kt * c).real
    return total.real if isinstance(total, complex) else float(total)


class TestUVSplitConsistency:
    def test_unit_charge_block_amplitude_tracks_zeta(self):
        from sgrg.activities import charge_component

        # the flow's first step, built as run_flow builds it
        from sgrg.activities import mayer_init_truncated
        from sgrg.flow import _flow_step, _step_params

        cfg = FlowConfig(mode="uv", beta=4 * math.pi, zeta=1e-2, L=2, M=0, N=3, steps=1)
        zetas = uv_zeta_schedule(cfg)
        t0 = TorusSpec(2, 3)
        K = mayer_init_truncated(zetas[0], t0)
        params = _step_params(cfg, t0, 0.0, step_c_star(cfg.beta, t0))
        K1, _, _, _ = _flow_step(K, params)
        key = tuple([(0, 0)])
        k1 = charge_component(K1, 1)
        amp = sum(
            x.coeff for x in k1.shapes.get(key, []) if len(x.charges) == 1
        )
        # the V-track carries zeta_{j+1}/2; the remainder is second order
        assert abs(amp - zetas[1] / 2.0) <= 30.0 * abs(zetas[0]) ** 2
