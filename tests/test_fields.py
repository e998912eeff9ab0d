import math

import numpy as np
import pytest

from sgrg import fields
from sgrg.covariance import CovarianceKernel, _deriv_alphas
from sgrg.fields import (
    FieldGrid,
    RegulatorParams,
    gaussian_ensemble,
    log_regulator,
    measure_sobolev_constant,
    multi_indices,
    polymer_node_indices,
    random_band_limited,
    scale_field,
)
from sgrg.lattice import Polymer, TorusSpec, polymer
from sgrg.terms import CloudTerm, CovAccess
from test_rgmap import reference_convolve_term


def make_wave(torus, n_g, mx=1, my=0, amp=1.0, phase=0.3):
    n = torus.side * n_g
    xs = np.arange(n) / n_g
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    w = 2.0 * math.pi / torus.side
    return FieldGrid(torus, n_g, amp * np.sin(w * (mx * X + my * Y) + phase))


def node_points(torus, n_g):
    """The grid nodes j/n_g as rows, in the order of ``FieldGrid.values.ravel()``."""
    n = torus.side * n_g
    xs = np.arange(n) / n_g
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def dense_covariance(kernel, torus, n_g, scale):
    """scale * C(x_i - x_j) over the grid nodes, from the kernel's point
    evaluator: the dense matrix the mode-basis sampler replaces."""
    pts = node_points(torus, n_g)
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)
    vals = kernel.eval_many(diffs, [(0, 0)])[:, 0].reshape(len(pts), len(pts))
    return scale * 0.5 * (vals + vals.T)


def grid_derivative(phi, alpha):
    """d^alpha phi at the nodes, real(ifft2(fft2(v) * multiplier)): the
    spectral derivative grid, with an odd order dropping the Nyquist mode."""
    n = phi.n
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / phi.torus.side
    factors = []
    for a in alpha:
        f = (1j * k) ** a
        if a % 2:
            f[n // 2] = 0.0
        factors.append(f)
    mult = factors[0][:, None] * factors[1][None, :]
    return np.real(np.fft.ifft2(np.fft.fft2(phi.values) * mult))


ALPHAS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]


class TestDerivatives:
    def test_constant_field(self):
        t = TorusSpec(2, 1)
        phi = FieldGrid(t, 8, np.full((16, 16), 2.5))
        assert np.allclose(phi.deriv((1, 0)).values, 0.0)

    def test_fd_accuracy_second_order(self):
        t = TorusSpec(2, 2)
        errs = []
        for n_g in (8, 16):
            phi = make_wave(t, n_g)
            d = phi.deriv((1, 0))
            w = 2.0 * math.pi / t.side
            n = t.side * n_g
            xs = np.arange(n) / n_g
            X, Y = np.meshgrid(xs, xs, indexing="ij")
            exact = w * np.cos(w * X + 0.3)
            errs.append(float(np.max(np.abs(d.values - exact))))
        # rate ~ n_g^{-2}
        assert errs[1] < errs[0] / 3.0

    def test_spectral_derivative_exact_on_band_limited(self):
        t = TorusSpec(2, 2)
        phi = make_wave(t, 8, mx=2, my=1)
        n = t.side * 8
        d = phi.deriv_at((2, 1), node_points(t, 8), phi.spectrum()).reshape(n, n)
        w = 2.0 * math.pi / t.side
        xs = np.arange(n) / 8
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        # d^2/dx^2 d/dy of sin(w(2x+y)+c) = -(2w)^2 w cos(w(2x+y)+c)... chain:
        exact = -(2 * w) ** 2 * w * np.cos(w * (2 * X + Y) + 0.3)
        assert np.max(np.abs(d - exact)) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_point_derivative_matches_grid_at_nodes(self, alpha):
        t = TorusSpec(2, 2)
        rng = np.random.default_rng(8)
        smooth = random_band_limited(t, 8, rng, k_max=3)
        # Nyquist components along both axes, and along x alone
        i = np.arange(t.side * 8)
        nyq = smooth + FieldGrid(t, 8, 0.4 * np.outer((-1.0) ** i, (-1.0) ** i)
                                 + 0.3 * np.outer((-1.0) ** i, np.cos(math.pi * i / 16)))
        for phi in (smooth, nyq):
            ref = grid_derivative(phi, alpha)
            got = phi.deriv_at(alpha, node_points(t, 8), phi.spectrum()).reshape(ref.shape)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_point_derivative_exact_off_nodes(self, alpha):
        t = TorusSpec(2, 2)
        mx, my, c = 2, -1, 0.3
        phi = make_wave(t, 8, mx=mx, my=my, phase=c)
        pts = np.array([[0.13, 0.27], [1.3, 2.71], [0.01, 3.99], [2.5, 0.0625]])
        w = 2.0 * math.pi / t.side
        # d^alpha sin(theta) = (w mx)^ax (w my)^ay sin(theta + |alpha| pi / 2)
        theta = w * (mx * pts[:, 0] + my * pts[:, 1]) + c
        exact = ((w * mx) ** alpha[0] * (w * my) ** alpha[1]
                 * np.sin(theta + sum(alpha) * math.pi / 2))
        got = phi.deriv_at(alpha, pts, phi.spectrum())
        assert np.max(np.abs(got - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))

    def test_interpolation_matches_nodes_and_off_nodes(self):
        t = TorusSpec(2, 2)
        rng = np.random.default_rng(5)
        phi = random_band_limited(t, 8, rng, k_max=3)
        pts = np.array([[0.125, 0.25], [1.3, 2.7], [0.01, 3.99]])
        w = 2.0 * math.pi / t.side
        # evaluate against a dense reference reconstruction at nodes
        node = phi.at([(0.5, 0.25)])
        assert node[0] == pytest.approx(phi.values[4, 2], abs=1e-10)
        vals = phi.at(pts)
        assert np.all(np.isfinite(vals))

    def test_sobolev_inequality_measured(self, monkeypatch):
        monkeypatch.setattr(fields, "SOBOLEV_N_FIELDS", 50)
        c_s = measure_sobolev_constant()
        assert 0 < c_s < 100.0
        t = TorusSpec(2, 1)
        rng = np.random.default_rng(7)
        block = polymer([(0, 0)])
        for _ in range(20):
            phi = random_band_limited(t, 8, rng, k_max=3)
            gx, gy = polymer_node_indices(block, t, 8)
            num = max(
                float(np.max(phi.deriv(a).values[gx, gy] ** 2)) for a in ((1, 0), (0, 1))
            )
            denom = sum(
                float(np.sum(phi.deriv(a).values[gx, gy] ** 2)) / 64.0
                for a in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
            )
            assert num <= c_s * denom * (1.0 + 1e-9)


class TestScaling:
    def test_constant_fixed_point(self):
        t = TorusSpec(2, 1)
        phi = FieldGrid(t, 8, np.full((16, 16), 1.7))
        big = scale_field(phi)
        assert np.allclose(big.values, 1.7, atol=1e-9)

    def test_scaled_wave(self):
        t = TorusSpec(2, 1)
        phi = make_wave(t, 8)
        big = scale_field(phi)
        n = big.torus.side * 8
        xs = np.arange(n) / 8
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        w = 2.0 * math.pi / t.side
        exact = np.sin(w * (X / 2.0) + 0.3)
        assert np.max(np.abs(big.values - exact)) < 1e-9


class TestRegulator:
    def test_zero_field(self):
        t = TorusSpec(2, 1)
        phi = FieldGrid(t, 8, np.zeros((16, 16)))
        params = RegulatorParams(kappa=0.01, c=0.05)
        assert log_regulator(phi, polymer([(0, 0)]), params, False) == 0.0

    def test_multiplicative_on_separated_blocks(self):
        t = TorusSpec(2, 2)
        rng = np.random.default_rng(11)
        params = RegulatorParams(kappa=0.01, c=0.05)
        X = polymer([(0, 0)])
        Y = polymer([(2, 2)])
        XY = polymer([(0, 0), (2, 2)])
        for _ in range(25):
            phi = random_band_limited(t, 8, rng, k_max=3)
            lg = log_regulator(phi, X, params, False) + log_regulator(phi, Y, params, False)
            assert lg == pytest.approx(log_regulator(phi, XY, params, False), abs=1e-10)

    def test_scaled_weights(self, monkeypatch):
        # ell = 2: |a|=1 bulk weight 1, |a|=2 weight 4, boundary weight 2
        t = TorusSpec(2, 1)
        rng = np.random.default_rng(3)
        phi = random_band_limited(t, 8, rng, k_max=3)
        X = polymer([(0, 0)])
        monkeypatch.setattr(fields, "REGULATOR_S", 2)
        params = RegulatorParams(kappa=0.01, c=0.05)
        lg_scaled = log_regulator(phi, X, params, scaled=True)
        # reassemble from pieces with explicit weights
        from sgrg.fields import multi_indices, polymer_node_indices, boundary_faces, face_node_indices

        gx, gy = polymer_node_indices(X, t, 8)
        bulk = 0.0
        for a in multi_indices():
            da = phi.deriv(a).values[gx, gy]
            w = 2.0 ** (2 * sum(a) - 2)
            bulk += w * float(np.sum(da * da)) / 64.0
        bdry = 0.0
        grads = [phi.deriv(a).values for a in ((1, 0), (0, 1))]
        for face in boundary_faces(X, t):
            fx, fy = face_node_indices(face, t, 8)
            for g in grads:
                v = g[fx, fy]
                bdry += float(np.sum(v * v)) / 8.0
        expect = 0.01 * bulk + 0.01 * 0.05 * 2.0 * bdry
        assert lg_scaled == pytest.approx(expect, abs=1e-12)

    def test_dissolve_monotone(self, monkeypatch):
        # G(kappa, X) <= G(kappa, Z) for X subset Z when c < (2 d c_s)^{-1}
        t = TorusSpec(2, 2)
        monkeypatch.setattr(fields, "SOBOLEV_N_FIELDS", 50)
        c_s = measure_sobolev_constant()
        c = 0.9 / (4.0 * c_s)
        params = RegulatorParams(kappa=0.01, c=min(c, 1.0))
        rng = np.random.default_rng(13)
        X = polymer([(1, 1)])
        Z = polymer([(1, 1), (1, 2), (2, 1), (2, 2)])
        bad = 0
        for _ in range(200):
            phi = random_band_limited(t, 8, rng, k_max=3)
            if log_regulator(phi, X, params, False) > log_regulator(phi, Z, params, False) + 1e-12:
                bad += 1
        assert bad == 0


def _bulk_only(phi, X, params):
    from sgrg.fields import multi_indices, polymer_node_indices

    gx, gy = polymer_node_indices(X, phi.torus, phi.n_g)
    bulk = 0.0
    for a in multi_indices():
        da = phi.deriv(a).values[gx, gy]
        bulk += float(np.sum(da * da)) / phi.n_g**2
    return params.kappa * bulk


def cloud_expectation(charges, kernel, scale=1.0):
    """E[e^{i sum_a q_a phi(x_a)}]: the Gaussian convolution of the pure cloud."""
    (term,) = reference_convolve_term(CloudTerm(1.0, tuple(charges)), CovAccess(kernel, scale))
    return term.coeff


class TestGaussian:
    def test_single_charge_expectation(self):
        t = TorusSpec(2, 2)
        k = CovarianceKernel("slice", sigma=0.0, torus=t)
        val = cloud_expectation([(1, (0.3, 0.7))], k, scale=2.0)
        assert val == pytest.approx(math.exp(-k.at_zero()), rel=1e-12)

    def test_two_charge_second_moment(self):
        t = TorusSpec(2, 2)
        k = CovarianceKernel("slice", sigma=0.0, torus=t)
        x, y = (0.0, 0.0), (1.0, 0.5)
        # E[phi(x) phi(y)] from the quadratic term of the characteristic
        # function, whose log is exactly quadratic in the (unit) charges
        vals = {}
        for qa in (-1, 1):
            for qb in (-1, 1):
                vals[(qa, qb)] = math.log(cloud_expectation([(qa, x), (qb, y)], k))
        mixed = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / 4
        assert mixed == pytest.approx(-k.eval((-1.0, -0.5)), rel=1e-6)

    def test_sample_covariance_matches(self):
        t = TorusSpec(2, 2)
        k = CovarianceKernel("slice", sigma=0.0, torus=t)
        ens = gaussian_ensemble(k, t, 4, seed=99, scale=1.0)
        draws = ens.sample_values(30000)
        emp = draws.T @ draws / draws.shape[0]
        cov = dense_covariance(k, t, 4, 1.0)
        assert float(np.max(np.abs(cov))) > 1e-4  # non-degenerate covariance
        se = np.sqrt(
            (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / draws.shape[0]
        )
        assert np.all(np.abs(emp - cov) <= 5.0 * se + 1e-12)

    @pytest.mark.parametrize("kind, sigma, scale, torus", [
        ("slice", 0.0, 1.0, TorusSpec(2, 2)),
        ("full", 0.05, 7.0, TorusSpec(2, 2)),
        ("slice", -0.03, 2.5, TorusSpec(4, 1)),
    ])
    def test_mode_basis_reproduces_dense_covariance(self, kind, sigma, scale, torus):
        k = CovarianceKernel(kind, sigma=sigma, torus=torus)
        ens = gaussian_ensemble(k, torus, 4, seed=0, scale=scale)
        dense = dense_covariance(k, torus, 4, scale)
        assert ens.basis.shape == (2 * len(k.modes()[2]), dense.shape[0])
        assert float(np.max(np.abs(dense))) > 1e-4
        err = np.max(np.abs(ens.basis.T @ ens.basis - dense))
        assert err <= 1e-14 * np.max(np.abs(dense))

    def test_side_one_torus_gives_zero_fields(self):
        t = TorusSpec(2, 0)
        k = CovarianceKernel("full", sigma=0.0, torus=t)
        ens = gaussian_ensemble(k, t, 8, seed=4, scale=10.0)
        assert ens.basis.shape == (0, 64)
        assert not np.any(dense_covariance(k, t, 8, 10.0))
        (phi,) = ens.sample(1)
        assert phi.values.shape == (8, 8) and not np.any(phi.values)

    def test_mode_basis_needs_a_torus_kernel(self):
        k = CovarianceKernel("continuum", sigma=0.0, L=2)
        with pytest.raises(ValueError, match="torus mode table"):
            gaussian_ensemble(k, TorusSpec(2, 2), 4, seed=0, scale=1.0)

    def test_mode_basis_refuses_negative_weights(self):
        class NegativeMode:
            method = "fourier"

            def modes(self):
                return np.array([math.pi / 2]), np.array([0.0]), np.array([-1e-3])

        with pytest.raises(ValueError, match="non-negative"):
            gaussian_ensemble(NegativeMode(), TorusSpec(2, 2), 4, seed=0, scale=1.0)

    def test_convolution_stability_spot_check(self):
        # sample mean of G(kappa, X, phi + zeta) <= 2^{|X|} G_ell(kappa, X, phi)
        t = TorusSpec(2, 3)
        kern = CovarianceKernel("slice", sigma=0.0, torus=t)
        params = RegulatorParams(kappa=1e-3, c=0.5)
        assert params.kappa / params.c * t.L**2 < 0.01  # configured smallness
        X = polymer([(1, 1), (1, 2)])
        rng = np.random.default_rng(21)
        phi = random_band_limited(t, 4, rng, amplitude=0.3, k_max=2)
        ens = gaussian_ensemble(kern, t, 4, seed=5, scale=1.0)
        zs = ens.sample(400)
        vals = [math.exp(log_regulator(phi + z, X, params, False)) for z in zs]
        mean = float(np.mean(vals))
        bound = 2.0**X.size * math.exp(log_regulator(phi, X, params, scaled=True))
        se = float(np.std(vals) / math.sqrt(len(vals)))
        assert mean <= bound + 3.0 * se


def sup_norm(phi, p, r):
    """max over |a| <= r of |d^a phi| at the grid nodes of the polymer."""
    gx, gy = polymer_node_indices(p, phi.torus, phi.n_g)
    return max(float(np.max(np.abs(phi.deriv(a).values[gx, gy])))
               for a in _deriv_alphas(r))


class TestVanishingPointScaling:
    def test_scaled_sup_norm_gain(self):
        # f_L vanishing at a point of a small set Y gains ~ L^{-1} in sup norm
        t = TorusSpec(2, 1)
        rng = np.random.default_rng(17)
        L = 2
        gains = []
        for _ in range(10):
            f = random_band_limited(t, 8, rng, k_max=3)
            fL = scale_field(f)
            fL = fL + (-fL.at([(1.0, 1.0)])[0])  # vanish at a point of Y
            Y = polymer([(1, 1)])
            X = polymer([(0, 0), (0, 1), (1, 0), (1, 1)])
            supY = sup_norm(fL, Y, r=0)
            supX = sup_norm(f, X, r=1)
            gains.append(supY / supX)
        measured = max(gains)
        assert measured < 3.0 / L
