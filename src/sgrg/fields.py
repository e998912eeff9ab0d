"""Discretized fields on the torus: derivatives, regulators, sampling.

A FieldGrid stores real values at nodes x = j/n_g (n_g even nodes per unit
length).  Off-node evaluation uses trigonometric interpolation, which is
exact for band-limited fields.  Point derivatives (``deriv_at``, used by the
activity algebra where pointwise identities must hold to machine precision)
differentiate that interpolant through the spectral multiplier; derivative
grids (``deriv``, used by the regulator) come from 2nd-order central
differences.  Gaussian fields are sums of the covariance kernel's Fourier
modes with independent normal amplitudes.

The large field regulator is

    G(kappa, X, phi) = exp( kappa sum_{1<=|a|<=s} w_a int_X |d^a phi|^2
                          + kappa c w_b sum_{|a|=1} int_{dX} |d phi|^2 )

with w_a = ELL^{2|a|-2}, w_b = ELL for the ELL-scaled variant and 1
otherwise.  Block k covers [k-1/2, k+1/2); boundary faces are the unit
segments between blocks in X and blocks outside it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceKernel
from .lattice import Polymer, TorusSpec

ELL = 2.0  # the scale of the ELL-scaled regulator
REGULATOR_S = 4  # highest derivative order s of the regulator; s > d/2 + r with r = 2
SOBOLEV_N_G = 8  # grid nodes per block side of the Sobolev measurement
SOBOLEV_N_FIELDS = 60  # random fields of the Sobolev measurement
SOBOLEV_SEED = 1234
SOBOLEV_SLACK = 1.1  # inflation of the measured Sobolev constant


def multi_indices():
    """The regulator's 2-D multi-indices a, 1 <= |a| <= REGULATOR_S, by order."""
    out = []
    for total in range(1, REGULATOR_S + 1):
        for a in itertools.product(range(total + 1), repeat=2):
            if sum(a) == total:
                out.append(a)
    return out


@dataclass
class FieldGrid:
    """Real field sampled at nodes j/n_g on the torus."""

    torus: TorusSpec
    n_g: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_g < 4 or self.n_g % 2:
            raise ValueError("n_g must be an even integer >= 4")
        n = self.torus.side * self.n_g
        if self.values.shape != (n, n):
            raise ValueError(f"values must have shape {(n, n)}")

    # -- basics ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.torus.side * self.n_g

    def __add__(self, other):
        if isinstance(other, FieldGrid):
            return FieldGrid(self.torus, self.n_g, self.values + other.values)
        return FieldGrid(self.torus, self.n_g, self.values + float(other))

    def __neg__(self):
        return FieldGrid(self.torus, self.n_g, -self.values)

    def spectrum(self) -> np.ndarray:
        """The discrete Fourier transform of the node values (``fft2``)."""
        return np.fft.fft2(self.values)

    def _freqs(self):
        # physical wavenumbers 2 pi m / side for signed mode m
        n = self.n
        m = np.fft.fftfreq(n, d=1.0 / n)
        return 2.0 * math.pi * m / self.torus.side

    def at(self, points) -> np.ndarray:
        """Field values at arbitrary points.

        Node-aligned points are exact array lookups; everything else uses
        trigonometric interpolation (exact for band-limited fields).
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        n = self.n
        scaled = pts * self.n_g
        idx = np.rint(scaled)
        aligned = np.max(np.abs(scaled - idx), axis=1) < 1e-9
        if np.all(aligned):
            ii = idx.astype(int) % n
            return self.values[ii[:, 0], ii[:, 1]].astype(float)
        out = np.empty(pts.shape[0])
        if np.any(aligned):
            ii = idx[aligned].astype(int) % n
            out[aligned] = self.values[ii[:, 0], ii[:, 1]]
        out[~aligned] = self._interpolate(pts[~aligned], (0, 0), self.spectrum())
        return out

    def _interpolate(self, pts, alpha, spectrum) -> np.ndarray:
        """d^alpha of the trigonometric interpolant at ``pts``."""
        n = self.n
        hat = spectrum / (n * n)
        k = self._freqs()
        if any(alpha):
            hat = hat * _spectral_multiplier(n, k, alpha)
        # Nyquist mode of an even grid must act as a cosine
        nyq = n // 2
        phase_x = np.exp(1j * np.outer(pts[:, 0], k))
        phase_y = np.exp(1j * np.outer(pts[:, 1], k))
        if n % 2 == 0:
            phase_x[:, nyq] = np.cos(pts[:, 0] * k[nyq])
            phase_y[:, nyq] = np.cos(pts[:, 1] * k[nyq])
        vals = np.einsum("pk,kl,pl->p", phase_x, hat, phase_y)
        return np.real(vals)

    def deriv_at(self, alpha, points, spectrum) -> np.ndarray:
        """Spectral derivative d^alpha at arbitrary points, exact on band-limited
        fields; an odd order drops the Nyquist mode along its axis.

        ``spectrum`` is this field's ``spectrum()``, taken once by the caller
        so that the derivatives of one evaluation share one transform."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return self._interpolate(pts, tuple(int(c) for c in alpha), spectrum)

    def deriv(self, alpha) -> "FieldGrid":
        """d^alpha field as a new grid, from 2nd-order central stencils."""
        vals = self.values
        for axis, order in enumerate(alpha):
            vals = _fd_axis(vals, int(order), self.n_g, axis)
        return FieldGrid(self.torus, self.n_g, vals)


def _spectral_multiplier(n, k, alpha):
    kx = k.copy()
    ky = k.copy()
    if n % 2 == 0:
        if alpha[0] % 2:
            kx[n // 2] = 0.0
        if alpha[1] % 2:
            ky[n // 2] = 0.0
    return ((1j * kx) ** alpha[0])[:, None] * ((1j * ky) ** alpha[1])[None, :]


def _fd_axis(vals, order, n_g, axis):
    """Compose 2nd-order central stencils to the requested derivative order."""
    for _ in range(order // 2):
        vals = (np.roll(vals, -1, axis) - 2.0 * vals + np.roll(vals, 1, axis)) * n_g**2
    if order % 2:
        vals = (np.roll(vals, -1, axis) - np.roll(vals, 1, axis)) * (n_g / 2.0)
    return vals


def random_band_limited(
    torus: TorusSpec, n_g: int, rng, k_max: int, amplitude: float = 1.0
) -> FieldGrid:
    """Random sum of Fourier modes with |mode| <= k_max (exact under interpolation)."""
    n = torus.side * n_g
    vals = np.zeros((n, n))
    xs = np.arange(n) / n_g
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for mx in range(-k_max, k_max + 1):
        for my in range(-k_max, k_max + 1):
            if mx == 0 and my == 0:
                continue
            amp = amplitude * rng.normal() / (1 + mx * mx + my * my)
            phase = rng.uniform(0, 2 * math.pi)
            w = 2.0 * math.pi / torus.side
            vals += amp * np.cos(w * (mx * X + my * Y) + phase)
    vals += amplitude * rng.normal()
    return FieldGrid(torus, n_g, vals)


# -- block geometry on the grid ------------------------------------------------


def block_node_index(k: int, n_g: int):
    """Grid indices along one axis for block k (covers [k-1/2, k+1/2))."""
    return np.arange(n_g * k - n_g // 2, n_g * k + n_g // 2)


def polymer_node_indices(p: Polymer, torus: TorusSpec, n_g: int):
    n = torus.side * n_g
    idx = []
    for b in p.blocks:
        ix = block_node_index(b[0], n_g) % n
        iy = block_node_index(b[1], n_g) % n
        gx, gy = np.meshgrid(ix, iy, indexing="ij")
        idx.append((gx.ravel(), gy.ravel()))
    gx = np.concatenate([i[0] for i in idx])
    gy = np.concatenate([i[1] for i in idx])
    return gx, gy


def boundary_faces(p: Polymer, torus: TorusSpec):
    """(block, axis, direction) triples for faces between p and its complement."""
    out = []
    for b in p.blocks:
        for axis in range(2):
            for dire in (-1, 1):
                nb = list(b)
                nb[axis] += dire
                if torus.wrap(nb) not in p.blocks:
                    out.append((b, axis, dire))
    return out


def face_node_indices(face, torus: TorusSpec, n_g: int):
    """Grid indices along a boundary face (the face hits grid lines: n_g even)."""
    (b, axis, dire) = face
    n = torus.side * n_g
    fixed = (n_g * b[axis] + dire * (n_g // 2)) % n
    other = block_node_index(b[1 - axis], n_g) % n
    if axis == 0:
        return np.full_like(other, fixed), other
    return other, np.full_like(other, fixed)


# -- norms and regulators -------------------------------------------------------


@dataclass(frozen=True)
class RegulatorParams:
    """Large field regulator constants (the order s is ``REGULATOR_S``)."""

    kappa: float
    c: float

    def __post_init__(self):
        if self.kappa > 1.0 or self.c > 1.0:
            raise ValueError("kappa and c must be <= 1")


def log_regulator(phi: FieldGrid, p: Polymer, params: RegulatorParams, scaled: bool) -> float:
    """log G(kappa, X, phi); ``scaled=True`` gives the ELL-scaled variant."""
    gx, gy = polymer_node_indices(p, phi.torus, phi.n_g)
    bulk = 0.0
    for a in multi_indices():
        da = phi.deriv(a).values[gx, gy]
        w = ELL ** (2 * sum(a) - 2) if scaled else 1.0
        bulk += w * float(np.sum(da * da)) / phi.n_g**2
    bdry = 0.0
    grads = [phi.deriv(a).values for a in ((1, 0), (0, 1))]
    for face in boundary_faces(p, phi.torus):
        fx, fy = face_node_indices(face, phi.torus, phi.n_g)
        for g in grads:
            v = g[fx, fy]
            bdry += float(np.sum(v * v)) / phi.n_g
    w_b = ELL if scaled else 1.0
    return params.kappa * bulk + params.kappa * params.c * w_b * bdry


def measure_sobolev_constant() -> float:
    """Discrete Sobolev constant: max |d phi(x)|^2 / sum_{1<=|a|<=s} int_D |d^a phi|^2
    with s = REGULATOR_S.

    Measured over SOBOLEV_N_FIELDS random band-limited fields on a single
    block of SOBOLEV_N_G nodes per side, inflated by SOBOLEV_SLACK; feeds
    c = (8 L c_s)^{-1}.
    """
    torus = TorusSpec(2, 1)
    n_g = SOBOLEV_N_G
    rng = np.random.default_rng(SOBOLEV_SEED)
    block = Polymer(frozenset({(0, 0)}))
    worst = 0.0
    for _ in range(SOBOLEV_N_FIELDS):
        phi = random_band_limited(torus, n_g, rng, k_max=n_g // 2 - 1)
        gx, gy = polymer_node_indices(block, torus, n_g)
        denom = 0.0
        for a in multi_indices():
            da = phi.deriv(a).values[gx, gy]
            denom += float(np.sum(da * da)) / n_g**2
        num = 0.0
        for a in ((1, 0), (0, 1)):
            da = phi.deriv(a).values[gx, gy]
            num = max(num, float(np.max(da * da)))
        if denom > 1e-12:
            worst = max(worst, num / denom)
    return worst * SOBOLEV_SLACK


# -- field scaling ---------------------------------------------------------------


def scale_field(phi: FieldGrid) -> FieldGrid:
    """phi_L(x) = L^{-(d-2)/2} phi(x/L) = phi(x/L) in d = 2, on the torus one
    exponent larger (its own block scale L)."""
    t = phi.torus
    big = TorusSpec(t.L, t.M + 1)
    n = big.side * phi.n_g
    xs = np.arange(n) / phi.n_g / t.L
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    vals = phi.at(pts).reshape(n, n)
    return FieldGrid(big, phi.n_g, vals)


# -- Gaussian machinery -----------------------------------------------------------


@dataclass
class GaussianEnsemble:
    """Seeded sampler for the Gaussian measure with covariance scale * C.

    A torus kernel is the finite mode sum C(x) = sum_m f_m cos(p_m . x), so
    phi = sum_m sqrt(scale f_m) (xi_m cos p_m . x + eta_m sin p_m . x), with
    independent standard normals xi, eta, has covariance exactly
    scale * C(x - y).  ``basis`` holds the rows sqrt(scale f_m) cos p_m . x,
    then the sines, over the grid nodes.
    """

    basis: np.ndarray
    torus: TorusSpec
    n_g: int
    seed: int

    def sample(self, count: int) -> list[FieldGrid]:
        n = self.torus.side * self.n_g
        return [FieldGrid(self.torus, self.n_g, d.reshape(n, n))
                for d in self.sample_values(count)]

    def sample_values(self, count: int) -> np.ndarray:
        """``count`` draws as rows of grid values; the same seed gives the same rows.

        The modes are added one at a time in basis order, so the bits do not
        depend on a BLAS build or its thread count."""
        rng = np.random.default_rng(self.seed)
        xi = rng.standard_normal(size=(count, self.basis.shape[0]))
        out = np.zeros((count, self.basis.shape[1]))
        for z, row in zip(xi.T, self.basis):
            out += z[:, None] * row
        return out


def gaussian_ensemble(
    kernel: CovarianceKernel, torus: TorusSpec, n_g: int, seed: int, scale: float
) -> GaussianEnsemble:
    """Sampler of scale * C on the grid nodes j/n_g of ``torus``, from the
    mode table of a torus kernel (``kernel.method == "fourier"``)."""
    if kernel.method != "fourier":
        raise ValueError(f"mode-basis sampling needs a torus mode table, not {kernel.method!r}")
    if scale < 0:
        raise ValueError(f"a covariance scale must be >= 0, got {scale}")
    px, py, f = kernel.modes()
    if np.any(f < 0):
        raise ValueError("mode-basis sampling needs non-negative mode weights")
    n = torus.side * n_g
    xs = np.arange(n) / n_g
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    phase = px[:, None] * X.ravel()[None, :] + py[:, None] * Y.ravel()[None, :]
    amp = np.sqrt(scale * f)[:, None]
    basis = np.concatenate([amp * np.cos(phase), amp * np.sin(phase)])
    return GaussianEnsemble(basis=basis, torus=torus, n_g=n_g, seed=seed)
