"""Covariance kernels of the RG scale decomposition and derived scalars.

Four kinds of kernel share one evaluator (a derivative-modulated plane-wave
sum over a cached momentum table):

  * ``slice``      C^M(sigma, x): momentum profile
                   p^-2 [ (e^{p^4}+sigma)^-1 - (e^{L^4 p^4}+sigma)^-1 ]
                   summed over the dual torus lattice;
  * ``full``       v^M_0(sigma, x): profile p^-2 (e^{p^4}+sigma)^-1;
  * ``cutoff``     the N = 0 cutoff profile p^-2 e^{-p^4} (sigma = 0 only);
  * ``continuum``  C_inf(sigma, x): the slice profile integrated over the
                   plane with tensor Gauss-Legendre nodes.

The superexponential e^{-p^4} decay certifies momentum truncation: the
default radius keeps the neglected tail below 1e-12 for derivative orders
up to ``R_MAX``.  Large tori (side > DIRECT_SIDE_CAP) are evaluated by the
periodized continuum kernel; the neglected image terms are bounded by
exp(-side/(2L)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import CapError, TorusSpec, block_quadrature_nodes, small_shapes

SIGMA_MAX = 0.1
DEFAULT_P_MAX = 3.6
DEFAULT_GL_NODES = 256
GL_RADIAL_NODES = 64  # per radial panel of the continuum kernel
R_MAX = 14  # highest derivative order a kernel evaluates
DIRECT_SIDE_CAP = 256
NORM_PROXY_SIDE = 64
N_SUB = 4  # grid points per block side in the block-pair norms
STAR_NU = 2.0  # power of (1 + distance) in the star norm


def _profile(kind: str, u: np.ndarray, sigma: float, L: int) -> np.ndarray:
    """Momentum profile g(|p|^2); u = |p|^2.  Stable near u = 0 for the slice."""
    u = np.asarray(u, dtype=np.float64)
    if kind in ("slice", "continuum"):
        a = u * u
        b = (float(L) ** 4) * u * u
        out = np.empty_like(u)
        small = u < 1e-3
        if np.any(small):
            # cancellation regime: (e^a+s)^-1 - (e^b+s)^-1
            #   = e^a expm1(b-a) / ((e^a+s)(e^b+s)), all arguments tiny here
            aa, bb = a[small], b[small]
            ea, eb = np.exp(aa), np.exp(bb)
            diff = ea * np.expm1(bb - aa) / ((ea + sigma) * (eb + sigma))
            with np.errstate(divide="ignore", invalid="ignore"):
                val = np.where(u[small] > 1e-8, diff / np.where(u[small] > 0, u[small], 1.0), 0.0)
            tiny = u[small] <= 1e-8
            # diff/u -> u (L^4 - 1) / (1+sigma)^2 as u -> 0
            val = np.where(tiny, u[small] * (float(L) ** 4 - 1.0) / (1.0 + sigma) ** 2, val)
            out[small] = val
        big = ~small
        if np.any(big):
            aa = np.minimum(a[big], 700.0)
            bb = np.minimum(b[big], 700.0)
            out[big] = (1.0 / (np.exp(aa) + sigma) - 1.0 / (np.exp(bb) + sigma)) / u[big]
        return out
    if kind == "full":
        a = u * u
        return 1.0 / (u * (np.exp(np.minimum(a, 700.0)) + sigma))
    if kind == "cutoff":
        return np.exp(-(u * u)) / u
    raise ValueError(f"unknown kernel kind {kind!r}")


@lru_cache(maxsize=64)
def _torus_modes(kind: str, sigma: float, L: int, M: int, p_max: float):
    """(px, py, weight) table over the dual lattice, zero mode excluded."""
    side = L**M
    step = 2.0 * math.pi / side
    n_max = int(math.ceil(p_max / step))
    ns = np.arange(-n_max, n_max + 1)
    nx, ny = np.meshgrid(ns, ns, indexing="ij")
    px = step * nx.ravel()
    py = step * ny.ravel()
    u = px * px + py * py
    keep = (u > 0) & (np.sqrt(u) <= p_max)
    px, py, u = px[keep], py[keep], u[keep]
    f = _profile(kind, u, sigma, L) / float(side) ** 2
    return px, py, f


@lru_cache(maxsize=32)
def _gl_modes(sigma: float, L: int, p_max: float, n_theta: int):
    """Polar momentum table for the continuum slice kernel.

    Radial Gauss-Legendre on two panels split at p_max/L (the slice profile
    varies on the 1/L momentum scale), uniform angular nodes; n_theta must
    exceed twice the largest phase p_max * |x| to resolve the oscillation.
    """
    x, w = np.polynomial.legendre.leggauss(GL_RADIAL_NODES)
    split = p_max / float(L)
    rs, ws = [], []
    for lo, hi in ((0.0, split), (split, p_max)):
        half = 0.5 * (hi - lo)
        rs.append(lo + half * (x + 1.0))
        ws.append(w * half)
    r = np.concatenate(rs)
    wr = np.concatenate(ws)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    wt = 2.0 * math.pi / n_theta
    px = (r[:, None] * np.cos(theta)[None, :]).ravel()
    py = (r[:, None] * np.sin(theta)[None, :]).ravel()
    wgt = (wr[:, None] * r[:, None] * wt * np.ones_like(theta)[None, :]).ravel()
    u = px * px + py * py
    f = _profile("continuum", u, sigma, L) * wgt / (2.0 * math.pi) ** 2
    return px, py, f


def mode_sum(px, py, f, alphas, xs) -> np.ndarray:
    """Sum_m f_m Re[(i px)^ax (i py)^ay e^{i p.x}] for every x row, alpha.

    px, py, f: (n_modes,) momenta and weights; alphas: [(ax, ay)] integer
    multi-indices; xs: (n_x, 2) points.  Returns an (n_x, n_alpha) array.
    """
    phase = px[None, :] * xs[:, 0:1] + py[None, :] * xs[:, 1:2]
    # cos for even |alpha|, sin for odd: only what the alphas read
    parities = {(ax + ay) % 2 for ax, ay in alphas}
    cos_p = np.cos(phase) if 0 in parities else None
    sin_p = np.sin(phase) if 1 in parities else None
    out = np.empty((xs.shape[0], len(alphas)))
    for j, (ax, ay) in enumerate(alphas):
        # Re[i^k e^{i theta}] for k = |alpha| mod 4
        k = (ax + ay) % 4
        if k == 0:
            tr = cos_p
        elif k == 1:
            tr = -sin_p
        elif k == 2:
            tr = -cos_p
        else:
            tr = sin_p
        # a numpy sum, not a BLAS product: its order does not follow the thread count
        out[:, j] = (tr * (f * px**ax * py**ay)).sum(axis=1)
    return out


def tail_bound(p_max: float, order: int) -> float:
    """Crude certificate for the neglected |p| > p_max tail of e^{-p^4} profiles."""
    # integrand bounded by p^{order} e^{-p^4}; integrate p^{order+1} e^{-p^4} dp
    # over p > p_max with e^{-p^4} <= e^{-p_max^4} e^{-4 p_max^3 (p - p_max)}
    a = 4.0 * p_max**3
    return (
        (2.0 * math.pi) ** -1
        * p_max ** (order + 1)
        * math.exp(-(p_max**4))
        * (1.0 / a)
        * 2.0
    )


@dataclass(frozen=True)
class CovarianceKernel:
    """One covariance kernel with cached momentum tables and derived scalars."""

    kind: str
    sigma: float
    torus: TorusSpec | None = None
    L: int | None = None
    p_max: float = DEFAULT_P_MAX
    gl_nodes: int = DEFAULT_GL_NODES

    def __post_init__(self):
        if abs(self.sigma) > SIGMA_MAX + 1e-15:
            raise ValueError(f"|sigma| must be <= {SIGMA_MAX}")
        if self.kind not in ("slice", "full", "cutoff", "continuum"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "cutoff" and self.sigma != 0.0:
            raise ValueError("sigma must be 0 for the cutoff kernel, which ignores it")
        if self.kind == "continuum":
            if self.L is None:
                raise ValueError("continuum kernel needs the block scale L")
        elif self.torus is None:
            raise ValueError("torus kernels need a TorusSpec")

    # -- plumbing -----------------------------------------------------------

    @property
    def scale(self) -> int:
        return self.L if self.L is not None else self.torus.L

    @property
    def method(self) -> str:
        if self.kind == "continuum":
            return "continuum"
        if self.torus.side <= DIRECT_SIDE_CAP:
            return "fourier"
        if self.kind == "slice":
            return "periodized-continuum"
        raise CapError(
            f"{self.kind} kernel on side {self.torus.side}: direct mode sum too large"
        )

    def modes(self):
        """(px, py, f) momentum table of the kernel: C(x) = sum_m f_m cos(p_m . x)."""
        if self.method == "fourier":
            return _torus_modes(self.kind, self.sigma, self.torus.L, self.torus.M, self.p_max)
        return _gl_modes(self.sigma, self.scale, self.p_max, self.gl_nodes)

    def _check_order(self, alphas):
        worst = max(int(a[0] + a[1]) for a in alphas)
        if worst > R_MAX:
            raise CapError(f"derivative order {worst} above R_MAX={R_MAX}")
        tb = tail_bound(self.p_max, worst)
        if tb > 1e-10:
            raise CapError(
                f"momentum tail bound {tb:.2e} too large for order {worst}; "
                f"required p_max ~ {(math.log(1e12) + worst) ** 0.25 + 1.0:.2f}"
            )

    def _wrap(self, xs: np.ndarray) -> np.ndarray:
        if self.kind == "continuum":
            return xs
        return _min_image(xs, float(self.torus.side))

    # -- evaluation ---------------------------------------------------------

    def eval_many(self, xs, alphas) -> np.ndarray:
        """Derivatives d^alpha C(x): (n_x, n_alpha) array."""
        xs = np.asarray(xs, dtype=np.float64).reshape(-1, 2)
        alphas = [tuple(int(c) for c in a) for a in alphas]
        self._check_order(alphas)
        px, py, f = self.modes()
        return mode_sum(px, py, f, alphas, self._wrap(xs))

    def eval(self, x, alpha=(0, 0)) -> float:
        return float(self.eval_many([tuple(x)], [tuple(alpha)])[0, 0])

    def at_zero(self) -> float:
        return self.eval((0.0, 0.0))

    def grid_tables(self, alphas):
        """FFT evaluation of d^alpha C on the full torus grid (spacing 1/N_SUB).

        Returns (tables, side_used): tables yields (alpha, (n, n) array over
        grid points k/N_SUB), one alpha at a time, from modes computed once.
        A torus of side above NORM_PROXY_SIDE is proxied by its coarsening
        of the largest side L^M not above it, or of side L when L is larger.
        """
        if self.kind == "continuum":
            raise ValueError("grid_tables needs a torus kernel")
        proxy = self.torus
        while proxy.side > NORM_PROXY_SIDE and proxy.M > 1:
            proxy = proxy.coarse()
        px, py, f = _torus_modes(self.kind, self.sigma, proxy.L, proxy.M, self.p_max)
        n = proxy.side * N_SUB
        step = 2.0 * math.pi / proxy.side
        kx = np.rint(px / step).astype(int) % n
        ky = np.rint(py / step).astype(int) % n

        def tables():
            for a in alphas:
                coef = np.zeros((n, n), dtype=np.complex128)
                w = f * (1j * px) ** a[0] * (1j * py) ** a[1]
                np.add.at(coef, (kx, ky), w)
                # values at x = m/N_SUB: sum_k w_k e^{i p_k m / N_SUB}; with
                # p = 2 pi q / side the phase is 2 pi (q m) / (side N_SUB) = DFT
                yield tuple(a), np.real(np.fft.ifft2(coef)) * n * n

        return tables(), proxy.side


def _min_image(x, side: float):
    """Displacement(s) ``x``, a float or an array, wrapped into [-side/2, side/2)."""
    return (x + side / 2.0) % side - side / 2.0


# -- verification operations -------------------------------------------------


def verify_periodization(kernel: CovarianceKernel, x, n_max: int) -> float:
    """|C^M(sigma,x) - sum_{|n|<=n_max} C_inf(sigma, x + n side)|."""
    if kernel.kind != "slice":
        raise ValueError("periodization check applies to slice kernels")
    side = kernel.torus.side
    xmax = (n_max + 1) * side * 1.5
    nodes = max(DEFAULT_GL_NODES, int(2.5 * kernel.p_max * xmax) + 64)
    cont = CovarianceKernel(
        "continuum", sigma=kernel.sigma, L=kernel.scale, gl_nodes=nodes, p_max=kernel.p_max
    )
    total = 0.0
    for nx in range(-n_max, n_max + 1):
        for ny in range(-n_max, n_max + 1):
            total += cont.eval((x[0] + nx * side, x[1] + ny * side))
    return abs(kernel.eval(x) - total)


def verify_scale_decomposition(L: int, M: int, j: int, xs, sigma: float) -> float:
    """Residual of v^M_0(x) = sum_{k<j} C^{M-k}(x/L^k) + v^{M-j}_0(x/L^j)."""
    if not 0 <= j <= M:
        raise ValueError("need 0 <= j <= M")
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 2)
    full = CovarianceKernel("full", sigma=sigma, torus=TorusSpec(L, M))
    lhs = full.eval_many(xs, [(0, 0)])[:, 0]
    rhs = np.zeros_like(lhs)
    for k in range(j):
        sl = CovarianceKernel("slice", sigma=sigma, torus=TorusSpec(L, M - k))
        rhs += sl.eval_many(xs / float(L) ** k, [(0, 0)])[:, 0]
    rem = CovarianceKernel("full", sigma=sigma, torus=TorusSpec(L, M - j))
    rhs += rem.eval_many(xs / float(L) ** j, [(0, 0)])[:, 0]
    return float(np.max(np.abs(lhs - rhs)))


# -- norms --------------------------------------------------------------------


def _deriv_alphas(max_total: int):
    return [
        (a, b) for a in range(max_total + 1) for b in range(max_total + 1) if a + b <= max_total
    ]


def block_pair_norm_table(kernel: CovarianceKernel):
    """Grid table of max over |gamma| <= 2r of |d^gamma C| (C^r norm in each
    slot, r = 2: |gamma| <= 4), kept as a running maximum so one table per
    gamma is alive at once."""
    tables, side_used = kernel.grid_tables(_deriv_alphas(4))
    peak = None
    for _, table in tables:
        table = np.abs(table)
        peak = table if peak is None else np.maximum(peak, table, out=peak)
    return peak, side_used


def star_norm(kernel: CovarianceKernel) -> float:
    """||C||_* = sup_D sum_{D' != D} ||C(D,D')|| d(D,D')^{2d} theta(D,D').

    Block norms are dense sub-grid maxima of mixed derivatives; the block
    pair sum runs over the (possibly proxied) torus.
    """
    peak, side = block_pair_norm_table(kernel)
    n = side * N_SUB
    d = 2
    total = 0.0
    # sup over blocks is trivial by translation invariance: fix D at 0
    for cx in range(side):
        for cy in range(side):
            if cx == 0 and cy == 0:
                continue
            dx = cx if cx <= side // 2 else cx - side
            dy = cy if cy <= side // 2 else cy - side
            dist = math.hypot(dx, dy)
            # separation region (D - D') spans [diff-1, diff+1] per axis
            ix = (np.arange(-N_SUB, N_SUB + 1) + cx * N_SUB) % n
            iy = (np.arange(-N_SUB, N_SUB + 1) + cy * N_SUB) % n
            block_norm = float(np.max(peak[np.ix_(ix, iy)]))
            total += block_norm * dist ** (2 * d) * (1.0 + dist) ** STAR_NU
    return total


def translation_loss(kernel: CovarianceKernel, r: int):
    """N_C = sup over small sets X of inf_{x in X} ||C(. - x) - C(0)||_X."""
    alphas = _deriv_alphas(r)
    c0 = kernel.eval((0.0, 0.0))
    worst = 0.0
    for shape in small_shapes():
        pts = np.asarray([x for b in shape.blocks for x in block_quadrature_nodes(b, N_SUB)])
        best = math.inf
        # differences pts - base for every candidate base point
        for base in pts:
            diff = pts - base[None, :]
            vals = kernel.eval_many(diff, alphas)
            vals[:, 0] -= c0
            best = min(best, float(np.max(np.abs(vals))))
        worst = max(worst, best)
    return worst


# -- trace-log ----------------------------------------------------------------


def trlog_T(torus: TorusSpec, sigma: float, dsigma: float) -> float:
    """tr log(1 + dsigma T) = sum_{p != 0} log(1 + dsigma (e^{p^4}+sigma)^-1).

    Direct mode sum for tori up to DIRECT_SIDE_CAP; density approximation
    |Lambda| (2 pi)^-2 integral beyond (documented large-volume fallback).
    """
    if torus.side <= DIRECT_SIDE_CAP:
        px, py, _ = _torus_modes("full", sigma, torus.L, torus.M, DEFAULT_P_MAX)
        u = px * px + py * py
        return float(np.sum(np.log1p(dsigma / (np.exp(u * u) + sigma))))
    x, w = np.polynomial.legendre.leggauss(DEFAULT_GL_NODES)
    p = x * DEFAULT_P_MAX
    wp = w * DEFAULT_P_MAX
    px, py = np.meshgrid(p, p, indexing="ij")
    wgt = np.outer(wp, wp)
    u = px * px + py * py
    dens = np.sum(wgt * np.log1p(dsigma / (np.exp(u * u) + sigma)))
    return float(torus.volume * dens / (2.0 * math.pi) ** 2)


def covariance_table(kernel: CovarianceKernel, xs, alphas):
    """Rows (x, alpha, value, tail_bound) for the CLI CSV export."""
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 2)
    vals = kernel.eval_many(xs, alphas)
    rows = []
    for i, x in enumerate(xs):
        for j, a in enumerate(alphas):
            rows.append(
                {
                    "x0": float(x[0]),
                    "x1": float(x[1]),
                    "alpha0": int(a[0]),
                    "alpha1": int(a[1]),
                    "value": float(vals[i, j]),
                    "tail_bound": tail_bound(kernel.p_max, int(a[0] + a[1])),
                }
            )
    return rows
