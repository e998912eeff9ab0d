"""Charge-cloud term algebra: the Gaussian-closed core of the activity maps.

A term is

    c * prod_k (d^{alpha_k} phi)(y_k) * exp( i sum_a q_a phi(x_a) )

stored as (coeff, charges, linfs) with canonical ordering.  The class of
finite sums of such terms is closed under products, Gaussian convolution,
functional Laplacians and field rescaling, so every RG map evaluates on it
in closed form:

  * convolution by the Gaussian measure of covariance scale*C multiplies a
    pure cloud by exp(-scale/2 sum q_a q_b C(x_a-x_b)); linear factors pick
    up imaginary mean shifts i q_a d^a C and Wick pairings;
  * a bond Laplacian -2 Delta_{C(X_i,X_j)} contracts one slot in X_i with
    one slot in X_j;
  * rescaling maps positions x -> x/L and multiplies each derivative
    factor by L^{-|alpha|} (field dimension zero in d = 2).

Evaluation at a concrete field uses exact node lookups when positions sit
on the field grid and trigonometric interpolation otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import CovarianceKernel, _min_image

POS_DECIMALS = 9


def _round_pos(pos):
    return (round(float(pos[0]), POS_DECIMALS), round(float(pos[1]), POS_DECIMALS))


@dataclass(frozen=True)
class CloudTerm:
    """One product term; charges ((q, pos), ...), linfs ((alpha, pos), ...)."""

    coeff: complex
    charges: tuple = ()
    linfs: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "charges",
            tuple(sorted((int(q), _round_pos(x)) for q, x in self.charges if q != 0)),
        )
        object.__setattr__(
            self,
            "linfs",
            tuple(sorted((tuple(int(c) for c in a), _round_pos(y)) for a, y in self.linfs)),
        )

    @property
    def total_charge(self) -> int:
        return sum(q for q, _ in self.charges)

    @property
    def abs_charge(self) -> int:
        return sum(abs(q) for q, _ in self.charges)

    def key(self):
        return (self.charges, self.linfs)

    def scaled(self, factor: complex) -> "CloudTerm":
        return _raw_term(self.coeff * factor, self.charges, self.linfs)

    def flipped(self) -> "CloudTerm":
        """Term composed with phi -> -phi."""
        sign = (-1.0) ** sum(sum(a) for a, _ in self.linfs)
        return CloudTerm(
            self.coeff * sign, tuple((-q, x) for q, x in self.charges), self.linfs
        )


def canon(terms) -> list[CloudTerm]:
    """Merge identical (charges, linfs) keys; exact zero sums are dropped."""
    acc: dict = {}
    for t in terms:
        k = t.key()
        acc[k] = acc.get(k, 0.0) + t.coeff
    return _canon_sums(acc)


def _canon_sums(acc: dict, drop_tol: float = 0.0) -> list[CloudTerm]:
    """The canonical term list of a {(charges, linfs): summed coeff} dict."""
    out = []
    scale = max((abs(c) for c in acc.values()), default=0.0)
    for (charges, linfs), c in sorted(acc.items()):
        if c == 0.0 or (drop_tol > 0.0 and abs(c) <= drop_tol * scale):
            continue
        out.append(_raw_term(c, charges, linfs))
    return out


def _raw_term(coeff, charges, linfs) -> CloudTerm:
    """Construct a term from already-canonical charges/linfs (no re-sorting)."""
    t = object.__new__(CloudTerm)
    object.__setattr__(t, "coeff", coeff)
    object.__setattr__(t, "charges", charges)
    object.__setattr__(t, "linfs", linfs)
    return t


def product(a: CloudTerm, b: CloudTerm) -> CloudTerm:
    """The product of two canonical terms: their keys' sorted concatenations."""
    return _raw_term(a.coeff * b.coeff, tuple(sorted(a.charges + b.charges)),
                     tuple(sorted(b.linfs + a.linfs)))


def multiply(ts1, ts2) -> list[CloudTerm]:
    return canon(product(a, b) for a in ts1 for b in ts2)


def _padded_columns(rows, fill):
    """(width, len(rows)) array whose row c holds each input row's c-th entry."""
    out = np.full((max(map(len, rows), default=0), len(rows)), fill)
    for i, r in enumerate(rows):
        out[: len(r), i] = r
    return out


class TermTable:
    """Term lists compiled once for evaluation at many fields.

    ``values`` gives one sum per list and reproduces the scalar sum term by
    term, bit for bit: phases accumulate charge by charge, complex products
    are written out in real arithmetic (numpy's complex multiply may fuse
    them), and each total is a sequential sum from 0.  All lists share one
    ``field.at`` call over the union of their charge positions, and one
    ``deriv_at`` call per alpha from one shared ``field.spectrum()``.  A
    list's sums do not depend on its batch: the padding another list brings
    adds 0.0 to a phase or a sum, or changes only the sign of a zero term
    value, and a sum from +0.0 never reads a zero's sign.
    """

    def __init__(self, term_lists):
        lists = [list(ts) for ts in term_lists]
        terms = [t for ts in lists for t in ts]
        pos_ix: dict = {}
        alphas: dict = {}  # alpha -> {y: None}, both in first-seen order
        for t in terms:
            for _, x in t.charges:
                pos_ix.setdefault(x, len(pos_ix))
        for t in terms:
            for alpha, y in t.linfs:
                alphas.setdefault(alpha, {})[y] = None
        self.points = np.array(list(pos_ix), dtype=np.float64).reshape(-1, 2)
        self.lin_queries = [(alpha, list(ys)) for alpha, ys in alphas.items()]
        lin_keys = [(alpha, y) for alpha, ys in self.lin_queries for y in ys]
        lin_ix = {key: i for i, key in enumerate(lin_keys)}
        # short rows point at an extra slot: charge 0 at phi = 0, linear factor 1
        self.q = _padded_columns([[float(q) for q, _ in t.charges] for t in terms], 0.0)
        self.q_ix = _padded_columns([[pos_ix[x] for _, x in t.charges] for t in terms],
                                    len(pos_ix))
        self.lin = _padded_columns([[lin_ix[l] for l in t.linfs] for t in terms], len(lin_ix))
        coeffs = [complex(t.coeff) for t in terms]
        self.cr = np.array([c.real for c in coeffs])
        self.ci = np.array([c.imag for c in coeffs])
        self.charged = np.array([bool(t.charges) for t in terms])
        # row i: a leading 0.0 slot, then list i's term indices, padded with 0.0
        starts = itertools.accumulate((len(ts) for ts in lists), initial=0)
        self.rows = _padded_columns(
            [[len(terms), *range(s, s + len(ts))] for s, ts in zip(starts, lists)],
            len(terms)).T
        self.empty = [not ts for ts in lists]

    def values(self, field) -> list:
        """The sum of each list at ``field``: a complex, or 0.0 for an empty list."""
        if not len(self.rows):
            return []
        vr, vi = self.cr, self.ci
        if len(self.points):
            phis = np.append(field.at(self.points), 0.0)
            phase = np.zeros(len(vr))
            for q, ix in zip(self.q, self.q_ix):
                phase += q * phis[ix]
            cos, sin = np.cos(phase), np.sin(phase)
            vr, vi = (np.where(self.charged, vr * cos - vi * sin, vr),
                      np.where(self.charged, vr * sin + vi * cos, vi))
        if self.lin_queries:
            spectrum = field.spectrum()
            lin = np.append(np.concatenate(
                [field.deriv_at(a, ys, spectrum) for a, ys in self.lin_queries]), 1.0)
            for ix in self.lin:
                f = lin[ix]
                vr, vi = vr * f - vi * 0.0, vr * 0.0 + vi * f
        re = np.cumsum(np.append(vr, 0.0)[self.rows], axis=1)[:, -1].tolist()
        im = np.cumsum(np.append(vi, 0.0)[self.rows], axis=1)[:, -1].tolist()
        return [0.0 if e else complex(r, i) for e, r, i in zip(self.empty, re, im)]


def evaluate_terms(terms, field) -> complex:
    """Sum of term values with batched field lookups."""
    return TermTable([terms]).values(field)[0]


def scale_term(term: CloudTerm, L: int) -> CloudTerm:
    """Compose with the scaled field: phi_L(x) = phi(x/L) in d = 2.

    Positions divide by L (an order-preserving map, so canonical ordering
    survives) and every derivative factor picks up L^{-|alpha|}.
    """
    charges = tuple(
        (q, _round_pos((x[0] / L, x[1] / L))) for q, x in term.charges
    )
    linfs = tuple((alpha, _round_pos((y[0] / L, y[1] / L))) for alpha, y in term.linfs)
    return _raw_term(term.coeff * _derivative_scale(term.linfs, L), charges, linfs)


def _derivative_scale(linfs, L: int) -> float:
    """L^{-sum |alpha|} over the derivative factors: the coefficient side of
    phi_L(x) = phi(x/L), one factor per term."""
    return float(L) ** -sum(sum(alpha) for alpha, _ in linfs)


def _translate_key(key, shift):
    """The (charges, linfs) key of a term moved by ``shift``; a uniform shift
    preserves the canonical ordering."""
    charges, linfs = key
    return (
        tuple((q, _round_pos((x[0] + shift[0], x[1] + shift[1]))) for q, x in charges),
        tuple((a, _round_pos((y[0] + shift[0], y[1] + shift[1]))) for a, y in linfs),
    )


class CovAccess:
    """Memoized derivative evaluations of scale * C on a torus (min-image).

    The memo is keyed by the min-image displacement that the kernel's
    ``_wrap`` makes of ``dx``, so a displacement and its periodic images share
    one evaluation, and a hit returns exactly what a fresh evaluation would.
    In front of it sits a memo keyed by the caller's own ``(alpha, dx)``, so a
    repeated query is one lookup; a key equal to an earlier one has an equal
    min-image key, so the front memo returns what the min-image memo would.
    """

    def __init__(self, kernel: CovarianceKernel, scale: float):
        self.kernel = kernel
        self.scale = scale
        self._seen: dict = {}
        self._memo: dict = {}
        self._side = None if kernel.kind == "continuum" else float(kernel.torus.side)

    def c(self, alpha: tuple, dx: tuple) -> float:
        key = (alpha, dx)
        hit = self._seen.get(key)
        if hit is None:
            hit = self._seen[key] = self._min_image_c(alpha, dx)
        return hit

    def _min_image_c(self, alpha, dx) -> float:
        x, y = float(dx[0]), float(dx[1])
        if self._side is not None:  # as CovarianceKernel._wrap does
            x, y = _min_image(x, self._side), _min_image(y, self._side)
        key = (tuple(alpha), x, y)
        hit = self._memo.get(key)
        if hit is None:
            hit = self.scale * self.kernel.eval(dx, alpha)
            self._memo[key] = hit
        return hit

    def pair(self, alpha_i, yi, alpha_j, yj) -> float:
        """d^{alpha_i}_x d^{alpha_j}_y (scale C)(x - y) at (yi, yj)."""
        a = (alpha_i[0] + alpha_j[0], alpha_i[1] + alpha_j[1])
        sign = (-1.0) ** (alpha_j[0] + alpha_j[1])
        return sign * self.c(a, (yi[0] - yj[0], yi[1] - yj[1]))


def convolve_term(term: CloudTerm, cov: CovAccess) -> list[CloudTerm]:
    """Gaussian convolution: E_zeta[ term(phi + zeta) ] as a term list."""
    qs = [q for q, _ in term.charges]
    xs = [x for _, x in term.charges]
    n_q = len(qs)
    quad = 0.0
    for a in range(n_q):
        for b in range(n_q):
            quad += qs[a] * qs[b] * cov.c((0, 0), (xs[a][0] - xs[b][0], xs[a][1] - xs[b][1]))
    base = term.coeff * math.exp(-0.5 * quad)
    if not term.linfs:
        return [_raw_term(base, term.charges, ())]
    # mean shifts m_k = i sum_a q_a d^{alpha_k} C(y_k - x_a)
    linfs = list(term.linfs)
    shifts = []
    for alpha, y in linfs:
        m = 0.0
        for q, x in term.charges:
            m += q * cov.c(alpha, (y[0] - x[0], y[1] - x[1]))
        shifts.append(1j * m)
    out = []
    for pairing, choices in _wick_structures(len(linfs)):
        pair_factor = 1.0
        for i, j in pairing:
            ai, yi = linfs[i]
            aj, yj = linfs[j]
            pair_factor *= cov.pair(ai, yi, aj, yj)
        # remaining slots: either keep the phi factor or take the mean shift
        for kept, shifted in choices:
            # a sub-tuple of the sorted linfs, in index order, is sorted too
            keep = tuple(linfs[i] for i in kept)
            shift_factor = 1.0
            for i in shifted:
                shift_factor *= shifts[i]
            out.append(_raw_term(base * pair_factor * shift_factor, term.charges, keep))
    return canon(out)


def convolve_terms(terms, cov: CovAccess) -> list[CloudTerm]:
    out = []
    for t in terms:
        out.extend(convolve_term(t, cov))
    return canon(out)


def _pairings_with_rest(n: int):
    """(pairing, rest) decompositions of {0..n-1} into disjoint pairs + rest."""

    def rec(avail):
        if not avail:
            yield [], []
            return
        first = avail[0]
        # first unpaired
        for pairing, rest in rec(avail[1:]):
            yield pairing, [first] + rest
        # first paired with a later slot
        for k in range(1, len(avail)):
            other = avail[k]
            remaining = avail[1:k] + avail[k + 1 :]
            for pairing, rest in rec(remaining):
                yield [(first, other)] + pairing, rest

    yield from rec(list(range(n)))


def _subsets(items):
    for r in range(len(items) + 1):
        yield from (set(c) for c in itertools.combinations(items, r))


@lru_cache(maxsize=None)
def _wick_structures(n: int) -> tuple:
    """The Wick structures of n gradient factors: (pairing, ((kept, shifted),
    ...)) for each (pairing, rest) of ``_pairings_with_rest(n)``, one (kept,
    shifted) per subset of the rest in ``_subsets`` order, with the kept
    factors in index order and the shifted ones in rest order."""
    return tuple(
        (tuple(pairing),
         tuple((tuple(sorted(subset)), tuple(i for i in rest if i not in subset))
               for subset in _subsets(rest)))
        for pairing, rest in _pairings_with_rest(n)
    )


# -- the bond operator of the fluctuation map's tree terms ------------------------


def bond_laplacian(members: tuple, i: int, j: int, cov: CovAccess):
    """Apply the bond operator 2 Delta_{C(X_i, X_j)}: the s-derivative of the
    weighted convolution (d/ds_ij mu_{C(s)} * F = 2 Delta_{C(X_i,X_j)} mu * F).

    ``members`` is a product of terms as the flat tuple of each member's
    (charges, linfs) key in turn, so two terms make ``t1.key() + t2.key()``.
    Yields (factor, members) for every pair of a slot of member i and one of
    member j, each member's charges before its linfs, i's slot outermost;
    linear slots are consumed, charge slots persist.  Charge-charge pairs
    pick up (i q_u)(i q_v) C = -q q C.
    """
    qi, li, qj, lj = members[2 * i], members[2 * i + 1], members[2 * j], members[2 * j + 1]
    for qa, xa in qi:
        for qb, xb in qj:
            yield -qa * qb * cov.c((0, 0), (xa[0] - xb[0], xa[1] - xb[1])), members
        for b, (ab, yb) in enumerate(lj):
            yield 1j * qa * cov.pair((0, 0), xa, ab, yb), _consumed(members, j, b)
    for a, (aa, ya) in enumerate(li):
        for qb, xb in qj:
            yield 1j * qb * cov.pair((0, 0), xb, aa, ya), _consumed(members, i, a)
        for b, (ab, yb) in enumerate(lj):
            yield cov.pair(aa, ya, ab, yb), _consumed(_consumed(members, i, a), j, b)


def _consumed(members: tuple, m: int, k: int) -> tuple:
    """``members`` with the k-th linf of member m dropped."""
    linfs = members[2 * m + 1]
    return members[: 2 * m + 1] + (linfs[:k] + linfs[k + 1 :],) + members[2 * m + 2 :]


# -- series norms -----------------------------------------------------------------


NORM_H = 1.0  # analyticity radius h of the activity norm
NORM_KAPPA = 1e-3  # regulator budget kappa of the activity norm


@lru_cache(maxsize=4096)
def linf_weight(m: int) -> float:
    """sup_u (sqrt(u) + h)^m e^{-kappa u} at h = NORM_H, kappa = NORM_KAPPA:
    per-block weight of m gradient slots."""
    if m == 0:
        return 1.0
    us = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 400)])
    vals = (np.sqrt(us) + NORM_H) ** m * np.exp(-NORM_KAPPA * us)
    return float(np.max(vals))


def term_log_weight(term: CloudTerm) -> float:
    """log of the series norm contribution |c| e^{h Q} W(linfs), h = NORM_H."""
    if abs(term.coeff) == 0.0:
        return -math.inf
    lw = math.log(abs(term.coeff)) + NORM_H * term.abs_charge
    if term.linfs:
        lw += math.log(linf_weight(len(term.linfs)))
    return lw


def logsumexp(vals) -> float:
    vals = [v for v in vals if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))
