"""Polymer activities: representations, the polymer exponential, potentials,
charge decomposition and the activity norm of cloud and truncated activities.

Three representations:

  * ``FunctionalActivity``  opaque evaluator (polymers, phi) -> one complex
                            per polymer, with an explicit finite support
                            list; the exact Mayer activity and the
                            extraction identity use it;
  * ``CloudActivity``       per-polymer lists of charge-cloud terms; the
                            Gaussian algebra acts on it in closed form;
  * ``TruncatedActivity``   translation-invariant per-shape term lists with
                            charges collapsed to block centers, total
                            |charge| at most ``Q_MAX`` and at most
                            ``MAX_LINFS`` gradient factors per term; the
                            desk-scale flow representation.

The two term representations share one algebra, ``TermActivity``: map,
filter and add-with-factor over their per-key term lists.  Charge
decomposition and the activity norm are defined on these two only.

The polymer exponential sums over collections of region-disjoint polymers
(closed squares pairwise non-touching); the Mayer expansion of
exp(zeta sum_D V(D)) then produces exactly one collection per block subset,
grouping blocks into connected components.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import terms as tm
from .lattice import (
    CapError,
    Polymer,
    TorusSpec,
    block_quadrature_nodes,
    enumerate_all_connected,
    enumerate_shapes,
    halo,
    is_connected,
    log_gamma_p,
)
from .terms import CloudTerm, TermTable, canon, logsumexp, term_log_weight

Q_MAX = 3  # total |charge| a truncated term carries at most
MAX_LINFS = 2  # gradient factors a truncated term carries at most
FLOW_N_Q = 1  # midpoint nodes per block side of the flow's potential and of extraction
POTENTIAL_N_Q = 2  # midpoint nodes per block side of the pointwise potential V(D, phi)
SUBSET_SCAN_SIDE_CAP = 4  # largest torus side whose block subsets are scanned
MAYER_ORDER = 3  # series order of the truncated Mayer activity, across blocks
MAYER_MAX_SIZE = 2  # largest polymer (in blocks) of the truncated Mayer activity


@dataclass
class FunctionalActivity:
    """Opaque evaluator with finite support; K(X) reads the field only on X."""

    torus: TorusSpec
    fn: object  # callable (polymers, field) -> [complex per polymer]
    support_list: list

    def support(self):
        return self.support_list

    def values(self, polymers, fld) -> list:
        return self.fn(polymers, fld)


class TermActivity:
    """The term algebra shared by ``CloudActivity`` and ``TruncatedActivity``.

    A subclass keeps its per-key term lists in the dataclass field named by
    ``STORE``: polymer block sets for clouds, shape keys for truncated
    activities.  Every operation returns a new activity of the same class
    and keeps the key order and term order of its inputs (activity norms sum
    in that order); keys left without terms are dropped.
    """

    STORE = ""

    def map(self, fn):
        """fn(key, terms) -> new terms, per key."""
        out = {}
        for k, ts in getattr(self, self.STORE).items():
            new = fn(k, ts)
            if new:
                out[k] = new
        return replace(self, **{self.STORE: out})

    def filter(self, keep):
        """The terms t of key k with keep(k, t)."""
        return self.map(lambda k, ts: [t for t in ts if keep(k, t)])

    def add(self, other, z: complex):
        """self + z * other; keys only in self keep their term lists as they are."""
        out = dict(getattr(self, self.STORE))
        for k, ts in getattr(other, other.STORE).items():
            out[k] = canon(list(out.get(k, [])) + [t.scaled(z) for t in ts])
        return replace(self, **{self.STORE: {k: v for k, v in out.items() if v}})


@dataclass
class CloudActivity(TermActivity):
    """Charge-cloud terms per polymer (keyed by the block frozenset)."""

    torus: TorusSpec
    data: dict
    # polymer keys -> (their term lists, one TermTable of them all)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    STORE = "data"

    def support(self):
        return [Polymer(k) for k in sorted(self.data, key=lambda fs: sorted(fs))]

    def terms(self, p: Polymer):
        return self.data.get(p.blocks, [])

    def values(self, polymers, fld) -> list:
        """K(X, phi) for each polymer X, from one table per tuple of polymers;
        a table is rebuilt when one of its term lists has been replaced."""
        keys = tuple(p.blocks for p in polymers)
        lists = [self.data.get(k, ()) for k in keys]
        hit = self._tables.get(keys)
        if hit is None or any(a is not b for a, b in zip(hit[0], lists)):
            hit = self._tables[keys] = (lists, TermTable(lists))
        return hit[1].values(fld)

    def value(self, p: Polymer, fld) -> complex:
        return self.values([p], fld)[0]


@dataclass
class TruncatedActivity(TermActivity):
    """Translation-invariant activity: terms per small-polymer shape.

    Shape keys are the canonical block tuples of ``Polymer.shape_key``;
    terms are anchored at those blocks.  Every term is one that
    ``collapse_term`` maps to itself: charges merged at block centres with
    no gradient factor, or no charges and at most ``MAX_LINFS`` gradient
    factors at block centres.  ``scale_linear`` checks this.
    """

    torus: TorusSpec
    shapes: dict
    # terms ``fluctuate`` found outside the model
    dropped_terms: int = field(default=0, init=False, repr=False, compare=False)

    STORE = "shapes"


def taylorize_neutral(term: CloudTerm) -> list[CloudTerm]:
    """Convert a neutral multi-position cloud with no gradient factor into
    derivative data.

    With sum q_a = 0 the cloud exp(i sum q_a phi(x_a)) depends only on
    field differences; expanding to second order in the position spread
    around the charge centroid gives

        c [ 1 + i D . dphi + i S : d2 phi - (D . dphi)^2 / 2 + ... ]

    with dipole moment D = sum q_a (x_a - xbar) and second moment
    S = (1/2) sum q_a (x_a - xbar)^2.  This is exactly the truncated
    representation's neutral content (constant plus quadratic-gradient
    coefficients); the higher-derivative remainder is dropped by the
    caller's bookkeeping.
    """
    xs = [x for _, x in term.charges]
    xbar = (
        sum(x[0] for x in xs) / len(xs),
        sum(x[1] for x in xs) / len(xs),
    )
    pos = (round(xbar[0]), round(xbar[1]))
    D = [0.0, 0.0]
    S = [[0.0, 0.0], [0.0, 0.0]]
    for q, x in term.charges:
        dx = (x[0] - xbar[0], x[1] - xbar[1])
        for mu in (0, 1):
            D[mu] += q * dx[mu]
            for nu in (0, 1):
                S[mu][nu] += 0.5 * q * dx[mu] * dx[nu]
    c = term.coeff
    out = [CloudTerm(c)]
    basis = ((1, 0), (0, 1))
    for mu in (0, 1):
        if D[mu] != 0.0:
            out.append(CloudTerm(1j * c * D[mu], (), ((basis[mu], pos),)))
        for nu in (0, 1):
            if S[mu][nu] != 0.0 and nu >= mu:
                w = 1.0 if mu == nu else 2.0
                e2 = (basis[mu][0] + basis[nu][0], basis[mu][1] + basis[nu][1])
                out.append(CloudTerm(1j * c * w * S[mu][nu], (), ((e2, pos),)))
            if D[mu] != 0.0 and D[nu] != 0.0 and nu >= mu:
                w = 0.5 if mu == nu else 1.0
                out.append(
                    CloudTerm(
                        -c * w * D[mu] * D[nu],
                        (),
                        ((basis[mu], pos), (basis[nu], pos)),
                    )
                )
    return out


def collapse_term(term: CloudTerm):
    """Collapse to the truncated model; None when outside the truncation
    (charges with gradient factors, total |charge| above ``Q_MAX``, or more
    than ``MAX_LINFS`` gradient factors).

    Charged clouds collapse to per-block total charges at block centers;
    neutral clouds convert to derivative data, a list of the collapsed
    Taylor pieces, which carry no charges.
    """
    if term.charges and term.linfs:
        return None  # mixed charge-derivative terms are outside the model
    if term.total_charge == 0 and term.charges:
        out = []
        for piece in taylorize_neutral(term):
            c = collapse_term(piece)
            if c is not None:
                out.append(c)
        return out
    if len(term.linfs) > MAX_LINFS:
        return None
    merged: dict = {}
    for q, x in term.charges:
        b = (float(round(x[0])), float(round(x[1])))
        merged[b] = merged.get(b, 0) + q
    charges = tuple(sorted((q, b) for b, q in merged.items() if q != 0))
    if sum(abs(q) for q, _ in charges) > Q_MAX:
        return None
    linfs = tuple(sorted(
        (a, (float(round(y[0])), float(round(y[1])))) for a, y in term.linfs
    ))
    # canonical already: sorted, with block centres as the floats CloudTerm makes
    return tm._raw_term(term.coeff, charges, linfs)


_MISSING = object()


def _collapse_memo(cache: dict) -> dict:
    """The collapse memo a cache keeps for ``_collapsed``."""
    return cache.setdefault("collapse", {})


def _collapsed(memo: dict, key):
    """``collapse_term`` of a term with this key, built once per memo: None
    outside the model, else [(piece key, multiplier)], the pieces of the term
    at coefficient 1; the collapse is linear, so a term with coefficient c
    has the pieces c * multiplier."""
    pieces = memo.get(key, _MISSING)  # one hash of the key; None is a stored value
    if pieces is _MISSING:
        c = collapse_term(tm._raw_term(1.0 + 0.0j, *key))
        pieces = memo[key] = None if c is None else [
            (p.key(), p.coeff) for p in (c if isinstance(c, list) else [c])
        ]
    return pieces


def _add_collapsed(sums: dict, pieces, c) -> None:
    """Add the collapse pieces (from ``_collapsed``) of a term with coefficient
    ``c`` into ``sums`` ({piece key: coeff}), as ``canon`` would sum them."""
    for piece_key, m in pieces:
        sums[piece_key] = sums.get(piece_key, 0.0) + c * m


def _collapse_into(sums: dict, ts, memo: dict) -> int:
    """Add the collapse pieces of each term of ``ts``, in order, into ``sums``
    ({piece key: coeff}) through ``memo`` (see ``_collapsed``); the number of
    terms outside the model, which add nothing."""
    outside = 0
    for t in ts:
        pieces = _collapsed(memo, t.key())
        if pieces is None:
            outside += 1
        else:
            _add_collapsed(sums, pieces, t.coeff)
    return outside


# -- polymer exponential ----------------------------------------------------------


def polymer_exp(K, region: Polymer, fld) -> complex:
    """Exp(box + K)(region, phi): sum over non-touching collections in region."""
    inside = [p for p in K.support() if p.blocks <= region.blocks]
    vals = {p.blocks: v for p, v in zip(inside, K.values(inside, fld)) if v != 0.0}
    return _collection_sum(vals, region, K.torus)


def _collection_sum(vals: dict, region: Polymer, torus: TorusSpec) -> complex:
    by_block: dict = {}  # block -> [(polymer blocks, value, halo)] in vals order
    for blocks, value in vals.items():
        entry = (blocks, value, halo(Polymer(blocks), torus))
        for b in blocks:
            by_block.setdefault(b, []).append(entry)
    return _collections_in(frozenset(region.blocks), by_block, {})


def _collections_in(avail: frozenset, by_block: dict, memo: dict) -> complex:
    """The sum over collections of region-disjoint polymers inside ``avail``,
    memoized by ``avail``: the lowest block of ``avail`` lies in no polymer
    of the collection, or in one of the polymers ``by_block`` lists for it."""
    if not avail:
        return 1.0
    hit = memo.get(avail)
    if hit is not None:
        return hit
    b = min(avail)
    total = _collections_in(avail - {b}, by_block, memo)  # b belongs to no polymer
    for blocks, value, around in by_block.get(b, ()):
        if blocks <= avail:
            total += value * _collections_in(avail - around, by_block, memo)
        # polymers containing b but not inside avail are excluded
    memo[avail] = total
    return total


def whole_torus(torus: TorusSpec) -> Polymer:
    return Polymer(
        frozenset(itertools.product(range(torus.side), repeat=2))
    )


def all_connected_subsets(torus: TorusSpec) -> list[Polymer]:
    """Every connected polymer of a tiny torus (single pass over subsets)."""
    if torus.side > SUBSET_SCAN_SIDE_CAP:
        raise CapError(f"whole-subset scan capped at side {SUBSET_SCAN_SIDE_CAP}")
    cells = sorted(itertools.product(range(torus.side), repeat=2))
    out = []
    for mask in range(1, 1 << len(cells)):
        blocks = {cells[i] for i in range(len(cells)) if mask >> i & 1}
        if is_connected(blocks, torus):
            out.append(Polymer(frozenset(blocks)))
    return out


# -- the potential and its Mayer expansion ----------------------------------------


def potentials(blocks, fld) -> list[float]:
    """V(D, phi) = int_D cos(phi) by the midpoint rule (POTENTIAL_N_Q^2 nodes)
    for each block D, from one field lookup of all their nodes."""
    nodes = [x for b in blocks for x in block_quadrature_nodes(b, POTENTIAL_N_Q)]
    cos = np.cos(fld.at(nodes)).reshape(-1, POTENTIAL_N_Q**2)
    return [float(np.mean(row)) for row in cos]


def v_cloud_terms(block, n_q: int) -> list[CloudTerm]:
    """V(D) as charge clouds: (w/2) e^{i phi(x)} + (w/2) e^{-i phi(x)} per node."""
    nodes = block_quadrature_nodes(block, n_q)
    w = 1.0 / len(nodes)
    out = []
    for x in nodes:
        out.append(CloudTerm(0.5 * w, ((1, x),)))
        out.append(CloudTerm(0.5 * w, ((-1, x),)))
    return canon(out)


def v_activity(torus: TorusSpec, n_q: int, trans_invariant: bool):
    """The single-block potential as a truncated or cloud activity."""
    if trans_invariant:
        return TruncatedActivity(torus, {((0, 0),): v_cloud_terms((0, 0), n_q)})
    data = {}
    for b in itertools.product(range(torus.side), repeat=2):
        data[frozenset({b})] = v_cloud_terms(b, n_q)
    return CloudActivity(torus, data)


def mayer_init_functional(zeta: complex, torus: TorusSpec) -> FunctionalActivity:
    """K0(X, phi) = prod_{D in X} (e^{zeta V(D, phi)} - 1) on connected X (exact)."""
    support = all_connected_subsets(torus)

    def fn(polymers, fld) -> list:
        blocks = sorted(frozenset().union(*(p.blocks for p in polymers)))
        factor = {b: cmath.exp(zeta * v) - 1.0 for b, v in zip(blocks, potentials(blocks, fld))}
        out = []
        for p in polymers:
            prod = 1.0
            for b in p.sorted_blocks():
                prod *= factor[b]
            out.append(prod)
        return out

    return FunctionalActivity(torus, fn, support)


def _v_power_terms(zeta: complex, block, n_q: int, order: int) -> list[list[CloudTerm]]:
    """pows[n] = terms of (zeta V(D))^n / n! for n = 0..order."""
    v = v_cloud_terms(block, n_q)
    pows = [[CloudTerm(1.0)]]
    fact = 1.0
    for n in range(1, order + 1):
        fact *= n
        prev = pows[-1]
        pows.append([t.scaled(zeta / n) for t in tm.multiply(prev, v)])
    return pows


def _mayer_polymer_terms(zeta: complex, blocks, n_q: int, order: int) -> list[CloudTerm]:
    """prod_D (e^{zeta V(D)} - 1) truncated at total series order across blocks."""
    pows = {b: _v_power_terms(zeta, b, n_q, order) for b in blocks}
    k = len(blocks)
    out = []
    for combo in itertools.product(range(1, order + 1), repeat=k):
        if sum(combo) > order:
            continue
        terms = [CloudTerm(1.0)]
        for b, n in zip(blocks, combo):
            terms = tm.multiply(terms, pows[b][n])
        out.extend(terms)
    return canon(out)


def mayer_init_cloud(zeta: complex, torus: TorusSpec, n_q: int, order: int,
                     max_size: int) -> CloudActivity:
    """Cloud form of the Mayer activity, truncated at `order` per block
    and polymers of at most `max_size` blocks (value O(zeta^{|X|}))."""
    data = {}
    for p in enumerate_all_connected(torus, max_size):
        terms = _mayer_polymer_terms(zeta, p.sorted_blocks(), n_q, order)
        if terms:
            data[p.blocks] = terms
    return CloudActivity(torus, data)


def mayer_init_truncated(zeta: complex, torus: TorusSpec) -> TruncatedActivity:
    """Translation-invariant truncated Mayer activity (flow initial data):
    shapes of at most MAYER_MAX_SIZE blocks, the series to MAYER_ORDER."""
    out: dict = {}  # shape key -> {piece key: coeff}
    memo: dict = {}
    for p in enumerate_shapes(MAYER_MAX_SIZE):
        terms = _mayer_polymer_terms(zeta, p.sorted_blocks(), FLOW_N_Q, MAYER_ORDER)
        _collapse_into(out.setdefault(p.shape_key(), {}), terms, memo)
    return TruncatedActivity(torus, {
        key: kept for key, sums in out.items() if (kept := tm._canon_sums(sums))
    })


# -- potential norms (series bounds) ------------------------------------------------


VBD_SERIES_ORDER = 40  # terms of the series for ||V||_{1,h}


def vbd_norms(zeta: complex, h: float, eps: float) -> dict:
    """Series bounds on the potential norms at G = 1 and their thresholds.

    ||V||_{1,h} <= sum h^n/n! sup||V_n|| with sup||V_n|| = 1;
    ||e^{zV}-1||_{1,h} <= exp(|z| e^h) - 1, and the second-order variant
    subtracts the linear term.  Thresholds are the |zeta| where the series
    bound crosses |zeta|^{1-eps} (resp. |zeta|^{2-eps}).
    """
    az = abs(zeta)
    v_norm = sum(h**n / math.factorial(n) for n in range(VBD_SERIES_ORDER))
    e_norm = math.expm1(az * math.exp(h))
    e2_norm = math.expm1(az * math.exp(h)) - az * math.exp(h)

    def crossing(expo):
        lo, hi = 1e-300, 1.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            bound = math.expm1(mid * math.exp(h))
            if expo > 1.5:
                bound -= mid * math.exp(h)
            if bound <= mid**expo:
                lo = mid
            else:
                hi = mid
        return lo

    return {
        "v_norm_series": v_norm,
        "v_norm_bound": math.exp(h),
        "exp_minus_one": e_norm,
        "exp_minus_one_target": az ** (1.0 - eps),
        "exp_minus_linear": e2_norm,
        "exp_minus_linear_target": az ** (2.0 - eps),
        "threshold_first_order": crossing(1.0 - eps),
        "threshold_second_order": crossing(2.0 - eps),
    }


# -- charge decomposition ------------------------------------------------------------


def charge_component(K, q: int):
    """Fourier component in the constant-shift variable: the exact filter
    of a cloud or truncated activity on the total charge."""
    if isinstance(K, TermActivity):
        return K.filter(lambda k, t: t.total_charge == q)
    raise TypeError(f"unsupported representation {type(K)!r}")


# -- activity norms -------------------------------------------------------------------


def _shape_log_norm(ts) -> float:
    return logsumexp([term_log_weight(t) for t in ts])


def activity_norm(K, p: int) -> float:
    """Log of the series norm sum_{X cont. D} Gamma_p(X) ||K(X)||_{G,h}, with
    the weights h = NORM_H and kappa = NORM_KAPPA, and Gamma_p read on K's
    torus with the shift p (``lattice.log_gamma_p``).

    Defined for cloud and truncated activities, whose terms give certified
    series bounds; the cloud norm is the largest sum over the polymers
    containing one block.
    """
    if isinstance(K, TruncatedActivity):
        logs = []
        for key, ts in K.shapes.items():
            X = Polymer(frozenset(key))
            logs.append(math.log(X.size) + log_gamma_p(X, p, K.torus) + _shape_log_norm(ts))
        return logsumexp(logs)
    if isinstance(K, CloudActivity):
        anchors = {}
        for X in K.support():
            ts = K.terms(X)
            if not ts:
                continue
            lgn = log_gamma_p(X, p, K.torus) + _shape_log_norm(ts)
            for b in X.blocks:
                anchors[b] = logsumexp([anchors.get(b, -math.inf), lgn])
        return max(anchors.values(), default=-math.inf)
    raise TypeError(f"unsupported representation {type(K)!r}")


# -- randomized structural checks -----------------------------------------------------


def verify_shift_law(K, q: int, p: Polymer, fld, c: float) -> float:
    """|k_q(X, phi + c) - e^{iqc} k_q(X, phi)|."""
    kq = charge_component(K, q)
    return abs(kq.value(p, fld + c) - cmath.exp(1j * q * c) * kq.value(p, fld))


def verify_resummation(K: CloudActivity, p: Polymer, fld, q_range) -> float:
    total = sum(charge_component(K, q).value(p, fld) for q in q_range)
    return abs(total - K.value(p, fld))
