"""The RG sub-maps on polymer activities: fluctuation, extraction, scaling.

Fluctuation re-expresses the Gaussian convolution of the polymer exponential
as new activities

    FK(X) = mu_C * K(X)
          + sum over partitions of X into N >= 2 region-disjoint polymers
            sum over trees T on them
            int ds^T  mu_{C_X(sigma(T,s))} * prod_{ij in T} (-2 Lap_{C(X_i,X_j)})
                      prod_i K(X_i)

with the path-minimum couplings sigma of :mod:`sgrg.interpolation`.  On
charge clouds every piece is exact: bond Laplacians contract slots across
polymers, the weighted convolution multiplies by exp(-intra/2) times
exp(-sum sigma_kl u_kl), and the s-integral is done per ordering region.

Extraction removes a localized activity F:

    Exp(box+K)(L) = exp( sum_X F(X) ) Exp(box + E(K,F))(L)

with E(K,F)(Z) summing over region-disjoint {X_i} carrying Ktilde = K -
(e^F - 1)^+ and distinct {Y_j} from F's support, each touching some X_i,
jointly touch-connected with union Z.

Scaling regroups collections by the partition closure: polymers whose
closures share or touch an L-block land in one coarse polymer, and

    S K(X, phi) = sum over closure-connected collections filling X of
                  prod K(Y_i, phi_L).

All disjoint/overlap predicates are those of closed polymers: disjoint
means no touching; overlap includes corner contact.

``fluctuate_cloud`` and ``scale_activity`` are the maps on charge clouds,
which the identity checks use; the flow's truncated activities take
``fluctuate`` and ``scale_linear``.  The settings of the truncated step are
the module constants below, which no command varies.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import terms as tm
from .activities import (
    FLOW_N_Q,
    MAX_LINFS,
    CloudActivity,
    FunctionalActivity,
    TruncatedActivity,
    activity_norm,
    _add_collapsed,
    _collapse_into,
    _collapse_memo,
    _collapsed,
)
from .covariance import CovarianceKernel
from .interpolation import construct_gamma, ordered_region_quadrature, path_minima, trees_on
from .lattice import (
    Polymer,
    TorusSpec,
    block_quadrature_nodes,
    count_small_supersets,
    is_small,
    partition_block,
    partition_closure,
    region_disjoint,
    region_intersects,
    small_shapes,
)
from .terms import NORM_H, NORM_KAPPA, CloudTerm, CovAccess, bond_laplacian, canon, convolve_terms

# Fixed settings of the composed step (no command varies them).
DROP_TOL = 1e-14  # relative coefficient floor of canon and of tree-term pairs
EXTRACTION_ORDER = 2  # order of e^F - 1 in the truncated extraction
PAIR_WINDOW = 2  # largest offset of the second polymer of a tree term
TREE_SHAPE_CAP = 2  # largest constituent shape (in blocks) of a tree term
SMALLNESS = 0.1  # hypothesis 1: ||K|| < SMALLNESS; hypothesis 2 allows 10x
CLOUD_TREE_CAP = 4  # most polymers a tree term of the cloud fluctuation joins


@lru_cache(maxsize=None)
def _small_shape_keys() -> frozenset:
    return frozenset(p.shape_key() for p in small_shapes())


def shape_is_small(key) -> bool:
    return key in _small_shape_keys()


# ----------------------------------------------------------------------------
# fluctuation
# ----------------------------------------------------------------------------


def fluctuate_linear(K, cov: CovAccess):
    """mu_C * K per polymer (exact on clouds)."""
    return K.map(lambda k, ts: convolve_terms(ts, cov))


def _exp_monomial_01(k: int, u: float) -> float:
    """int_0^1 s^k e^{-u s} ds, stable for small u."""
    if abs(u) < 0.5:
        total = 0.0
        powu = 1.0  # (-u)^j / j!
        j = 0
        while True:
            term = powu / (k + j + 1)
            total += term
            if abs(term) < 1e-18 or j > 80:
                return total
            j += 1
            powu *= -u / j
    e = math.exp(-u)
    val = (1.0 - e) / u
    for kk in range(1, k + 1):
        val = (kk * val - e) / u
    return val


def tree_convolved_terms(coeff: complex, members: tuple, tree, cov: CovAccess,
                         images: dict) -> list:
    """Integrate mu_{C(sigma(T,s))} * (product term) over s in [0,1]^{|T|}.

    ``members`` is the product as ``terms.bond_laplacian`` reads it: each
    member's (charges, linfs) key in turn.  Every Wick structure contributes
    a product of factors affine in the couplings sigma_kl; single-bond trees
    integrate in closed form, longer trees per ordering region on
    ``interpolation.GAUSS_NODES`` Gauss nodes per axis.  Returns the pieces
    by key: [(key, coeff * exp(-intra/2) * the key's integrals summed)] in
    sorted key order, a piece whose product is exactly zero dropped.  The
    result is linear in ``coeff``, so the image of a product (its factor
    and per-key sums) is computed once per ``images`` dict, which is keyed
    by ``members`` alone: one dict serves one tree and cov.
    """
    image = images.get(members)
    if image is None:
        image = images[members] = _tree_term_image(members, tree, cov)
    e, groups = image
    base = coeff * e
    return [(key, c) for key, total in groups if (c := base * total) != 0.0]


def _tree_term_image(members: tuple, tree, cov: CovAccess):
    """(exp(-intra/2), ((canonical key, summed integral), ...)): the integrals
    of the Wick structures of the product ``members``, summed by key in
    sorted key order.  The members' keys are canonical, so the sorted
    concatenation of their charges, and of the kept linfs, is canonical too.
    An image lives as long as its images dict, a whole ``fluctuate`` call,
    so its keys reuse the members' charge and linf tuples."""
    n = len(members) // 2
    charges = [(q, x, m) for m in range(n) for q, x in members[2 * m]]
    linfs = [(linf, m) for m in range(n) for linf in members[2 * m + 1]]
    intra = 0.0
    u = {}
    for (qa, xa, ma) in charges:
        for (qb, xb, mb) in charges:
            cv = qa * qb * cov.c((0, 0), (xa[0] - xb[0], xa[1] - xb[1]))
            if ma == mb:
                intra += cv
            else:
                key = (min(ma, mb), max(ma, mb))
                u[key] = u.get(key, 0.0) + 0.5 * cv
    # the mean shift of each linf as an affine factor (a, {pair: b}), meaning
    # a + sum b sigma_pair
    shifts = []
    for (alpha, y), m in linfs:
        parts: dict = {}
        for q, x, ma in charges:
            parts[ma] = parts.get(ma, 0.0) + q * cov.c(alpha, (y[0] - x[0], y[1] - x[1]))
        lin: dict = {}
        for ma, v in parts.items():
            if ma != m:
                pair = (min(m, ma), max(m, ma))
                lin[pair] = lin.get(pair, 0.0) + 1j * v
        shifts.append((1j * parts.get(m, 0.0), lin))
    groups: dict = {}
    canon_charges = tuple(sorted(sum(members[::2], ())))
    for pairing, choices in tm._wick_structures(len(linfs)):
        paired = []
        for i, j in pairing:
            ((ai, yi), mi), ((aj, yj), mj) = linfs[i], linfs[j]
            pc = cov.pair(ai, yi, aj, yj)
            paired.append((pc, {}) if mi == mj else (0.0, {(min(mi, mj), max(mi, mj)): pc}))
        for kept, shifted in choices:
            integral = _s_integral_affine(tree, u, paired + [shifts[i] for i in shifted])
            if integral != 0.0:
                key = (canon_charges, tuple(sorted(linfs[i][0] for i in kept)))
                groups[key] = groups.get(key, 0.0) + integral
    return math.exp(-0.5 * intra), tuple(sorted(groups.items()))


def _s_integral_affine(tree, u, factors) -> complex:
    """The s-integral over a tree of at least one bond."""
    if len(tree) == 1:
        # every sigma equals the single bond coordinate s
        u_tot = sum(u.values())
        # polynomial prod (a_i + b_i s)
        poly = [1.0 + 0.0j]
        for a, lin in factors:
            b = sum(lin.values())
            new = [0.0j] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k] += c * a
                new[k + 1] += c * b
            poly = new
        return sum(c * _exp_monomial_01(k, u_tot) for k, c in enumerate(poly))
    total = 0.0 + 0.0j
    for _, pts, wts in ordered_region_quadrature(len(tree)):
        sig_arrays = path_minima(tree, pts)
        expo = np.ones(pts.shape[0])
        for pair, uval in u.items():
            if uval != 0.0:
                expo = expo * np.exp(-uval * sig_arrays[pair])
        fac = np.ones(pts.shape[0], dtype=complex)
        for a, lin in factors:
            vals = np.full(pts.shape[0], a, dtype=complex)
            for pair, b in lin.items():
                vals = vals + b * sig_arrays[pair]
            fac = fac * vals
        total += np.sum(expo * fac * wts)
    return complex(total)


def _disjoint_collections(K: CloudActivity, cap: int):
    """Every collection of at most ``cap`` pairwise region-disjoint polymers
    of K's support that carry terms, as a list in support order; depth first,
    each collection before its extensions."""
    support = [p for p in K.support() if K.terms(p)]
    return _extensions(support, 0, [], cap, K.torus)


def _extensions(support: list, idx: int, chosen: list, cap: int, torus: TorusSpec):
    """``chosen`` extended by each polymer of ``support[idx:]`` that is region
    disjoint from all of it, each extension followed by its own extensions
    while they have fewer than ``cap`` polymers."""
    for i in range(idx, len(support)):
        p = support[i]
        if all(region_disjoint(p, c, torus) for c in chosen):
            yield chosen + [p]
            if len(chosen) + 1 < cap:
                yield from _extensions(support, i + 1, chosen + [p], cap, torus)


def fluctuate_cloud(K: CloudActivity, cov: CovAccess) -> CloudActivity:
    """The full cluster-expanded fluctuation map on cloud activities, with
    trees on up to ``CLOUD_TREE_CAP`` polymers."""
    targets: dict = {}
    for chosen in _disjoint_collections(K, CLOUD_TREE_CAP):
        union = frozenset().union(*(p.blocks for p in chosen))
        targets.setdefault(union, []).append(chosen)
    out: dict = {}
    for union, collections in targets.items():
        acc: dict = {}  # the sums canon makes of the concatenated term lists
        for polys in collections:
            if len(polys) == 1:
                for t in convolve_terms(K.terms(polys[0]), cov):
                    key = t.key()
                    acc[key] = acc.get(key, 0.0) + t.coeff
                continue
            n = len(polys)
            term_lists = [K.terms(p) for p in polys]
            for tree in trees_on(n):
                images: dict = {}
                for combo in itertools.product(*term_lists):
                    coeff = 1.0 + 0.0j
                    members = ()
                    for t in combo:
                        coeff *= t.coeff
                        members += t.key()
                    stack = [(coeff, members)]
                    for (bi, bj) in tree:
                        stack = [(c0 * fac, ms) for c0, m0 in stack
                                 for fac, ms in bond_laplacian(m0, bi, bj, cov)]
                    for c0, ms in stack:
                        for key, c in tree_convolved_terms(c0, ms, tree, cov, images):
                            acc[key] = acc.get(key, 0.0) + c
        ts = tm._canon_sums(acc)
        if ts:
            out[union] = ts
    return CloudActivity(K.torus, out)


def fluctuate(K: TruncatedActivity, cov: CovAccess, cache: dict,
              k1: TruncatedActivity) -> TruncatedActivity:
    """The truncated fluctuation map: F_1 K = ``k1`` (``fluctuate_linear(K,
    cov)``) on every shape plus two-polymer tree terms, collapsed to the
    truncated model as they are made.

    Tree terms are restricted to constituent shapes of at most
    ``TREE_SHAPE_CAP`` blocks and pair separation within ``PAIR_WINDOW``;
    the neglected pieces are third order in the activity.  A tree on two
    polymers has one bond, integrated in closed form, so no quadrature
    order enters.

    Each union shape keeps one {piece key: coeff} dict.  The linear terms,
    then every bond piece from ``tree_convolved_terms`` in the order it is
    made, go into it through the step's collapse memo (``cache``), each key
    re-anchored and looked up once per placement.  Keys outside the model
    are counted in ``dropped_terms``.  One dict of tree-term images serves
    the whole call: its cov and tree are fixed, and a product is keyed by
    its two members' keys in turn, so each distinct product, every piece of
    a charge-charge bond among them, has its image built once.  The pair
    floor (``DROP_TOL`` times the largest coefficient) tests the two
    coefficients only, so the term pairs above it are listed once per pair
    of shapes and reused at each of its placements.
    """
    memo = _collapse_memo(cache)
    out: dict = {}  # union shape key -> {piece key: coeff}
    dropped = 0
    scale_max = max(
        (abs(t.coeff) for ts in K.shapes.values() for t in ts), default=0.0
    )
    pair_floor = DROP_TOL * scale_max
    for key, ts in k1.shapes.items():
        if ts:
            dropped += _collapse_into(out.setdefault(key, {}), ts, memo)
    shapes = [k for k in sorted(K.shapes) if len(k) <= TREE_SHAPE_CAP]
    images: dict = {}  # members -> image
    pair = None  # _pair_placements yields the placements of a shape pair together
    for key1, key2, offset, ukey, shift in _pair_placements(shapes):
        if (key1, key2) != pair:
            pair = (key1, key2)
            above = [  # the term pairs above the floor, in loop order
                (t1, i2, t2, coeff)
                for t1 in K.shapes[key1]
                for i2, t2 in enumerate(K.shapes[key2])
                if not abs(coeff := t1.coeff * t2.coeff) < pair_floor
            ]
        sums = out.get(ukey)
        moved: dict = {}  # output key -> collapse of the re-anchored key
        moved2: dict = {}  # i2 -> the key of t2 at offset
        for t1, i2, t2, coeff in above:
            k2 = moved2.get(i2)
            if k2 is None:
                k2 = moved2[i2] = tm._translate_key(t2.key(), offset)
            for fac, members in bond_laplacian(t1.key() + k2, 0, 1, cov):
                for key, c in tree_convolved_terms(coeff * fac, members, ((0, 1),), cov, images):
                    if sums is None:
                        sums = out[ukey] = {}
                    if key not in moved:
                        moved[key] = _collapsed(memo, tm._translate_key(key, shift))
                    pieces = moved[key]
                    if pieces is None:
                        dropped += 1
                    else:
                        _add_collapsed(sums, pieces, c)
    act = TruncatedActivity(K.torus, {
        key: kept for key, sums in out.items() if (kept := tm._canon_sums(sums, DROP_TOL))
    })
    act.dropped_terms = dropped
    return act


def _pair_placements(shapes):
    """(k1, k2, offset, union shape key, re-anchoring shift) for every
    placement of shape k2 at ``offset`` from shape k1, within PAIR_WINDOW
    (k1 <= k2 in ``shapes`` order, each unordered pair of equal shapes
    once), that is inf-region disjoint from k1."""
    for i1, k1 in enumerate(shapes):
        p1 = Polymer(frozenset(k1))
        for k2 in shapes[i1:]:
            base2 = Polymer(frozenset(k2))
            for ox in range(-PAIR_WINDOW, PAIR_WINDOW + 1):
                for oy in range(-PAIR_WINDOW, PAIR_WINDOW + 1):
                    if k1 == k2 and (ox, oy) <= (0, 0):
                        continue  # unordered pair of equal shapes
                    p2 = base2.translate((ox, oy))
                    if not _inf_region_disjoint(p1, p2):
                        continue
                    union = Polymer(p1.blocks | p2.blocks)
                    base = tuple(min(b[i] for b in union.blocks) for i in range(2))
                    yield k1, k2, (ox, oy), union.shape_key(), (-base[0], -base[1])


def _inf_region_disjoint(p1: Polymer, p2: Polymer) -> bool:
    for a in p1.blocks:
        for b in p2.blocks:
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= 1:
                return False
    return True


# ----------------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------------


_UNIT = ((1, 0), (0, 1))  # e_0, e_1


def _unit_sum(nu, rho) -> tuple:
    """The multi-index e_nu + e_rho."""
    return (_UNIT[nu][0] + _UNIT[rho][0], _UNIT[nu][1] + _UNIT[rho][1])


@dataclass
class ExtractionCoefficients:
    """The extracted activity F and the constants that leave with it."""

    F: CloudActivity | TruncatedActivity  # of K's class, on K's torus
    dE: float
    dsigma: float
    anisotropy: float  # the isotropy check's measure of the quadratic part


def _centroid(blocks) -> tuple:
    bs = list(blocks)
    return (
        sum(b[0] for b in bs) / len(bs),
        sum(b[1] for b in bs) / len(bs),
    )


def neutral_moments(ts, x_star):
    """(M0, M2, M3): value and second derivatives at phi = 0 against the
    recentered test functions x_mu and x_nu x_rho.

    A neutral term of the model carries charges or at most ``MAX_LINFS``
    gradient factors, not both; one gradient factor alone pairs with no
    charge, so it adds nothing.  Any other neutral term raises.
    """
    M0 = 0.0 + 0.0j
    M2 = np.zeros((2, 2), dtype=complex)
    M3 = np.zeros((2, 2, 2), dtype=complex)  # [mu, nu, rho]

    def xt(pos, mu):
        return pos[mu] - x_star[mu]

    for t in ts:
        if t.total_charge != 0:
            continue
        nl = len(t.linfs)
        if (nl and t.charges) or nl > MAX_LINFS:
            raise ValueError(f"neutral term outside the model: {len(t.charges)} charges "
                             f"and {nl} gradient factors in {t}")
        if nl == 0:
            M0 += t.coeff
            Q = [sum(q * xt(x, mu) for q, x in t.charges) for mu in (0, 1)]
            QQ = [
                [sum(q * xt(x, nu) * xt(x, rho) for q, x in t.charges) for rho in (0, 1)]
                for nu in (0, 1)
            ]
            for mu in (0, 1):
                for nu in (0, 1):
                    M2[mu, nu] += t.coeff * (1j * Q[mu]) * (1j * Q[nu])
                    for rho in (0, 1):
                        M3[mu, nu, rho] += t.coeff * (1j * Q[mu]) * (1j * QQ[nu][rho])
        elif nl == 2:
            (a1, y1), (a2, y2) = t.linfs
            for mu in (0, 1):
                l1mu = _poly_deriv_linear(a1, mu)
                l2mu = _poly_deriv_linear(a2, mu)
                for nu in (0, 1):
                    l1nu = _poly_deriv_linear(a1, nu)
                    l2nu = _poly_deriv_linear(a2, nu)
                    M2[mu, nu] += t.coeff * (l1mu * l2nu + l1nu * l2mu)
                    for rho in (0, 1):
                        q1 = _poly_deriv_quadratic(a1, y1, x_star, nu, rho)
                        q2 = _poly_deriv_quadratic(a2, y2, x_star, nu, rho)
                        M3[mu, nu, rho] += t.coeff * (l1mu * q2 + l2mu * q1)
    return M0, M2, M3


def _poly_deriv_linear(alpha, mu) -> float:
    """(d^alpha x_mu) for |alpha| >= 1: 1 iff alpha = e_mu."""
    return 1.0 if tuple(alpha) == _UNIT[mu] else 0.0


def _poly_deriv_quadratic(alpha, y, x_star, nu, rho) -> float:
    """(d^alpha (x_nu x_rho))(y) with x recentered, for |alpha| >= 1."""
    a = tuple(alpha)
    if sum(a) == 1:
        return (0.0 + (a == _UNIT[nu]) * (y[rho] - x_star[rho])
                + (a == _UNIT[rho]) * (y[nu] - x_star[nu]))
    if a == _unit_sum(nu, rho):
        return 2.0 if nu == rho else 1.0
    return 0.0


def extraction_coefficients(K, preset: str, beta: float) -> ExtractionCoefficients:
    """F from the neutral sector of K on small sets, with dE and dsigma.

    F(X) = sum_{D in X} [alpha0 + quadratic gradient terms] is an activity
    of K's class on K's torus, keyed like K (polymer and shape keys alike
    list their blocks by ``sorted``), with its gradient terms at
    FLOW_N_Q^2 midpoint nodes per block.  preset 'ir': constants plus both
    gradient quadratics; 'uv': constants only.  dE sums shape values at
    phi = 0; dsigma comes from the trace identity of the quadratic
    coefficients.  The isotropy check reports its measure in
    ``anisotropy`` and does not stop the caller.
    """
    if isinstance(K, TruncatedActivity):
        items = [(key, ts) for key, ts in K.shapes.items() if shape_is_small(key)]
        weight = 1.0
    elif isinstance(K, CloudActivity):
        # absolute representation: every supported small polymer; dividing by
        # the block count makes dE and dsigma per-block quantities, matching
        # the translation-invariant branch
        items = [(p.blocks, K.terms(p)) for p in K.support() if is_small(p, K.torus)]
        weight = 1.0 / K.torus.n_blocks
    else:
        raise TypeError("extraction coefficients need cloud or truncated input")

    ir = preset == "ir"
    data = {}
    dE = 0.0
    s_diag = np.zeros(2)
    s_off = 0.0
    for key, ts in items:
        blocks = sorted(key)
        size = len(blocks)
        M0, M2, M3 = neutral_moments(ts, _centroid(blocks))
        dE += weight * M0.real
        out = []
        if (a0 := M0 / size) != 0:
            out.append(CloudTerm(a0 * size))
        if ir:
            # F's coefficients are Python complex, as every flow coefficient is
            quad = {(mu, nu): complex(M2[mu, nu]) / (2.0 * size if mu == nu else size)
                    for mu in (0, 1) for nu in range(mu, 2)}
            s_diag[0] += weight * size * quad[(0, 0)].real
            s_diag[1] += weight * size * quad[(1, 1)].real
            s_off += weight * size * quad[(0, 1)].real
            # (gradient, gradient, coefficient): the quadratic terms, then
            # the gradient-square terms
            grads = [(_UNIT[mu], _UNIT[nu], c) for (mu, nu), c in quad.items()] + [
                (_UNIT[mu], _unit_sum(nu, rho),
                 complex(M3[mu, nu, rho]) / ((2.0 if nu == rho else 1.0) * size))
                for mu in (0, 1) for nu in (0, 1) for rho in range(nu, 2)
            ]
            for b in blocks:
                nodes = block_quadrature_nodes(b, FLOW_N_Q)
                w = 1.0 / len(nodes)
                for e1, e2, c in grads:
                    if c != 0:
                        out += [CloudTerm(c * w, (), ((e1, x), (e2, x))) for x in nodes]
        if out := canon(out):
            data[key] = out
    if ir:
        aniso = float(abs(s_diag[0] - s_diag[1]) + abs(s_off))
        dsigma = -2.0 * beta * 0.5 * (s_diag[0] + s_diag[1])
    else:
        aniso = 0.0
        dsigma = 0.0
    return ExtractionCoefficients(F=replace(K, **{K.STORE: data}), dE=dE, dsigma=dsigma,
                                  anisotropy=aniso)


def exp_f_minus_one_plus(f_vals: dict, target: Polymer, torus: TorusSpec) -> complex:
    """(e^F - 1)^+(target) from F's values at one field, {polymer: F(Y, phi)}
    in support order (distinct touch-connected covers)."""
    supp = [p for p in f_vals if p.blocks <= target.blocks]
    total = 0.0
    for r in range(1, len(supp) + 1):
        for combo in itertools.combinations(supp, r):
            union = frozenset().union(*(p.blocks for p in combo))
            if union != target.blocks:
                continue
            if not _touch_connected(list(combo), torus):
                continue
            prod = 1.0
            for y in combo:
                prod *= cmath.exp(f_vals[y]) - 1.0
            total += prod
    return total


def _touch_connected(pieces, torus) -> bool:
    if len(pieces) <= 1:
        return True
    n = len(pieces)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and region_intersects(pieces[i], pieces[j], torus):
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def extract_functional(K, F) -> FunctionalActivity:
    """The full extraction map as a pointwise evaluator (identity testing).

    Ktilde lives on K's support and on every touch-connected union of F
    polymers; both feed the X-collections.
    """
    torus = K.torus
    k_supp = list(K.support())
    f_supp = list(F.support())

    def union_blocks(ps):
        return frozenset().union(*(p.blocks for p in ps)) if ps else frozenset()

    x_candidates = {p.blocks: p for p in k_supp}
    for r in range(1, len(f_supp) + 1):
        for combo in itertools.combinations(f_supp, r):
            if _touch_connected(list(combo), torus):
                u = union_blocks(combo)
                x_candidates.setdefault(u, Polymer(u))
    xc_all = list(x_candidates.values())

    supports = set()
    for r in range(1, min(len(xc_all), 3) + 1):
        for xs in itertools.combinations(xc_all, r):
            if not _pairwise_disjoint(xs, torus):
                continue
            for ry in range(0, min(len(f_supp), 3) + 1):
                for ys in itertools.combinations(f_supp, ry):
                    if not _valid_extraction_config(xs, ys, torus):
                        continue
                    supports.add(union_blocks(list(xs) + list(ys)))

    def fn(zs, fld) -> list:
        # K and F are evaluated once per field; Ktilde once per X candidate
        k_vals = dict(zip((p.blocks for p in k_supp), K.values(k_supp, fld)))
        f_vals = dict(zip(f_supp, F.values(f_supp, fld)))
        kt: dict = {}

        def ktilde(p: Polymer) -> complex:
            hit = kt.get(p.blocks)
            if hit is None:
                hit = kt[p.blocks] = (k_vals.get(p.blocks, 0.0)
                                      - exp_f_minus_one_plus(f_vals, p, torus))
            return hit

        return [z_value(z, ktilde, f_vals) for z in zs]

    def z_value(z: Polymer, ktilde, f_vals) -> complex:
        total = 0.0
        zb = z.blocks
        xc = [p for p in xc_all if p.blocks <= zb]
        ys_in = [p for p in f_supp if p.blocks <= zb]
        for r in range(1, len(xc) + 1):
            for xs in itertools.combinations(xc, r):
                if not _pairwise_disjoint(xs, torus):
                    continue
                xval = 1.0
                for x in xs:
                    xval *= ktilde(x)
                if xval == 0.0:
                    continue
                for ry in range(0, len(ys_in) + 1):
                    for ys in itertools.combinations(ys_in, ry):
                        if union_blocks(list(xs) + list(ys)) != zb:
                            continue
                        if not _valid_extraction_config(xs, ys, torus):
                            continue
                        yval = 1.0
                        for y in ys:
                            yval *= cmath.exp(-f_vals[y]) - 1.0
                        total += xval * yval
        return total

    return FunctionalActivity(torus, fn, [Polymer(s) for s in sorted(supports, key=sorted)])


def _pairwise_disjoint(ps, torus) -> bool:
    return all(
        region_disjoint(a, b, torus) for a, b in itertools.combinations(ps, 2)
    )


def _valid_extraction_config(xs, ys, torus) -> bool:
    # every Y touches some X; the joint configuration is touch-connected
    for y in ys:
        if not any(region_intersects(y, x, torus) for x in xs):
            return False
    return _touch_connected(list(xs) + list(ys), torus)


def _series_exp_minus_one(ts):
    """Terms of e^{F(Y)} - 1 to ``EXTRACTION_ORDER`` in F, without the
    products of more than ``MAX_LINFS`` gradient factors: F carries no
    charges, so the truncated model drops exactly those."""
    out = []
    power = [CloudTerm(1.0)]
    fact = 1.0
    for n in range(1, EXTRACTION_ORDER + 1):
        power = canon(tm.product(a, b) for a in power for b in ts
                      if len(a.linfs) + len(b.linfs) <= MAX_LINFS)
        fact *= n
        out.extend(t.scaled(1.0 / fact) for t in power)
    return canon(out)


def extract_cloud(K: TruncatedActivity, F: TruncatedActivity,
                  cache: dict) -> TruncatedActivity:
    """Truncated extraction: Ktilde = K - (e^F - 1) per shape, with e^F - 1
    expanded to ``EXTRACTION_ORDER`` and only its products inside the model
    formed.  Each shape's terms, K's then -(e^F - 1)'s, are collapsed into one
    sum per piece through the step's collapse memo (``cache``), and sums at
    most ``DROP_TOL`` times a shape's largest are dropped.  K's shapes come
    first, then F's new ones.

    F is second order in the activity, so multi-Y clusters and the X-Y
    collections are at least third order; they are dropped, and no record
    of them is kept, nor of the F.F products left out.
    """
    memo = _collapse_memo(cache)
    out: dict = {}  # shape key -> {piece key: coeff}
    for key, ts in K.shapes.items():
        if ts:
            _collapse_into(out.setdefault(key, {}), ts, memo)
    for key, ts in F.shapes.items():
        _collapse_into(out.setdefault(key, {}),
                       [t.scaled(-1.0) for t in _series_exp_minus_one(ts)], memo)
    return TruncatedActivity(K.torus, {
        key: kept for key, sums in out.items() if (kept := tm._canon_sums(sums, DROP_TOL))
    })


# ----------------------------------------------------------------------------
# scaling
# ----------------------------------------------------------------------------


CLUSTER_MAX = 3  # polymers per cluster in the scaling of a cloud activity


def scale_activity(K: CloudActivity) -> CloudActivity:
    """The full scaling map on cloud activities (closure-connected clusters
    of at most CLUSTER_MAX polymers); truncated activities take the linear
    regrouping, ``scale_linear``."""
    coarse = K.torus.coarse()
    out: dict = {}
    for chosen in _disjoint_collections(K, CLUSTER_MAX):
        closures = [partition_closure(p, K.torus) for p in chosen]
        if _touch_connected(closures, coarse):
            union = frozenset().union(*(c.blocks for c in closures))
            acc = [CloudTerm(1.0)]
            for p in chosen:
                acc = tm.multiply(acc, K.terms(p))
            ts = [tm.scale_term(t, K.torus.L) for t in acc]
            if ts:
                out[union] = canon(list(out.get(union, [])) + ts)
    return CloudActivity(coarse, {k: v for k, v in out.items() if v})


def scale_linear(K: TruncatedActivity, cache: dict, keep):
    """(S_1 K, S_1 K_keep), where S_1 K(X) = sum over polymers with partition
    closure X of K(Y, phi_L): the translation-invariant scaling, every shape
    at the L^d positions modulo coarse translations, mapped by the partition
    closure.  K_keep = ``K.filter(keep)`` holds the terms t of shape k with
    keep(k, t); its image comes from the same pass, with the additions a call
    on K_keep alone makes.

    Multi-polymer closure clusters are O(K^2); the truncated flow drops
    them (recorded upstream) and keeps the linearized regrouping, which is
    exact on single polymers.

    Every term of ``K`` must be one that ``collapse_term`` maps to itself
    (see ``TruncatedActivity``); a term that is not raises a RuntimeError
    naming it.  A moved copy of such a term collapses to one term of the
    model, with its coefficient untouched.  Where a copy lands depends on
    the torus, shape and term key, not on the coefficient: each (shape,
    term key) image is built once per ``cache`` (see ``_ShapeImages``), an
    int32 row of slots, each slot a (coarse shape key, piece key) pair
    numbered once per ``cache``.  Each coefficient is multiplied once by its
    term's L^-|alpha| factor, and the products are summed per slot in the
    order of collapsing every copy (shape, then offset, then term) by
    ``_SlotSums``, and then ``canon``.
    """
    L = K.torus.L
    offsets = np.array([(ox, oy) for ox in range(L) for oy in range(L)])
    images = cache.setdefault(K.torus, {})
    slots = cache.setdefault("slots", {})  # (coarse shape key, piece key) -> slot
    memo = _collapse_memo(cache)
    scaled = []  # (images, rows, coefficients, indices of the kept terms) per shape
    for key, ts in K.shapes.items():
        if not ts:
            continue
        img = images.get(key)
        if img is None:
            img = images[key] = _ShapeImages(key, K.torus, offsets)
        keys = [t.key() for t in ts]
        new: dict = {}
        for k, t in zip(keys, ts):
            if k not in img.rows and k not in new:
                if _collapsed(memo, k) != [(k, 1)]:
                    raise RuntimeError(f"shape {key}: {t!r} is outside the truncated model")
                new[k] = t
        if new:
            img.add_terms(list(new.values()), L, offsets, slots, memo)
        rows = [img.rows[k] for k in keys]
        coeffs = [t.coeff * f for t, (_, f) in zip(ts, rows)]
        picked = [i for i, t in enumerate(ts) if keep(key, t)]
        scaled.append((img, [r for r, _ in rows], coeffs, picked))
    full, kept = _SlotSums(len(slots)), _SlotSums(len(slots))
    for img, rows, coeffs, picked in scaled:
        table = img.table[rows]
        full.add(img.coarse_keys, table, coeffs)
        if picked:
            kept.add(img.coarse_keys, table[picked], [coeffs[i] for i in picked])
    coarse, keys = K.torus.coarse(), list(slots)
    return tuple(TruncatedActivity(coarse, sums.terms(keys)) for sums in (full, kept))


class _ShapeImages:
    """The scaling images of one shape on one torus.

    Per offset: the shape key of the shape's partition closure, and the
    shift back to that key's anchor.  Per term key: a row of ``table``, the
    slot of the moved term's collapse at each offset, and the term's
    L^-|alpha| factor (``terms._derivative_scale``).
    """

    __slots__ = ("coarse_keys", "back", "rows", "table")

    def __init__(self, key, torus: TorusSpec, offsets: np.ndarray):
        # partition_closure at every offset at once
        closure = partition_block(np.array(key)[None] + offsets[:, None], torus.L)
        closure %= torus.coarse().side
        base = closure.min(axis=1)
        self.coarse_keys = [tuple(sorted(set(map(tuple, blocks))))
                            for blocks in (closure - base[:, None]).tolist()]
        self.back = -base
        self.rows: dict = {}  # term key -> (row of table, L^-|alpha| factor)
        self.table = np.empty((0, len(offsets)), dtype=np.int32)

    def add_terms(self, new, L: int, offsets: np.ndarray, slots: dict, memo: dict):
        """Give each new model term its row, numbering new slots in ``slots``.

        The collapse reads positions only through ``round()``, so offsets
        whose copies round every position of the new terms to the same
        blocks form a class, and each term is looked up in ``memo`` once per
        class.  A position x at offset o lands at the roundings of
        ``terms._translate_key``, ``scale_term`` and ``_translate_key`` of
        (x + o) / L + back, then ``round()``; for the integral positions of
        the model that is ``np.rint((x + o) / L + back)``, ties to even alike.
        """
        positions = sorted({x for t in new for _, x in t.charges + t.linfs})
        moved = np.rint(
            (np.array(positions, dtype=float).reshape(1, -1, 2) + offsets[:, None]) / L
            + self.back[:, None]
        ).reshape(len(offsets), -1).tolist()
        classes: dict = {}  # rounded positions -> piece key of each new term
        combos: dict = {}  # (coarse shape key, rounded positions) -> index
        slot_rows = []  # per combo: the slot of each new term
        combo_of = []  # per offset: its combo
        for blocks, coarse_key in zip(map(tuple, moved), self.coarse_keys):
            pieces = classes.get(blocks)
            if pieces is None:
                at = dict(zip(positions, zip(blocks[::2], blocks[1::2])))
                pieces = classes[blocks] = [
                    _collapsed(memo, (tuple((q, at[x]) for q, x in t.charges),
                                      tuple((a, at[y]) for a, y in t.linfs)))[0][0]
                    for t in new
                ]
            j = combos.setdefault((coarse_key, blocks), len(slot_rows))
            if j == len(slot_rows):
                slot_rows.append([slots.setdefault((coarse_key, p), len(slots))
                                  for p in pieces])
            combo_of.append(j)
        for t in new:  # scale_term's factor, shared by every offset
            self.rows[t.key()] = (len(self.rows), tm._derivative_scale(t.linfs, L))
        rows = np.array(slot_rows, dtype=np.int32)[combo_of].T
        self.table = np.concatenate([self.table, rows])


class _SlotSums:
    """Per-slot sums of complex coefficients, each started from 0 and added
    to in the order of the ``add`` calls, and within one call offset by
    offset: ``np.add.at`` adds repeated indices in input order, as Python's
    complex additions would."""

    def __init__(self, n: int):
        self.order: dict = {}  # coarse shape keys, in order of appearance
        self.sums = np.zeros(n, dtype=complex)
        self.hit = np.zeros(n, dtype=bool)

    def add(self, coarse_keys, rows: np.ndarray, coeffs) -> None:
        """Add coeffs[i] to slot rows[i, o], for offset o, then term i; the
        coarse keys are those of the offsets."""
        self.order.update(dict.fromkeys(coarse_keys))
        idx = rows.T.ravel()
        np.add.at(self.sums, idx, np.tile(np.array(coeffs, dtype=complex), rows.shape[1]))
        self.hit[idx] = True

    def terms(self, keys) -> dict:
        """{coarse shape key: canonical terms}, from the (coarse shape key,
        piece key) of each slot."""
        acc: dict = {k: {} for k in self.order}
        hit = np.flatnonzero(self.hit)
        for s, c in zip(hit.tolist(), self.sums[hit].tolist()):
            coarse_key, piece = keys[s]
            acc[coarse_key][piece] = c
        return {k: kept for k, sums in acc.items() if (kept := tm._canon_sums(sums))}


# ----------------------------------------------------------------------------
# charged-sector factors
# ----------------------------------------------------------------------------


def charge_factors(q: int, c_zero: float, n_c: float, h: float, eta: float,
                   L: int) -> dict:
    """m_q, the analyticity loss N_C, the shift gain, and the one-step
    charged multiplier L^2 e^{2 N_C |q|} m_q."""
    if q == 0:
        raise ValueError("charged factors need q != 0")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    m_q = math.exp(-(abs(q) - 0.5) * c_zero)
    return {
        "m_q": m_q,
        "n_c": n_c,
        "shift_gain": math.exp(eta * h * abs(q)),
        "combined": L**2 * math.exp(2.0 * n_c * abs(q)) * m_q,
    }


# ----------------------------------------------------------------------------
# the composed step
# ----------------------------------------------------------------------------


@dataclass
class RGStepParams:
    """One-step configuration: the measure, the extraction preset, and the
    Gamma_p shift p of the activity norm, whose other weights are fixed
    (``activity_norm``)."""

    beta: float
    torus: TorusSpec
    c_star: float  # beta-scaled star norm for hypothesis 3, computed once per flow
    p: int
    sigma: float
    preset: str  # 'uv' extracts constants; 'ir' gradient quadratics as well

    def cov(self) -> CovAccess:
        return CovAccess(CovarianceKernel("slice", sigma=self.sigma, torus=self.torus),
                         scale=self.beta)


K_SMALL_SUPERSETS = 509  # small supersets of a block, checked by hypothesis 4
CAUCHY_ROOM = NORM_H / 4  # the analyticity room delta h of hypothesis 3


@lru_cache(maxsize=None)
def _hypothesis_constants() -> tuple[float, int]:
    """gamma(12) and the small-superset count of a block: fixed, computed once."""
    return construct_gamma(12.0), count_small_supersets(TorusSpec(2, 4))


def check_hypotheses(log_norm_k: float, params: RGStepParams) -> dict:
    """Numeric checks of the four step hypotheses on an activity of log norm
    ``log_norm_k``; values always reported.

    Each check carries a signed ``margin``, >= 0 exactly when it holds (h1,
    h2 and h3 in log units, h4 in supersets).  A failed check is listed in
    ``failed`` and does not stop the step.
    """
    gamma_fac, k_small = _hypothesis_constants()
    checks = {}
    checks["h1_norm_small"] = {
        "value": log_norm_k,
        "margin": math.log(SMALLNESS) - log_norm_k,
        "ok": log_norm_k < math.log(SMALLNESS),
    }
    L = params.torus.L
    c_bound = 1.0 / (2 * 2 * L)
    kappa_val = NORM_KAPPA / max(c_bound, 1e-300) * L**2
    checks["h2_regulator_constants"] = {
        "kappa_c_inv_L2": kappa_val,
        "margin": math.log(10.0 * SMALLNESS) - math.log(max(kappa_val, 1e-300)),
        "ok": kappa_val <= 10.0 * SMALLNESS,
    }
    rhs = math.log(8.0 * gamma_fac**2 * params.c_star) + log_norm_k
    lhs = 2.0 * math.log(CAUCHY_ROOM)
    checks["h3_cauchy_room"] = {
        "delta_h_sq_log": lhs,
        "bound_log": rhs,
        "margin": lhs - rhs,
        "ok": lhs >= rhs,
    }
    checks["h4_small_superset_count"] = {
        "k": k_small,
        "margin": -abs(k_small - K_SMALL_SUPERSETS),
        "ok": k_small == K_SMALL_SUPERSETS,
    }
    checks["failed"] = [name for name, c in checks.items() if not c["ok"]]
    return checks


def extract_step(K: TruncatedActivity, params: RGStepParams, cache: dict):
    """(E(K, F(K)), coefficients): F from K's neutral sector on small sets,
    removed with e^F - 1 to ``EXTRACTION_ORDER``.  The isotropy check
    reports its measure in the coefficients and does not stop the step."""
    coeffs = extraction_coefficients(K, params.preset, params.beta)
    return extract_cloud(K, coeffs.F, cache), coeffs


def rg_step(K, params: RGStepParams):
    """K' = S(E(F K)) with the hypothesis checks and the four-term split.

    Returns (K', coeffs, diagnostics); the extraction coefficients carry
    dE and dsigma for the flow bookkeeping.

    One cache per step holds the scaling images and slots and the collapse
    memo, so each term key is collapsed once per step, whether
    fluctuation, extraction, scaling or the four-term split meets it; F_1 K
    is computed once, for the fluctuation and the split, ||K|| once, for
    the hypotheses and the split, and the scaling of the extracted state
    gives the split its large-set image in the same pass.
    """
    cov = params.cov()
    log_norm = activity_norm(K, params.p)
    diag = {"hypotheses": check_hypotheses(log_norm, params)}
    cache: dict = {}
    k1 = fluctuate_linear(K, cov)
    k_sharp = fluctuate(K, cov, cache, k1)
    k_star, coeffs = extract_step(k_sharp, params, cache)
    k_new, r1_large = scale_linear(k_star, cache, _large)
    diag["four_terms"] = four_term_split(K, log_norm, params, k1, k_new, k_star, r1_large,
                                         cache)
    diag["dropped_terms"] = k_sharp.dropped_terms
    return k_new, coeffs, diag


def clip_to_small(K: TruncatedActivity, p: int):
    """Restrict K to small shapes; returns it and the log norm (Gamma_p shift
    p) of the rest."""
    small = K.filter(lambda k, t: shape_is_small(k))
    rest = K.filter(_large)
    clipped_log = activity_norm(rest, p) if rest.shapes else -math.inf
    return small, clipped_log


def _large(key, t) -> bool:
    return not shape_is_small(key)


def _unit_charge_small(key, t) -> bool:
    return shape_is_small(key) and abs(t.total_charge) == 1


def four_term_split(K: TruncatedActivity, log_norm_k: float, params: RGStepParams,
                    k1: TruncatedActivity, k_new: TruncatedActivity,
                    k_star: TruncatedActivity, r1_large: TruncatedActivity,
                    cache: dict) -> dict:
    """Norms of the mechanisms the flow reads: higher order, large sets and
    unit-charge small sets (each linearized except the first), from
    k1 = F_1 K = ``fluctuate_linear(K, cov)`` and log ||K|| = ``log_norm_k``.

    The large-set column is measured where large sets live: on the
    extracted post-fluctuation state k_star (tree terms populate it), whose
    large shapes scale to ``r1_large`` (the second output of
    ``scale_linear(k_star, cache, _large)``).  One scaling of k1 - F(k1)
    gives the other two: R_1, and the image of its unit-charge small-set
    terms."""
    out = {}
    large_star = k_star.filter(_large)
    # the closure contraction lives in the full-amplitude regulator
    # Gamma(X) = A^{|X|} Theta(X), the shift p = 0; measure this column there
    out["large_sets"] = {
        "in": activity_norm(large_star, 0),
        "out": activity_norm(r1_large, 0),
    }
    # the unit-charge sector isolates the leading contraction mechanism;
    # convolution keeps each term's charge and F is neutral, so the sector's
    # terms of k1 - F(k1) are those of F_1 K
    F = extraction_coefficients(k1, params.preset, params.beta).F
    r1_full, r1_unit = scale_linear(k1.add(F, -1.0), cache, _unit_charge_small)
    out["charged_small"] = {
        "in": activity_norm(K.filter(_unit_charge_small), params.p),
        "out": activity_norm(r1_unit, params.p),
    }
    out["higher_order"] = {
        "in": log_norm_k,
        "out": activity_norm(k_new.add(r1_full, -1.0), params.p),
    }
    return out
