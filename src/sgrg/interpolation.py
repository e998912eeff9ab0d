"""Forest and tree combinatorics for the cluster-expanded fluctuation map.

A bond is an unordered pair (i, j) on {0..n-1}; a forest is a set of bonds
without cycles.  The path-minimum coupling

    sigma_ij(G, s) = min { s_b : b on the G-path joining i and j }

(0 when no path, 1 on the diagonal) drives the interpolation identity

    F(1) = sum_{forests G} int prod_{b in G} ds_b (prod_b d/ds_b F)(sigma(G, s)).

Multilinear F are handled exactly: integrals of products of subset minima
reduce, by summing over orderings of the s values, to iterated monomial
integrals over an ordered simplex.  Smooth F use per-ordering-region
Gauss-Legendre quadrature (each region is free of min-kinks).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

GAUSS_NODES = 24  # Gauss-Legendre nodes per axis of each ordering region


def bonds_on(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _has_cycle(n, bonds):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in bonds:
        ri, rj = find(i), find(j)
        if ri == rj:
            return True
        parent[ri] = rj
    return False


@lru_cache(maxsize=16)
def all_forests(n: int) -> tuple:
    """All forests on n labeled vertices as tuples of bonds (n <= 6)."""
    if n > 6:
        raise ValueError("forest enumeration capped at n = 6")
    out = []
    bonds = bonds_on(n)
    for r in range(len(bonds) + 1):
        for combo in itertools.combinations(bonds, r):
            if not _has_cycle(n, combo):
                out.append(combo)
    return tuple(out)


def forest_count_recursive(n: int) -> int:
    """Independent forest count: condition on the component of vertex 1."""
    if n == 0:
        return 1
    total = 0
    for k in range(1, n + 1):
        trees_k = 1 if k == 1 else k ** (k - 2)
        total += math.comb(n - 1, k - 1) * trees_k * forest_count_recursive(n - k)
    return total


def trees_on(n: int) -> tuple:
    """All labeled trees on n vertices: the forests with n - 1 bonds."""
    return tuple(f for f in all_forests(n) if len(f) == n - 1)


def path_in_forest(bonds, i, j):
    """Bonds on the unique path joining i and j, or None if disconnected."""
    if i == j:
        return ()
    adj = {}
    for a, b in bonds:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    prev = {i: None}
    stack = [i]
    while stack:
        v = stack.pop()
        if v == j:
            break
        for w in adj.get(v, []):
            if w not in prev:
                prev[w] = v
                stack.append(w)
    if j not in prev:
        return None
    path = []
    v = j
    while prev[v] is not None:
        u = prev[v]
        path.append((min(u, v), max(u, v)))
        v = u
    return tuple(path)


@lru_cache(maxsize=None)
def _path_table(bonds: tuple) -> MappingProxyType:
    """{(i, j): the ranks in ``bonds`` of the bonds on the path joining i < j}
    for every pair of vertices the forest joins, in ``path_in_forest``'s
    order.  Built once per forest and read-only, since every caller shares
    it."""
    rank = {b: r for r, b in enumerate(bonds)}
    verts = sorted({v for b in bonds for v in b})
    table = {}
    for i, j in itertools.combinations(verts, 2):
        path = path_in_forest(bonds, i, j)
        if path is not None:
            table[(i, j)] = tuple(rank[b] for b in path)
    return MappingProxyType(table)


def path_minima(bonds, pts: np.ndarray) -> dict:
    """{(i, j): sigma_ij(G, s) at each row s of ``pts``} for every pair i < j
    that the forest ``bonds`` joins, column r of ``pts`` holding the s of
    bond r: the minimum of the columns of the bonds on the path."""
    return {pair: np.min(pts[:, list(ranks)], axis=1)
            for pair, ranks in _path_table(bonds).items()}


def sigma_matrices(bonds, pts: np.ndarray, n: int) -> np.ndarray:
    """The path-minimum couplings sigma(G, s) of the forest ``bonds`` on n
    vertices at each row s of ``pts`` (as in ``path_minima``), stacked: 1 on
    the diagonal, the path minimum, and 0 where no path joins the pair."""
    out = np.tile(np.eye(n), (len(pts), 1, 1))
    for (i, j), vals in path_minima(bonds, pts).items():
        out[:, i, j] = out[:, j, i] = vals
    return out


def sigma_matrix(bonds, s: dict, n: int) -> np.ndarray:
    """``sigma_matrices`` at one point, with s mapping bond -> [0, 1]."""
    return sigma_matrices(bonds, np.array([[s[b] for b in bonds]], dtype=float), n)[0]


# -- exact integrals of min-monomials ------------------------------------------


def ordered_monomial_integral(powers) -> float:
    """int over 0 < t_1 < ... < t_m < 1 of prod t_i^{a_i} dt (inner index first)."""
    val = 1.0
    acc = 0
    for i, a in enumerate(powers):
        acc += a + 1
        val /= acc
    return val


def integrate_min_products(m: int, subsets) -> float:
    """int over [0,1]^m of prod_k min_{b in S_k} t_b dt, exactly.

    subsets: iterable of nonempty index subsets of {0..m-1}; an empty
    product integrates to 1.
    """
    subsets = [frozenset(S) for S in subsets]
    if any(not S for S in subsets):
        raise ValueError("subsets must be nonempty")
    if m == 0:
        return 1.0 if not subsets else 0.0
    total = 0.0
    for perm in itertools.permutations(range(m)):
        # region t_{perm[0]} < t_{perm[1]} < ... ; rank of index b
        rank = {b: r for r, b in enumerate(perm)}
        powers = [0] * m
        for S in subsets:
            powers[min(rank[b] for b in S)] += 1
        total += ordered_monomial_integral(powers)
    return total


def gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def ordered_region_quadrature(m: int) -> tuple:
    """Nodes/weights covering [0,1]^m split into ordering regions.

    A tuple of (perm, pts, wts): pts are (GAUSS_NODES^m, m) points with
    t_{perm[0]} < t_{perm[1]} < ... inside the region, wts include the
    simplex Jacobian.  Integrands smooth per region integrate spectrally.
    Built once per (m, GAUSS_NODES); every caller shares the arrays, so they
    are read-only.
    """
    return _region_quadrature(m, GAUSS_NODES)


@lru_cache(maxsize=32)
def _region_quadrature(m: int, nodes: int) -> tuple:
    x, w = gl_nodes(nodes)
    out = []
    for perm in itertools.permutations(range(m)):
        # t_(m) = u_m, t_(i) = t_(i+1) u_i  (descending construction)
        grids = np.meshgrid(*([x] * m), indexing="ij")
        wgts = np.ones_like(grids[0])
        for wi in np.meshgrid(*([w] * m), indexing="ij"):
            wgts = wgts * wi
        ts = [None] * m
        jac = np.ones_like(grids[0])
        ts[m - 1] = grids[m - 1]
        for i in range(m - 2, -1, -1):
            ts[i] = ts[i + 1] * grids[i]
            jac = jac * ts[i + 1]
        pts = np.empty((grids[0].size, m))
        for r, b in enumerate(perm):
            pts[:, b] = ts[r].ravel()
        wts = (wgts * jac).ravel()
        pts.flags.writeable = wts.flags.writeable = False
        out.append((perm, pts, wts))
    return tuple(out)


def integrate_over_cube(m: int, fn) -> float:
    """Integrate fn(pts) over [0,1]^m by summing the ordering regions."""
    if m == 0:
        return float(fn(np.zeros((1, 0)))[0])
    total = 0.0
    for _, pts, wts in ordered_region_quadrature(m):
        total += float(np.dot(fn(pts), wts))
    return total


# -- the interpolation identity -------------------------------------------------


def multilinear_interpolation_rhs(n: int, coeffs: dict) -> float:
    """RHS of the identity for multilinear F = sum_A c_A prod_{b in A} s_b."""
    total = 0.0
    for G in all_forests(n):
        Gset = frozenset(G)
        m = len(G)
        for A, cA in coeffs.items():
            Aset = frozenset(A)
            if not Gset <= Aset:
                continue
            # remaining bonds evaluate to sigma_{ij}(G, .): a min over the
            # G-path (in the G bond variables) or 0 if no path
            subsets = []
            zero = False
            for b in Aset - Gset:
                ranks = _path_table(G).get((min(b), max(b)))
                if ranks is None:
                    zero = True
                    break
                subsets.append(ranks)
            if zero:
                continue
            total += cA * integrate_min_products(m, subsets)
    return total


def forest_interpolation_check_multilinear(n: int, coeffs: dict) -> float:
    """|F(1) - forest expansion| for multilinear F, both sides exact."""
    lhs = sum(coeffs.values())
    return abs(lhs - multilinear_interpolation_rhs(n, coeffs))


def forest_interpolation_check_smooth(n: int, f, df_prod) -> float:
    """|F(1) - expansion| for smooth F.

    f(smat): value of F given the full matrix of pair couplings;
    df_prod(G, smat): value of (prod_{b in G} d/ds_b F) at those couplings.
    """
    if n > 4:
        raise ValueError("smooth-integrand check capped at n = 4")
    ones = np.ones((n, n))
    lhs = f(ones)
    total = df_prod((), np.eye(n))  # empty forest: F at sigma(0)
    for G in all_forests(n):
        if not G:
            continue

        def integrand(pts, G=G):
            return np.array([df_prod(G, mat) for mat in sigma_matrices(G, pts, n)])

        total += integrate_over_cube(len(G), integrand)
    return abs(lhs - total)


# -- Cayley counts ----------------------------------------------------------------


def tree_count(degree_sequence) -> int:
    """Labeled trees with the given vertex degrees: (N-2)! / prod (d_i - 1)!."""
    ds = [int(d) for d in degree_sequence]
    n = len(ds)
    if n < 2 or any(d < 1 for d in ds) or sum(ds) != 2 * n - 2:
        return 0
    num = math.factorial(n - 2)
    for d in ds:
        num //= math.factorial(d - 1)
    return num


# -- factorial-distance bound ------------------------------------------------------

DIM = 2  # the blocks of the bound tile the plane


def ball_block_count(r: float) -> int:
    """Unit blocks (centered on lattice points) intersecting a radius-r ball."""
    reach = int(math.ceil(r + 1.0))
    count = 0
    for c in itertools.product(range(-reach, reach + 1), repeat=DIM):
        dist2 = sum(max(abs(ci) - 0.5, 0.0) ** 2 for ci in c)
        if dist2 <= r * r:
            count += 1
    return count


def construct_gamma(r_max: float) -> float:
    """gamma with m_r <= gamma r^d for all r > 1 (checked on jump radii)."""
    gamma = ball_block_count(1.0 + 1e-9)  # r -> 1+ limit
    # m_r jumps where a new shell of blocks becomes reachable
    radii = sorted(
        {
            math.sqrt(sum(max(abs(ci) - 0.5, 0.0) ** 2 for ci in c))
            for c in itertools.product(range(-int(r_max) - 2, int(r_max) + 3), repeat=DIM)
        }
    )
    for r in radii:
        if 1.0 < r <= r_max:
            gamma = max(gamma, ball_block_count(r) / r**DIM)
    return gamma


def factorial_bound_check(delta, blocks, gamma: float) -> bool:
    """Check n! <= gamma^n prod_j dist(delta, block_j)^d for a gamma from
    ``construct_gamma``."""
    blocks = [tuple(b) for b in blocks]
    if len(set(blocks)) != len(blocks) or tuple(delta) in blocks:
        raise ValueError("blocks must be distinct and different from the base block")
    dists = [
        math.sqrt(sum((bi - di) ** 2 for bi, di in zip(b, delta))) for b in blocks
    ]
    n = len(blocks)
    lhs = math.lgamma(n + 1)
    rhs = n * math.log(gamma) + DIM * sum(math.log(x) for x in dists)
    return lhs <= rhs + 1e-9
