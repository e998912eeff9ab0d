import itertools
import math
import random

import numpy as np
import pytest

from sgrg import interpolation
from sgrg.interpolation import (
    all_forests,
    ball_block_count,
    bonds_on,
    construct_gamma,
    factorial_bound_check,
    forest_count_recursive,
    forest_interpolation_check_multilinear,
    forest_interpolation_check_smooth,
    integrate_min_products,
    ordered_region_quadrature,
    path_in_forest,
    sigma_matrices,
    sigma_matrix,
    tree_count,
    trees_on,
)


class TestSigma:
    def test_path_minimum(self):
        T = ((0, 1), (1, 2))
        s = {(0, 1): 0.3, (1, 2): 0.7}
        assert sigma_matrix(T, s, 3)[0, 2] == pytest.approx(0.3)

    def test_no_path_is_zero(self):
        G = ((0, 1),)
        assert sigma_matrix(G, {(0, 1): 0.5}, 3)[0, 2] == 0.0

    def test_diagonal_one(self):
        assert sigma_matrix((), {}, 2)[1, 1] == 1.0

    def test_monotone_in_s(self):
        rng = random.Random(2)
        for T in trees_on(4):
            s = {b: rng.random() for b in T}
            base = sigma_matrix(T, s, 4)
            for b in T:
                s2 = dict(s)
                s2[b] = min(1.0, s[b] + 0.2)
                bumped = sigma_matrix(T, s2, 4)
                assert np.all(bumped >= base - 1e-12)

    def test_psd_on_trees(self):
        rng = random.Random(9)
        for n in (2, 3, 4, 5):
            for T in trees_on(n):
                for _ in range(4):
                    s = {b: rng.random() for b in T}
                    w = np.linalg.eigvalsh(sigma_matrix(T, s, n))
                    assert w.min() >= -1e-10


    def test_matrices_are_path_minima_at_each_point(self):
        # the vectorised evaluator against path_in_forest, point by point
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            for G in all_forests(n):
                pts = rng.uniform(size=(7, len(G)))
                mats = sigma_matrices(G, pts, n)
                assert mats.shape == (7, n, n)
                for s, mat in zip(pts, mats):
                    for i in range(n):
                        for j in range(n):
                            path = path_in_forest(G, i, j)
                            want = (0.0 if path is None else 1.0 if i == j
                                    else min(s[G.index(b)] for b in path))
                            assert mat[i, j] == want


class TestRegionQuadrature:
    def test_cache_follows_gauss_nodes(self, monkeypatch):
        # the regions are cached per node count: a patched GAUSS_NODES takes
        # effect even after the default's regions were built
        default = ordered_region_quadrature(2)
        assert [len(pts) for _, pts, _ in default] == [interpolation.GAUSS_NODES**2] * 2
        monkeypatch.setattr(interpolation, "GAUSS_NODES", 5)
        patched = ordered_region_quadrature(2)
        assert [len(pts) for _, pts, _ in patched] == [25, 25]
        assert sum(float(np.sum(wts)) for _, _, wts in patched) == pytest.approx(1.0, rel=1e-14)
        assert ordered_region_quadrature(2) is patched
        monkeypatch.undo()
        assert ordered_region_quadrature(2) is default

    def test_shared_arrays_are_read_only(self):
        for _, pts, wts in ordered_region_quadrature(2):
            with pytest.raises(ValueError):
                pts[0, 0] = 0.5
            with pytest.raises(ValueError):
                wts[0] = 0.5


class TestForests:
    def test_counts_match_recursion(self):
        # forests on n labeled vertices: 1, 2, 7, 38, 291, 2932
        for n in range(1, 7):
            assert len(all_forests(n)) == forest_count_recursive(n)

    def test_tree_order_is_pinned(self):
        # fluctuate_cloud sums its tree terms in this order; the commands and
        # the acceptance checks build trees on at most three polymers
        assert trees_on(1) == ((),)
        assert trees_on(2) == (((0, 1),),)
        assert trees_on(3) == (((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2)))

    def test_tree_enumeration_count(self):
        for n in (2, 3, 4, 5):
            expect = 1 if n == 2 else n ** (n - 2)
            assert len(set(trees_on(n))) == expect

    def test_min_product_integrals(self):
        # int min(s,t) ds dt = 1/3 ; int s ds = 1/2 ; int s*min(s,t) analytic
        assert integrate_min_products(1, [[0]]) == pytest.approx(0.5)
        assert integrate_min_products(2, [[0, 1]]) == pytest.approx(1.0 / 3.0)
        # int_0^1 int_0^1 s * min(s, t) = int s ( int_0^s t dt + s(1-s) ) = 5/24... brute check
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(200000, 2))
        mc = float(np.mean(pts[:, 0] * np.minimum(pts[:, 0], pts[:, 1])))
        exact = integrate_min_products(2, [[0], [0, 1]])
        assert exact == pytest.approx(mc, abs=5e-3)


class TestInterpolationIdentity:
    def test_n2_linear(self):
        # F(s) = s12: 1 - (0 + int_0^1 1 ds) = 0
        res = forest_interpolation_check_multilinear(2, {((0, 1),): 1.0, (): 0.0})
        assert res < 1e-15

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_multilinear(self, n):
        rng = random.Random(n)
        bonds = bonds_on(n)
        for _ in range(5):
            coeffs = {}
            for r in range(len(bonds) + 1):
                for A in itertools.combinations(bonds, r):
                    if rng.random() < 0.4 or r == 0:
                        coeffs[A] = rng.uniform(-1, 1)
            res = forest_interpolation_check_multilinear(n, coeffs)
            assert res < 1e-12

    def test_smooth_exponential_n3(self):
        n = 3
        rng = random.Random(5)
        c = {b: rng.uniform(-0.4, 0.4) for b in bonds_on(n)}

        def f(mat):
            return math.exp(sum(cv * mat[b[0], b[1]] for b, cv in c.items()))

        def df_prod(G, mat):
            val = f(mat)
            for b in G:
                val *= c[b]
            return val

        res = forest_interpolation_check_smooth(n, f, df_prod)
        assert res < 1e-8

    def test_smooth_exponential_n4(self, monkeypatch):
        n = 4
        c = {b: 0.15 * (1 + b[0] - 0.5 * b[1]) for b in bonds_on(n)}

        def f(mat):
            return math.exp(sum(cv * mat[b[0], b[1]] for b, cv in c.items()))

        def df_prod(G, mat):
            val = f(mat)
            for b in G:
                val *= c[b]
            return val

        monkeypatch.setattr(interpolation, "GAUSS_NODES", 16)
        res = forest_interpolation_check_smooth(n, f, df_prod)
        assert res < 1e-8


class TestCayley:
    def test_star(self):
        assert tree_count([1, 1, 1, 3]) == 1

    def test_path_degrees(self):
        assert tree_count([1, 1, 2, 2]) == 2

    def test_total_n4(self):
        total = 0
        for ds in itertools.product(range(1, 4), repeat=4):
            if sum(ds) == 6:
                total += tree_count(ds)
        assert total == 16  # 4^{4-2}

    def test_matches_enumeration(self):
        for n in (3, 4, 5):
            from collections import Counter

            seen = Counter()
            for T in trees_on(n):
                deg = [0] * n
                for i, j in T:
                    deg[i] += 1
                    deg[j] += 1
                seen[tuple(deg)] += 1
            for ds, cnt in seen.items():
                assert tree_count(ds) == cnt

    def test_infeasible_zero(self):
        assert tree_count([1, 1, 1, 1]) == 0


class TestFactorialBound:
    def test_single_adjacent_block(self):
        assert factorial_bound_check((0, 0), [(1, 0)], construct_gamma(2.0))

    def test_randomized_no_violations(self):
        rng = random.Random(17)
        gamma = construct_gamma(40.0)
        for _ in range(1000):
            n = rng.randrange(1, 13)
            blocks = set()
            while len(blocks) < n:
                b = (rng.randrange(-12, 13), rng.randrange(-12, 13))
                if b != (0, 0):
                    blocks.add(b)
            assert factorial_bound_check((0, 0), sorted(blocks), gamma)

    def test_adversarial_nearest_first(self):
        # pack blocks as close as possible to the base block
        ring = sorted(
            (b for b in itertools.product(range(-3, 4), repeat=2) if b != (0, 0)),
            key=lambda b: b[0] ** 2 + b[1] ** 2,
        )[:12]
        gamma = construct_gamma(max(math.hypot(*b) for b in ring) + 1.0)
        assert factorial_bound_check((0, 0), ring, gamma)

    def test_ball_count_monotone(self):
        counts = [ball_block_count(r) for r in (1.0, 2.0, 3.0, 5.0)]
        assert counts == sorted(counts)
        # center block + 4 face neighbors + 4 diagonal neighbors (corner at sqrt(1/2))
        assert ball_block_count(1.0) == 9
