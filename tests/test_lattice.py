import itertools
import math
import random

import pytest

from sgrg import lattice as lat
from sgrg.lattice import (
    CapError,
    Polymer,
    TorusSpec,
    count_small_supersets,
    enumerate_all_connected,
    enumerate_polymers,
    halo,
    is_small,
    log_gamma_p,
    partition_closure,
    polymer,
    region_disjoint,
)


def gamma_p(X, p, torus):
    return math.exp(log_gamma_p(X, p, torus))


def brute_enumerate(torus, max_size, anchor):
    """Exhaustive subset scan oracle for anchored connected polymers."""
    cells = list(itertools.product(range(torus.side), repeat=2))
    found = set()
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(cells, size):
            s = frozenset(combo)
            if anchor in s and lat.is_connected(s, torus):
                found.add(s)
    return found


class TestEnumeratePolymers:
    def test_size_one(self):
        t = TorusSpec(2, 2)
        assert enumerate_polymers(t, 1, (1, 1)) == [polymer([(1, 1)])]

    def test_size_two_count(self):
        t = TorusSpec(2, 2)  # side 4 >= 3
        polys = enumerate_polymers(t, 2, (1, 1))
        assert len(polys) == 9  # anchor alone + 8 closed-adjacent pairs

    def test_matches_brute_force_5x5(self):
        t = TorusSpec(5, 1)
        got = {p.blocks for p in enumerate_polymers(t, 4, (2, 2))}
        assert got == brute_enumerate(t, 4, (2, 2))

    def test_cap_error(self):
        t = TorusSpec(2, 2)
        with pytest.raises(CapError):
            enumerate_polymers(t, 7, (0, 0))

    def test_whole_torus_side_cap(self):
        with pytest.raises(CapError):
            enumerate_all_connected(TorusSpec(2, 4), 2)


class TestSmallSets:
    def test_2x2_square_is_small(self):
        t = TorusSpec(2, 3)
        assert is_small(polymer([(0, 0), (0, 1), (1, 0), (1, 1)]), t)

    def test_cross_is_large(self):
        t = TorusSpec(2, 3)
        cross = polymer([(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)])
        assert not is_small(cross, t)

    def test_single_block_small_and_superset_count(self):
        t = TorusSpec(2, 4)  # large torus, no wrap effects
        assert is_small(polymer([(3, 3)]), t)
        k = count_small_supersets(t)
        # independent count: m * (number of fixed shapes of size m)
        shapes = lat.enumerate_shapes(4)
        by_size = {}
        for s in shapes:
            by_size[s.size] = by_size.get(s.size, 0) + 1
        expect = sum(m * n for m, n in by_size.items())
        assert k == expect

    def test_king_shape_counts(self):
        # fixed polyplet counts (king-connectivity): 1, 4, 20, 110
        shapes = lat.enumerate_shapes(4)
        by_size = {}
        for s in shapes:
            by_size[s.size] = by_size.get(s.size, 0) + 1
        assert by_size == {1: 1, 2: 4, 3: 20, 4: 110}


class TestClosuresAndScaling:
    def test_partition_closure_is_a_partition(self):
        t = TorusSpec(2, 2)
        seen = {}
        for k in itertools.product(range(t.side), repeat=2):
            a = partition_closure(polymer([k]), t)
            assert a.size == 1
            seen.setdefault(next(iter(a.blocks)), []).append(k)
        coarse = t.coarse()
        assert len(seen) == coarse.n_blocks
        assert all(len(v) == t.L**2 for v in seen.values())

    def test_partition_closure_matches_assigned_blocks(self):
        t = TorusSpec(2, 2)
        offsets = range(-(t.L // 2), t.L - t.L // 2)
        for a in itertools.product(range(t.coarse().side), repeat=2):
            for off in itertools.product(offsets, repeat=2):
                k = t.wrap(tuple(t.L * c + o for c, o in zip(a, off)))
                pc = partition_closure(polymer([k]), t)
                assert pc.blocks == frozenset({a})


class TestRegulator:
    def test_single_block_value(self):
        t = TorusSpec(2, 2)
        assert gamma_p(polymer([(0, 0)]), 0, t) == pytest.approx(32.0)

    def test_p_shift_ratio(self):
        t = TorusSpec(2, 3)
        rng = random.Random(5)
        for _ in range(20):
            anchor = (rng.randrange(t.side), rng.randrange(t.side))
            polys = enumerate_polymers(t, 3, anchor)
            p = polys[rng.randrange(len(polys))]
            g0 = gamma_p(p, 0, t)
            g2 = gamma_p(p, 2, t)
            assert g2 / g0 == pytest.approx(2.0 ** (2 * p.size))

    def test_theta_self(self):
        # a single block spans no tree: Theta = 1, so Gamma_0 = A
        t = TorusSpec(2, 2)
        assert lat.block_distance((1, 1), (1, 1), t) == 0.0
        assert log_gamma_p(polymer([(1, 1)]), 0, t) == math.log(float(t.L ** 5))

    def test_distance_wraps(self):
        t = TorusSpec(2, 2)
        assert lat.block_distance((0, 0), (3, 0), t) == pytest.approx(1.0)

    def test_submultiplicative_when_sharing_blocks(self):
        # Gamma_p(X u Y) <= Gamma_p(X) Gamma_p(Y) holds for the MST-based Theta
        # whenever the pieces share a block (the union's spanning tree reuses
        # the pieces' trees through the shared center).
        t = TorusSpec(2, 3)
        polys = enumerate_polymers(t, 4, (3, 3))
        rng = random.Random(13)
        checked = 0
        for _ in range(400):
            p1 = polys[rng.randrange(len(polys))]
            p2 = polys[rng.randrange(len(polys))]
            if not (p1.blocks & p2.blocks):
                continue
            union = Polymer(p1.blocks | p2.blocks)
            ratio = gamma_p(union, 0, t) / (
                gamma_p(p1, 0, t) * gamma_p(p2, 0, t)
            )
            assert ratio <= 1.0 + 1e-12
            checked += 1
        assert checked > 100

    def test_disjoint_union_slack_factor(self):
        # For region-disjoint pieces the connector edge costs at most a
        # (1 + diam)^nu slack: Gamma(Z) <= Gamma(X) Gamma(Y) (1 + diam Z)^nu.
        t = TorusSpec(2, 3)
        polys = enumerate_polymers(t, 3, (3, 3))
        rng = random.Random(13)
        checked = 0
        worst_slack = 0.0
        for _ in range(400):
            p1 = polys[rng.randrange(len(polys))]
            shift = (rng.randrange(t.side), rng.randrange(t.side))
            p2 = Polymer(frozenset(
                t.wrap(tuple(c + s for c, s in zip(b, shift)))
                for b in polys[rng.randrange(len(polys))].blocks
            ))
            if not region_disjoint(p1, p2, t):
                continue
            union = Polymer(p1.blocks | p2.blocks)
            diam = max(
                lat.block_distance(a, b, t)
                for a in union.blocks
                for b in union.blocks
            )
            ratio = gamma_p(union, 0, t) / (
                gamma_p(p1, 0, t) * gamma_p(p2, 0, t)
            )
            slack = (1.0 + diam) ** lat.THETA_NU
            assert ratio <= slack * (1.0 + 1e-12)
            worst_slack = max(worst_slack, ratio)
            checked += 1
        assert checked > 50
        print(f"disjoint-union Gamma slack: worst ratio {worst_slack:.3f}")

    def test_large_set_closure_contraction_measured(self):
        # Measure c in Gamma_0(closure on coarse lattice) <= c L^{-d-2} Gamma_{-3}(X)
        # over an enumerated family of large sets, for the partition closure.
        t = TorusSpec(2, 3)
        ratios = []
        for p in enumerate_polymers(t, 6, (2, 2)):
            if p.size < 5:
                continue
            cl = partition_closure(p, t)
            num = gamma_p(cl, 0, t.coarse())
            den = gamma_p(p, -3, t)
            ratios.append(num / den * t.L ** (2 + 2))
        assert len(ratios) > 100
        c = max(ratios)
        assert math.isfinite(c)
        print(f"large-set closure constant (L=2, |X|>=5): {c}")


def direct_halo(p, torus):
    """Blocks of p and every block within Chebyshev distance 1, wrapped."""
    s = torus.side
    return frozenset(((b[0] + i) % s, (b[1] + j) % s)
                     for b in p.blocks for i in (-1, 0, 1) for j in (-1, 0, 1))


class TestHalo:
    """``halo`` is memoised on (polymer, torus); a hit must equal a fresh scan."""

    @pytest.mark.parametrize("L, M", [(2, 0), (2, 1), (3, 1), (2, 2)],
                             ids=["side1", "side2", "side3", "side4"])
    def test_equals_direct_scan(self, L, M):
        t = TorusSpec(L, M)
        polys = enumerate_all_connected(t, 3)
        assert polys
        for _ in range(2):  # the second pass reads the cache
            for p in polys:
                assert halo(p, t) == direct_halo(p, t)
                assert halo(Polymer(frozenset(p.blocks)), t) is halo(p, t)

    def test_key_includes_the_torus(self):
        p = polymer([(0, 0), (0, 1)])
        t3, t4 = TorusSpec(3, 1), TorusSpec(2, 2)
        h3, h4 = halo(p, t3), halo(p, t4)
        assert h3 == direct_halo(p, t3) and h4 == direct_halo(p, t4)
        assert (2, 2) in h3 and (3, 3) in h4 and h3 != h4
        assert halo(p, t3) == h3
