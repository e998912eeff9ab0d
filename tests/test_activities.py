import cmath
import itertools
import math

import numpy as np
import pytest

from sgrg.activities import (
    CloudActivity,
    FunctionalActivity,
    TruncatedActivity,
    activity_norm,
    all_connected_subsets,
    charge_component,
    collapse_term,
    mayer_init_cloud,
    mayer_init_functional,
    mayer_init_truncated,
    polymer_exp,
    potentials,
    taylorize_neutral,
    v_activity,
    v_cloud_terms,
    verify_resummation,
    verify_shift_law,
    vbd_norms,
    whole_torus,
)
from sgrg.lattice import Polymer, TorusSpec, block_quadrature_nodes, polymer, region_disjoint
from sgrg.fields import FieldGrid, polymer_node_indices, random_band_limited
from sgrg import activities
from sgrg.terms import NORM_H, CloudTerm, _raw_term, evaluate_terms, scale_term
from test_rgmap import (
    cache_test_shapes,
    cyclic_garbage,
    reference_truncate_cloud_terms,
    translate_term,
)


def rfield(torus, rng, n_g=8, amp=0.8):
    return random_band_limited(torus, n_g, rng, amplitude=amp, k_max=2)


class TestPolymerExp:
    def test_zero_activity(self):
        t = TorusSpec(2, 2)
        K = CloudActivity(t, {})
        rng = np.random.default_rng(0)
        assert polymer_exp(K, whole_torus(t), rfield(t, rng)) == pytest.approx(1.0)

    def test_single_block_region(self):
        t = TorusSpec(2, 2)
        b = (1, 1)
        K = CloudActivity(t, {frozenset({b}): [CloudTerm(0.25)]})
        val = polymer_exp(K, polymer([b]), rfield(t, np.random.default_rng(1)))
        assert val == pytest.approx(1.25)

    def test_spread_blocks_binomial(self):
        # constant c on pairwise non-touching blocks: Exp = (1+c)^n
        t = TorusSpec(2, 2)
        blocks = [(0, 0), (0, 2), (2, 0), (2, 2)]
        K = CloudActivity(t, {frozenset({b}): [CloudTerm(0.3)] for b in blocks})
        val = polymer_exp(K, whole_torus(t), rfield(t, np.random.default_rng(2)))
        assert val == pytest.approx(1.3**4, rel=1e-12)

    def test_adjacent_blocks_exclude_joint_collection(self):
        # two touching single-block polymers can never appear together
        t = TorusSpec(2, 2)
        K = CloudActivity(
            t, {frozenset({(0, 0)}): [CloudTerm(0.5)], frozenset({(0, 1)}): [CloudTerm(0.5)]}
        )
        val = polymer_exp(K, whole_torus(t), rfield(t, np.random.default_rng(3)))
        assert val == pytest.approx(1.0 + 0.5 + 0.5, rel=1e-12)

    def test_against_brute_force_collections(self):
        t = TorusSpec(2, 2)
        rng = np.random.default_rng(7)
        support = [
            polymer([(0, 0)]),
            polymer([(0, 1), (1, 1)]),
            polymer([(2, 2)]),
            polymer([(3, 0), (3, 1)]),
            polymer([(2, 0)]),
            polymer([(1, 3)]),
        ]
        vals = {p.blocks: complex(rng.normal(), rng.normal()) for p in support}
        K = CloudActivity(t, {k: [CloudTerm(v)] for k, v in vals.items()})
        fld = rfield(t, rng)
        got = polymer_exp(K, whole_torus(t), fld)
        expect = 0.0
        for r in range(len(support) + 1):
            for combo in itertools.combinations(support, r):
                if all(
                    region_disjoint(a, b, t) for a, b in itertools.combinations(combo, 2)
                ):
                    prod = 1.0
                    for p in combo:
                        prod *= vals[p.blocks]
                    expect += prod
        assert got == pytest.approx(expect, rel=1e-12)

    def test_factorization_over_separated_regions(self):
        t = TorusSpec(2, 3)
        K = CloudActivity(
            t,
            {
                frozenset({(0, 0)}): [CloudTerm(0.4)],
                frozenset({(4, 4)}): [CloudTerm(0.7)],
            },
        )
        fld = rfield(t, np.random.default_rng(4))
        X = polymer([(0, 0), (0, 1), (1, 0), (1, 1)])
        Y = polymer([(4, 4), (4, 5), (5, 4), (5, 5)])
        XY = Polymer(X.blocks | Y.blocks)
        vx = polymer_exp(K, X, fld)
        vy = polymer_exp(K, Y, fld)
        vxy = polymer_exp(K, XY, fld)
        assert vxy == pytest.approx(vx * vy, rel=1e-12)


class TestMayer:
    @pytest.mark.parametrize("M", [1])
    def test_identity_small_torus(self, M):
        t = TorusSpec(2, M)
        zeta = 0.3 + 0.1j
        K0 = mayer_init_functional(zeta, t)
        rng = np.random.default_rng(11)
        lam = whole_torus(t)
        for _ in range(20):
            fld = rfield(t, rng)
            lhs = cmath.exp(zeta * sum(potentials(lam.sorted_blocks(), fld)))
            rhs = polymer_exp(K0, lam, fld)
            assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_identity_3x3(self):
        t = TorusSpec(3, 1)
        zeta = 0.2
        K0 = mayer_init_functional(zeta, t)
        rng = np.random.default_rng(13)
        lam = whole_torus(t)
        for _ in range(10):
            fld = rfield(t, rng)
            lhs = cmath.exp(zeta * sum(potentials(lam.sorted_blocks(), fld)))
            rhs = polymer_exp(K0, lam, fld)
            assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_polymer_exp_leaves_no_reference_cycle(self):
        t = TorusSpec(3, 1)
        K0 = mayer_init_functional(0.2, t)
        fld = rfield(t, np.random.default_rng(13))
        assert cyclic_garbage(lambda: polymer_exp(K0, whole_torus(t), fld)) == 0

    def test_zero_coupling(self):
        t = TorusSpec(2, 1)
        K0 = mayer_init_functional(0.0, t)
        fld = rfield(t, np.random.default_rng(5))
        for p in K0.support():
            assert K0.values([p], fld)[0] == pytest.approx(0.0)

    def test_two_block_product_structure(self):
        t = TorusSpec(2, 1)
        zeta = 0.25
        K0 = mayer_init_functional(zeta, t)
        fld = rfield(t, np.random.default_rng(6))
        p = polymer([(0, 0), (0, 1)])
        v0, v1 = potentials([(0, 0), (0, 1)], fld)
        f0 = cmath.exp(zeta * v0) - 1.0
        f1 = cmath.exp(zeta * v1) - 1.0
        assert K0.values([p], fld)[0] == pytest.approx(f0 * f1, rel=1e-12)

    def test_cloud_matches_functional_order(self):
        t = TorusSpec(2, 1)
        zeta = 1e-3
        Kc = mayer_init_cloud(zeta, t, n_q=2, order=5, max_size=2)
        Kf = mayer_init_functional(zeta, t)
        rng = np.random.default_rng(8)
        fld = rfield(t, rng)
        for p in Kc.support():
            a = Kc.value(p, fld)
            b = Kf.values([p], fld)[0]
            assert abs(a - b) < 1e-18 + abs(b) * 1e-10


class TestValueCache:
    """CloudActivity evaluates through one cached TermTable per tuple of polymers."""

    def test_replaced_term_list_is_reevaluated(self):
        t = TorusSpec(2, 1)
        fld = rfield(t, np.random.default_rng(12))
        key = frozenset({(0, 0)})
        old = [CloudTerm(0.4, ((1, (0.0, 0.0)),)), CloudTerm(0.1)]
        new = [CloudTerm(-0.3, ((-1, (1.0, 0.5)),))]
        K = CloudActivity(t, {key: old})
        p = Polymer(key)
        assert repr(K.value(p, fld)) == repr(evaluate_terms(old, fld))
        K.data[key] = new
        assert repr(K.value(p, fld)) == repr(evaluate_terms(new, fld))
        del K.data[key]
        assert K.value(p, fld) == 0.0

    def test_evaluation_keeps_equality_and_repr(self):
        t = TorusSpec(2, 1)
        data = {frozenset({(0, 0)}): [CloudTerm(0.4, ((1, (0.0, 0.0)),))]}
        a, b = CloudActivity(t, dict(data)), CloudActivity(t, dict(data))
        a.value(Polymer(frozenset({(0, 0)})), rfield(t, np.random.default_rng(13)))
        assert a == b
        assert repr(a) == repr(b)


def reference_potential_v(block, fld) -> float:
    """V(D, phi) of one block, with a field lookup of its own nodes."""
    nodes = block_quadrature_nodes(block, activities.POTENTIAL_N_Q)
    return float(np.mean(np.cos(fld.at(nodes))))


def reference_mayer_value(zeta, p, fld) -> complex:
    """K0(X, phi) of one polymer, block by block: the per-polymer evaluator
    that the batched ``mayer_init_functional`` must reproduce bit for bit."""
    out = 1.0
    for b in p.sorted_blocks():
        out *= cmath.exp(zeta * reference_potential_v(b, fld)) - 1.0
    return out


class TestPerFieldPotential:
    """The batched Mayer evaluator takes one potential per block per field."""

    @pytest.mark.parametrize("side", [2, 3])
    def test_values_equal_per_polymer_reference(self, side):
        t = TorusSpec(side, 1)
        zeta = 0.2 + 0.05j
        K0 = mayer_init_functional(zeta, t)
        support = K0.support()
        rng = np.random.default_rng(21)
        for _ in range(4):
            # two live fields evaluated in turn, then freed: a new field can
            # take a freed one's id, so a stale per-field value would show
            a, b = rfield(t, rng), rfield(t, rng)
            for fld in (a, b, a, b):
                want = [repr(reference_mayer_value(zeta, p, fld)) for p in support]
                assert [repr(v) for v in K0.values(support, fld)] == want
                assert [repr(v) for v in K0.values(support[::-1], fld)] == want[::-1]
                assert repr(K0.values([support[-1]], fld)[0]) == want[-1]
            del a, b

    def test_potentials_equal_per_block_reference(self):
        t = TorusSpec(3, 1)
        blocks = sorted(itertools.product(range(3), repeat=2))
        rng = np.random.default_rng(22)
        for _ in range(5):
            fld = rfield(t, rng)
            want = [repr(reference_potential_v(b, fld)) for b in blocks]
            assert [repr(v) for v in potentials(blocks, fld)] == want
            assert [repr(v) for v in potentials(blocks[::-1], fld)] == want[::-1]


class TestPotential:
    def test_value_at_zero_field(self):
        t = TorusSpec(2, 1)
        fld = FieldGrid(t, 8, np.zeros((16, 16)))
        assert potentials([(0, 0)], fld) == [pytest.approx(1.0)]

    def test_cloud_terms_match_quadrature(self, monkeypatch):
        t = TorusSpec(2, 1)
        rng = np.random.default_rng(9)
        fld = rfield(t, rng)
        for n_q in (1, 2):
            monkeypatch.setattr(activities, "POTENTIAL_N_Q", n_q)
            ts = v_cloud_terms((1, 0), n_q)
            val = evaluate_terms(ts, fld)
            assert val.imag == pytest.approx(0.0, abs=1e-12)
            assert val.real == pytest.approx(potentials([(1, 0)], fld)[0], rel=1e-12)

    def test_vbd_norm_bounds(self):
        rep = vbd_norms(1e-10, h=2.0, eps=0.1)
        assert rep["v_norm_series"] <= rep["v_norm_bound"] + 1e-9
        # below each measured threshold the corresponding bound holds
        z1 = rep["threshold_first_order"] * 0.5
        assert vbd_norms(z1, h=2.0, eps=0.1)["exp_minus_one"] <= z1**0.9
        z2 = rep["threshold_second_order"] * 0.5
        assert vbd_norms(z2, h=2.0, eps=0.1)["exp_minus_linear"] <= z2**1.9


class TestChargeDecomposition:
    def test_single_charge_projection(self):
        t = TorusSpec(2, 2)
        K = CloudActivity(
            t, {frozenset({(0, 0)}): [CloudTerm(1.0, ((1, (0.0, 0.0)),))]}
        )
        k1 = charge_component(K, 1)
        k0 = charge_component(K, 0)
        assert k1.data == K.data
        assert not k0.data

    def test_neutral_part_of_potential_vanishes(self):
        t = TorusSpec(2, 1)
        V = v_activity(t, n_q=2, trans_invariant=False)
        k0 = charge_component(V, 0)
        assert not k0.data

    def test_shift_law_cloud(self):
        t = TorusSpec(2, 1)
        V = v_activity(t, n_q=2, trans_invariant=False)
        rng = np.random.default_rng(3)
        fld = rfield(t, rng)
        for q in (-1, 1):
            res = verify_shift_law(V, q, polymer([(0, 0)]), fld, c=0.77)
            assert res < 1e-12

    def test_resummation(self):
        t = TorusSpec(2, 1)
        V = v_activity(t, n_q=2, trans_invariant=False)
        rng = np.random.default_rng(12)
        fld = rfield(t, rng)
        res = verify_resummation(V, polymer([(1, 1)]), fld, range(-3, 4))
        assert res < 1e-10

    def test_functional_activity_is_rejected(self):
        t = TorusSpec(2, 1)
        Kf = FunctionalActivity(t, lambda ps, fld: [1.0] * len(ps), [polymer([(0, 0)])])
        with pytest.raises(TypeError):
            charge_component(Kf, 1)


class TestNorms:
    def test_zero_activity(self):
        t = TorusSpec(2, 2)
        res = activity_norm(CloudActivity(t, {}), 0)
        assert res == -math.inf

    def test_potential_norm_value(self):
        # single-block V with n_q = 1: sum Gamma * |zeta| e^h = 32 |zeta| e^h
        t = TorusSpec(2, 2)
        zeta = 1e-3
        V = v_activity(t, n_q=1, trans_invariant=True)
        K = V.map(lambda k, ts: [t.scaled(zeta) for t in ts])
        res = activity_norm(K, 0)
        assert math.exp(res) == pytest.approx(32.0 * zeta * math.exp(NORM_H), rel=1e-12)

    def test_charge_sector_norm_dominated(self):
        t = TorusSpec(2, 2)
        rng = np.random.default_rng(4)
        for _ in range(30):
            terms = []
            for _ in range(rng.integers(1, 6)):
                charges = tuple(
                    (int(rng.integers(-2, 3)), (rng.uniform(0, 1), rng.uniform(0, 1)))
                    for _ in range(rng.integers(1, 3))
                )
                terms.append(CloudTerm(complex(rng.normal(), rng.normal()), charges))
            K = CloudActivity(t, {frozenset({(0, 0)}): terms})
            total = activity_norm(K, 0)
            for q in range(-4, 5):
                part = activity_norm(charge_component(K, q), 0)
                assert part <= total + 1e-12


class TestStructureChecks:
    def test_evenness_of_potential(self):
        t = TorusSpec(2, 1)
        V = v_activity(t, n_q=2, trans_invariant=False)
        rng = np.random.default_rng(14)
        fld = rfield(t, rng)
        p = polymer([(0, 1)])
        assert abs(V.value(p, fld) - V.value(p, -fld)) < 1e-12

    def test_locality_masked(self):
        # V reads node-aligned positions, so noise outside X leaves V(X) as it is
        t = TorusSpec(2, 2)
        V = v_activity(t, n_q=2, trans_invariant=False)
        rng = np.random.default_rng(15)
        fld = rfield(t, rng)
        p = polymer([(2, 2)])
        inside = np.zeros(fld.values.shape, dtype=bool)
        inside[polymer_node_indices(p, t, fld.n_g)] = True
        for _ in range(5):
            noise = rng.normal(size=fld.values.shape)
            masked = FieldGrid(t, fld.n_g, np.where(inside, fld.values, noise))
            assert abs(V.value(p, masked) - V.value(p, fld)) < 1e-12

    def test_truncated_mayer_charge_content(self):
        t = TorusSpec(2, 3)
        K = mayer_init_truncated(1e-2, t)
        key = (((0, 0)),)
        key = tuple([(0, 0)])
        ts = K.shapes[key]
        qs = {t_.total_charge for t_ in ts}
        assert {1, -1} <= qs
        # charge amplitudes at first order: zeta/2 each sign
        amp = [t_ for t_ in ts if t_.total_charge == 1 and len(t_.charges) == 1]
        assert sum(x.coeff for x in amp) == pytest.approx(0.5e-2, rel=1e-3)


def reference_collapse_term(term, q_max, max_linfs, neutral_taylor=True):
    """collapse_term through the CloudTerm constructor, which sorts and
    rounds the integer block centres itself."""
    if term.charges and term.linfs:
        return None
    if neutral_taylor and term.total_charge == 0 and term.charges:
        out = []
        for piece in taylorize_neutral(term):
            c = reference_collapse_term(piece, q_max, max_linfs, neutral_taylor=False)
            if c is not None:
                out.append(c)
        return out
    merged: dict = {}
    for q, x in term.charges:
        b = (round(x[0]), round(x[1]))
        merged[b] = merged.get(b, 0) + q
    charges = tuple((q, b) for b, q in merged.items() if q != 0)
    if sum(abs(q) for q, _ in charges) > q_max:
        return None
    if len(term.linfs) > max_linfs:
        return None
    linfs = tuple((a, (round(y[0]), round(y[1]))) for a, y in term.linfs)
    return CloudTerm(term.coeff, charges, linfs)


def collapse_test_terms(t):
    """The terms of a fluctuated Mayer activity, plus terms outside the
    model: neutral clouds with and without a gradient factor, charges off
    the block centres, and charges with a gradient factor."""
    return [x for ts in cache_test_shapes(t).values() for x in ts] + [
        CloudTerm(0.3 - 0.1j, ((1, (0.0, 0.0)), (-1, (0.25, 1.0)))),
        CloudTerm(-0.2 + 0.05j, ((2, (0.0, -0.25)), (-1, (0.0, 0.75)), (-1, (-0.25, 1.25)))),
        CloudTerm(0.1j, ((1, (0.0, 0.0)), (-1, (0.0, 1.0))), (((1, 0), (0.0, 0.0)),)),
        CloudTerm(0.7 - 0.2j, ((1, (0.375, -0.375)), (1, (1.0, 0.25)))),
        CloudTerm(-0.4j, ((-1, (0.0, 1.0)),), (((0, 1), (0.0, 0.0)),)),
    ]


class TestCollapse:
    @pytest.mark.parametrize("L", [2, 3, 8])
    def test_equals_reference(self, L, monkeypatch):
        # repr, not ==: an int block coordinate equals its float but would
        # serialize differently
        shifts = [(ox, oy) for ox in range(3) for oy in range(3)] + [(L - 1, -L)]
        for t in collapse_test_terms(TorusSpec(L, 2)):
            for shift in shifts:
                moved = scale_term(translate_term(t, shift), L)
                for q_max, max_linfs in ((3, 2), (1, 0), (2, 1)):
                    monkeypatch.setattr(activities, "Q_MAX", q_max)
                    monkeypatch.setattr(activities, "MAX_LINFS", max_linfs)
                    got = collapse_term(moved)
                    want = reference_collapse_term(moved, q_max, max_linfs)
                    assert repr(got) == repr(want)

    @pytest.mark.parametrize("coeff", [
        0.0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -0.0,
        1e300 - 1e300j, 1e-320, -1e-320j, np.complex128(0.3 - 0.1j),
    ])
    def test_replay_equals_direct(self, coeff, monkeypatch):
        # the memo's multiplier times the coefficient equals, in value,
        # collapsing the term itself, for zeros, huge and subnormal ones too
        keys = {t.key() for t in collapse_test_terms(TorusSpec(3, 2))}
        assert any(k[0] and sum(q for q, _ in k[0]) == 0 for k in keys)  # neutral clouds
        for q_max, max_linfs in ((3, 2), (1, 0)):
            monkeypatch.setattr(activities, "Q_MAX", q_max)
            monkeypatch.setattr(activities, "MAX_LINFS", max_linfs)
            memo = {}
            for key in sorted(keys):
                pieces = activities._collapsed(memo, key)
                want = collapse_term(_raw_term(coeff, *key))
                got = None if pieces is None else [(repr(k), coeff * m) for k, m in pieces]
                if isinstance(want, CloudTerm):
                    want = [want]
                assert got == (None if want is None else [(repr(t.key()), t.coeff) for t in want])

    def test_mixed_neutral_cloud_is_dropped(self):
        # charges with gradient factors are outside the model, neutral or not
        grad = (((1, 0), (0.0, 0.0)), ((0, 1), (0.0, 0.0)), ((1, 0), (1.0, 0.0)))
        neutral = CloudTerm(0.5, ((1, (0.0, 0.0)), (-1, (0.25, 0.0))), grad)
        charged = CloudTerm(0.25, ((2, (0.0, 0.0)), (2, (1.0, 0.0))))
        memo, sums = {}, {}
        assert activities._collapse_into(sums, [neutral, charged], memo) == 2
        assert sums == {}
        assert reference_truncate_cloud_terms([neutral, charged]) == ([], [neutral, charged])
        assert activities._collapsed(memo, neutral.key()) is None
        assert activities._collapsed(memo, charged.key()) is None
