import cmath
import gc
import math
from dataclasses import dataclass

import numpy as np
import pytest

from sgrg import activities, rgmap
from sgrg import terms as tm
from sgrg.activities import (
    CloudActivity,
    TruncatedActivity,
    activity_norm,
    charge_component,
    collapse_term,
    mayer_init_truncated,
    polymer_exp,
    v_activity,
    whole_torus,
)
from sgrg.covariance import CovarianceKernel, star_norm
from sgrg.fields import random_band_limited, scale_field
from sgrg.lattice import Polymer, TorusSpec, partition_closure, polymer
from sgrg.rgmap import (
    RGStepParams,
    charge_factors,
    extract_cloud,
    extract_functional,
    extract_step,
    extraction_coefficients,
    fluctuate,
    fluctuate_cloud,
    fluctuate_linear,
    neutral_moments,
    rg_step,
    scale_activity,
    scale_linear,
)
from sgrg.terms import CloudTerm, CovAccess, evaluate_terms


def translate_term(term, shift):
    """``term`` moved by ``shift``, its positions rounded as the flow's
    re-anchoring rounds them."""
    return tm._raw_term(term.coeff, *tm._translate_key(term.key(), shift))


def rfield(torus, rng, n_g=8, amp=0.7, k_max=2):
    return random_band_limited(torus, n_g, rng, amplitude=amp, k_max=k_max)


def cloud_K(torus, spec):
    """spec: {blocks: [terms]} convenience builder."""
    return CloudActivity(torus, {frozenset(b): ts for b, ts in spec.items()})


def step_c_star(beta, torus):
    """The beta-scaled star norm at sigma = 0 that a flow hands each step."""
    return beta * star_norm(CovarianceKernel("slice", sigma=0.0, torus=torus))


def cyclic_garbage(fn) -> int:
    """The unreachable objects that one call of ``fn`` leaves for the cyclic
    collector, after a first call has filled the caches."""
    fn()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def reference_convolve_term(term, cov):
    """Gaussian convolution E_zeta[term(phi + zeta)] as a term list, term by
    term: each Wick structure's piece multiplied out, then ``canon``."""
    qs = [q for q, _ in term.charges]
    xs = [x for _, x in term.charges]
    quad = 0.0
    for a in range(len(qs)):
        for b in range(len(qs)):
            quad += qs[a] * qs[b] * cov.c((0, 0), (xs[a][0] - xs[b][0], xs[a][1] - xs[b][1]))
    base = term.coeff * math.exp(-0.5 * quad)
    if not term.linfs:
        return [tm._raw_term(base, term.charges, ())]
    # mean shifts m_k = i sum_a q_a d^{alpha_k} C(y_k - x_a)
    linfs = list(term.linfs)
    shifts = []
    for alpha, y in linfs:
        m = 0.0
        for q, x in term.charges:
            m += q * cov.c(alpha, (y[0] - x[0], y[1] - x[1]))
        shifts.append(1j * m)
    out = []
    for pairing, choices in tm._wick_structures(len(linfs)):
        pair_factor = 1.0
        for i, j in pairing:
            ai, yi = linfs[i]
            aj, yj = linfs[j]
            pair_factor *= cov.pair(ai, yi, aj, yj)
        # remaining slots: either keep the phi factor or take the mean shift
        for kept, shifted in choices:
            keep = tuple(linfs[i] for i in kept)
            shift_factor = 1.0
            for i in shifted:
                shift_factor *= shifts[i]
            out.append(tm._raw_term(base * pair_factor * shift_factor, term.charges, keep))
    return tm.canon(out)


def reference_convolve_terms(terms, cov):
    return tm.canon(t for term in terms for t in reference_convolve_term(term, cov))


def exact_convolved_exp(K, cov, region, fld, torus):
    """mu_C * Exp(box + K)(region, phi) by expanding every collection."""
    from itertools import combinations

    from sgrg.lattice import region_disjoint

    support = [p for p in K.support() if K.terms(p)]
    total = 1.0  # empty collection convolves to 1
    for r in range(1, len(support) + 1):
        for combo in combinations(support, r):
            if not all(
                region_disjoint(a, b, torus) for a, b in combinations(combo, 2)
            ):
                continue
            terms = [CloudTerm(1.0)]
            for p in combo:
                terms = tm.multiply(terms, K.terms(p))
            conv = reference_convolve_terms(terms, cov)
            total += evaluate_terms(conv, fld)
    return total


class TestFluctuationIdentity:
    def setup_method(self):
        self.torus = TorusSpec(2, 2)
        self.kernel = CovarianceKernel("slice", sigma=0.0, torus=self.torus)

    def _check_identity(self, K, beta=2.0, n_fields=4, seed=0, tol=1e-8):
        cov = CovAccess(self.kernel, scale=beta)
        FK = fluctuate_cloud(K, cov)
        rng = np.random.default_rng(seed)
        lam = whole_torus(self.torus)
        worst = 0.0
        for _ in range(n_fields):
            fld = rfield(self.torus, rng)
            lhs = exact_convolved_exp(K, cov, lam, fld, self.torus)
            rhs = polymer_exp(FK, lam, fld)
            worst = max(worst, abs(lhs - rhs))
        assert worst < tol, f"fluctuation identity residual {worst}"

    def test_zero(self):
        cov = CovAccess(self.kernel, scale=2.0)
        FK = fluctuate_cloud(cloud_K(self.torus, {}), cov)
        assert not FK.data

    def test_two_polymer_charges(self):
        K = cloud_K(
            self.torus,
            {
                ((0, 0),): [CloudTerm(0.4, ((1, (0.0, 0.0)),)), CloudTerm(0.4, ((-1, (0.0, 0.0)),))],
                ((2, 2),): [CloudTerm(0.3, ((1, (2.0, 2.25)),)), CloudTerm(0.3, ((-1, (2.0, 2.25)),))],
            },
        )
        self._check_identity(K)

    def test_three_polymers(self):
        K = cloud_K(
            self.torus,
            {
                ((0, 0),): [CloudTerm(0.5, ((1, (0.0, 0.0)),))],
                ((0, 2),): [CloudTerm(0.4, ((-1, (0.0, 2.0)),))],
                ((2, 0),): [CloudTerm(0.3, ((2, (2.0, 0.0)),))],
            },
        )
        self._check_identity(K, tol=1e-8)

    def test_with_gradient_factors(self):
        K = cloud_K(
            self.torus,
            {
                ((0, 0),): [
                    CloudTerm(0.5, ((1, (0.0, 0.0)),), (((1, 0), (0.0, 0.25)),))
                ],
                ((2, 2),): [
                    CloudTerm(0.4, ((-1, (2.0, 2.0)),), (((0, 1), (2.25, 2.0)),)),
                    CloudTerm(0.2),
                ],
            },
        )
        self._check_identity(K, tol=1e-8)

    def test_single_polymer_is_plain_convolution(self):
        cov = CovAccess(self.kernel, scale=2.0)
        terms = [CloudTerm(0.7, ((1, (1.0, 1.0)), (-1, (1.25, 1.0))))]
        K = cloud_K(self.torus, {((1, 1),): terms})
        FK = fluctuate_cloud(K, cov)
        expect = reference_convolve_terms(terms, cov)
        got = FK.terms(polymer([(1, 1)]))
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert a.key() == b.key()
            assert a.coeff == pytest.approx(b.coeff, rel=1e-12)


    def test_cloud_fluctuation_leaves_no_reference_cycle(self):
        # the identity suite's activity: two charge pairs on separated blocks
        K = cloud_K(self.torus, {
            ((0, 0),): [CloudTerm(0.4, ((1, (0.0, 0.0)),)), CloudTerm(0.4, ((-1, (0.0, 0.0)),))],
            ((2, 2),): [CloudTerm(0.3, ((1, (2.0, 2.25)),)), CloudTerm(0.3, ((-1, (2.0, 2.25)),))],
        })
        cov = CovAccess(self.kernel, scale=2.0)
        assert cyclic_garbage(lambda: fluctuate_cloud(K, cov)) == 0


class TestLinearizedMaps:
    def test_fluctuate_linear_potential(self):
        # F_1 V = e^{-beta C(0)/2} V exactly, cloud coefficients compared
        t = TorusSpec(2, 2)
        kern = CovarianceKernel("slice", sigma=0.0, torus=t)
        beta = 4.0 * math.pi
        cov = CovAccess(kern, scale=beta)
        V = v_activity(t, n_q=2, trans_invariant=True)
        FV = fluctuate_linear(V, cov)
        factor = math.exp(-beta * kern.at_zero() / 2.0)
        key = tuple([(0, 0)])
        for a, b in zip(FV.shapes[key], V.shapes[key]):
            assert a.key() == b.key()
            assert a.coeff == pytest.approx(b.coeff * factor, rel=1e-12)

    def test_scale_linear_potential_multiplier(self):
        # S_1 (zeta V) = L^2 zeta V in the collapsed representation
        t = TorusSpec(2, 2)
        V = v_activity(t, n_q=1, trans_invariant=True)
        SV = scale_linear(V, {})
        key = tuple([(0, 0)])
        assert SV.torus.side == 2
        got = {x.key(): x.coeff for x in SV.shapes[key]}
        for x in V.shapes[key]:
            assert got[x.key()] == pytest.approx(4.0 * x.coeff, rel=1e-12)

    def test_composed_multiplier_exact(self):
        # S_1 F_1 (zeta V) coefficient ratio = L^2 e^{-beta C(0)/2} to 1e-10
        t = TorusSpec(2, 2)
        kern = CovarianceKernel("slice", sigma=0.0, torus=t)
        for beta in (4.0 * math.pi, 6.0 * math.pi):
            cov = CovAccess(kern, scale=beta)
            V = v_activity(t, n_q=1, trans_invariant=True)
            out = scale_linear(fluctuate_linear(V, cov), {})
            key = tuple([(0, 0)])
            got = {x.key(): x.coeff for x in out.shapes[key]}
            mult = 4.0 * math.exp(-beta * kern.at_zero() / 2.0)
            for x in V.shapes[key]:
                assert got[x.key()] == pytest.approx(mult * x.coeff, rel=1e-10)


class TestScalingIdentity:
    @pytest.mark.parametrize("M", [1, 2])
    def test_identity_pointwise(self, M):
        t = TorusSpec(2, M)
        spec = {
            ((0, 0),): [CloudTerm(0.4, ((1, (0.0, 0.25)),)), CloudTerm(0.1)],
            ((1, 1),): [CloudTerm(0.3, ((-1, (1.0, 1.0)),))],
        }
        if M == 2:
            spec[((2, 3),)] = [CloudTerm(0.25, ((1, (2.0, 3.0)), (-1, (2.25, 3.0))))]
        K = cloud_K(t, spec)
        SK = scale_activity(K)
        coarse = t.coarse()
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(6):
            phi = rfield(coarse, rng)
            phi_L = scale_field(phi)
            lhs = polymer_exp(K, whole_torus(t), phi_L)
            rhs = polymer_exp(SK, whole_torus(coarse), phi)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-9, f"scaling identity residual {worst}"

    def test_zero(self):
        t = TorusSpec(2, 1)
        SK = scale_activity(cloud_K(t, {}))
        assert not SK.data


def reference_truncate_cloud_terms(ts, drop_tol=0.0):
    """Truncation collapsing every term afresh."""
    kept, dropped = [], []
    for t in ts:
        c = collapse_term(t)
        if c is None:
            dropped.append(t)
        elif isinstance(c, list):
            kept.extend(c)
        else:
            kept.append(c)
    merged = tm.canon(kept)
    floor = drop_tol * max((abs(t.coeff) for t in merged), default=0.0)
    return [t for t in merged if not (drop_tol > 0.0 and abs(t.coeff) <= floor)], dropped


def reference_multiply(ts1, ts2):
    """The product of two term lists, every product term canonicalised by
    ``CloudTerm`` afresh."""
    return tm.canon([CloudTerm(a.coeff * b.coeff, a.charges + b.charges, b.linfs + a.linfs)
                     for a in ts1 for b in ts2])


def reference_extract_cloud(K, F):
    """Truncated extraction forming every product of e^F - 1, then truncating
    each shape's concatenated term list, K's terms first."""
    out = {key: list(ts) for key, ts in K.shapes.items()}
    for key, ts in F.shapes.items():
        series, power, fact = [], [CloudTerm(1.0)], 1.0
        for n in range(1, rgmap.EXTRACTION_ORDER + 1):
            power = reference_multiply(power, ts)
            fact *= n
            series.extend(t.scaled(1.0 / fact) for t in power)
        out.setdefault(key, []).extend(t.scaled(-1.0) for t in tm.canon(series))
    result = {}
    for key, ts in out.items():
        kept, _ = reference_truncate_cloud_terms(ts, rgmap.DROP_TOL)
        if kept:
            result[key] = kept
    return result


def reference_scale_trunc(K):
    """Truncated scaling by copying, scaling and collapsing every term."""
    L = K.torus.L
    out = {}
    for key, ts in K.shapes.items():
        p0 = Polymer(frozenset(key))
        for ox in range(L):
            for oy in range(L):
                cl = partition_closure(p0.translate((ox, oy)), K.torus)
                base = tuple(min(b[i] for b in cl.blocks) for i in range(2))
                mapped = [
                    translate_term(
                        tm.scale_term(translate_term(t, (ox, oy)), L),
                        (-base[0], -base[1]),
                    )
                    for t in ts
                ]
                if mapped:
                    out.setdefault(cl.shape_key(), []).extend(mapped)
    result = {}
    for key, ts in out.items():
        kept, _ = reference_truncate_cloud_terms(ts)
        if kept:
            result[key] = kept
    return result


def truncated_mayer(zeta, t, order=2, max_size=2):
    """The truncated Mayer activity at a series order and largest polymer
    of the test's choosing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(activities, "MAYER_ORDER", order)
        mp.setattr(activities, "MAYER_MAX_SIZE", max_size)
        return mayer_init_truncated(zeta, t)


def cache_test_shapes(t):
    """A fluctuated Mayer activity plus charged and charge-free terms at
    block centres off the shape, which split its offset classes, and an
    np.complex128 coefficient whose copies land on the keys of others;
    every term is one of the truncated model."""
    cov = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=t), scale=12 * math.pi)
    K = truncated_mayer(1e-2, t)
    with pytest.MonkeyPatch.context() as mp:  # a narrow window and no floor
        mp.setattr(rgmap, "PAIR_WINDOW", 1)
        mp.setattr(rgmap, "DROP_TOL", 0.0)
        shapes = dict(fluctuate(K, cov, {}, fluctuate_linear(K, cov)).shapes)
    key = ((0, 0), (0, 1))
    shapes[key] = shapes.get(key, []) + [
        CloudTerm(0.3 - 0.1j, ((2, (0.0, 0.0)), (-1, (1.0, 2.0)))),
        CloudTerm(-0.2 + 0.05j, ((1, (-1.0, 1.0)), (1, (0.0, 1.0)), (-1, (1.0, -1.0)))),
        CloudTerm(0.1j, (), (((1, 0), (0.0, 0.0)), ((0, 1), (-1.0, 2.0)))),
    ]
    key = ((0, 0),)
    shapes[key] = shapes[key] + [CloudTerm(np.complex128(0.05 - 0.02j), ((1, (1.0, 0.0)),))]
    return shapes


def as_exact(shapes):
    # repr tells an int block coordinate from its equal float
    # and a float coefficient from a complex one
    return [(k, [(repr(t.key()), repr(t.coeff)) for t in ts]) for k, ts in shapes.items()]


def as_values(shapes):
    """Keys by repr, coefficients as exact complex values."""
    return [(k, [(repr(t.key()), complex(t.coeff)) for t in ts]) for k, ts in shapes.items()]


def tiny_ir_step(t=TorusSpec(2, 2)):
    K = truncated_mayer(1e-2, t)
    params = RGStepParams(
        beta=12 * math.pi, torus=t, c_star=step_c_star(12 * math.pi, t), preset="ir",
        p=0, sigma=0.0,
    )
    return K, params


class TestScalingCache:
    """The cached truncated scaling equals copying and collapsing every term,
    term for term and coefficient for coefficient (exact values, as
    ``complex``: the scaling's sums are complex, the reference keeps each
    input's type)."""

    @pytest.mark.parametrize("t", [TorusSpec(8, 2), TorusSpec(2, 1), TorusSpec(3, 2)])
    def test_equals_reference(self, t):
        # at L = 3 division is inexact, so the order of the roundings shows;
        # a selection, whole shapes (the large ones) or single terms (the
        # unit-charge small ones), is scaled on the images of the full call
        K = TruncatedActivity(t, cache_test_shapes(t))
        cache = {}
        for keep in (rgmap._large, rgmap._unit_charge_small, rgmap._large):
            want = [as_values(reference_scale_trunc(K)),
                    as_values(reference_scale_trunc(K.filter(keep)))]
            assert want[1] != want[0]
            got = [scale_linear(S, cache) for S in (K, K.filter(keep))]
            assert [as_values(S.shapes) for S in got] == want

    def test_one_collapse_per_offset_class(self, monkeypatch):
        # each term key is checked once, and offsets whose copies round every
        # position to the same blocks share one collapse
        torus = TorusSpec(8, 2)
        K = TruncatedActivity(torus, cache_test_shapes(torus))
        lookups = []

        def counted(memo, key):
            lookups.append(key)
            return activities._collapsed(memo, key)

        monkeypatch.setattr(rgmap, "_collapsed", counted)
        scale_linear(K, {})

        L = torus.L
        want = 0
        for key, ts in K.shapes.items():
            ts = list({t.key(): t for t in ts}.values())
            rounded = sorted({x for t in ts for _, x in t.charges + t.linfs})
            classes = set()
            for ox in range(L):
                for oy in range(L):
                    cl = partition_closure(Polymer(frozenset(key)).translate((ox, oy)), torus)
                    back = tuple(-min(b[i] for b in cl.blocks) for i in range(2))
                    blocks = []
                    for x in rounded:
                        one = CloudTerm(1.0, ((1, x),))
                        moved = translate_term(tm.scale_term(translate_term(one, (ox, oy)), L), back)
                        blocks.append(tuple(round(c) for c in moved.charges[0][1]))
                    classes.add(tuple(blocks))
            want += (1 + len(classes)) * len(ts)
        assert len(lookups) == want < L * L * sum(len(ts) for ts in K.shapes.values())

    def test_new_position_on_seen_shape(self):
        # a later call on the same cache brings a position that splits an
        # offset class of a shape already scaled
        t = TorusSpec(8, 2)
        shapes = cache_test_shapes(t)
        cache = {}
        scale_linear(TruncatedActivity(t, shapes), cache)
        key = ((0, 0),)
        shapes[key] = shapes[key] + [CloudTerm(0.7 - 0.2j, ((1, (1.0, -1.0)),))]
        K = TruncatedActivity(t, shapes)
        assert as_values(scale_linear(K, cache).shapes) == as_values(
            reference_scale_trunc(K))

    @pytest.mark.parametrize("term", [
        CloudTerm(0.3, ((1, (0.0, 0.0)), (-1, (0.0, 1.0)))),
        CloudTerm(0.3, ((1, (0.375, -0.375)),)),
        CloudTerm(0.3, ((1, (0.0, 0.0)),), (((1, 0), (0.0, 1.0)),)),
    ], ids=["neutral", "off_centre", "mixed"])
    def test_term_outside_the_model_raises(self, term):
        # a runtime error, not a ValueError, which the CLI reports as bad input
        model = CloudTerm(0.1, ((1, (0.0, 0.0)),))
        K = TruncatedActivity(TorusSpec(2, 2), {((0, 0), (0, 1)): [model, term]})
        with pytest.raises(RuntimeError, match=r"is outside the truncated model") as exc:
            scale_linear(K, {})
        assert repr(term) in str(exc.value)

    def test_cache_shared_across_tori(self):
        shapes = cache_test_shapes(TorusSpec(2, 3))
        cache = {}
        for t in (TorusSpec(2, 1), TorusSpec(2, 3), TorusSpec(2, 1)):
            K = TruncatedActivity(t, shapes)
            assert as_values(scale_linear(K, cache).shapes) == as_values(
                reference_scale_trunc(K)
            )

    def test_cache_shared_across_truncations(self):
        # one collapse memo serves the truncations of fluctuation, extraction
        # and scaling in turn, each as exact as on a cache of its own
        K, params = tiny_ir_step()
        cov = params.cov()
        k1 = fluctuate_linear(K, cov)
        cache = {}
        k_sharp = fluctuate(K, cov, cache, k1)
        assert as_exact(k_sharp.shapes) == as_exact(fluctuate(K, cov, {}, k1).shapes)
        k_star, _ = extract_step(k_sharp, params, cache)
        assert as_exact(k_star.shapes) == as_exact(extract_step(k_sharp, params, {})[0].shapes)
        assert as_exact(scale_linear(k_star, cache).shapes) == as_exact(
            scale_linear(k_star, {}).shapes)
        # the memo, the scaling images keyed by torus alone, and their slots
        assert list(cache) == ["collapse", K.torus, "slots"]

    @pytest.mark.parametrize("t", [TorusSpec(2, 2), TorusSpec(8, 2)], ids=["tiny", "L8"])
    def test_split_scales_its_selections_on_the_step_images(self, t, monkeypatch):
        # a step scales four activities: the extracted state k_star, its
        # large shapes (the split's large-set column), r1 = k1 - F(k1), and
        # its unit-charge small-set terms (the charged column); each
        # selection has the bits of scaling it on a fresh cache
        calls = []
        plain = rgmap.scale_linear

        def spy(K, cache):
            out = plain(K, cache)
            calls.append((K, out))
            return out

        monkeypatch.setattr(rgmap, "scale_linear", spy)
        K, params = tiny_ir_step(t)
        k_new, _, _ = rg_step(K, params, activity_norm(K, params.p))
        (k_star, out), (large_star, large_out), (r1, _), (unit, unit_out) = calls
        assert out is k_new
        cov = params.cov()
        k1 = fluctuate_linear(K, cov)
        want_star, _ = extract_step(fluctuate(K, cov, {}, k1), params, {})
        assert as_exact(k_star.shapes) == as_exact(want_star.shapes)
        F = extraction_coefficients(k1, params.preset, params.beta).F
        assert as_exact(r1.shapes) == as_exact(k1.add(F, -1.0).shapes)
        for whole, part, keep in ((k_star, large_star, rgmap._large),
                                  (r1, unit, rgmap._unit_charge_small)):
            assert part.shapes
            assert as_exact(part.shapes) == as_exact(whole.filter(keep).shapes)
        for part, image in ((large_star, large_out), (unit, unit_out)):
            assert as_exact(image.shapes) == as_exact(scale_linear(part, {}).shapes)

    def test_selections_build_no_image_in_a_flow(self, monkeypatch):
        # each selection, an activity of only large shapes or only
        # unit-charge small-set terms, is scaled after its whole activity
        # through the same cache, so it adds no row and no slot at any step
        from sgrg.flow import FlowConfig, run_flow

        calls = []  # per scale_linear call: (a selection?, add_terms calls, new slots)
        plain, plain_add = rgmap.scale_linear, rgmap._ShapeImages.add_terms
        rows = [0]

        def add_terms(self, *args):
            rows[0] += 1
            return plain_add(self, *args)

        def spy(K, cache):
            rows[0], slots = 0, len(cache.get("slots", ()))
            out = plain(K, cache)
            selection = any(as_exact(K.filter(keep).shapes) == as_exact(K.shapes)
                            for keep in (rgmap._large, rgmap._unit_charge_small))
            calls.append((selection, rows[0], len(cache["slots"]) - slots))
            return out

        monkeypatch.setattr(rgmap, "scale_linear", spy)
        monkeypatch.setattr(rgmap._ShapeImages, "add_terms", add_terms)
        run_flow(FlowConfig(mode="ir", beta=12 * math.pi, zeta=1e-3, L=2, M=4, N=0, steps=3))
        assert len(calls) == 4 * 3 and calls[0][1] > 0
        for j in range(3):
            added = [(n, m) for selection, n, m in calls[4 * j:4 * j + 4] if selection]
            assert added == [(0, 0), (0, 0)], j

    def test_four_term_split_columns(self):
        K, params = tiny_ir_step()
        _, _, diag = rg_step(K, params, activity_norm(K, params.p))
        mults = diag["multipliers"]
        assert set(mults) == {"charged", "large", "higher"}
        for m in mults.values():
            assert math.isfinite(m) and m > 0
        assert diag["hypotheses"]["h4_small_superset_count"] == {"k": 509, "margin": 0, "ok": True}

    def test_one_collapse_per_key_per_step(self, monkeypatch):
        # fluctuation, extraction, scaling and the split share one memo per step
        K, params = tiny_ir_step()
        calls, depth = [], [0]

        def counted(term):
            if depth[0] == 0:
                calls.append(term.key())
            depth[0] += 1
            try:
                return collapse_term(term)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(activities, "collapse_term", counted)
        monkeypatch.setattr(rgmap, "collapse_term", counted, raising=False)
        rg_step(K, params, activity_norm(K, params.p))
        assert len(calls) > 1000
        assert len(calls) == len(set(calls))


class TestCoefficientType:
    """Every coefficient on the flow's path is a Python ``complex``, whatever
    the type of zeta: the step's sums and products meet no float and no
    np.complex128 coefficient."""

    @pytest.mark.parametrize("preset, beta, zeta", [
        ("ir", 12 * math.pi, 1e-2),  # the IR flow starts from a real zeta
        ("uv", 4 * math.pi, 1e-2 + 0j),
    ], ids=["ir", "uv"])
    def test_flow_step_carries_complex(self, preset, beta, zeta, monkeypatch):
        from sgrg import flow

        t = TorusSpec(2, 2)
        K = truncated_mayer(zeta, t)
        params = RGStepParams(beta=beta, torus=t, c_star=step_c_star(beta, t), preset=preset,
                              p=0, sigma=0.0)
        seen = []  # (input, output, coefficients) of each extraction
        plain = rgmap.extract_step

        def spy(K, params, cache):
            out = plain(K, params, cache)
            seen.append((K, *out))
            return out

        monkeypatch.setattr(rgmap, "extract_step", spy)
        monkeypatch.setattr(flow, "extract_step", spy)
        flow._flow_step(K, params, activity_norm(K, params.p))
        (k_sharp, k_star, coeffs), (k_new, k_coarse, coarse) = seen
        acts = {"k_sharp": k_sharp, "F": coeffs.F, "k_star": k_star, "K'": k_new,
                "coarse F": coarse.F, "coarse K'": k_coarse}
        for name, act in acts.items():
            types = {type(x.coeff) for ts in act.shapes.values() for x in ts}
            assert types == {complex}, name


class TestSlotSums:
    """The scaling sums each slot's coefficients in input order, from 0, as
    Python adds complex numbers."""

    SEQUENCES = [
        [1.0 + 0j, 1e16 + 0j, -1e16 + 0j, 1.0 + 0j],  # 1.0 in this order, 0.0 pairwise
        [1e16 + 1j, 1.0 + 0j, -1e16 - 1e16j, 1.0 + 1e16j],
        [0.5 + 0j, 1e16 - 1j, -1e16 + 0j, 1.0 + 0.0j, 1.0 + 0j],
        [complex(-0.0, -0.0), 2.5 - 0.0j, 1.0 + 0j],  # a sum from +0 reads no zero's sign
    ]

    def test_repeated_slots_add_in_input_order(self):
        coarse = ((0, 0),)
        pieces = [(((1, (float(s), 0.0)),), ()) for s in range(len(self.SEQUENCES))]
        slots = {(coarse, p): s for s, p in enumerate(pieces)}
        # interleaved across slots, in two calls of one offset and many terms,
        # so that one np.add.at meets each slot repeatedly
        entries = sorted(((i, s, x) for s, seq in enumerate(self.SEQUENCES)
                          for i, x in enumerate(seq)), key=lambda e: e[:2])
        sums = rgmap._SlotSums(len(slots))
        for chunk in (entries[:7], entries[7:]):
            rows = np.array([[s] for _, s, _ in chunk], dtype=np.int32)
            sums.add([coarse], rows, [x for _, _, x in chunk])
        got = {t.charges[0][1][0]: repr(t.coeff) for t in sums.terms(list(slots))[coarse]}
        folds = []
        for seq in self.SEQUENCES:
            c = 0j
            for x in seq:
                c = c + x
            folds.append(c)
        assert got == {float(s): repr(c) for s, c in enumerate(folds)}
        a, b, c, d = self.SEQUENCES[0]
        assert folds[0] == 1.0 and (a + b) + (c + d) == 0.0  # the order shows


# -- the bond operator on slot lists: an independent reference ------------------


@dataclass(frozen=True)
class Slot:
    kind: str  # "q" or "l"
    data: tuple  # (charge,) or alpha
    pos: tuple
    member: int  # polymer index in the partition


def term_slots(term, member):
    slots = [Slot("q", (q,), x, member) for q, x in term.charges]
    return slots + [Slot("l", a, y, member) for a, y in term.linfs]


def slot_members(slots, n):
    """A slot list on n members as ``terms.bond_laplacian`` reads a product:
    each member's charges, then its linfs, in slot order."""
    out = ()
    for m in range(n):
        out += (tuple((s.data[0], s.pos) for s in slots if s.member == m and s.kind == "q"),
                tuple((s.data, s.pos) for s in slots if s.member == m and s.kind == "l"))
    return out


def reference_bond_laplacian(coeff, slots, i_mem, j_mem, cov):
    """2 Delta_{C(X_i, X_j)} on a slot list: every slot of member i against
    every slot of member j, in slot-list order, as (coeff * factor, slots);
    linear slots are consumed, charge slots persist."""
    left = [k for k, s in enumerate(slots) if s.member == i_mem]
    right = [k for k, s in enumerate(slots) if s.member == j_mem]
    for a in left:
        for b in right:
            sa, sb = slots[a], slots[b]
            if sa.kind == "q" and sb.kind == "q":
                fac = (-sa.data[0] * sb.data[0]
                       * cov.c((0, 0), (sa.pos[0] - sb.pos[0], sa.pos[1] - sb.pos[1])))
                yield coeff * fac, slots
            elif sa.kind == "q" and sb.kind == "l":
                fac = 1j * sa.data[0] * cov.pair((0, 0), sa.pos, sb.data, sb.pos)
                yield coeff * fac, [s for k, s in enumerate(slots) if k != b]
            elif sa.kind == "l" and sb.kind == "q":
                fac = 1j * sb.data[0] * cov.pair((0, 0), sb.pos, sa.data, sa.pos)
                yield coeff * fac, [s for k, s in enumerate(slots) if k != a]
            else:
                fac = cov.pair(sa.data, sa.pos, sb.data, sb.pos)
                yield coeff * fac, [s for k, s in enumerate(slots) if k not in (a, b)]


def reference_tree_convolved_terms(coeff, slots, tree, cov):
    """The tree-term integral computed afresh on every call."""
    charges = [(s.data[0], s.pos, s.member) for s in slots if s.kind == "q"]
    linfs = [(s.data, s.pos, s.member) for s in slots if s.kind == "l"]
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
    base = coeff * math.exp(-0.5 * intra)
    shift_parts = []
    for alpha, y, m in linfs:
        parts = {}
        for q, x, ma in charges:
            parts[ma] = parts.get(ma, 0.0) + q * cov.c(alpha, (y[0] - x[0], y[1] - x[1]))
        shift_parts.append((m, parts))
    out = []
    charge_tuple = tuple((q, x) for q, x, _ in charges)
    for pairing, rest in tm._pairings_with_rest(len(linfs)):
        for subset in tm._subsets(rest):
            kept = tuple((linfs[i][0], linfs[i][1]) for i in sorted(subset))
            factors = []
            for i, j in pairing:
                (ai, yi, mi), (aj, yj, mj) = linfs[i], linfs[j]
                pc = cov.pair(ai, yi, aj, yj)
                if mi == mj:
                    factors.append((pc, {}))
                else:
                    factors.append((0.0, {(min(mi, mj), max(mi, mj)): pc}))
            for i in rest:
                if i in subset:
                    continue
                m_i, parts = shift_parts[i]
                lin = {}
                for ma, v in parts.items():
                    if ma != m_i:
                        pair = (min(m_i, ma), max(m_i, ma))
                        lin[pair] = lin.get(pair, 0.0) + 1j * v
                factors.append((1j * parts.get(m_i, 0.0), lin))
            integral = rgmap._s_integral_affine(tree, u, factors)
            if integral != 0.0:
                out.append(CloudTerm(base * integral, charge_tuple, kept))
    return tm.canon(out)


def reference_fluctuate_truncated(K, cov, pair_window, drop_tol):
    """Truncated fluctuation with the placement loop rebuilding every slot list,
    applying the reference bond operator, integrating every bond piece afresh
    and re-anchoring every term."""
    out = {}
    for key, ts in K.shapes.items():
        out.setdefault(key, []).extend(reference_convolve_terms(ts, cov))
    pair_floor = drop_tol * max(abs(t.coeff) for ts in K.shapes.values() for t in ts)
    shapes = [k for k in sorted(K.shapes) if len(k) <= 2]
    for i1, k1 in enumerate(shapes):
        p1 = Polymer(frozenset(k1))
        for k2 in shapes[i1:]:
            for ox in range(-pair_window, pair_window + 1):
                for oy in range(-pair_window, pair_window + 1):
                    if k1 == k2 and (ox, oy) <= (0, 0):
                        continue
                    p2 = Polymer(frozenset(k2)).translate((ox, oy))
                    if not rgmap._inf_region_disjoint(p1, p2):
                        continue
                    union = Polymer(p1.blocks | p2.blocks)
                    base = tuple(min(b[i] for b in union.blocks) for i in range(2))
                    acc = []
                    for t1 in K.shapes[k1]:
                        for t2 in K.shapes[k2]:
                            if abs(t1.coeff * t2.coeff) < pair_floor:
                                continue
                            t2s = translate_term(t2, (ox, oy))
                            slots = term_slots(t1, 0) + term_slots(t2s, 1)
                            for c0, sl in reference_bond_laplacian(
                                t1.coeff * t2s.coeff, slots, 0, 1, cov
                            ):
                                acc.extend(reference_tree_convolved_terms(
                                    c0, sl, ((0, 1),), cov
                                ))
                    if acc:
                        out.setdefault(union.shape_key(), []).extend(
                            translate_term(t, (-base[0], -base[1])) for t in acc
                        )
    result, dropped_terms = {}, 0
    for key, ts in out.items():
        kept, dropped = reference_truncate_cloud_terms(ts, drop_tol)
        if kept:
            result[key] = kept
        dropped_terms += len(dropped)
    return result, dropped_terms


def replay_test_activity(t, shared_key=False):
    """A Mayer activity plus gradient factors on one side and both sides of
    a bond, and charges off the block centres.  With ``shared_key`` a term key
    of the one-block shape also sits in the two-block shape, so placements of
    either shape reach the same slot lists."""
    K = truncated_mayer(1e-2, t)
    shapes = dict(K.shapes)
    shapes[((0, 0),)] = shapes[((0, 0),)] + [
        CloudTerm(0.01, (), (((1, 0), (0.0, 0.0)),)),
        CloudTerm(0.004j, (), (((1, 0), (0.0, 0.0)), ((0, 1), (0.0, 0.0)))),
        CloudTerm(0.003 - 0.001j, ((1, (0.0, 0.0)),), (((0, 1), (0.0, 0.0)),)),
    ]
    key = ((0, 0), (0, 1))
    shapes[key] = shapes[key] + [
        CloudTerm(0.002, ((1, (0.25, 0.0)), (-1, (0.0, 0.75)))),
        CloudTerm(-0.001j, ((1, (0.0, 0.0)), (-1, (0.0, 1.0))), (((1, 0), (0.0, 1.0)),)),
    ]
    if shared_key:
        shapes[key] = shapes[key] + [CloudTerm(0.005 + 0.002j, *shapes[((0, 0),)][-1].key())]
    return TruncatedActivity(t, shapes)


class TestExpMonomial:
    """int_0^1 s^k e^{-us} ds on both sides of the |u| = 0.5 switch between
    the series and the forward recursion, against 80-node Gauss-Legendre."""

    @pytest.mark.parametrize("u", [-5, -1, -0.5, -0.49, 0, 1e-12, 0.49, 0.5, 0.5000001, 1,
                                   5, 50])
    def test_against_gauss_legendre(self, u):
        x, w = np.polynomial.legendre.leggauss(80)
        s = 0.5 * (x + 1)
        # the series is good to rounding (6.6e-16 at worst); the recursion
        # divides by u at every order and loses digits as k grows: 1.65e-11
        # at k = 6 with u just above 0.5 is its worst here, so allow 3x that
        tol = 2e-15 if abs(u) < 0.5 else 5e-11
        for k in range(7):
            want = float(np.sum(0.5 * w * s**k * np.exp(-u * s)))
            assert abs(rgmap._exp_monomial_01(k, u) - want) <= tol * abs(want)


def assert_close_terms(got, want, rel=1e-13):
    """Equal keys in equal order, and each coefficient within ``rel`` of the
    largest coefficient of its list; lists are [(key, coeff)]."""
    assert [k for k, _ in got] == [k for k, _ in want]
    scale = max((abs(c) for _, c in want), default=0.0)
    assert all(abs(a - b) <= rel * scale for (_, a), (_, b) in zip(got, want))


class TestTreeTermReplay:
    """Tree-term images reused across placements and coefficients give the
    terms of computing every one afresh: the same keys, and coefficients
    that differ by rounding only (an image sums a key's integrals before it
    multiplies by the coefficient)."""

    @pytest.mark.parametrize("drop_tol", [1e-14, 1e-6])  # 1e-6 skips most term pairs
    @pytest.mark.parametrize("t, shared_key", [
        pytest.param(TorusSpec(2, 3), False, id="t0"),
        pytest.param(TorusSpec(8, 2), False, id="t1"),
        pytest.param(TorusSpec(8, 2), True, id="t1-shared_key"),
    ])
    def test_fluctuation_equals_reference(self, t, shared_key, drop_tol, monkeypatch):
        K = replay_test_activity(t, shared_key)
        cov = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=t), scale=4 * math.pi)
        monkeypatch.setattr(rgmap, "DROP_TOL", drop_tol)
        got = fluctuate(K, cov, {}, fluctuate_linear(K, cov))
        want, dropped_terms = reference_fluctuate_truncated(
            K, cov, pair_window=2, drop_tol=drop_tol
        )
        assert sum(len(ts) for ts in want.values()) > 100 and dropped_terms > 0
        assert list(got.shapes) == list(want)
        for key, ts in want.items():
            assert_close_terms([(repr(t.key()), t.coeff) for t in got.shapes[key]],
                               [(repr(t.key()), t.coeff) for t in ts])
        assert got.dropped_terms == dropped_terms
        assert got.filter(lambda k, t: True).dropped_terms == 0  # a field: a copy reads 0

    def test_one_image_per_slot_list_per_call(self, monkeypatch):
        # the images of one fluctuate call serve every placement: each
        # product of two members' keys, charge-only or not, is built once
        t = TorusSpec(8, 2)
        K = replay_test_activity(t)
        cov = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=t), scale=4 * math.pi)
        k1 = fluctuate_linear(K, cov)  # its one-member images are not the call's
        built = []
        plain = rgmap._tree_term_image

        def counted(members, *args):
            built.append(members)
            return plain(members, *args)

        monkeypatch.setattr(rgmap, "_tree_term_image", counted)
        fluctuate(K, cov, {}, k1)
        charge_only = [m for m in built if not (m[1] or m[3])]
        assert len(charge_only) > 100 and len(built) - len(charge_only) > 100
        assert len(built) == len(set(built))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bond_laplacian_equals_reference(self, n):
        # factors and products, in order, against the slot-list enumeration,
        # on every ordered bond of n members with 0-3 charges and 0-2
        # gradient factors each, every count on every member
        t = TorusSpec(2, 3)
        cov = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=t), scale=4 * math.pi)
        rng = np.random.default_rng(n)
        alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        coeff = 0.3 - 1.1j
        kinds = set()
        for case in range(12):
            terms = []
            for m in range(n):
                n_q, n_l = (case + m) % 4, (case // 4 + m) % 3
                pos = [tuple(rng.integers(-4, 5, 2) / 4) for _ in range(n_q + n_l)]
                terms.append(CloudTerm(
                    1.0, [(int(rng.choice([-2, -1, 1, 2])), x) for x in pos[:n_q]],
                    [(alphas[rng.integers(len(alphas))], y) for y in pos[n_q:]]))
            members = sum((u.key() for u in terms), ())
            slots = [s for m, u in enumerate(terms) for s in term_slots(u, m)]
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    got = [(coeff * fac, ms) for fac, ms in tm.bond_laplacian(members, i, j, cov)]
                    want = [(c0, slot_members(sl, n))
                            for c0, sl in reference_bond_laplacian(coeff, slots, i, j, cov)]
                    assert repr(got) == repr(want)
                    kinds.update((len(ms[2 * i + 1]) < len(members[2 * i + 1]),
                                  len(ms[2 * j + 1]) < len(members[2 * j + 1])) for _, ms in got)
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_replay_across_coefficients(self):
        t = TorusSpec(2, 3)
        cov = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=t), scale=4 * math.pi)
        t1 = CloudTerm(1.0, ((1, (0.0, 0.0)), (-1, (0.25, 0.0))), (((1, 0), (0.0, 0.0)),))
        t2 = CloudTerm(1.0, ((-1, (1.0, 0.0)),), (((0, 1), (1.0, 0.0)),))
        slots = term_slots(t1, 0) + term_slots(t2, 1)
        pieces = list(reference_bond_laplacian(1.0, slots, 0, 1, cov))
        assert len(pieces) == 6
        tree = ((0, 1),)
        for _, sl in pieces:
            images = {}
            members = slot_members(sl, 2)
            for coeff in (3.0 - 1.5j, 3e-300 + 1e-300j, 1e-320, 2e-300j):
                replayed = rgmap.tree_convolved_terms(coeff, members, tree, cov, images)
                fresh = rgmap.tree_convolved_terms(coeff, members, tree, cov, {})
                want = reference_tree_convolved_terms(coeff, sl, tree, cov)
                assert repr(replayed) == repr(fresh)
                assert_close_terms(replayed, [(t.key(), t.coeff) for t in want])
            assert len(images) == 1
        # at 1e-320 some products underflow to 0.0, and those pieces are dropped
        _, sl = pieces[0]
        members = slot_members(sl, 2)
        tiny = rgmap.tree_convolved_terms(1e-320, members, tree, cov, {})
        whole = rgmap.tree_convolved_terms(1.0, members, tree, cov, {})
        assert 0 < len(tiny) < len(whole)
        assert {k for k, _ in tiny} < {k for k, _ in whole}

    def test_images_keyed_by_member(self):
        # equal slots on other polymers couple differently: one images dict
        # keeps a product apart from the one with a charge moved to the other
        # member
        t = TorusSpec(2, 3)
        cov = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=t), scale=4 * math.pi)
        t1 = CloudTerm(1.0, ((1, (0.0, 0.0)), (-1, (0.25, 0.0))), (((1, 0), (0.0, 0.0)),))
        t2 = CloudTerm(1.0, ((-1, (1.0, 0.0)),), (((0, 1), (1.0, 0.0)),))
        slots = term_slots(t1, 0) + term_slots(t2, 1)
        moved = [Slot(s.kind, s.data, s.pos, 1) if k == 1 else s for k, s in enumerate(slots)]
        images = {}
        tree = ((0, 1),)
        for sl in (slots, moved):
            got = rgmap.tree_convolved_terms(0.5 - 2j, slot_members(sl, 2), tree, cov, images)
            want = reference_tree_convolved_terms(0.5 - 2j, sl, tree, cov)
            assert repr(got) == repr([(t.key(), t.coeff) for t in want])
        assert len(images) == 2


def convolution_test_terms(rng, n_terms, n_q, n_l, centres):
    """``n_terms`` terms of ``n_q`` charges and ``n_l`` gradient factors, with
    Python complex coefficients; at block centres, or off them in quarters."""
    alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    step = 1 if centres else 4
    out = []
    for _ in range(n_terms):
        pos = [tuple(float(v) for v in rng.integers(-3 * step, 3 * step + 1, 2) / step)
               for _ in range(n_q + n_l)]
        coeff = complex(rng.normal(), rng.normal())
        out.append(CloudTerm(coeff, [(int(rng.choice([-2, -1, 1, 2])), x) for x in pos[:n_q]],
                             [(alphas[rng.integers(len(alphas))], y) for y in pos[n_q:]]))
    return tm.canon(out)


class TestConvolveTerms:
    """``rgmap.convolve_terms``, the images of one member on the tree with no
    bond, against the per-term Gaussian convolution it replaced."""

    def cov(self, sigma=0.0):
        t = TorusSpec(2, 3)
        return CovAccess(CovarianceKernel("slice", sigma=sigma, torus=t), scale=4 * math.pi)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_model_terms_equal_reference(self, sigma):
        # charge-only terms, and terms of at most MAX_LINFS gradient factors
        # at block centres, F's gradient squares at one node among them
        cov = self.cov(sigma)
        rng = np.random.default_rng(7)
        mayer = mayer_init_truncated(1e-3 + 0j, TorusSpec(2, 3))
        lists = list(mayer.shapes.values())
        lists += [convolution_test_terms(rng, 6, n_q, 0, True) for n_q in (1, 2, 3)]
        lists += [convolution_test_terms(rng, 6, 0, n_l, True)
                  for n_l in range(1, activities.MAX_LINFS + 1)]
        squares = [CloudTerm(complex(0.3 * mu, -0.1), (), ((e1, (1.0, 2.0)), (e2, (1.0, 2.0))))
                   for mu, (e1, e2) in enumerate([((1, 0), (1, 0)), ((1, 0), (0, 1)),
                                                  ((0, 1), (0, 1)), ((1, 0), (2, 0)),
                                                  ((0, 1), (1, 1))])]
        lists += [tm.canon(squares), tm.canon(squares + lists[0] + lists[-1])]
        for ts in lists:
            got = rgmap.convolve_terms(ts, cov)
            assert repr(got) == repr(reference_convolve_terms(ts, cov))
        assert any(t.linfs for t in rgmap.convolve_terms(tm.canon(squares), cov))

    @pytest.mark.parametrize("n_l", [1, 2, 3, 4])
    def test_off_model_terms_within_rounding(self, n_l):
        # charges with gradient factors: an image sums a key's integrals
        # before it multiplies by the coefficient, so only rounding differs
        cov = self.cov()
        rng = np.random.default_rng(n_l)
        for n_q in (1, 2, 3):
            for centres in (True, False):
                ts = convolution_test_terms(rng, 4, n_q, n_l, centres)
                got = rgmap.convolve_terms(ts, cov)
                want = reference_convolve_terms(ts, cov)
                assert len(got) > len(ts)
                assert_close_terms([(t.key(), t.coeff) for t in got],
                                   [(t.key(), t.coeff) for t in want], rel=1e-15)


class TestExtraction:
    def test_extract_zero_F_is_identity(self):
        t = TorusSpec(3, 1)
        K = TruncatedActivity(t, {
            ((0, 0),): [CloudTerm(0.5, ((1, (0.0, 0.0)),))],
            ((0, 0), (0, 1)): tm.canon([CloudTerm(0.2), CloudTerm(-0.1j, ((-1, (0.0, 1.0)),))]),
        })
        E = extract_cloud(K, TruncatedActivity(t, {}), {})
        assert as_values(E.shapes) == as_values(K.shapes)

    def test_extract_linear(self):
        t = TorusSpec(3, 1)
        K = cloud_K(t, {((0, 0),): [CloudTerm(0.5)]})
        F = cloud_K(t, {((0, 0),): [CloudTerm(0.2)], ((1, 1),): [CloudTerm(0.1)]})
        E1 = K.add(F, -1.0)  # E_1(K, F) = K - F, as the four-term split forms it
        assert E1.data[frozenset({(0, 0)})][0].coeff == pytest.approx(0.3)
        assert E1.data[frozenset({(1, 1)})][0].coeff == pytest.approx(-0.1)

    @pytest.mark.parametrize("side_spec", [(3, 1), (5, 1)])
    def test_extraction_identity_pointwise(self, side_spec):
        L, M = side_spec
        t = TorusSpec(L, M)
        rng = np.random.default_rng(7)
        K = cloud_K(
            t,
            {
                ((0, 0),): [CloudTerm(0.45, ((1, (0.0, 0.0)),)), CloudTerm(0.1)],
                ((2, 2), (2, 1)): [CloudTerm(0.3, ((-1, (2.0, 2.0)),))],
            },
        )
        F = cloud_K(
            t,
            {
                ((0, 0), (0, 1)): [CloudTerm(0.25), CloudTerm(0.15, (), (((1, 0), (0.0, 1.0)), ((1, 0), (0.0, 1.0))))],
                ((2, 2),): [CloudTerm(0.2, (), (((0, 1), (2.0, 2.0)), ((0, 1), (2.0, 2.0))))],
            },
        )
        E = extract_functional(K, F)
        lam = whole_torus(t)
        worst = 0.0
        for _ in range(6):
            fld = rfield(t, rng)
            lhs = polymer_exp(K, lam, fld)
            f_sum = sum(F.value(y, fld) for y in F.support())
            rhs = cmath.exp(f_sum) * polymer_exp(E, lam, fld)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-9, f"extraction identity residual {worst}"


def extraction_test_input(t):
    """An activity of constants, gradient quadratics and dipoles on the
    shapes of at most two blocks."""
    from sgrg.lattice import enumerate_shapes

    rng = np.random.default_rng(5)
    shapes = {}
    for p in enumerate_shapes(2):
        ts = []
        for b in p.sorted_blocks():
            x = (float(b[0]), float(b[1]))
            ts += [
                CloudTerm(complex(*rng.normal(size=2)) * 0.1),
                CloudTerm(rng.normal() * 0.05, (), (((1, 0), x), ((0, 1), x))),
                CloudTerm(rng.normal() * 0.05, (), (((1, 0), x), ((1, 0), x))),
                CloudTerm(rng.normal() * 0.05, ((1, x), (-1, (x[0] + 0.25, x[1])))),
            ]
        shapes[p.shape_key()] = tm.canon(ts)
    return TruncatedActivity(t, shapes)


class TestExtractCloud:
    """``extract_cloud`` forms only the products of e^F - 1 that the model
    keeps, and gives what forming all of them and truncating gives."""

    @pytest.mark.parametrize("case", ["ir", "uv", "shared_keys"])
    def test_equals_reference(self, case):
        t = TorusSpec(2, 3)
        A = extraction_test_input(t)
        F = extraction_coefficients(A, "uv" if case == "uv" else "ir", beta=3.0).F
        K = A if case == "shared_keys" else truncated_mayer(1e-2, t)
        if case == "ir":  # gradient quadratics, whose products have 4 factors
            assert any(len(x.linfs) == 2 for ts in F.shapes.values() for x in ts)
        if case == "shared_keys":
            assert {x.key() for ts in K.shapes.values() for x in ts} & {
                x.key() for ts in F.shapes.values() for x in ts}
        got = extract_cloud(K, F, {}).shapes
        assert repr(got) == repr(reference_extract_cloud(K, F))

    def test_forms_only_products_in_the_model(self, monkeypatch):
        t = TorusSpec(2, 3)
        A = extraction_test_input(t)
        F = extraction_coefficients(A, "ir", beta=3.0).F
        assert any(len(x.linfs) == 2 for ts in F.shapes.values() for x in ts)
        seen = []
        plain = activities._collapsed

        def recorded(memo, key):
            seen.append(key)
            return plain(memo, key)

        monkeypatch.setattr(activities, "_collapsed", recorded)
        extract_cloud(truncated_mayer(1e-2, t), F, {})
        assert seen and max(len(linfs) for _, linfs in seen) <= activities.MAX_LINFS


def gradient_terms(shapes, key) -> dict:
    """{linfs: coeff} of shape ``key``'s terms, which must carry no charge
    and no constant."""
    assert all(not t.charges and t.linfs for t in shapes[key]) and list(shapes) == [key]
    return {t.linfs: t.coeff for t in shapes[key]}


class TestExtractionCoefficients:
    def test_gradient_square_gives_dsigma(self):
        # K(D) = eps int_D (d phi)^2 on single blocks -> dsigma = -2 beta eps
        t = TorusSpec(2, 3)
        eps = 0.01
        beta = 5.0
        key = tuple([(0, 0)])
        terms = [
            CloudTerm(eps, (), (((1, 0), (0.0, 0.0)), ((1, 0), (0.0, 0.0)))),
            CloudTerm(eps, (), (((0, 1), (0.0, 0.0)), ((0, 1), (0.0, 0.0)))),
        ]
        K = TruncatedActivity(t, {key: terms})
        coeffs = extraction_coefficients(K, "ir", beta)
        assert coeffs.dsigma == pytest.approx(-2.0 * beta * eps, rel=1e-12)
        assert coeffs.dE == pytest.approx(0.0, abs=1e-15)
        # F is K itself, moved to the block's one midpoint node (its center)
        x = (0.0, 0.0)
        e0, e1 = (1, 0), (0, 1)
        assert gradient_terms(coeffs.F.shapes, key) == pytest.approx(
            {((e0, x), (e0, x)): eps, ((e1, x), (e1, x)): eps})
        # off the center, (d_0 phi(y))^2 = (d_0 phi)^2 + 2 (y - x)_0 d_0 phi d_0^2 phi + ...
        y = (0.25, 0.0)
        K = TruncatedActivity(t, {key: [CloudTerm(eps, (), (((1, 0), y), ((1, 0), y)))]})
        coeffs = extraction_coefficients(K, "ir", beta)
        assert coeffs.dsigma == pytest.approx(-beta * eps, rel=1e-12)
        assert gradient_terms(coeffs.F.shapes, key) == pytest.approx(
            {((e0, x), (e0, x)): eps, ((e0, x), ((2, 0), x)): 2 * 0.25 * eps})

    def test_constant_gives_dE(self):
        t = TorusSpec(2, 3)
        key = tuple([(0, 0)])
        K = TruncatedActivity(t, {key: [CloudTerm(0.3)]})
        coeffs = extraction_coefficients(K, "uv", beta=1.0)
        assert coeffs.dE == pytest.approx(0.3)
        assert coeffs.dsigma == 0.0
        assert coeffs.F.shapes == {key: [CloudTerm(0.3)]}
        # under 'uv' F keeps only each shape's constant, never its gradient terms
        pair = ((0, 0), (1, 0))
        grad2 = CloudTerm(0.01, (), (((1, 0), (0.0, 0.0)), ((1, 0), (0.0, 0.0))))
        K = TruncatedActivity(t, {key: [CloudTerm(0.3), grad2], pair: [CloudTerm(0.4), grad2]})
        coeffs = extraction_coefficients(K, "uv", beta=1.0)
        assert coeffs.dE == pytest.approx(0.7)
        assert coeffs.F.shapes == {key: [CloudTerm(0.3)], pair: [CloudTerm(0.4)]}

    def test_charged_activity_extracts_nothing(self):
        t = TorusSpec(2, 3)
        V = v_activity(t, n_q=1, trans_invariant=True)
        coeffs = extraction_coefficients(V, "ir", beta=1.0)
        assert coeffs.dE == pytest.approx(0.0, abs=1e-15)
        assert coeffs.dsigma == pytest.approx(0.0, abs=1e-15)

    def test_conditions_vanish_after_extraction(self):
        # moments of Kbar - F vanish on every small shape (the dim >= 4 check)
        t = TorusSpec(2, 3)
        rng = np.random.default_rng(3)
        shapes = {}
        from sgrg.lattice import enumerate_shapes

        for p in enumerate_shapes(2):
            ts = []
            for b in p.sorted_blocks():
                ts.append(CloudTerm(rng.normal() * 0.1))
                ts.append(
                    CloudTerm(
                        rng.normal() * 0.05,
                        (),
                        (((1, 0), (float(b[0]), float(b[1]))), ((0, 1), (float(b[0]), float(b[1])))),
                    )
                )
                ts.append(
                    CloudTerm(
                        rng.normal() * 0.05,
                        ((1, (float(b[0]), float(b[1]))), (-1, (float(b[0]) + 0.25, float(b[1])))),
                    )
                )
            shapes[p.shape_key()] = ts
        K = TruncatedActivity(t, shapes)
        F = extraction_coefficients(K, "ir", beta=3.0).F
        resid = charge_component(K, 0).add(F, -1.0)
        from sgrg.rgmap import _centroid

        for key, ts in resid.shapes.items():
            blocks = list(key)
            M0, M2, M3 = neutral_moments(ts, _centroid(blocks))
            assert abs(M0) < 1e-10
            assert np.max(np.abs(M2)) < 1e-10
            assert np.max(np.abs(M3)) < 1e-10

    def test_anisotropy_detected(self):
        t = TorusSpec(2, 3)
        key = tuple([(0, 0)])
        terms = [CloudTerm(0.01, (), (((1, 0), (0.0, 0.0)), ((1, 0), (0.0, 0.0))))]
        K = TruncatedActivity(t, {key: terms})
        # the check reports its measure and does not stop the caller
        assert extraction_coefficients(K, "ir", beta=1.0).anisotropy > 1e-8


    def test_one_gradient_factor_adds_nothing(self):
        # a neutral term with one gradient factor carries no charge to pair with
        t = CloudTerm(0.5 - 0.25j, (), (((1, 0), (0.25, 0.0)),))
        M0, M2, M3 = neutral_moments([t], (0.5, 0.5))
        assert M0 == 0.0 and not M2.any() and not M3.any()

    @pytest.mark.parametrize("term", [
        CloudTerm(1.0, ((1, (0.0, 0.0)), (-1, (1.0, 0.0))), (((1, 0), (0.0, 0.0)),)),
        CloudTerm(1.0, (), (((1, 0), (0.0, 0.0)),) * 3),
    ], ids=["charges_and_linfs", "three_linfs"])
    def test_term_outside_the_model_raises(self, term):
        with pytest.raises(ValueError, match="neutral term outside the model"):
            neutral_moments([term], (0.0, 0.0))


class TestNeutralScalingDimension:
    def test_dim_scaling_across_L(self):
        # neutral quadratics scale like L^{2 - dim}: dim 2 -> flat, dim 4 -> L^-2
        ratios = {}
        for L in (2, 4):
            t = TorusSpec(L, 2)
            key = tuple([(0, 0)])
            for dim, alpha in ((2, (1, 0)), (4, (2, 0))):
                terms = [CloudTerm(1.0, (), ((alpha, (0.0, 0.0)), (alpha, (0.0, 0.0))))]
                K = TruncatedActivity(t, {key: terms})
                SK = scale_linear(K, {})
                num = activity_norm(SK, 0)
                den = activity_norm(K, 0)
                ratios[(L, dim)] = math.exp(num - den)
        for L in (2, 4):
            assert ratios[(L, 2)] == pytest.approx(1.0, rel=1e-9)
            assert ratios[(L, 4)] == pytest.approx(L**-2.0, rel=1e-9)


class TestChargeFactors:
    def test_m1(self):
        c0 = 0.3
        out = charge_factors(1, c0, n_c=0.1, h=1.0, eta=0.5, L=2)
        assert out["m_q"] == pytest.approx(math.exp(-0.5 * c0))

    def test_sum_over_q(self):
        c0 = 1.2
        total = sum(
            charge_factors(q, c0, 0.1, 1.0, 0.0, 2)["m_q"] for q in range(-6, 7) if q
        )
        assert total <= 4.0 * math.exp(-c0 / 2.0)

    def test_combined_scaling_in_beta(self):
        # with C(0) = log L / 2 pi and the beta-scaled kernel the combined
        # multiplier is proportional to L^{2 - beta/4 pi}
        L = 8
        beta = 12 * math.pi
        c0 = beta * math.log(L) / (2.0 * math.pi)
        out = charge_factors(1, c0, n_c=0.0, h=1.0, eta=0.0, L=L)
        assert out["combined"] == pytest.approx(L ** (2.0 - beta / (4.0 * math.pi)), rel=1e-12)


class TestRGStep:
    def test_zero_activity(self):
        t = TorusSpec(2, 2)
        params = RGStepParams(beta=4 * math.pi, torus=t, c_star=step_c_star(4 * math.pi, t),
                              p=0, sigma=0.0, preset="uv")
        K = TruncatedActivity(t, {})
        k_new, coeffs, diag = rg_step(K, params, activity_norm(K, params.p))
        assert not k_new.shapes
        assert coeffs.dE == 0.0 and coeffs.dsigma == 0.0

    def test_large_set_contraction_measured(self):
        t = TorusSpec(2, 3)
        cross = polymer([(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)])
        key = cross.shape_key()
        dipole = CloudTerm(1e-3, ((1, (1.0, 1.0)), (-1, (0.0, 1.0))))
        terms, dropped = reference_truncate_cloud_terms([dipole])
        assert terms and not dropped
        K = TruncatedActivity(t, {key: terms})
        kern = CovarianceKernel("slice", sigma=0.0, torus=t)
        cov = CovAccess(kern, scale=4 * math.pi)
        out = scale_linear(fluctuate_linear(K, cov), {})
        num = activity_norm(out, 0)
        den = activity_norm(K, 0)
        ratio = math.exp(num - den)
        print(f"large-set one-step multiplier at L=2: {ratio:.4f} (L^-2 = 0.25)")
        assert ratio < 1.0

    def test_uv_step_preserves_evenness_and_charge_track(self):
        t = TorusSpec(2, 3)
        from sgrg.activities import mayer_init_truncated

        zeta = 1e-2
        K = mayer_init_truncated(zeta, t)
        params = RGStepParams(
            beta=4 * math.pi, torus=t, c_star=step_c_star(4 * math.pi, t), preset="uv",
            p=0, sigma=0.0,
        )
        k_new, coeffs, diag = rg_step(K, params, activity_norm(K, params.p))
        assert k_new.torus.side == 4
        # evenness: q -> -q symmetric coefficients
        for key, ts in k_new.shapes.items():
            by_key = {x.key(): x.coeff for x in ts}
            for x in ts:
                fl = x.flipped()
                assert fl.key() in by_key
                assert by_key[fl.key()] == pytest.approx(x.coeff.conjugate(), abs=1e-12)
        assert abs(coeffs.dE) < 1.0

    def test_cauchy_split_cross_check(self):
        t = TorusSpec(2, 2)
        K = truncated_mayer(5e-3, t, order=3, max_size=1)
        params = RGStepParams(
            beta=4 * math.pi, torus=t, c_star=step_c_star(4 * math.pi, t), preset="uv",
            p=0, sigma=0.0,
        )
        out = contour_higher_order(K, params, radius=32.0, nodes=6)
        # contour and direct higher-order parts agree well below their size
        assert out["residual_log_norm"] < out["direct_log_norm"] - math.log(1e3)


def contour_higher_order(K, params, radius, nodes):
    """Log norms of the step's higher-order part R - R_1, computed directly
    and as the contour integral R_{>=2} = (2 pi i)^{-1} oint R(sK) / (s^2 (s - 1))
    at |s| = radius, discretized to (1/n) sum_k R(s_k) / (s_k (s_k - 1))
    on n nodes, and of their difference."""
    contour = TruncatedActivity(K.torus.coarse(), {})
    for k in range(nodes):
        s = radius * cmath.exp(2j * math.pi * k / nodes)
        K_s = K.map(lambda k, ts: [t.scaled(s) for t in ts])
        k_new_s, _, _ = rg_step(K_s, params, activity_norm(K_s, params.p))
        contour = contour.add(k_new_s, 1.0 / (nodes * s * (s - 1.0)))
    k_new, _, _ = rg_step(K, params, activity_norm(K, params.p))
    k1 = fluctuate_linear(K, params.cov())
    F = extraction_coefficients(k1, params.preset, params.beta).F
    r1 = scale_linear(k1.add(F, -1.0), {})
    direct = k_new.add(r1, -1.0)
    return {
        "direct_log_norm": activity_norm(direct, params.p),
        "residual_log_norm": activity_norm(contour.add(direct, -1.0), params.p),
    }


class TestChargedSectorBound:
    def test_single_cloud_never_exceeds_composite_bound(self):
        # || S_1 F_1 k_q || against the composite charged multiplier
        # c L^2 e^{2 N_C |q|} m_q with the beta-scaled kernel
        t = TorusSpec(2, 3)
        kern = CovarianceKernel("slice", sigma=0.0, torus=t)
        beta = 12 * math.pi
        cov = CovAccess(kern, scale=beta)
        c0 = beta * kern.at_zero()
        from sgrg.covariance import translation_loss

        n_c = beta * translation_loss(kern, r=2)
        for q in (1, 2, 3):
            key = tuple([(0, 0)])
            kq = TruncatedActivity(t, {key: [CloudTerm(1e-3, ((q, (0.0, 0.0)),))]})
            out = scale_linear(fluctuate_linear(kq, cov), {})
            num = activity_norm(out, 0)
            den = activity_norm(kq, 0)
            measured = math.exp(num - den)
            bound = charge_factors(q, c0, n_c, h=1.0, eta=0.0, L=t.L)["combined"]
            assert measured <= bound * (1 + 1e-9), (q, measured, bound)
