"""Exactness of compiled term-list evaluation (``terms.TermTable``).

``reference_evaluate_terms`` is the scalar per-term loop that ``TermTable``
replaces.  The table must reproduce it bit for bit, list by list, whether it
holds one list or a batch of several, so every comparison is ``==`` on
``repr``, never ``approx``.
"""

import cmath
import math

import numpy as np
import pytest

from sgrg.activities import CloudActivity, mayer_init_cloud
from sgrg.covariance import CovarianceKernel
from sgrg.fields import gaussian_ensemble, random_band_limited, scale_field
from sgrg.lattice import TorusSpec
from sgrg.rgmap import extraction_coefficients
from sgrg.terms import (
    CloudTerm,
    CovAccess,
    TermTable,
    convolve_terms,
    evaluate_terms,
)
from test_rgmap import translate_term


def reference_evaluate_terms(terms, field) -> complex:
    """Sum of term values with batched field lookups (the per-term loop)."""
    terms = list(terms)
    if not terms:
        return 0.0
    pos_ix: dict = {}
    queries = []
    for t in terms:
        for _, x in t.charges:
            if x not in pos_ix:
                pos_ix[x] = len(queries)
                queries.append(x)
    lin_ix: dict = {}
    lin_queries: dict = {}
    for t in terms:
        for alpha, y in t.linfs:
            if (alpha, y) not in lin_ix:
                lin_ix[(alpha, y)] = True
                lin_queries.setdefault(alpha, []).append(y)
    phis = field.at(queries) if queries else np.zeros(0)
    lin_vals: dict = {}
    for alpha, ys in lin_queries.items():
        vals = field.deriv_at(alpha, ys, field.spectrum())
        for y, v in zip(ys, vals):
            lin_vals[(alpha, y)] = v
    total = 0.0 + 0.0j
    for t in terms:
        val = t.coeff
        if t.charges:
            phase = sum(q * phis[pos_ix[x]] for q, x in t.charges)
            val *= cmath.exp(1j * phase)
        for alpha, y in t.linfs:
            val *= lin_vals[(alpha, y)]
        total += val
    return total


def assert_same(terms, field):
    """The table's value equals the reference bit for bit, as a Python complex."""
    return assert_batch_same([terms], field)[0]


def assert_batch_same(lists, field):
    """Each sum of one batched table equals the reference of its list alone."""
    got = TermTable(lists).values(field)
    assert len(got) == len(lists)
    for ts, value in zip(lists, got):
        assert_value(value, reference_evaluate_terms(ts, field))
    return got


def assert_value(got, ref):
    if isinstance(ref, complex):
        # the loop returns numpy's complex128 once a numpy coefficient joins the sum
        assert type(got) is complex
        ref = complex(ref)
    assert repr(got) == repr(ref)


class RecordingField:
    """Delegates to a field and records every lookup with its points; the
    transforms it hands out are counted apart, in ``spectra``."""

    def __init__(self, field):
        self.field, self.calls, self.spectra = field, [], 0

    def spectrum(self):
        self.spectra += 1
        return self.field.spectrum()

    def at(self, points):
        self.calls.append(("at", np.asarray(points, dtype=float).tolist()))
        return self.field.at(points)

    def deriv_at(self, alpha, points, spectrum):
        self.calls.append(("deriv_at", alpha, np.asarray(points, dtype=float).tolist()))
        return self.field.deriv_at(alpha, points, spectrum)


@pytest.fixture(scope="module")
def oracle_setup():
    """The oracle's K0, k_sharp and F, with fine fields and scaled coarse fields."""
    beta, zeta, torus = 10.0, 0.05, TorusSpec(2, 1)
    K0 = mayer_init_cloud(zeta, torus, n_q=1, order=6, max_size=torus.n_blocks)
    cov = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=torus), scale=beta)
    k_sharp = CloudActivity(torus, {k: convolve_terms(ts, cov) for k, ts in K0.data.items()})
    coeffs = extraction_coefficients(k_sharp, "ir", beta)
    F = coeffs.F
    fine = gaussian_ensemble(CovarianceKernel("full", sigma=0.0, torus=torus),
                             torus, 8, seed=3, scale=beta).sample(5)
    coarse = torus.coarse()
    ens_c = gaussian_ensemble(CovarianceKernel("full", sigma=coeffs.dsigma, torus=coarse),
                              coarse, 8, seed=4, scale=beta)
    psis = [scale_field(f) for f in ens_c.sample(5)]
    return {"K0": K0, "k_sharp": k_sharp, "F": F}, fine, psis


class TestTermTable:
    @pytest.mark.parametrize("name", ["K0", "k_sharp", "F"])
    def test_oracle_polymers_at_sampled_fields(self, oracle_setup, name):
        acts, fine, psis = oracle_setup
        K = acts[name]
        assert K.data
        for fld in fine + psis:
            for ts in K.data.values():
                assert_same(ts, fld)

    def test_off_grid_positions_at_scaled_fields(self, oracle_setup):
        # shifted off the field nodes, every lookup takes FieldGrid.at's
        # trigonometric interpolation branch
        acts, _, psis = oracle_setup
        shift = (0.3, 0.15)
        for ts in acts["k_sharp"].data.values():
            moved = [translate_term(t, shift) for t in ts]
            pts = np.array([x for t in moved for _, x in t.charges]) * psis[0].n_g
            assert np.all(np.abs(pts - np.rint(pts)) > 1e-9)
            for psi in psis:
                assert_same(moved, psi)

    def test_coefficient_kinds_and_factor_mixes(self):
        t = TorusSpec(2, 1)
        rng = np.random.default_rng(5)
        ex, ey, exx = (1, 0), (0, 1), (2, 0)
        terms = [
            CloudTerm(0.3, ((1, (0.0, 0.25)), (-1, (1.3, 0.55)))),
            CloudTerm(complex(-0.2, 0.7), ((2, (0.5, 0.5)),)),
            CloudTerm(np.complex128(0.1 - 0.4j), ((-1, (0.0, 0.25)),)),
            CloudTerm(0.125),
            CloudTerm(complex(0.0, -1.5)),
            CloudTerm(0.6, (), ((ex, (0.3, 0.7)), (ey, (0.5, 0.25)))),
            CloudTerm(np.complex128(-0.3 + 0.2j), (), ((exx, (1.0, 1.0)), (ey, (0.0, 0.0)))),
            CloudTerm(complex(0.2, 0.1), (), ((ey, (0.5, 0.25)),)),
            CloudTerm(-0.4, ((1, (1.0, 0.5)),), ((ex, (0.0, 0.0)),)),
        ]
        for _ in range(5):
            fld = random_band_limited(t, 8, rng, amplitude=0.8, k_max=2)
            assert_same(terms, fld)
            assert_same(terms[3:5], fld)  # uncharged constants only
            assert_same(terms[5:8], fld)  # linear factors, mixed alpha, no charges
            assert_same(terms[::-1], fld)  # first-seen query order changes

    def test_same_field_lookups(self, oracle_setup):
        # one FieldGrid.at call and one deriv_at call per alpha, on the same points
        acts, fine, _ = oracle_setup
        terms = [t for ts in acts["F"].data.values() for t in ts]
        terms += [t for ts in acts["K0"].data.values() for t in ts][:50]
        terms.reverse()  # first-seen order is then not the sorted order
        logs = []
        for evaluate in (reference_evaluate_terms, evaluate_terms):
            log = RecordingField(fine[0])
            evaluate(terms, log)
            logs.append(log.calls)
        assert logs[0] == logs[1]
        alphas = [c[1] for c in logs[0][1:]]
        assert logs[0][0][0] == "at" and len(alphas) == len(set(alphas)) > 1

    def test_shared_transform_off_grid(self):
        # the alphas of one evaluation share one transform; the reference loop
        # takes a fresh one per alpha, and the values agree bit for bit at
        # positions off the field nodes
        t = TorusSpec(2, 1)
        rng = np.random.default_rng(17)
        alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)]
        terms = [CloudTerm(complex(rng.normal(), rng.normal()),
                           ((1, (0.37 * k, 0.11 + 0.29 * k)),),
                           ((a, (0.13 + 0.41 * k, 0.77 - 0.23 * k)), (b, (0.59, 0.05 + 0.31 * k))))
                 for k, (a, b) in enumerate(zip(alphas, alphas[1:] + alphas[:1]))]
        ys = np.array([y for tm in terms for _, y in tm.linfs]) * 8
        assert np.all(np.abs(ys - np.rint(ys)) > 1e-9)
        for _ in range(3):
            fld = random_band_limited(t, 8, rng, amplitude=0.7, k_max=3)
            assert_same(terms, fld)
            logs = []
            for evaluate in (reference_evaluate_terms, evaluate_terms):
                logs.append(RecordingField(fld))
                evaluate(terms, logs[-1])
            assert [log.spectra for log in logs] == [len(alphas), 1]

    def test_empty_list_and_generator(self):
        t = TorusSpec(2, 1)
        fld = random_band_limited(t, 8, np.random.default_rng(6), amplitude=0.8, k_max=2)
        assert repr(TermTable([[]]).values(fld)[0]) == repr(reference_evaluate_terms([], fld)) == "0.0"
        assert TermTable([]).values(fld) == []
        assert repr(evaluate_terms(iter([]), fld)) == "0.0"
        terms = [CloudTerm(0.5, ((1, (0.25, 0.0)),)), CloudTerm(0.25, ((-1, (0.0, 0.75)),))]
        want = reference_evaluate_terms(terms, fld)
        assert repr(evaluate_terms((t for t in terms), fld)) == repr(want)

    def test_cancelling_sum_is_sequential(self):
        # pairwise and sequential summation disagree on these magnitudes
        t = TorusSpec(2, 1)
        fld = random_band_limited(t, 8, np.random.default_rng(8), amplitude=0.8, k_max=2)
        rng = np.random.default_rng(9)
        terms = [CloudTerm(float(c)) for c in rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, 300)]
        pairwise = float(np.sum([t.coeff for t in terms]))
        got = assert_same(terms, fld)
        assert math.isfinite(got.real) and got.real != pairwise


class TestBatch:
    """One table over several term lists, as ``CloudActivity.values`` builds it."""

    @pytest.mark.parametrize("name", ["K0", "k_sharp", "F"])
    def test_oracle_activities_at_sampled_fields(self, oracle_setup, name):
        acts, fine, psis = oracle_setup
        K = acts[name]
        support = K.support()
        assert len(support) > 1
        for fld in fine + psis:
            assert_batch_same([K.terms(p) for p in support], fld)
            for p, value in zip(support, K.values(support, fld)):
                assert_value(value, reference_evaluate_terms(K.terms(p), fld))

    def test_all_oracle_activities_in_one_batch(self, oracle_setup):
        acts, fine, psis = oracle_setup
        lists = [ts for K in acts.values() for ts in K.data.values()]
        for fld in fine[:2] + psis[:2]:
            assert_batch_same(lists, fld)

    def test_off_grid_positions_batched(self, oracle_setup):
        # the moved lists take FieldGrid.at's interpolation branch, the
        # others its node lookup, within the one call of the batch
        acts, _, psis = oracle_setup
        lists = list(acts["k_sharp"].data.values())
        moved = [[translate_term(t, (0.3, 0.15)) for t in ts] for ts in lists]
        pts = np.array([x for ts in moved for t in ts for _, x in t.charges]) * psis[0].n_g
        assert np.all(np.abs(pts - np.rint(pts)) > 1e-9)
        for psi in psis:
            assert_batch_same(moved + lists, psi)
            assert_batch_same(moved[::-1], psi)

    def test_empty_list_inside_a_batch(self, oracle_setup):
        acts, fine, _ = oracle_setup
        a, b = list(acts["F"].data.values())[:2]
        got = assert_batch_same([a, [], b], fine[0])
        assert repr(got[1]) == repr(TermTable([[]]).values(fine[0])[0]) == "0.0"
        assert assert_batch_same([[], [], a], fine[0])[:2] == [0.0, 0.0]

    def test_one_lookup_per_batch(self, oracle_setup):
        # one FieldGrid.at call, one transform and one deriv_at call per alpha
        # for the batch
        acts, fine, _ = oracle_setup
        lists = [ts for K in acts.values() for ts in K.data.values()]
        alphas = {a for ts in lists for t in ts for a, _ in t.linfs}
        assert len(alphas) > 1
        log = RecordingField(fine[0])
        TermTable(lists).values(log)
        assert [c[0] for c in log.calls] == ["at"] + ["deriv_at"] * len(alphas)
        assert log.spectra == 1
        assert {c[1] for c in log.calls[1:]} == alphas
        for K in acts.values():
            ts = [t for p in K.support() for t in K.terms(p)]
            charged = any(t.charges for t in ts)
            alphas = {a for t in ts for a, _ in t.linfs}
            log = RecordingField(fine[0])
            K.values(K.support(), log)
            assert [c[0] for c in log.calls] == ["at"] * charged + ["deriv_at"] * len(alphas)
            assert log.spectra == bool(alphas)


class MinImageOnly(CovAccess):
    """``CovAccess`` without its front memo: every query takes the min-image path."""

    def c(self, alpha, dx):
        return self._min_image_c(alpha, dx)


class TestCovAccess:
    @pytest.mark.parametrize("kind", ["slice", "continuum"])
    def test_front_memo_keeps_bits_and_evaluations(self, monkeypatch, kind):
        # periodic images, signed zeros and int/float spellings of one
        # displacement, each asked twice, against the min-image memo alone
        def kernel():
            if kind == "continuum":
                return CovarianceKernel("continuum", sigma=0.0, L=2)
            return CovarianceKernel("slice", sigma=0.0, torus=TorusSpec(2, 2))

        side = 4
        fast, slow = kernel(), kernel()
        evals = {id(fast): 0, id(slow): 0}
        plain = CovarianceKernel.eval

        def counted(self, x, alpha=(0, 0)):
            evals[id(self)] += 1
            return plain(self, x, alpha)

        monkeypatch.setattr(CovarianceKernel, "eval", counted)
        cov, ref = CovAccess(fast, scale=2.0), MinImageOnly(slow, scale=2.0)
        queries = []
        for alpha in ((0, 0), (1, 0), (0, 1), (1, 2)):
            for dx in ((0.25, -1.5), (0.25 + side, -1.5), (0.25, -1.5 - side),
                       (-0.0, 0.75), (0.0, 0.75), (0.75, -0.0), (0.75, 0.0),
                       (1, 2), (1.0, 2.0), (1, 2.0), (1 - side, 2)):
                queries.append((alpha, dx))
        for alpha, dx in queries + queries[::-1]:
            assert repr(cov.c(alpha, dx)) == repr(ref.c(alpha, dx))
        assert evals[id(fast)] == evals[id(slow)] > 0
        if kind == "slice":  # four displacements up to images and zero signs
            assert evals[id(fast)] == 4 * 4

    def test_periodic_images_share_one_evaluation(self, monkeypatch):
        # side 4: dx and dx +- 4 per axis have one min-image displacement
        t = TorusSpec(2, 2)
        kernel = CovarianceKernel("slice", sigma=0.0, torus=t)
        evals = []
        plain = CovarianceKernel.eval

        def counted(self, x, alpha=(0, 0)):
            if self is kernel:
                evals.append((tuple(x), alpha))
            return plain(self, x, alpha)

        monkeypatch.setattr(CovarianceKernel, "eval", counted)
        cov = CovAccess(kernel, scale=2.0)
        for alpha in ((0, 0), (1, 0), (1, 2)):
            for sx, sy in ((0, 0), (4, 0), (-4, 0), (0, 4), (4, -4)):
                dx = (0.25 + sx, -1.5 + sy)
                fresh = CovAccess(CovarianceKernel("slice", sigma=0.0, torus=t), scale=2.0)
                assert repr(cov.c(alpha, dx)) == repr(fresh.c(alpha, dx))
        assert len(evals) == 3
