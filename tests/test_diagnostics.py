import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddjacobi import (
    BothZero,
    BoundUndefined,
    DegenerateGapHat,
    InsufficientHistory,
    NonpositiveValues,
    SingleEigenvalue,
    ZeroDiagonal,
    alpha,
    diagnose,
    fit_rate,
    foa_factor,
    full_jacobi,
    gap_hat,
    min_relative_gap,
    rel,
    sep_bound,
    solve,
    SolveOptions,
    thm2_bound,
)
import ddjacobi.io as dio
from ddjacobi.matcore import scaled, sort_by_diagonal
from conftest import rand_sym


def test_rel_basics():
    assert rel(1.0, 3.0) == pytest.approx(0.5)
    assert rel(-2.0, 2.0) == pytest.approx(1.0)
    assert rel(0.0, 5.0) == pytest.approx(1.0)
    assert rel(4.0, 4.0) == 0.0
    with pytest.raises(BothZero):
        rel(0.0, 0.0)


class TestMinRelativeGap:
    def test_hand_example(self):
        gaps = min_relative_gap([1.0, 2.0, 4.0])
        assert gaps.gamma == pytest.approx(1.0 / 3.0)
        assert np.allclose(gaps.gamma_j, [1 / 3, 1 / 3, 1 / 3])

    def test_input_order_is_free(self):
        g1 = min_relative_gap([4.0, 1.0, 2.0])
        assert np.allclose(g1.gamma_j, [1 / 3, 1 / 3, 1 / 3])
        assert g1.gamma == pytest.approx(1.0 / 3.0)

    def test_zero_pairs_contribute_zero(self):
        gaps = min_relative_gap([0.0, 0.0, 3.0])
        assert gaps.gamma == 0.0
        assert gaps.gamma_j[0] == 0.0

    @pytest.mark.parametrize("values, gamma", [
        ([1.7e308, 1.6e308], 0.1 / 3.3), ([1.7e308, -1.7e308], 1.0)],
        ids=["same-sign", "opposite-sign"])
    def test_sums_past_the_float_range(self, values, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps = min_relative_gap(values)
        assert gaps.gamma == pytest.approx(gamma, rel=1e-15)
        assert np.allclose(gaps.gamma_j, gamma, rtol=1e-15, atol=0.0)

    def test_only_pairs_past_the_float_range_are_halved(self):
        # Halved, 5e-324 and 1.5e-323 would round to 0 and 1e-323 (gap 1).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps = min_relative_gap([1.7e308, 1.6e308, 5e-324, 1.5e-323])
        assert gaps.gamma_j[2:].tolist() == [0.5, 0.5]
        assert gaps.gamma == pytest.approx(0.1 / 3.3, rel=1e-15)

    def test_single_value_rejected(self):
        with pytest.raises(SingleEigenvalue):
            min_relative_gap([1.0])

    def test_chunked_matches_bruteforce(self, rng):
        v = rng.standard_normal(300)
        gaps = min_relative_gap(v)
        for j in rng.choice(300, size=12, replace=False):
            best = min(
                abs(v[i] - v[j]) / (abs(v[i]) + abs(v[j]))
                for i in range(300) if i != j
            )
            assert gaps.gamma_j[j] == pytest.approx(best, rel=1e-14)
        assert gaps.gamma == pytest.approx(gaps.gamma_j.min(), rel=1e-15)

    def test_large_input_uses_multiple_chunks(self, rng):
        # chunk size is 4e6 / n, so n = 2500 forces several blocks
        v = np.sort(rng.standard_normal(2500))
        gaps = min_relative_gap(v)
        adj = np.abs(np.diff(v)) / (np.abs(v[1:]) + np.abs(v[:-1]))
        assert gaps.gamma == pytest.approx(float(adj.min()), rel=1e-12)


def all_pairs_gaps(values):
    """The all-pairs scan that min_relative_gap replaced, kept as its reference."""
    v = np.asarray(values, dtype=np.float64)
    num = np.abs(v[:, None] - v[None, :])
    den = np.abs(v)[:, None] + np.abs(v)[None, :]
    r = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    np.fill_diagonal(r, np.inf)
    gaps = r.min(axis=1)
    return float(gaps.min()), gaps


# |x| + |y| cannot overflow below 8e307; the floats include +-0 and subnormals.
bounded = st.floats(min_value=-8e307, max_value=8e307)


@st.composite
def spectra(draw):
    """2-300 values, drawn partly from a small pool so that ties are common."""
    pool = draw(st.lists(bounded, min_size=1, max_size=20))
    return draw(st.lists(st.sampled_from(pool) | bounded, min_size=2, max_size=300))


@given(values=spectra())
@settings(max_examples=200, deadline=None)
def test_sorted_neighbour_gaps_match_all_pairs(values):
    gamma, gamma_j = all_pairs_gaps(values)
    got = min_relative_gap(values)
    assert got.gamma == gamma
    # Next to a run of near-equal values far larger, the all-pairs minimum
    # can pick a farther member whose computed ratio rounds a few ulps lower.
    ulps = np.abs(got.gamma_j.view(np.int64) - gamma_j.view(np.int64))
    assert ulps.max() <= 4


def seeded_spectra():
    rng = np.random.default_rng(10)
    for n in (2, 3, 7, 20, 33, 100, 300):
        yield rng.standard_normal(n)
        yield rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 12.0, n)
        yield np.round(rng.standard_normal(n), 1)
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.3] = 0.0
        v[rng.random(n) < 0.2] = -0.0
        yield v


def test_sorted_neighbour_gaps_bit_identical_on_seeded_corpus():
    for values in seeded_spectra():
        gamma, gamma_j = all_pairs_gaps(values)
        got = min_relative_gap(values)
        assert got.gamma == gamma
        assert got.gamma_j.tobytes() == gamma_j.tobytes()


def test_alpha_matches_generator_target():
    for tgt in (0.005, 0.1, 0.3):
        A = dio.gen_random_dd(12, tgt, seed=2)
        assert alpha(A) == pytest.approx(tgt, rel=1e-12)


class TestGapHat:
    def test_example_value(self):
        A = dio.gen_example1()
        # sorted diagonal is 1..11; nearest ratio for rank 6 is 6/7
        assert gap_hat(A, 6) == pytest.approx(1.0 - 6.0 / 7.0, rel=1e-12)
        assert gap_hat(A, 1) == pytest.approx(0.5, rel=1e-12)

    def test_sorts_before_indexing(self):
        a = np.diag([5.0, 1.0, 3.0])
        assert gap_hat(a, 1) == pytest.approx(1.0 - 1.0 / 3.0)

    def test_degenerate_and_errors(self):
        with pytest.raises(DegenerateGapHat):
            gap_hat(np.diag([2.0, 2.0]), 1)
        with pytest.raises(DegenerateGapHat):
            gap_hat(np.array([[4.0]]), 1)
        with pytest.raises(ZeroDiagonal):
            gap_hat(np.diag([0.0, 1.0]), 1)
        with pytest.raises(IndexError):
            gap_hat(np.diag([1.0, 2.0]), 3)


class TestThm2Bound:
    def test_applicability_threshold(self):
        n, gamma = 10, 0.5
        edge = min(1.0 / n, gamma) / 11.0
        ok, _ = thm2_bound(edge, gamma, n, 1)
        assert ok
        ok, _ = thm2_bound(edge * 1.01, gamma, n, 1)
        assert not ok

    def test_bound_value(self):
        a0, gamma = 0.004, 0.2
        _, b1 = thm2_bound(a0, gamma, 8, 1)
        factor = 2.8 * 1.001 * a0 / gamma
        assert b1 == pytest.approx(factor * a0, rel=1e-14)
        _, b3 = thm2_bound(a0, gamma, 8, 3)
        assert b3 == pytest.approx(factor**3 * a0, rel=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            thm2_bound(0.01, 0.0, 8, 1)
        with pytest.raises(ValueError):
            thm2_bound(0.01, 0.5, 2, 1)
        with pytest.raises(ValueError):
            thm2_bound(0.01, 0.5, 8, 0)
        with pytest.raises(ValueError):
            thm2_bound(0.01, 0.5, 8, 9)


def test_foa_factor_matches_direct_computation(rng):
    a = rand_sym(rng, 9, scale=0.01)
    np.fill_diagonal(a, np.arange(2.0, 11.0))
    m = 4
    B, _ = sort_by_diagonal(a)
    h = scaled(B).a.copy()
    keep = np.arange(9) != m - 1
    block = h[np.ix_(keep, keep)]
    np.fill_diagonal(block, 0.0)
    want = float(np.linalg.norm(block)) / (math.sqrt(2.0) * gap_hat(a, m))
    assert foa_factor(a, m) == pytest.approx(want, rel=1e-13)


def test_foa_factor_discriminates():
    # strong dominance, wide gap: factor far below 1
    tight = np.diag([1.0, 2.0, 8.0]) + 0.001 * (np.ones((3, 3)) - np.eye(3))
    assert foa_factor(tight, 3) < 0.01
    # weak dominance, slim gap: factor above 1 (no contraction certified)
    loose = np.diag([1.0, 1.05, 1.1]) + 0.2 * (np.ones((3, 3)) - np.eye(3))
    assert foa_factor(loose, 3) > 1.0


def test_sep_bound_formula():
    assert sep_bound(2.0, 1e-3, 0.25) == pytest.approx(4.0 * 1e-6 / 0.25)
    with pytest.raises(BoundUndefined):
        sep_bound(2.0, 1e-3, 0.0)


class TestFitRate:
    class Row:
        def __init__(self, sweep, off):
            self.sweep = sweep
            self.off_row_m = off

    def test_recovers_geometric_decay(self):
        rows = [self.Row(k, 0.3 * 0.05**k) for k in range(6)]
        assert fit_rate(rows) == pytest.approx(0.05, rel=1e-10)

    def test_floor_cutoff_ignores_noise_tail(self):
        rows = [self.Row(k, 0.3 * 1e-3**k) for k in range(5)]
        rows += [self.Row(5, 4e-15), self.Row(6, 5e-15)]  # flat machine tail
        fitted = fit_rate(rows, frob0=1.0)
        assert fitted == pytest.approx(1e-3, rel=1e-6)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            fit_rate([self.Row(0, 1.0), self.Row(1, 0.1)])

    def test_nonpositive_values(self):
        rows = [self.Row(0, 1.0), self.Row(1, 0.0), self.Row(2, 0.1),
                self.Row(3, 0.01)]
        with pytest.raises(NonpositiveValues):
            fit_rate(rows)


class TestDiagnose:
    def test_exact_mode_populates_all_fields(self):
        A = dio.gen_example1()
        rep = diagnose(A, 6, exact=True)
        assert rep.gamma is not None and rep.gamma_m is not None
        assert rep.rho == pytest.approx(rep.alpha0 / rep.gamma_m, rel=1e-14)
        assert rep.thm2_applicable in (True, False)
        assert rep.thm2_rate_bound == pytest.approx(
            2.8 * 1.001 * rep.alpha0 / rep.gamma, rel=1e-13)
        assert rep.gamma_hat == pytest.approx(1.0 - 6.0 / 7.0, rel=1e-12)

    def test_estimated_mode_leaves_spectrum_fields_none(self):
        A = dio.gen_example1()
        rep = diagnose(A, 6)
        assert rep.gamma is None and rep.gamma_m is None and rep.rho is None
        assert rep.thm2_applicable is None and rep.thm2_rate_bound is None
        assert rep.alpha0 > 0 and rep.gamma_hat > 0 and rep.foa_factor > 0

    def test_supplied_values_used_directly(self):
        A = dio.gen_example1()
        w = np.linalg.eigvalsh(A.to_array())
        rep = diagnose(A, 6, values=w)
        gaps = min_relative_gap(w)
        assert rep.gamma == pytest.approx(gaps.gamma, rel=1e-14)
        assert rep.gamma_m == pytest.approx(float(gaps.gamma_j[5]), rel=1e-14)

    def test_history_engages_rate_fit(self):
        A = dio.gen_example1()
        res = solve(A, SolveOptions(m=6, stop_rel=0.0))
        rep = diagnose(A, 6, history=res.history, frob0=float(np.linalg.norm(A.to_array())))
        assert rep.fitted_rate is not None
        assert 0.0 < rep.fitted_rate < 1.0

    def test_unusable_history_leaves_none(self):
        A = dio.gen_example1()
        rep = diagnose(A, 6, history=[])
        assert rep.fitted_rate is None

    def test_exact_mode_is_the_oracle_spectrum_up_to_order_128(self):
        A = dio.gen_example1()
        assert diagnose(A, 6, exact=True) == diagnose(
            A, 6, values=full_jacobi(A).values)

    def test_exact_mode_uses_lapack_above_order_128(self, no_oracle):
        A = dio.gen_random_dd(130, 0.005, seed=1)
        rep = diagnose(A, 65, exact=True)
        gaps = min_relative_gap(np.linalg.eigvalsh(A.a))
        assert rep.gamma == gaps.gamma
        assert rep.gamma_m == float(gaps.gamma_j[64])
