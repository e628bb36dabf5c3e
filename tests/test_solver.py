from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddjacobi import (
    AsymmetricInput,
    InputError,
    InvalidOptions,
    Permutation,
    STOP_REL_DEFAULT,
    SolveOptions,
    SolveStatus,
    SymMatrix,
    ZeroDiagonal,
    alpha,
    as_symmatrix,
    full_jacobi,
    off_norm,
    off_row,
    scaled,
    solve,
    solve_many,
    sort_by_diagonal,
    sweep,
)
import ddjacobi.io as dio
import ddjacobi.solver as solver
from ddjacobi.rotation import _tangent_cs, apply_right, apply_two_sided, schur2
from conftest import NORM_OVERFLOWS, peak_matrices, rand_sym


def replay_sweep(a, m, tol=0.0, V=None, annihilated=None, log=None):
    """Reference sweep built from the public rotation primitives.

    Same plan as solver.sweep: k = 1..m-1 ascending, then n..m+1 descending
    (1-based); optionally records the entries it annihilates, and in ``log``
    what sweep's ``_log`` holds: k, or ~k where schur2 swapped the columns,
    and the tangent.
    """
    n = a.shape[0]
    m0 = m - 1
    count = 0
    for k in list(range(0, m0)) + list(range(n - 1, m0, -1)):
        amk = a[m0, k]
        if amk == 0.0 or abs(amk) < tol:
            continue
        p, q = (k, m0) if k < m0 else (m0, k)
        if annihilated is not None:
            annihilated.append(float(a[p, q]))
        res = schur2(a[p, p], a[p, q], a[q, q])
        if log is not None:
            c, s, t = _tangent_cs(a[p, p], a[p, q], a[q, q])
            swapped = not np.array_equal(res.u, [[c, s], [-s, c]])
            log[0].append(~k if swapped else k)
            log[1].append(t)
        apply_two_sided(a, p, q, res.u)
        a[p, q] = 0.0
        a[q, p] = 0.0
        if V is not None:
            apply_right(V, p, q, res.u)
        count += 1
    return count


def test_sweep_bit_identical_to_rotation_primitives(rng):
    # The solver's inlined loop must agree with the documented rotation
    # sequence to the last bit, matrix and accumulated basis alike.
    for _ in range(150):
        n = int(rng.integers(2, 24))
        m = int(rng.integers(1, n + 1))
        a = rand_sym(rng, n)
        b = a.copy()
        Va, Vb = np.eye(n), np.eye(n)
        ca = sweep(a, m, 0.0, Va)
        cb = replay_sweep(b, m, 0.0, Vb)
        assert ca == cb
        assert np.array_equal(a, b)
        assert np.array_equal(Va, Vb)


def sweep_cases():
    """(matrix, m, tol) for the solver's own sweep path, one-sided plans included."""
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for m in sorted({1, (n + 1) // 2, n}):
            for tol in (0.0, 0.3):
                yield rand_sym(rng, n), m, tol
    for n, m in ((6, 1), (9, 4), (9, 9)):
        a = rand_sym(rng, n)
        zero = [k for k in rng.permutation(n)[: n // 2] if k != m - 1]
        a[m - 1, zero] = a[zero, m - 1] = 0.0    # skipped, not counted
        yield a, m, 0.0
    for m in (1, 4, 8):    # theta = 0, and ties resolved by the t1 > t2 swap
        yield tied_diagonal(8, 1e-20), m, 0.0
        yield tied_diagonal(8, 0.3), m, 0.0
    # Long rows: numpy's loops take length-dependent SIMD paths.
    yield sort_by_diagonal(dio.gen_diag_rank1(383))[0].a, 192, 0.0


def test_solver_sweep_path_bit_identical_to_rotation_primitives():
    # solve runs sweep without V and with _log: its matrix, count and log
    # must match the primitives over several sweeps.
    branches = set()
    for a, m, tol in sweep_cases():
        b = a.copy()
        la, lb = (array("i"), array("d")), (array("i"), array("d"))
        for _ in range(3):
            assert sweep(a, m, tol, _log=la) == replay_sweep(b, m, tol, log=lb)
            assert a.tobytes() == b.tobytes()    # signed zeros too
        assert la[0] == lb[0] and la[1].tobytes() == lb[1].tobytes()
        branches.update((max(k, ~k) < m - 1, k < 0) for k in la[0])
    # sweep's four row updates: k before or after m, unswapped or swapped
    assert branches == {(True, False), (True, True), (False, False), (False, True)}


def test_sweep_gates_everything_under_a_huge_tol(rng):
    a = rand_sym(rng, 6)
    b = a.copy()
    count = sweep(b, 3, tol=1e9)
    assert count == 0
    assert np.array_equal(a, b)    # gated entries are not touched at all


def test_sweep_skips_exact_zeros_without_counting():
    a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    a[2, 4] = a[4, 2] = 0.7
    count = sweep(a, 3)            # plan visits five planes, one is nonzero
    assert count == 1
    assert a[2, 4] == 0.0 and a[4, 2] == 0.0
    assert a[0, 1] == 0.0          # untouched zeros stay zero
    w = np.linalg.eigvalsh(np.array([[3.0, 0.7], [0.7, 5.0]]))
    assert np.allclose(sorted([a[2, 2], a[4, 4]]), w, atol=1e-14)


def test_sweep_annihilates_whole_row_when_ungated(rng):
    a = rand_sym(rng, 7)
    m = 4
    count = sweep(a, m)
    assert count == 6
    # every plane (k, m) was rotated; later rotations refill earlier slots,
    # but the final one in the plan leaves an exact zero
    assert a[3, 4] == 0.0
    assert np.array_equal(a, a.T)


def test_sweep_reduces_target_row(rng):
    a = rand_sym(rng, 10)
    np.fill_diagonal(a, np.arange(1.0, 11.0) * 10)
    m = 5
    before = off_row(a, m - 1)
    sweep(a, m)
    assert off_row(a, m - 1) < 0.2 * before


def test_sweep_rank_validation(rng):
    a = rand_sym(rng, 4)
    with pytest.raises(IndexError):
        sweep(a, 0)
    with pytest.raises(IndexError):
        sweep(a, 5)
    for m in (True, 2.0):  # True swept rank 1; 2.0 failed inside numpy
        with pytest.raises(IndexError):
            sweep(a, m)
    # An integer A kept truncated rotations (diag(1, 3, 5) came back), and a
    # float32 V lost precision; both are now refused before anything moves.
    ints = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 5]])
    with pytest.raises(InputError, match="float64"):
        sweep(ints, 2)
    assert ints.tolist() == [[2, 1, 0], [1, 3, 1], [0, 1, 5]]
    b = a.copy()
    with pytest.raises(InputError, match="float64"):
        sweep(b, 2, 0.0, np.eye(4, dtype=np.float32))
    assert np.array_equal(b, a)
    # A V with 3 columns took the first rotation, then failed on plane (1, 3)
    # and left A half-swept.
    V = np.eye(3)
    with pytest.raises(InputError, match="4 columns"):
        sweep(b, 2, 0.0, V)
    assert np.array_equal(b, a)
    assert np.array_equal(V, np.eye(3))
    sweep(b, 2, 0.0, np.zeros((7, 4)))  # V may have any number of rows


class TestSolveStatuses:
    def test_converged_on_dominant_matrix(self):
        a = np.diag(np.arange(1.0, 9.0))
        a += rand_sym(np.random.default_rng(3), 8, scale=0.01)
        np.fill_diagonal(a, np.arange(1.0, 9.0))
        res = solve(a, SolveOptions(m=4))
        assert res.status is SolveStatus.CONVERGED
        assert res.sweeps_used >= 1
        w = np.linalg.eigvalsh(a)
        assert res.lambda_hat == pytest.approx(w[3], abs=1e-10)

    def test_immediate_convergence_on_diagonal_input(self):
        res = solve(np.diag([3.0, 1.0, 2.0]), SolveOptions(m=2))
        assert res.status is SolveStatus.CONVERGED
        assert res.sweeps_used == 0
        assert res.lambda_hat == 2.0
        assert len(res.history) == 1
        assert res.history[0].rotations_applied == 0

    def test_tolerance_floor(self, rng):
        a = rand_sym(rng, 10)
        res = solve(a, SolveOptions(m=5, tol=1e-2, stop_rel=0.0))
        assert res.status is SolveStatus.TOLERANCE_FLOOR
        assert res.history[-1].rotations_applied == 0
        assert res.history[-1].off_row_m < np.sqrt(10) * 1e-2

    def test_max_sweeps(self):
        a = rand_sym(np.random.default_rng(11), 9)
        res = solve(a, SolveOptions(m=4, max_sweeps=1))
        assert res.status is SolveStatus.MAX_SWEEPS
        assert res.sweeps_used == 1

    def test_stagnates_on_clustered_spectrum(self):
        # plateau well above the floor: coupled non-dominant matrix
        a = rand_sym(np.random.default_rng(4), 10)
        res = solve(a, SolveOptions(m=5, stop_rel=0.0))
        assert res.status is SolveStatus.STAGNATED
        assert res.history[-1].off_row_m > 1e-3

    def test_stagnates_at_machine_floor_on_ties(self):
        n = 8
        a = np.full((n, n), 0.4)
        np.fill_diagonal(a, 1.0)
        res = solve(a, SolveOptions(m=4, stop_rel=0.0))
        assert res.status is SolveStatus.STAGNATED


class TestSolveOptionsValidation:
    @pytest.mark.parametrize("m", [0, -1, 9, 2.5, True, False])
    def test_bad_rank(self, rng, m):
        a = rand_sym(rng, 8)
        with pytest.raises(InvalidOptions):
            solve(a, SolveOptions(m=m))

    def test_bad_scalars(self, rng):
        a = rand_sym(rng, 4)
        with pytest.raises(InvalidOptions):
            solve(a, SolveOptions(m=1, tol=-1e-3))
        with pytest.raises(InvalidOptions):
            solve(a, SolveOptions(m=1, stop_rel=-1.0))
        with pytest.raises(InvalidOptions):
            solve(a, SolveOptions(m=1, max_sweeps=0))

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, 2.0, True, "3"])
    def test_max_sweeps_is_an_integer(self, budget):
        a = dio.gen_random_dd(6, 0.05, 0)
        with pytest.raises(InvalidOptions):
            solve(a, SolveOptions(m=2, max_sweeps=budget))
        with pytest.raises(InvalidOptions):
            solve_many(a, [1, 2], SolveOptions(m=1, max_sweeps=budget))

    def test_max_sweeps_takes_numpy_integers(self):
        a = dio.gen_random_dd(6, 0.05, 0)
        res = solve(a, SolveOptions(m=2, max_sweeps=np.int64(1)))
        assert res.sweeps_used == 1

    @pytest.mark.parametrize("field", ["tol", "stop_rel"])
    def test_nan_scalars(self, field):
        # A NaN compares false both ways, so only `not x >= 0` rejects it.
        a = dio.gen_random_dd(30, 0.05, 0)
        with pytest.raises(InvalidOptions):
            solve(a, replace(SolveOptions(m=15), **{field: float("nan")}))

    def test_overflowing_norm_is_an_input_error(self):
        # The stopping threshold used to be inf, so this was Converged after
        # 0 sweeps with lambda = 1.5e308.
        with pytest.raises(InputError, match="overflows"):
            solve(NORM_OVERFLOWS, SolveOptions(m=2))

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_huge_entries_sweep_as_the_unscaled_matrix(self, scale):
        # off(A(m,:)) used to read inf until it fell below ~1e154: 1e200 * H
        # took 17 sweeps with an overflow warning in each, H takes 3.
        H = np.array([[1.0, 0.1, 0.05], [0.1, 2.0, 0.1], [0.05, 0.1, 3.0]])
        ref = solve(H, SolveOptions(m=2, want_vector=True))
        res = solve(scale * H, SolveOptions(m=2, want_vector=True))
        assert res.status is SolveStatus.CONVERGED
        assert res.sweeps_used == ref.sweeps_used == 3
        assert res.lambda_hat / scale == pytest.approx(ref.lambda_hat, rel=1e-15)
        np.testing.assert_allclose(res.vector, ref.vector, rtol=0, atol=1e-15)
        rows = [r.off_row_m / scale for r in res.history]
        np.testing.assert_allclose(rows, [r.off_row_m for r in ref.history], rtol=1e-14)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_tiny_entries_sweep_as_the_unscaled_matrix(self, scale):
        # The squares of 1e-170 * H flush to zero: frob_norm and off(A(m,:))
        # read 0, so this was Converged after 0 sweeps with lambda off by
        # 4.9e-4 relative (1e-160 * H: 1 sweep, 8.5e-6).
        H = np.array([[1.0, 0.1, 0.05], [0.1, 2.0, 0.1], [0.05, 0.1, 3.0]])
        ref = solve(H, SolveOptions(m=2, want_vector=True))
        res = solve(scale * H, SolveOptions(m=2, want_vector=True))
        assert res.status is SolveStatus.CONVERGED
        assert res.sweeps_used == ref.sweeps_used == 3
        assert res.lambda_hat / scale == pytest.approx(ref.lambda_hat, rel=1e-15)
        np.testing.assert_allclose(res.vector, ref.vector, rtol=0, atol=1e-15)
        rows = [r.off_row_m / scale for r in res.history]
        np.testing.assert_allclose(rows, [r.off_row_m for r in ref.history], rtol=1e-14)
        total = res.history[0].off_total / scale
        assert total == pytest.approx(ref.history[0].off_total, rel=1e-15)

    def test_asymmetric_input(self, rng):
        a = rand_sym(rng, 4)
        a[0, 1] += 0.1
        with pytest.raises(AsymmetricInput):
            solve(a, SolveOptions(m=1))


def test_permutation_equivariance_bit_exact(rng):
    # Same sorted working matrix => identical arithmetic => identical results,
    # however the input rows were ordered (distinct diagonal).
    a = rand_sym(rng, 9, scale=0.05)
    np.fill_diagonal(a, np.arange(1.0, 10.0))
    perm = Permutation(np.asarray(rng.permutation(9)))
    b = perm.apply(a)
    ra = solve(a, SolveOptions(m=4, want_vector=True))
    rb = solve(b, SolveOptions(m=4, want_vector=True))
    assert ra.lambda_hat == rb.lambda_hat
    assert ra.sweeps_used == rb.sweeps_used
    assert np.array_equal(ra.vector[perm.indices], rb.vector)


def test_vector_accumulation_quality(rng):
    a = rand_sym(rng, 12, scale=0.02)
    np.fill_diagonal(a, np.arange(2.0, 14.0))
    frob = float(np.linalg.norm(a))
    for m in (1, 6, 12):
        res = solve(a, SolveOptions(m=m, want_vector=True))
        v = res.vector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        resid = np.linalg.norm(a @ v - res.lambda_hat * v)
        assert resid <= res.history[-1].off_row_m + 1e-12 * frob
        assert v[int(np.argmax(np.abs(v)))] > 0.0  # sign convention


def test_matches_oracle_eigenvectors(rng):
    a = rand_sym(rng, 8, scale=0.03)
    np.fill_diagonal(a, np.arange(1.0, 9.0))
    dec = full_jacobi(a)
    for m in range(1, 9):
        res = solve(a, SolveOptions(m=m, want_vector=True))
        align = abs(res.vector @ dec.vectors[:, m - 1])
        assert align >= 1.0 - 1e-9


def test_vector_not_accumulated():
    res = solve(np.diag([1.0, 2.0]), SolveOptions(m=1))
    assert res.vector is None


def test_record_history_off():
    a = rand_sym(np.random.default_rng(5), 6)
    res = solve(a, SolveOptions(m=2, record_history=False, max_sweeps=3))
    assert res.history == []
    assert res.sweeps_used <= 3


def test_history_contents(rng):
    a = rand_sym(rng, 7, scale=0.05)
    np.fill_diagonal(a, np.arange(1.0, 8.0))
    res = solve(a, SolveOptions(m=3))
    hs = res.history
    assert [h.sweep for h in hs] == list(range(res.sweeps_used + 1))
    assert hs[0].rotations_applied == 0
    assert all(h.off_row_m >= 0 for h in hs)
    assert hs[-1].off_row_m <= hs[0].off_row_m
    # positive diagonal: the scaled row on every record, the n x n norms on
    # the first and last, and consistent where both are present
    assert len(hs) > 2
    assert all(h.off_row_h is not None for h in hs)
    assert all(h.alpha is not None and h.off_total is not None for h in (hs[0], hs[-1]))
    assert all(h.alpha is None and h.off_total is None for h in hs[1:-1])
    assert all(h.off_row_h <= h.alpha + 1e-15 for h in (hs[0], hs[-1]))
    assert hs[-1].a_mm == res.lambda_hat


def test_history_scaled_fields_none_on_zero_diagonal():
    a = np.array([[0.0, 0.5, 0.1],
                  [0.5, 2.0, 0.2],
                  [0.1, 0.2, 3.0]])
    res = solve(a, SolveOptions(m=2, max_sweeps=2))
    assert res.history[0].alpha is None
    assert res.history[0].off_row_h is None


@pytest.mark.parametrize("make, m", [
    (lambda: dio.gen_random_dd(12, 0.3, seed=4), 5),
    (lambda: dio.gen_diag_rank1(20), 10),
    (dio.gen_example1, 6),
    # Squares that flush to zero or overflow: off_row and off_norm used to
    # read 0.0 at 1e-170 (the records 2.92e-171 and 1.15e-170), and off_row
    # inf, with an overflow warning, at 1e200.
    *(pytest.param(lambda s=scale: SymMatrix(s * dio.gen_random_dd(12, 0.3, seed=4).a), 5,
                   id=f"random_dd-5-{scale:g}") for scale in (1e-170, 1e200)),
    # D H D with a diagonal from 1e-150 to 1e150: dh_i dh_j spans 1e-150 to
    # 1e150 where the history's scaling and scaled() must agree.
    pytest.param(lambda: graded(dio.gen_random_dd(40, 0.3, seed=4), 75), 17, id="graded-1e150"),
    # dh_0 dh_1 = 4.5e161 * 1e150 overflows: alpha and off_row_h read nan,
    # with an invalid-value warning, and alpha(B) inf.
    pytest.param(lambda: SymMatrix([[5e-324, 1e-320], [1e-320, 1e-300]]), 1,
                 id="overflowing-scale-product"),
])
def test_sweep_record_fields_are_the_public_quantities(make, m):
    A0 = make()
    A = Permutation(np.random.default_rng(m).permutation(A0.n)).apply(A0)
    res = solve(A, SolveOptions(m=m))
    B = res.permutation.apply(A)
    rec = res.history[0]
    assert rec.off_row_m == off_row(B, m - 1)
    assert rec.off_total == off_norm(B)
    assert rec.alpha == alpha(B)
    assert rec.off_row_h == off_row(scaled(B), m - 1)


def test_sweep_record_fields_on_a_zero_diagonal():
    A = np.array([[0.0, 0.5, 0.1],
                  [0.5, 2.0, 0.2],
                  [0.1, 0.2, 3.0]])
    res = solve(A, SolveOptions(m=2))
    B = res.permutation.apply(A)
    rec = res.history[0]
    assert rec.off_row_m == off_row(B, 1)
    assert rec.off_total == off_norm(B)
    assert rec.alpha is None and rec.off_row_h is None
    with pytest.raises(ZeroDiagonal):
        scaled(B)


def assert_records_replay(A, res, m, tol):
    """Each record of ``res`` holds the quantities of its iterate, rebuilt by
    replaying the solve's sweeps through :func:`sweep` on the sorted copy:
    the O(n) fields on every record; off_total and alpha on the first and
    last, None on the records in between."""
    b = res.permutation.apply(A).a
    hs = res.history
    assert [h.sweep for h in hs] == list(range(res.sweeps_used + 1))
    for k, rec in enumerate(hs):
        rotations = sweep(b, m, tol) if k else 0
        positive = np.all(b.diagonal() != 0.0)
        assert rec.off_row_m == off_row(b, m - 1)
        assert rec.a_mm == b[m - 1, m - 1]
        assert rec.rotations_applied == rotations
        assert rec.off_row_h == (off_row(scaled(b), m - 1) if positive else None)
        if k in (0, len(hs) - 1):
            assert rec.off_total == off_norm(b)
            assert rec.alpha == (alpha(b) if positive else None)
        else:
            assert rec.off_total is None and rec.alpha is None
    assert res.lambda_hat == hs[-1].a_mm


# name -> (matrix, options, the endings its ranks reach)
RECORD_CASES = {
    "converged": (lambda: dio.gen_random_dd(20, 0.3, 1), SolveOptions(m=1),
                  {SolveStatus.CONVERGED}),
    "max-sweeps": (lambda: dio.gen_random_dd(12, 0.3, 3), SolveOptions(m=1, max_sweeps=3),
                   {SolveStatus.MAX_SWEEPS}),
    "tolerance-floor": (lambda: dio.gen_random_dd(12, 0.3, 3),
                        SolveOptions(m=1, tol=0.05, stop_rel=0.0),
                        {SolveStatus.TOLERANCE_FLOOR}),
    # Two ranks stagnate early; the rest run out of their 200 sweeps in the batch.
    "stagnated": (lambda: rand_sym(np.random.default_rng(4), 10),
                  SolveOptions(m=1, stop_rel=0.0),
                  {SolveStatus.STAGNATED, SolveStatus.MAX_SWEEPS}),
    # A zero diagonal entry: no scaled fields until a rotation moves it.
    "zero-diagonal": (lambda: np.array([[0.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 3.0]]),
                      SolveOptions(m=1), {SolveStatus.CONVERGED}),
}


@pytest.mark.parametrize("case", RECORD_CASES)
def test_records_hold_their_iterates(case):
    make, opts, endings = RECORD_CASES[case]
    A = make()
    n = as_symmatrix(A).n
    batch = solve_many(A, range(1, n + 1), opts)
    assert {r.status for r in batch} == endings
    assert max(r.sweeps_used for r in batch) >= 2  # a record between the ends
    for m, res in enumerate(batch, 1):
        assert_records_replay(A, res, m, opts.tol)
    for m in {1, n // 2 + 1, n}:
        assert_records_replay(A, solve(A, replace(opts, m=m)), m, opts.tol)


@pytest.mark.parametrize("case", ["converged", "stagnated", "zero-diagonal"])
def test_first_records_share_one_pair_of_norms(case, monkeypatch):
    # Every target starts from the sorted matrix, so sweep 0's off_total and
    # alpha are taken once per call; each later full record takes its own.
    make, opts, _ = RECORD_CASES[case]
    A = make()
    n = as_symmatrix(A).n
    calls = {"_totals": 0, "alpha": 0}  # _totals takes each pair's off_total
    for name in calls:
        def counted(a, real=getattr(solver, name), name=name):
            calls[name] += 1
            return real(a)
        monkeypatch.setattr(solver, name, counted)
    batch = solve_many(A, range(1, n + 1), opts)
    monkeypatch.undo()
    later = [r.history[-1] for r in batch if r.sweeps_used]
    assert calls["_totals"] == 1 + len(later)
    first = batch[0].history[0]
    assert calls["alpha"] == (first.alpha is not None) + sum(h.alpha is not None for h in later)
    for m, res in enumerate(batch, 1):
        assert res.history[0].off_total is first.off_total
        assert res.history[0].alpha is first.alpha
        assert_records_replay(A, res, m, opts.tol)


@given(n=st.integers(2, 12), e=st.floats(0.0, 150.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_records_hold_their_iterates_on_graded_matrices(n, e, seed, data):
    # D H D with a diagonal from 10^-e to 10^e, permuted: dh_i dh_j spans up
    # to 1e150 each way.
    A = Permutation(np.random.default_rng(seed).permutation(n)).apply(
        graded(dio.gen_random_dd(n, 0.3, seed), e))
    m = data.draw(st.integers(1, n))
    opts = SolveOptions(m=m, stop_rel=data.draw(st.sampled_from([0.0, 1e-9, STOP_REL_DEFAULT])))
    assert_records_replay(A, solve(A, opts), m, 0.0)


def test_single_entry_matrix():
    res = solve(np.array([[7.5]]), SolveOptions(m=1, want_vector=True))
    assert res.status is SolveStatus.CONVERGED
    assert res.sweeps_used == 0
    assert res.lambda_hat == 7.5
    assert np.array_equal(res.vector, np.array([1.0]))


def test_solve_does_not_mutate_input(rng):
    a = rand_sym(rng, 6)
    M = SymMatrix(a.copy())
    solve(M, SolveOptions(m=3))
    assert np.array_equal(M.a, a)


def test_result_permutation_maps_to_sorted_order(rng):
    a = rand_sym(rng, 6, scale=0.01)
    np.fill_diagonal(a, [5.0, 1.0, 4.0, 2.0, 6.0, 3.0])
    res = solve(a, SolveOptions(m=1))
    d = res.permutation.apply(a).a.diagonal()
    assert np.all(np.diff(d) >= 0)


def theta_overflow():
    a = np.diag([0.0, 1.0, 1e10])
    a[0, 1] = a[1, 0] = 1e3
    a[0, 2] = a[2, 0] = 1e-300
    return a


def signed_zero_and_subnormal():
    # Row 0 sweeps planes (0, 4) .. (0, 1): its -0.0 coupling comes first and
    # is skipped, its 5e-324 coupling comes last, unchanged, and rotates (its
    # theta overflows, so t = 0).
    a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    a[0, 2] = a[2, 0] = a[2, 3] = a[3, 2] = 0.1
    a[0, 1] = a[1, 0] = 5e-324
    a[0, 4] = a[4, 0] = -0.0
    return a


GATE_TOL = 1e-3


def coupling_at_tol():
    # Row 0 meets the float below tol first (skipped), then tol itself (rotates).
    a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    a[1, 2] = a[2, 1] = a[3, 4] = a[4, 3] = 0.1
    a[0, 3] = a[3, 0] = GATE_TOL
    a[0, 4] = a[4, 0] = np.nextafter(GATE_TOL, 0.0)
    return a


# name -> (matrix, options, a status that some rank must end with)
SOLVE_MANY_CASES = {
    "random-dd": (lambda: dio.gen_random_dd(20, 0.3, 1),
                  SolveOptions(m=1, want_vector=True), SolveStatus.CONVERGED),
    "drk1": (lambda: dio.gen_diag_rank1(63),
             SolveOptions(m=1, stop_rel=1e-9, want_vector=True), SolveStatus.CONVERGED),
    "gated": (lambda: dio.gen_random_dd(12, 0.05, 3),
              SolveOptions(m=1, tol=1e-6, want_vector=True), SolveStatus.TOLERANCE_FLOOR),
    "example1": (dio.gen_example1, SolveOptions(m=1, want_vector=True), SolveStatus.CONVERGED),
    "max-sweeps": (lambda: dio.gen_random_dd(12, 0.3, 3),
                   SolveOptions(m=1, max_sweeps=1, want_vector=True), SolveStatus.MAX_SWEEPS),
    "tolerance-floor": (lambda: dio.gen_random_dd(12, 0.3, 3),
                        SolveOptions(m=1, tol=0.05, stop_rel=0.0), SolveStatus.TOLERANCE_FLOOR),
    "stagnated": (lambda: rand_sym(np.random.default_rng(4), 10),
                  SolveOptions(m=1, stop_rel=0.0, want_vector=True), SolveStatus.STAGNATED),
    # Equal diagonal and tiny couplings of both signs: theta is +0 or -0 and
    # the rotated diagonal pair ties, so the swap rule sees t1 == t2.
    "tied-diagonal": (lambda: tied_diagonal(8, 1e-20),
                      SolveOptions(m=1, stop_rel=0.0, want_vector=True), SolveStatus.CONVERGED),
    # Not dominant: swapped rotations in the batch, then the slowest rank
    # sweeps alone through sweep() for its last 23 sweeps.
    "lone-tail": (lambda: rand_sym(np.random.default_rng(1), 6),
                  SolveOptions(m=1, want_vector=True), SolveStatus.CONVERGED),
    # theta = (a_22 - a_00) / (2 a_02) overflows: t = 0, with no warning in
    # the batch either.
    "theta-overflow": (theta_overflow,
                       SolveOptions(m=1, want_vector=True), SolveStatus.CONVERGED),
    "signed-zero-and-subnormal": (signed_zero_and_subnormal,
                                  SolveOptions(m=1, want_vector=True), SolveStatus.CONVERGED),
    "coupling-at-tol": (coupling_at_tol, SolveOptions(m=1, tol=GATE_TOL, want_vector=True),
                        SolveStatus.TOLERANCE_FLOOR),
    # ||A||_F ~ 1e-299: the batch takes the rescaled row norms.
    "underflow": (lambda: 1e-300 * dio.gen_random_dd(10, 0.3, 5).a,
                  SolveOptions(m=1, want_vector=True), SolveStatus.CONVERGED),
    # Squares past the float range: the rescaled row norms at the other end.
    "overflow": (lambda: 1e200 * dio.gen_random_dd(10, 0.3, 5).a,
                 SolveOptions(m=1, want_vector=True), SolveStatus.CONVERGED),
}


def graded(H, e):
    """D H D with D = diag(10^-e .. 10^e), exactly symmetric (d_i d_j == d_j d_i)."""
    d = np.logspace(-e, e, H.n)
    return SymMatrix(H.a * np.outer(d, d))


def tied_diagonal(n, scale):
    signs = np.random.default_rng(2).choice([-1.0, 1.0], (n, n))
    x = np.triu(signs, 1) * scale
    a = x + x.T
    np.fill_diagonal(a, 1.0)
    return a


def assert_same_result(got, want):
    assert got.lambda_hat == want.lambda_hat
    assert got.status is want.status
    assert got.sweeps_used == want.sweeps_used
    assert got.history == want.history
    if want.vector is None:
        assert got.vector is None
    else:
        assert np.array_equal(got.vector, want.vector)
    assert np.array_equal(got.permutation.indices, want.permutation.indices)


@pytest.mark.parametrize("case", SOLVE_MANY_CASES)
def test_solve_many_bit_identical_to_solve(case):
    make, opts, expected = SOLVE_MANY_CASES[case]
    A = make()
    n = as_symmatrix(A).n
    batch = solve_many(A, range(1, n + 1), opts)
    assert len(batch) == n
    assert any(r.status is expected for r in batch)
    for m, got in enumerate(batch, 1):
        assert_same_result(got, solve(A, replace(opts, m=m)))


@pytest.mark.parametrize("case, rotations", [("signed-zero-and-subnormal", 2),
                                             ("coupling-at-tol", 1)])
def test_batched_gate_edges(case, rotations):
    # Rank 1 sweeps in the batch; its first sweep rotates only the couplings
    # the gate passes (0.1 and 5e-324; tol itself).
    make, opts, _ = SOLVE_MANY_CASES[case]
    batch = solve_many(make(), range(1, 6), opts)
    assert sum(r.sweeps_used > 0 for r in batch) >= 2
    assert batch[0].history[1].rotations_applied == rotations


def test_back_to_back_batches_match_solve():
    # Calls on one order reuse the batched sweep's plans; rank sets differ
    # and the drk1 batch's active set shrinks many times.
    A, B = dio.gen_diag_rank1(15).a, dio.gen_random_dd(15, 0.3, 4).a
    opts = SolveOptions(m=1, want_vector=True)
    calls = [(A, range(1, 16), opts), (B, range(1, 16), opts), (A, [15, 2, 8, 2], opts),
             (B, range(1, 16), replace(opts, tol=1e-3)), (A, range(1, 16), opts), (B, [1, 3], opts)]
    for M, ms, o in calls:
        batch = solve_many(M, ms, o)
        for m, got in zip(ms, batch):
            assert_same_result(got, solve(M, replace(o, m=m)))
    assert len({r.sweeps_used for r in solve_many(A, range(1, 16), opts)}) >= 4


def test_lone_tail_case_sweeps_alone():
    make, opts, _ = SOLVE_MANY_CASES["lone-tail"]
    used = sorted((r.sweeps_used for r in solve_many(make(), range(1, 7), opts)),
                  reverse=True)
    assert used[0] - used[1] >= 2


def test_solve_many_follows_the_order_of_ms():
    A = dio.gen_random_dd(12, 0.2, 7)
    opts = SolveOptions(m=1, want_vector=True)
    ms = [7, 2, 11, 2]
    for m, got in zip(ms, solve_many(A, ms, opts)):
        assert_same_result(got, solve(A, replace(opts, m=m)))


def test_solve_many_does_not_mutate_input(rng):
    a = rand_sym(rng, 6)
    M = SymMatrix(a.copy())
    solve_many(M, [1, 3, 6], SolveOptions(m=1, want_vector=True))
    assert np.array_equal(M.a, a)


class TestSolveManyValidation:
    @pytest.mark.parametrize("ms", [[1, 9], [0, 2], [2, 2.5], [1, True]])
    def test_bad_rank_among_ms(self, rng, ms):
        with pytest.raises(InvalidOptions):
            solve_many(rand_sym(rng, 8), ms, SolveOptions(m=1))

    def test_empty_ms(self, rng):
        with pytest.raises(InvalidOptions):
            solve_many(rand_sym(rng, 8), [], SolveOptions(m=1))

    def test_bad_scalars(self, rng):
        with pytest.raises(InvalidOptions):
            solve_many(rand_sym(rng, 4), [1, 2], SolveOptions(m=1, max_sweeps=0))


def accumulated(A, m, res, tol, log):
    """Unit column m of the V that sweep(..., V) accumulates over the
    sweeps ``res`` ran, in original coordinates; ``log`` gets the rotations."""
    b = res.permutation.apply(A).a
    V = np.eye(b.shape[0])
    for _ in range(res.sweeps_used):
        sweep(b, m, tol, V, _log=log)
    assert b[m - 1, m - 1] == res.lambda_hat    # the same rotations as solve
    v = res.permutation.scatter(V[:, m - 1])
    return v * np.sign(v @ res.vector) / np.linalg.norm(v)


def test_replayed_vector_matches_accumulated_v():
    rng = np.random.default_rng(8)
    cases = [(rand_sym(rng, n), int(rng.integers(1, n + 1)), SolveOptions(m=1))
             for n in (5, 7, 9, 12) for _ in range(3)]
    cases += [(dio.gen_diag_rank1(63).a, 32, SolveOptions(m=1, stop_rel=1e-9))]
    cases += [(tied_diagonal(8, 1e-20), m, SolveOptions(m=1, stop_rel=0.0)) for m in (1, 4, 8)]
    log = (array("i"), array("d"))
    for a, m, opts in cases:
        res = solve(a, replace(opts, m=m, want_vector=True))
        v = accumulated(a, m, res, opts.tol, log)
        assert np.max(np.abs(res.vector - v)) <= 1e-12
        frob = np.linalg.norm(a)
        resid = [np.linalg.norm(a @ x - res.lambda_hat * x) for x in (res.vector, v)]
        assert abs(resid[0] - resid[1]) <= 1e-12 * frob
    ks = log[0]
    assert min(ks) < 0 <= max(ks)    # swapped (~k) and unswapped rotations both ran


def coupled_blocks():
    """rand_sym(6) beside coupling_at_tol() + 10 I, permuted. Couplings across
    the blocks stay exact zeros; the small block's rows meet a coupling just
    below the gate; the non-dominant block swaps, and its slowest rank sweeps
    alone at the end."""
    a = np.zeros((11, 11))
    a[:6, :6] = rand_sym(np.random.default_rng(1), 6)
    a[6:, 6:] = coupling_at_tol() + 10.0 * np.eye(5)
    return Permutation(np.random.default_rng(0).permutation(11)).apply(a).a


def test_batched_vectors_match_accumulated_v(monkeypatch):
    # Every rank's vector from one batch, replayed a sweep at a time, against
    # the V that sweep accumulates, on a log with all the replay's cases.
    A, tol = coupled_blocks(), GATE_TOL
    replays = []

    def watched(x, rows, m0, k, t, swap, live, replay=solver._replay_sweep):
        replays.append((len(rows), live is not None and not live.all(), bool(swap.any())))
        replay(x, rows, m0, k, t, swap, live)

    monkeypatch.setattr(solver, "_replay_sweep", watched)
    batch = solve_many(A, range(1, 12), SolveOptions(m=1, tol=tol, want_vector=True))
    monkeypatch.undo()
    for m, res in enumerate(batch, 1):
        v = accumulated(A, m, res, tol, None)
        assert np.max(np.abs(res.vector - v)) <= 1e-12
    assert any(r.status is SolveStatus.TOLERANCE_FLOOR for r in batch)  # gated by tol
    batched = [r for r in replays if r[0] > 1]
    assert any(gated for _, gated, _ in batched)    # steps that did not rotate
    assert any(swapped for _, _, swapped in batched)
    assert len({rows for rows, _, _ in batched}) >= 3   # the active set shrank
    assert len(replays) - len(batched) >= 2         # lone sweeps, replayed one by one


@pytest.mark.parametrize("ms", [[128], [1, 255]])
def test_vectors_take_no_n_by_n_storage(ms):
    # An n x n V per target (8 n^2 bytes) would exceed the bound alone. The
    # rotation log grows with the sweeps: rank 128 runs 45 of them (its log
    # is ~150 kB); ranks 1 and 255 run 6 together, then 255 runs 8 alone.
    A = dio.gen_diag_rank1(255)

    def run(want_vector):
        opts = SolveOptions(m=ms[0], want_vector=want_vector)
        if len(ms) == 1:
            return lambda: solve(A, opts)
        return lambda: solve_many(A, ms, opts)

    extra = peak_matrices(run(True), 255) - peak_matrices(run(False), 255)
    assert extra < len(ms) / 2


def test_history_takes_one_snapshot_buffer():
    # The sorted working copy and, at the first and last record only, one
    # short-lived n x n copy at a time for off_norm and alpha.
    n = 400
    A = dio.gen_random_dd(n, 0.005, 1)
    opts = SolveOptions(m=n // 2, want_vector=True, record_history=True)
    assert peak_matrices(lambda: solve(A, opts), n) < 2.5
