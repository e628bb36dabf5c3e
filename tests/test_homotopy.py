from dataclasses import replace

import numpy as np
import pytest

import ddjacobi.homotopy as homotopy
from ddjacobi import (
    GAP_FLOOR,
    AsymmetricInput,
    CollapsedGap,
    InvalidOptions,
    SolveOptions,
    StepLimit,
    TrackerConfig,
    TrackerStalled,
    solve,
    step_length,
    track,
)
import ddjacobi.io as dio
from conftest import NORM_OVERFLOWS


class TestStepLength:
    def test_gap_limited(self):
        assert step_length(0.1, 2.0, 1.0, 0.0) == pytest.approx(0.05)
        assert step_length(0.1, 2.0, 0.5, 0.0) == pytest.approx(0.025)

    def test_remaining_interval_limited(self):
        assert step_length(10.0, 1.0, 1.0, 0.9) == pytest.approx(0.1)

    def test_diagonal_matrix_jumps_to_one(self):
        assert step_length(0.3, 0.0, 1.0, 0.25) == pytest.approx(0.75)

    def test_collapsed_gap(self):
        with pytest.raises(CollapsedGap):
            step_length(GAP_FLOOR, 1.0, 1.0, 0.0)
        with pytest.raises(CollapsedGap):
            step_length(0.0, 1.0, 1.0, 0.5)

    def test_validation(self):
        with pytest.raises(InvalidOptions):
            step_length(0.1, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            step_length(0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            step_length(0.1, 1.0, 1.0, -0.2)

    def test_nan_step_constant(self):
        with pytest.raises(InvalidOptions):
            step_length(0.1, 1.0, float("nan"), 0.0)

    def test_nan_gap_collapses(self):
        with pytest.raises(CollapsedGap):
            step_length(float("nan"), 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("omega_frob", [float("nan"), -1.0, float("inf")])
    def test_bad_omega_norm(self, omega_frob):
        with pytest.raises(ValueError):
            step_length(0.1, omega_frob, 1.0, 0.0)


def test_two_by_two_path_matches_eigh():
    a = np.array([[1.0, 0.3], [0.3, 2.0]])
    path = track(a)
    assert path.steps[-1].t == 1.0
    w = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(np.sort(path.steps[-1].sigma), w, rtol=0, atol=1e-12)
    # basis accuracy is first order in the per-step solver residual
    Q = path.final_q
    np.testing.assert_allclose(Q.T @ a @ Q, np.diag(path.steps[-1].sigma),
                               rtol=0, atol=1e-6)


def test_diagonal_matrix_single_step():
    a = np.diag([3.0, 1.0, 2.0])
    path = track(a)
    assert path.total_steps == 1
    assert path.steps[0].t == 1.0
    assert np.array_equal(np.sort(path.steps[0].sigma), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(path.final_q.T @ a @ path.final_q,
                               np.diag(path.steps[0].sigma), rtol=0, atol=1e-14)


def test_order_one_matrix():
    path = track(np.array([[4.2]]))
    assert path.total_steps == 1
    assert path.final_q[0, 0] == 1.0
    assert path.steps[0].sigma[0] == 4.2


@pytest.mark.parametrize("a", [4.2, -3.0, 0.0])
def test_order_one_path_is_one_full_step(a):
    path = track(np.array([[a]]))
    (step,) = path.steps
    assert (step.t, step.s, step.gamma_hat, step.halvings) == (1.0, 1.0, np.inf, 0)
    assert step.sigma.tobytes() == np.array([a]).tobytes()
    assert np.issubdtype(step.iters_per_eig.dtype, np.integer)
    assert step.iters_per_eig.tolist() == [0]
    assert path.final_q.tobytes() == np.array([[1.0]]).tobytes()
    assert path.total_steps == 1
    assert path.avg_iters == 0.0 and path.max_orth_defect == 0.0


def test_tracks_dominant_instance():
    A = dio.gen_random_dd(10, 0.2, seed=5)
    path = track(A)
    assert path.steps[-1].t == 1.0
    w = np.linalg.eigvalsh(A.to_array())
    np.testing.assert_allclose(np.sort(path.steps[-1].sigma), w, rtol=0, atol=1e-10)
    assert path.max_orth_defect <= 1e-12
    assert path.avg_iters > 0.0
    assert path.total_steps == len(path.steps)
    assert all(step.halvings == 0 for step in path.steps)


# Greedy steps (c = 4) with a 3-sweep budget: every step but the last is
# halved once before its subsolves converge.
HALVING_CASE = (lambda: dio.gen_random_dd(8, 0.3, seed=0),
                TrackerConfig(c=4.0, solve_opts=SolveOptions(m=1, max_sweeps=3)))


def test_halvings_are_counted():
    make, cfg = HALVING_CASE
    path = track(make(), cfg)
    assert path.total_steps == 7
    assert sum(step.halvings for step in path.steps) == 6
    assert path.steps[-1].t == 1.0


def _per_target_solves(B, ms, opts):
    return [solve(B, replace(opts, m=m)) for m in ms]


@pytest.mark.parametrize("make, cfg", [
    (lambda: dio.gen_random_dd(10, 0.2, seed=5), None),
    HALVING_CASE,
    (lambda: dio.gen_random_dd(20, 0.3, seed=1), None),  # the benchmark's track family
], ids=["default", "halving", "dd20"])
def test_batched_track_bit_identical_to_per_target_solves(monkeypatch, make, cfg):
    A = make()
    batched = track(A, cfg)
    monkeypatch.setattr(homotopy, "solve_many", _per_target_solves)
    looped = track(A, cfg)
    assert batched.total_steps == looped.total_steps
    for got, want in zip(batched.steps, looped.steps):
        assert (got.t, got.s, got.gamma_hat, got.halvings) == \
            (want.t, want.s, want.gamma_hat, want.halvings)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.iters_per_eig, want.iters_per_eig)
    assert np.array_equal(batched.final_q, looped.final_q)
    assert batched.max_orth_defect == looped.max_orth_defect
    assert batched.avg_iters == looped.avg_iters


def test_stall_names_the_same_rank_as_per_target_solves(monkeypatch):
    A = dio.gen_random_dd(6, 0.2, seed=1)
    cfg = TrackerConfig(solve_opts=SolveOptions(m=1, max_sweeps=1, stop_rel=1e-30))
    with pytest.raises(TrackerStalled) as batched:
        track(A, cfg)
    monkeypatch.setattr(homotopy, "solve_many", _per_target_solves)
    with pytest.raises(TrackerStalled) as looped:
        track(A, cfg)
    assert (batched.value.t, batched.value.m, batched.value.status) == \
        (looped.value.t, looped.value.m, looped.value.status)


def test_eigenvalue_continuity_along_path():
    # Weyl: one step of length s moves each eigenvalue at most s * ||Omega||_F
    A = dio.gen_random_dd(8, 0.15, seed=3)
    om = A.to_array()
    np.fill_diagonal(om, 0.0)
    om_frob = float(np.linalg.norm(om))
    path = track(A)
    prev = np.sort(A.to_array().diagonal())
    for step in path.steps:
        cur = np.sort(step.sigma)
        assert np.max(np.abs(cur - prev)) <= step.s * om_frob * (1 + 1e-8) + 1e-10
        prev = cur


def test_step_limit():
    A = dio.gen_random_dd(8, 0.3, seed=0)
    with pytest.raises(StepLimit):
        track(A, TrackerConfig(max_steps=1))


def test_collapsed_gap_on_tied_diagonal():
    a = np.array([[2.0, 0.1, 0.0],
                  [0.1, 2.0, 0.1],
                  [0.0, 0.1, 5.0]])
    with pytest.raises(CollapsedGap):
        track(a)


def test_stalls_when_subsolves_cannot_converge():
    A = dio.gen_random_dd(6, 0.2, seed=1)
    starved = SolveOptions(m=1, max_sweeps=1, stop_rel=1e-30)
    with pytest.raises(TrackerStalled) as exc:
        track(A, TrackerConfig(solve_opts=starved))
    assert exc.value.m >= 1
    assert exc.value.status == "MaxSweeps"


def test_config_validation():
    A = dio.gen_random_dd(4, 0.1, seed=0)
    with pytest.raises(InvalidOptions):
        track(A, TrackerConfig(max_steps=0))


def test_overflowing_off_norm_is_rejected():
    # ||Omega||_F = 2e308 overflows; an infinite norm made every step 0.
    with pytest.raises(ValueError, match="omega_frob"):
        track(NORM_OVERFLOWS)


@pytest.mark.parametrize("budget", [float("nan"), 2.5, 2.0, True])
def test_max_steps_is_an_integer(budget):
    # NaN used to switch the step limit off, and 2.5 acted as 3.
    with pytest.raises(InvalidOptions):
        track(dio.gen_random_dd(4, 0.1, seed=0), TrackerConfig(max_steps=budget))


@pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
def test_step_constant_checked_up_front(c):
    # step_length checks c before the first solve, n = 1 included
    with pytest.raises(InvalidOptions):
        track(np.array([[4.2]]), TrackerConfig(c=c))
    with pytest.raises(InvalidOptions):
        track(dio.gen_random_dd(4, 0.1, seed=0), TrackerConfig(c=c))


def test_matrix_checked_before_step_constant():
    # track reads the matrix first; step_length then checks c at t = 0.
    with pytest.raises(AsymmetricInput):
        track(np.array([[1.0, 0.5], [0.0, 2.0]]), TrackerConfig(c=0.0))


def test_orthonormalize_is_the_gram_schmidt_basis(rng):
    u = rng.standard_normal((9, 9))
    q = homotopy._orthonormalize(u)
    r = q.T @ u
    assert np.allclose(q.T @ q, np.eye(9), atol=1e-14)
    assert np.allclose(np.tril(r, -1), 0.0, atol=1e-13)
    assert np.all(r.diagonal() > 0.0)


def test_orthonormalize_rejects_dependent_columns():
    with pytest.raises(CollapsedGap):
        homotopy._orthonormalize(np.array([[1.0, 1.0], [0.0, 0.0]]))
