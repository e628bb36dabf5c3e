"""End-to-end acceptance checks at fixed tolerances.

Each test prints one [PASS]/[FAIL] verdict line (visible even under pytest's
capture) and then asserts. The telescoping check (c6) audits every solver run
the earlier criteria performed, via a registry of (matrix, options, sweeps)
triples replayed through the standalone rotation primitives.
"""

import math
import os
import time

import numpy as np
import pytest

import ddjacobi.io as dio
from ddjacobi import (
    EPS,
    SolveOptions,
    SolveStatus,
    SymMatrix,
    alpha,
    apply_two_sided,
    as_symmatrix,
    diagnose,
    fit_rate,
    frob_norm,
    full_jacobi,
    min_relative_gap,
    schur2,
    solve,
    sort_by_diagonal,
    sweep,
    track,
)
from ddjacobi.cli import main as cli_main
from ddjacobi.spectral import (
    PointCloud,
    fiedler_partition,
    gaussian_similarity,
    normalized_laplacian,
)
from conftest import rand_sym

# Every solve run by the criteria below lands here: (tag, matrix, opts, sweeps).
RUNS: list[tuple[str, np.ndarray, SolveOptions, int]] = []


def _register(tag, A, opts, result):
    a = A.to_array() if isinstance(A, SymMatrix) else np.array(A, dtype=float)
    RUNS.append((tag, a, opts, result.sweeps_used))


def _report(capsys, name, ok, detail=""):
    with capsys.disabled():
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f"  ({detail})"
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def _instrumented_replay(a, opts, sweeps):
    """Re-run a registered solve sweep by sweep through schur2 +
    apply_two_sided (bit-identical to the solver's inlined path), recording
    (off2_before, off2_after, 2*sum of annihilated squares) per sweep and
    returning the terminal iterate."""
    B, _ = sort_by_diagonal(as_symmatrix(a))
    b = B.a
    n = b.shape[0]
    m0 = opts.m - 1
    plan = list(range(0, m0)) + list(range(n - 1, m0, -1))

    def off2(x):
        y = x.copy()
        np.fill_diagonal(y, 0.0)
        return float(np.sum(y * y))

    rows = []
    cur = off2(b)
    for _ in range(sweeps):
        before = cur
        shed = 0.0
        for k in plan:
            amk = b[m0, k]
            if amk == 0.0 or abs(amk) < opts.tol:
                continue
            p, q = (k, m0) if k < m0 else (m0, k)
            shed += b[p, q] * b[p, q]
            apply_two_sided(b, p, q, schur2(b[p, p], b[p, q], b[q, q]))
        cur = off2(b)
        rows.append((before, cur, 2.0 * shed))
    return rows, b


def test_c01_example_diagnostics(capsys):
    t0 = time.perf_counter()
    rep = diagnose(dio.gen_example1(), 6, exact=True)
    rho = rep.alpha0 / rep.gamma
    el = time.perf_counter() - t0
    ok = (abs(rep.gamma - 0.048) <= 0.001
          and abs(rep.gamma_m - 0.076) <= 0.001
          and abs(rep.alpha0 - 0.023) <= 0.001
          and 0.45 <= rho <= 0.51
          and el < 1.0)
    _report(capsys, "c01 example-1 diagnostics: gamma 0.048, gamma_6 0.076, "
            "alpha0 0.023 (2 sig. digits), rho in [0.45, 0.51]", ok,
            f"gamma={rep.gamma:.4f} gamma_6={rep.gamma_m:.4f} "
            f"alpha0={rep.alpha0:.4f} rho={rho:.3f} in {el:.2f}s")


def test_c02_example_convergence(capsys):
    t0 = time.perf_counter()
    A = dio.gen_example1()
    opts = SolveOptions(m=6, tol=0.0, stop_rel=0.0)
    res = solve(A, opts)
    _register("c02 example1 m=6", A, opts, res)
    reference = (6.89e-3, 5.81e-5, 5.67e-7, 2.41e-9, 1.12e-11, 3.25e-14)
    ratios = [res.history[k].off_row_h / reference[k] for k in range(6)]
    fit = fit_rate(res.history, frob0=frob_norm(A))
    el = time.perf_counter() - t0
    ok = (all(0.5 <= r <= 2.0 for r in ratios)
          and 0.5 <= fit / 5.48e-3 <= 2.0
          and el < 1.0)
    _report(capsys, "c02 example-1 off(H(6,:)) per sweep and fitted rate "
            "within 2x of reference", ok,
            f"sweep ratios {min(ratios):.3f}..{max(ratios):.3f}, "
            f"rate={fit:.3e} ({fit / 5.48e-3:.2f}x) in {el:.2f}s")


def test_c03_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst_err = 0.0
    min_align = 1.0
    for seed in range(100):
        A = dio.gen_random_dd(8, 0.005, seed=seed)
        dec = full_jacobi(A)
        budget = 1e-10 * frob_norm(A)
        for m in range(1, 9):
            opts = SolveOptions(m=m, want_vector=True)
            res = solve(A, opts)
            _register(f"c03 seed={seed} m={m}", A, opts, res)
            worst_err = max(worst_err,
                            abs(res.lambda_hat - dec.values[m - 1]) / budget)
            min_align = min(min_align, abs(res.vector @ dec.vectors[:, m - 1]))
    el = time.perf_counter() - t0
    ok = worst_err <= 1.0 and min_align >= 1.0 - 1e-8 and el < 10.0
    _report(capsys, "c03 oracle equivalence over 100 instances x 8 ranks", ok,
            f"worst |err|/(1e-10*frob)={worst_err:.3e}, "
            f"min alignment={min_align:.12f} in {el:.2f}s")


def test_c04_certified_contraction_regime(capsys):
    instances = ([(8, 0.005, s) for s in range(5)]
                 + [(16, 0.002, s) for s in range(2)])
    worst_contr = 0.0  # observed contraction / certified bound
    worst_drift = 0.0  # max alpha_k / (1.001 * alpha0)
    certified = True
    for n, target, seed in instances:
        A = dio.gen_random_dd(n, target, seed=seed)
        gam = min_relative_gap(full_jacobi(A).values).gamma
        a0 = alpha(A)
        certified &= a0 <= min(1.0 / n, gam) / 11.0
        bound = 2.8 * 1.001 * a0 / gam
        certified &= bound <= 0.26
        for m in range(1, n + 1):
            opts = SolveOptions(m=m)
            res = solve(A, opts)
            _register(f"c04 n={n} seed={seed} m={m}", A, opts, res)
            hist = res.history[:n + 1]  # sweeps 0..n
            for r0, r1 in zip(hist, hist[1:]):
                if r0.off_row_h and r0.off_row_h > 0.0:
                    worst_contr = max(worst_contr,
                                      (r1.off_row_h / r0.off_row_h) / bound)
            # alpha_k after every sweep, from the solve's sweeps replayed
            # on the sorted copy (the history keeps it at the ends only).
            b = sort_by_diagonal(A)[0].a
            alphas = [alpha(b)]
            for _ in range(res.sweeps_used):
                sweep(b, m, opts.tol)
                alphas.append(alpha(b))
            assert (alphas[0], alphas[-1]) == (res.history[0].alpha, res.history[-1].alpha)
            worst_drift = max(worst_drift, max(alphas) / (1.001 * a0))
    ok = certified and worst_contr <= 1.0 and worst_drift <= 1.0
    _report(capsys, "c04 certified regime: contraction <= 2.8*1.001*alpha0/gamma "
            "and alpha_k <= 1.001*alpha0", ok,
            f"certified={certified}, worst contraction/bound={worst_contr:.3f}, "
            f"worst alpha drift={worst_drift:.6f}")


def test_c05_threshold_termination(capsys):
    worst = 0.0
    all_floor = True
    for seed in range(10):
        a = rand_sym(np.random.default_rng(seed), 10)
        for tol in (1e-2, 1e-6):
            opts = SolveOptions(m=3, tol=tol, stop_rel=0.0)
            res = solve(a, opts)
            _register(f"c05 seed={seed} tol={tol:g}", a, opts, res)
            all_floor &= res.status is SolveStatus.TOLERANCE_FLOOR
            worst = max(worst,
                        res.history[-1].off_row_m / (math.sqrt(10) * tol))
    ok = all_floor and worst < 1.0
    _report(capsys, "c05 threshold runs end at ToleranceFloor with "
            "off_row < sqrt(n)*tol", ok,
            f"all ToleranceFloor={all_floor}, worst off/(sqrt(n)*tol)={worst:.3f}")


def test_c08_diag_plus_rank_one(capsys):
    t0 = time.perf_counter()
    A = dio.gen_diag_rank1(1023)
    vals = np.linalg.eigvalsh(A.to_array())
    gaps = min_relative_gap(vals)
    g_n, g_1 = float(gaps.gamma_j[-1]), float(gaps.gamma_j[0])
    a0 = alpha(A)
    frob = frob_norm(A)
    ok_stats = (3.4e-2 <= g_n <= 3.8e-2
                and 4.6e-4 <= g_1 <= 5.0e-4
                and 0.25 <= a0 <= 0.35)

    arr = A.to_array()
    ok_solves = True
    worst_resid = 0.0
    for m in (1, 512, 1023):
        opts = SolveOptions(m=m, stop_rel=1e-9, want_vector=True)
        res = solve(A, opts)
        _register(f"c08 drk1(1023) m={m}", A, opts, res)
        v = res.vector
        resid = float(np.linalg.norm(arr @ v - res.lambda_hat * v))
        worst_resid = max(worst_resid, resid / (1e-8 * frob))
        ok_solves &= res.status is SolveStatus.CONVERGED

    # The two orders take turns, so a slow spell on a shared machine, which
    # slows the cache-resident n = 512 sweep more than the n = 1024 one,
    # falls on both of them and not on one order's whole batch.
    base = {n: sort_by_diagonal(dio.gen_diag_rank1(n))[0].a for n in (512, 1024)}
    best = dict.fromkeys(base, math.inf)
    for _ in range(21):
        for n, b0 in base.items():
            work = b0.copy()
            s0 = time.perf_counter()
            sweep(work, n // 2, 0.0)
            best[n] = min(best[n], time.perf_counter() - s0)
    ratio = best[1024] / best[512]
    el = time.perf_counter() - t0
    ok = (ok_stats and ok_solves and worst_resid <= 1.0
          and 3.0 <= ratio <= 6.0 and el < 120.0)
    _report(capsys, "c08 drk1(1023): gap/alpha windows, residuals <= 1e-8*frob, "
            "512->1024 sweep-time ratio in [3, 6]", ok,
            f"gamma_n={g_n:.3e} gamma_1={g_1:.3e} alpha0={a0:.3f} "
            f"worst resid/budget={worst_resid:.3f} "
            f"ratio={ratio:.2f} = {best[1024] * 1e3:.2f} / {best[512] * 1e3:.2f} ms "
            f"in {el:.1f}s")


def test_c06_offnorm_telescoping(capsys):
    if not RUNS:  # standalone invocation: audit a small fresh batch
        for seed in range(3):
            A = dio.gen_random_dd(8, 0.005, seed=seed)
            opts = SolveOptions(m=seed + 1)
            _register(f"c06 fallback dd seed={seed}", A, opts, solve(A, opts))
        a = rand_sym(np.random.default_rng(0), 10)
        opts = SolveOptions(m=3, tol=1e-2, stop_rel=0.0)
        _register("c06 fallback gated", a, opts, solve(a, opts))

    worst_rise = -math.inf
    worst_gap = 0.0
    audited = 0
    for tag, a, opts, sweeps in RUNS:
        if sweeps == 0:
            continue
        budget = 16.0 * a.shape[0] * EPS * float(np.sum(a * a))
        rows, _ = _instrumented_replay(a, opts, sweeps)
        audited += len(rows)
        for before, after, drop in rows:
            worst_rise = max(worst_rise, (after - before) / budget)
            worst_gap = max(worst_gap, abs((before - after) - drop) / budget)
    ok = worst_rise <= 1.0 and worst_gap <= 1.0
    _report(capsys, "c06 off-norm monotone and decrement telescopes to "
            "2*sum(annihilated^2) within 16*n*eps*frob^2", ok,
            f"{len(RUNS)} runs / {audited} sweeps audited, "
            f"worst rise/budget={worst_rise:.3e}, worst |gap|/budget={worst_gap:.3e}")


def test_c07_separation_bound(capsys):
    from mpmath import mp

    t0 = time.perf_counter()
    worst = 0.0
    checked = skipped = 0
    old_dps = mp.dps
    mp.dps = 40
    try:
        cases = [(8, 0.005, s, range(1, 9)) for s in range(3)]
        cases.append((16, 0.002, 0, (1, 6, 11, 16)))
        for n, target, seed, ranks in cases:
            A = dio.gen_random_dd(n, target, seed=seed)
            for m in ranks:
                opts = SolveOptions(m=m)
                res = solve(A, opts)
                _, b = _instrumented_replay(A.to_array(), opts, res.sweeps_used)
                m0 = m - 1
                lam = sorted(mp.eigsy(mp.matrix(b.tolist()), eigvals_only=True))
                gam = min(
                    abs(lam[j] - lam[i]) / (abs(lam[j]) + abs(lam[i]))
                    for i in range(n) for j in range(i + 1, n))
                a_term = alpha(SymMatrix(b))
                if a_term > float(gam / (gam + 3)):
                    skipped += 1  # hypothesis alpha <= gamma/(gamma+3) fails
                    continue
                d = b.diagonal()
                row2 = mp.mpf(0)
                for j in range(n):
                    if j != m0:
                        row2 += mp.mpf(b[m0, j]) ** 2 / abs(
                            mp.mpf(d[m0]) * mp.mpf(d[j]))
                lhs = abs(mp.mpf(b[m0, m0]) - lam[m0]) / abs(mp.mpf(b[m0, m0]))
                rhs = 4 * row2 / gam
                worst = max(worst, float(lhs / rhs))
                checked += 1
    finally:
        mp.dps = old_dps
    el = time.perf_counter() - t0
    ok = checked > 0 and worst <= 1.0
    _report(capsys, "c07 terminal iterates satisfy "
            "|a_mm - lambda_m|/|a_mm| <= 4*off(H(m,:))^2/gamma "
            "(40-digit spectra)", ok,
            f"{checked} checked / {skipped} outside hypothesis, "
            f"worst lhs/rhs={worst:.4f} in {el:.1f}s")


def test_c09_homotopy_tracker(capsys):
    t0 = time.perf_counter()
    A = dio.gen_random_dd(33, 0.3, seed=1)
    path = track(A)
    dec = full_jacobi(A)
    err = float(np.max(np.abs(np.sort(path.steps[-1].sigma) - dec.values)))
    budget = 1e-8 * frob_norm(A)
    el = time.perf_counter() - t0
    ok = (path.steps[-1].t == 1.0
          and path.max_orth_defect <= 1e-10 * 33
          and err <= budget
          and path.total_steps < 10_000
          and math.isfinite(path.avg_iters))
    _report(capsys, "c09 homotopy on seeded 33x33 reaches t=1 with orthonormal "
            "Q and oracle-level spectrum", ok,
            f"steps={path.total_steps} avg_iters={path.avg_iters:.2f} "
            f"orth defect={path.max_orth_defect:.2e} "
            f"spectrum err={err:.2e} (budget {budget:.2e}) in {el:.1f}s")


def test_c10_spectral_clustering(capsys):
    rng = np.random.default_rng(42)
    pts = np.vstack([
        np.array([0.0, 0.0]) + 0.5 * rng.standard_normal((50, 2)),
        np.array([8.0, 8.0]) + 0.5 * rng.standard_normal((50, 2)),
    ])
    L = normalized_laplacian(gaussian_similarity(PointCloud(pts), 1.0))
    res = fiedler_partition(L)
    dec = full_jacobi(L)
    oracle = np.where(dec.vectors[:, 1] < 0.0, 0, 1)
    agree = max(float(np.mean(res.labels == oracle)),
                float(np.mean(res.labels != oracle)))
    lam2_err = abs(res.lambda2 - dec.values[1])
    budget = 1e-8 * frob_norm(L)
    ok = agree >= 0.98 and lam2_err <= budget
    _report(capsys, "c10 two-blob (100 pts): >= 98% agreement with oracle "
            "Fiedler partition, lambda_2 to 1e-8*frob", ok,
            f"agreement={agree:.2%}, lambda2 err={lam2_err:.2e} "
            f"(budget {budget:.2e})")


def test_c10_optional_wine_quality(capsys):
    path = os.environ.get("WINE_QUALITY_CSV")
    if not path:
        with capsys.disabled():
            print("[SKIP] c10-wine: set WINE_QUALITY_CSV to a numeric "
                  "comma-separated points file to enable", flush=True)
        pytest.skip("optional dataset not supplied")
    code = cli_main(["cluster", "--points", path, "--sigma", "10", "--exact"])
    out = dict(ln.split("=", 1)
               for ln in capsys.readouterr().out.strip().splitlines())
    g2 = float(out["gamma_m"])
    ok = code == 0 and 4.0e-2 <= g2 <= 5.0e-2
    _report(capsys, "c10-wine gamma_2 in [4.0e-2, 5.0e-2] at sigma=10", ok,
            f"exit={code} gamma_2={g2:.3e}")


def test_c11_file_format_fidelity(tmp_path, capsys):
    rng = np.random.default_rng(123)
    ok = True
    for trial in range(50):
        n = int(rng.integers(1, 13))
        a = rand_sym(rng, n, scale=10.0 ** float(rng.integers(-12, 13)))
        if n >= 3:
            a[0, n - 1] = a[n - 1, 0] = 0.0
        p = tmp_path / f"m{trial}.mtx"
        dio.write_matrix_market(p, a)
        ok &= np.array_equal(dio.read_matrix_market(p).to_array(), a)
    for trial in range(50):
        rows = [dio.HistoryRow(
            sweep=k,
            off_row_m=float(rng.uniform(-1, 1)) * 10.0 ** float(rng.integers(-300, 301)),
            off_total=float(rng.standard_normal()),
            a_mm=float(rng.standard_normal()),
            alpha=None if rng.random() < 0.5 else float(rng.random()),
            err_vs_ref=None if rng.random() < 0.5 else float(rng.random()),
        ) for k in range(int(rng.integers(1, 8)))]
        p = tmp_path / f"h{trial}.csv"
        dio.write_history_csv(p, rows)
        ok &= dio.read_history_csv(p) == rows
    _report(capsys, "c11 Matrix Market and history-CSV round-trips are "
            "lossless (50 each)", ok)
