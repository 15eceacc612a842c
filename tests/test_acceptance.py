"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test pins a package-level contract: closed-form power step, monotone
alternating optimization, certified relaxation sandwich, solver
certification, no-jammer closed form, figure-sweep trends, direct-path
sanity, byte-level determinism, and the K = 100 runtime budget.
"""
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from risjam import (
    CSV_HEADER,
    OptimizerSettings,
    build_channel_set,
    default_scenario,
    effective_gains,
    evaluate,
    fig2_spec,
    fig3_spec,
    fig4_spec,
    format_csv_rows,
    identity_phases,
    lift,
    optimize,
    optimize_phases,
    optimize_power,
    oracle_exhaustive,
    run_sweep,
)
from risjam.channel import TWO_PI
from risjam.cli import main

from conftest import make_random_scenario


def optimized_rows(rows, k):
    return [r for r in rows if r.method == "optimized" and r.k == k]


def test_c01_power_step_returns_cap_on_100_random_scenarios():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(100):
        sc = make_random_scenario(rng)
        gains = effective_gains(
            build_channel_set(sc), identity_phases(sc.num_elements)
        )
        assert optimize_power(gains, sc.p_tx_max) == sc.p_tx_max
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"power step took {elapsed:.3f}s for 100 scenarios"


def test_c02_alternating_loop_monotone_and_terminating():
    rng = np.random.default_rng(202)
    sizes = [(2, 2), (3, 3), (5, 5)]
    for run in range(50):
        k_rows, k_cols = sizes[run % 3]
        sc = make_random_scenario(rng, k_rows=k_rows, k_cols=k_cols)
        res = optimize(sc, seed=run)
        vals = [r.sjnr_linear for r in res.sjnr_trace]
        assert all(
            b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])
        ), f"trace decreased on run {run}: {vals}"
        assert res.converged, f"run {run} did not converge"
        assert res.outer_iterations <= 20


def test_c03_relaxation_sandwich_on_small_instances():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    for run in range(30):
        k = 1 + run % 3
        sc = make_random_scenario(rng, k_rows=1, k_cols=k)
        res = optimize(sc, seed=run)
        opt_lin = res.final_report.sjnr_linear
        opt_db = res.final_report.sjnr_db
        coarse_db = oracle_exhaustive(sc, 16).sjnr_db
        assert coarse_db - 0.05 <= opt_db, (
            f"run {run}: 16-level exhaustive {coarse_db:.6f} dB beats "
            f"optimized {opt_db:.6f} dB by more than 0.05 dB"
        )
        assert opt_lin <= res.sdp_bound * (1 + 1e-6), (
            f"run {run}: optimized {opt_lin} above certified bound {res.sdp_bound}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"sandwich check took {elapsed:.1f}s"


def test_c04_single_element_matches_fine_grid():
    rng = np.random.default_rng(404)
    thetas = np.arange(0.0, TWO_PI, 1e-4)
    for run in range(20):
        sc = make_random_scenario(rng, k_rows=1, k_cols=1)
        lifted = lift(build_channel_set(sc), sc)
        ps = optimize_phases(lifted, OptimizerSettings(), seed=run)
        u = np.stack([np.exp(1j * thetas), np.ones_like(thetas, dtype=complex)], axis=1)
        f = np.abs(u @ lifted.w_tx.conj()) ** 2
        g = np.abs(u @ lifted.w_jam.conj()) ** 2
        grid_best = float(np.max(lifted.p_tx * f / (lifted.p_jam * g + lifted.noise_power)))
        diff_db = abs(10 * math.log10(ps.sjnr_linear) - 10 * math.log10(grid_best))
        assert diff_db <= 1e-3, f"run {run}: grid mismatch {diff_db:.2e} dB"


def test_c05_sdp_certificates_and_analytic_cases():
    from risjam import solve_unit_diag_sdp

    rng = np.random.default_rng(505)
    for run in range(50):
        n = int(rng.integers(2, 31))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = (m + m.conj().T) / 2
        sol = solve_unit_diag_sdp(c, tol=1e-6)
        assert sol.converged, f"run {run} (n={n}) did not certify"
        assert sol.duality_gap_estimate <= 1e-6 * (1 + abs(sol.objective)) * (1 + 1e-12)
        x = sol.x_opt
        assert np.max(np.abs(np.diag(x) - 1.0)) <= 1e-8
        eigs = np.linalg.eigvalsh(x)
        assert eigs.min() >= -1e-8 * max(1.0, eigs.max())
    real_exchange = solve_unit_diag_sdp(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=1e-10)
    assert abs(real_exchange.objective - 2.0) <= 1e-8
    complex_exchange = solve_unit_diag_sdp(np.array([[0.0, 1j], [-1j, 0.0]]), tol=1e-10)
    assert abs(complex_exchange.objective - 2.0) <= 1e-8


@pytest.mark.parametrize("k_rows,k_cols", [(2, 2), (4, 4), (8, 8)])
def test_c06_no_jammer_coherent_alignment_closed_form(k_rows, k_cols):
    sc = dataclasses.replace(
        default_scenario(k_rows=k_rows, k_cols=k_cols), p_jam=0.0
    )
    ch = build_channel_set(sc)
    coherent = (
        abs(ch.h_tx_ue) + float(np.sum(np.abs(ch.h_ris_ue) * np.abs(ch.h_tx_ris)))
    ) ** 2
    bound = sc.p_tx_max * coherent / sc.noise_power
    res = optimize(sc, seed=0)
    rel = abs(res.final_report.sjnr_linear - bound) / bound
    assert rel <= 1e-6, f"K={k_rows*k_cols}: relative error {rel:.2e}"


def test_c07_figure_sweeps_reproduce_trends():
    budgets = {}

    t0 = time.perf_counter()
    rows2 = run_sweep(fig2_spec(seed=0))
    budgets["leo"] = time.perf_counter() - t0
    for k in (9, 25, 100):
        vals = [r.sjnr_db for r in optimized_rows(rows2, k)]
        assert len(vals) == 10
        assert all(b < a for a, b in zip(vals, vals[1:])), (
            f"transmitter-distance sweep not strictly decreasing for K={k}: {vals}"
        )

    t0 = time.perf_counter()
    rows3 = run_sweep(fig3_spec(seed=0))
    budgets["ris"] = time.perf_counter() - t0
    far_end = []
    for k in (9, 25, 100):
        vals = [r.sjnr_db for r in optimized_rows(rows3, k)]
        assert all(b < a for a, b in zip(vals, vals[1:])), (
            f"surface-distance sweep not strictly decreasing for K={k}: {vals}"
        )
        far_end.append(vals[-1])
    assert max(far_end) - min(far_end) < 1.0, (
        f"far-end spread across K is {max(far_end) - min(far_end):.3f} dB"
    )

    t0 = time.perf_counter()
    rows4 = run_sweep(fig4_spec(seed=0))
    budgets["elements"] = time.perf_counter() - t0
    gaps = []
    for k in [n * n for n in range(2, 11)]:
        opt = next(r for r in rows4 if r.method == "optimized" and r.k == k)
        ident = next(r for r in rows4 if r.method == "identity" and r.k == k)
        gaps.append(opt.sjnr_db - ident.sjnr_db)
    assert all(b >= a - 1e-6 for a, b in zip(gaps, gaps[1:])), (
        f"optimization gain not nondecreasing in element count: {gaps}"
    )

    for name, elapsed in budgets.items():
        assert elapsed < 600.0, f"{name} sweep took {elapsed:.1f}s"


def test_c08_direct_path_value_against_scalar_oracle():
    sc = default_scenario(ris_enabled=False)
    report = evaluate(sc)
    # hand evaluation with the rounded noise figure used in the link budget
    rho = 10 ** (-55 / 10)
    hand = (100.0 * rho / 500e3**2) / (1000.0 * rho / 35786e3**2 + 5.0119e-15)
    assert abs(report.sjnr_linear - hand) / hand <= 1e-3
    assert report.sjnr_linear == pytest.approx(0.2524, rel=1e-3)
    assert report.sjnr_db == pytest.approx(-5.98, abs=5e-3)
    # full-precision pin of the shipped constant
    assert report.sjnr_linear == pytest.approx(0.25225865249455076, rel=1e-12)


def test_c09_optimize_and_sweep_byte_identical(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({}))

    assert main(["optimize", "--config", str(config), "--seed", "13"]) == 0
    first = capsys.readouterr().out
    assert main(["optimize", "--config", str(config), "--seed", "13"]) == 0
    second = capsys.readouterr().out
    assert first == second and first

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--figure", "fig4", "--config", str(config),
            "--out", "", "--ris-sizes", "2x2,3x3", "--seed", "21"]
    argv[6] = str(a)
    assert main(argv) == 0
    argv[6] = str(b)
    assert main(argv) == 0
    capsys.readouterr()
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert data.decode().splitlines()[0] == CSV_HEADER


def test_c10_hundred_element_optimize_within_budget():
    # lifted problem order is K + 1 = 101; default 200 extraction draws
    sc = default_scenario(k_rows=10, k_cols=10)
    t0 = time.perf_counter()
    res = optimize(sc, seed=0)
    elapsed = time.perf_counter() - t0
    assert res.converged
    assert res.final_report.sjnr_linear <= res.sdp_bound * (1 + 1e-6)
    assert elapsed <= 60.0, f"K=100 optimize took {elapsed:.1f}s"
