"""Lifting, power step, phase subproblem, and the joint optimization."""
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risjam import (
    OptimizerSettings,
    PhaseConfig,
    ValidationError,
    build_channel_set,
    default_scenario,
    evaluate,
    lift,
    optimize,
    optimize_phases,
)
import risjam
from risjam import optimizer, sdp_core
from risjam.channel import TWO_PI
from risjam.sdp_core import _TOL, _gap_closed

from conftest import make_random_scenario, make_stall_scenario

def candidate_from_phases(pc: PhaseConfig) -> np.ndarray:
    return np.concatenate([pc.unit_phasors(), [1.0 + 0.0j]])


class TestLift:
    def test_matches_link_path_for_random_phases(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            sc = make_random_scenario(rng)
            lifted = lift(build_channel_set(sc), sc)
            pc = PhaseConfig(rng.uniform(0, TWO_PI, sc.num_elements))
            via_lift = lifted.sjnr_of(candidate_from_phases(pc))
            via_link = evaluate(sc, pc).sjnr_linear
            assert via_lift == pytest.approx(via_link, rel=1e-12)

    def test_block_matches_per_column(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            sc = make_random_scenario(rng)
            lifted = lift(build_channel_set(sc), sc)
            block = np.stack(
                [
                    candidate_from_phases(PhaseConfig(rng.uniform(0, TWO_PI, sc.num_elements)))
                    for _ in range(9)
                ],
                axis=1,
            )
            got = lifted.sjnr_of(block)
            assert got.shape == (9,)
            for j in range(9):
                assert got[j] == pytest.approx(lifted.sjnr_of(block[:, j]), rel=1e-12)

    def test_order_is_elements_plus_one(self):
        sc = default_scenario(k_rows=2, k_cols=3)
        lifted = lift(build_channel_set(sc), sc)
        assert lifted.order == 7

    def test_single_element_closed_form(self):
        # K = 1: gamma(theta) = |h_d + conj(h_ru) e^{j theta} h_sr|^2
        sc = make_random_scenario(np.random.default_rng(23), k_rows=1, k_cols=1)
        ch = build_channel_set(sc)
        lifted = lift(ch, sc)
        for theta in np.linspace(0, TWO_PI, 17, endpoint=False):
            u = np.array([np.exp(1j * theta), 1.0])
            num = abs(ch.h_tx_ue + np.conj(ch.h_ris_ue[0]) * np.exp(1j * theta) * ch.h_tx_ris[0]) ** 2
            den = abs(ch.h_jam_ue + np.conj(ch.h_ris_ue[0]) * np.exp(1j * theta) * ch.h_jam_ris[0]) ** 2
            expected = sc.p_tx_max * num / (sc.p_jam * den + sc.noise_power)
            assert lifted.sjnr_of(u) == pytest.approx(expected, rel=1e-12)

    def test_element_count_mismatch_rejected(self):
        sc = default_scenario()
        ch = build_channel_set(default_scenario(k_rows=2, k_cols=2))
        with pytest.raises(ValidationError):
            lift(ch, sc)


class TestPowerStep:
    def test_sjnr_is_nondecreasing_in_power(self):
        # the property that justifies the power step
        sc = default_scenario()
        lo = evaluate(dataclasses.replace(sc, p_tx_max=1.0)).sjnr_linear
        hi = evaluate(sc).sjnr_linear
        assert hi >= lo


class TestPhaseSubproblem:
    def test_single_element_matches_dense_grid(self):
        rng = np.random.default_rng(41)
        sc = make_random_scenario(rng, k_rows=1, k_cols=1)
        lifted = lift(build_channel_set(sc), sc)
        ps = optimize_phases(lifted, OptimizerSettings(), seed=7)
        thetas = np.linspace(0, TWO_PI, 100_000, endpoint=False)
        grid = np.stack([np.exp(1j * thetas), np.ones_like(thetas, dtype=complex)], axis=1)
        f = np.abs(grid @ lifted.w_tx.conj()) ** 2
        g = np.abs(grid @ lifted.w_jam.conj()) ** 2
        best = float(np.max(lifted.p_tx * f / (lifted.p_jam * g + lifted.noise_power)))
        assert ps.sjnr_linear >= best - 1e-6 * abs(best)
        assert ps.sjnr_linear <= ps.sdp_bound * (1 + 1e-9)

    def test_two_elements_sandwiched_by_bound(self):
        rng = np.random.default_rng(43)
        sc = make_random_scenario(rng, k_rows=1, k_cols=2)
        lifted = lift(build_channel_set(sc), sc)
        ps = optimize_phases(lifted, OptimizerSettings(), seed=11)
        # exhaustive 256 x 256 quantization lower-bounds the continuous optimum
        axis = TWO_PI * np.arange(256) / 256
        t1, t2 = np.meshgrid(axis, axis, indexing="ij")
        u = np.stack(
            [np.exp(1j * t1.ravel()), np.exp(1j * t2.ravel()),
             np.ones(t1.size, dtype=complex)], axis=1)
        f = np.abs(u @ lifted.w_tx.conj()) ** 2
        g = np.abs(u @ lifted.w_jam.conj()) ** 2
        coarse = float(np.max(lifted.p_tx * f / (lifted.p_jam * g + lifted.noise_power)))
        assert ps.sjnr_linear >= coarse - 1e-4 * abs(coarse)
        assert coarse <= ps.sdp_bound * (1 + 1e-9)

    def test_reported_phases_reproduce_score(self):
        sc = default_scenario()
        lifted = lift(build_channel_set(sc), sc)
        ps = optimize_phases(lifted, OptimizerSettings(), seed=3)
        again = lifted.sjnr_of(candidate_from_phases(ps.phases))
        assert again == pytest.approx(ps.sjnr_linear, rel=1e-12)

    def test_never_below_either_anchor(self):
        # identity and the transmitter-aligned phases, also with a capped solve
        capped = OptimizerSettings(inner_max_iters=1)
        rng = np.random.default_rng(47)
        for i in range(8):
            sc = make_random_scenario(rng, **({"p_jam": 0.0} if i % 2 else {}))
            lifted = lift(build_channel_set(sc), sc)
            ps = optimize_phases(lifted, OptimizerSettings() if i < 4 else capped, seed=i)
            aligned = np.exp(1j * (np.angle(lifted.w_tx) - np.angle(lifted.w_tx[-1])))
            aligned[-1] = 1.0
            identity = np.ones(lifted.order, dtype=complex)
            floor = max(lifted.sjnr_of(identity), lifted.sjnr_of(aligned))
            assert ps.sjnr_linear >= floor * (1 - 1e-12)
            assert ps.sjnr_linear <= ps.sdp_bound


class TestAlternate:
    def test_trace_nondecreasing_and_bounded(self):
        # identity <= optimized <= certified bound
        rng = np.random.default_rng(53)
        for _ in range(5):
            sc = make_random_scenario(rng)
            res = optimize(sc, seed=1)
            final = res.final_report.sjnr_linear
            assert evaluate(sc).sjnr_linear <= final * (1 + 1e-12)
            assert final <= res.sdp_bound * (1 + 1e-6)

    def test_power_is_the_cap(self):
        sc = default_scenario()
        res = optimize(sc, seed=0)
        assert res.p_tx == sc.p_tx_max

    def test_ris_disabled_converges_immediately(self):
        sc = default_scenario(ris_enabled=False)
        res = optimize(sc, seed=0)
        assert res.converged
        assert res.outer_iterations == 1
        assert res.final_report.sjnr_linear == pytest.approx(
            0.25225865249455076, rel=1e-12
        )
        # every candidate ties, and identity wins ties
        assert np.array_equal(res.phases.thetas, np.zeros(sc.num_elements))

    def test_seed_determinism(self):
        sc = default_scenario()
        a = optimize(sc, seed=42)
        b = optimize(sc, seed=42)
        assert a.final_report.sjnr_linear == b.final_report.sjnr_linear
        assert np.array_equal(a.phases.thetas, b.phases.thetas)
        assert a.outer_iterations == b.outer_iterations

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            optimize(default_scenario(), seed=-1)

    def test_improves_on_identity(self):
        sc = default_scenario()
        res = optimize(sc, seed=0)
        assert res.final_report.sjnr_linear > evaluate(sc).sjnr_linear

    def test_exhausted_budget_reports_nonconvergence(self):
        sc = make_stall_scenario()
        res = optimize(sc, OptimizerSettings(inner_max_iters=1), seed=0)
        assert not res.converged
        assert res.outer_iterations == 1
        assert res.final_report.sjnr_linear <= res.sdp_bound * (1 + 1e-9)


class TestOptimize:
    def test_json_keys(self):
        res = optimize(default_scenario(), seed=0)
        out = res.to_json_dict()
        assert list(out) == [
            "phases_rad", "p_tx_w", "sjnr_linear", "sjnr_db", "sdp_bound_linear",
            "sdp_bound_db", "converged", "seed", "settings",
        ]
        assert out["sjnr_linear"] == res.final_report.sjnr_linear
        assert out["seed"] == 0


class TestSettings:
    def test_defaults_valid(self):
        s = OptimizerSettings()
        assert s.inner_max_iters == 20000

    def test_rejections(self):
        with pytest.raises(ValidationError):
            OptimizerSettings(inner_max_iters=0)

    @pytest.mark.parametrize("budget", [2.5, True])
    def test_rejects_non_integer_budget(self, budget):
        with pytest.raises(ValidationError, match="inner_max_iters"):
            OptimizerSettings(inner_max_iters=budget)


# Runs optimize on the pickled (scenario, settings) pairs read from stdin and
# reports, as JSON, each result's converged flag and whether numpy.random was
# imported before and after the solves.
_CHILD = """
import json, pickle, sys
import risjam
cases = pickle.loads(sys.stdin.buffer.read())
before = "numpy.random" in sys.modules
converged = [risjam.optimize(sc, settings, seed=0).converged for sc, settings in cases]
print(json.dumps({"before": before, "after": "numpy.random" in sys.modules,
                  "converged": converged}))
"""


def _run_child(cases) -> dict:
    src = str(Path(risjam.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=pickle.dumps(cases),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def _closed_form_bound(sc) -> float:
    """p_tx (sum |a_k|)^2 / (p_jam d^2 + N), d the least |b^H u| over unit-modulus u."""
    a, b = (np.abs(w) for w in build_channel_set(sc).gain_factors())
    d = max(0.0, 2.0 * float(b.max()) - float(b.sum()))
    return sc.p_tx_max * float(a.sum()) ** 2 / (sc.p_jam * d * d + sc.noise_power)


class TestCertifiedPick:
    """The Gaussian draws run only when the pick fails the certified-gap test."""

    def test_certified_solves_never_import_numpy_random(self):
        defaults = [default_scenario(k_rows=k, k_cols=k) for k in range(2, 11)]
        scenarios = defaults + [dataclasses.replace(sc, p_jam=0.0) for sc in defaults]
        cases = [(sc, OptimizerSettings()) for sc in scenarios]
        out = _run_child(cases)
        assert out["converged"] == [True] * len(cases)
        assert not out["before"]
        assert not out["after"]

    def test_uncertified_pick_runs_the_draws(self):
        # the capped stall instance stops uncertified, so its pick fails the test
        out = _run_child([(make_stall_scenario(), OptimizerSettings(inner_max_iters=1))])
        assert out["converged"] == [False]
        assert not out["before"]
        assert out["after"]

    def test_skipped_draws_are_seed_free_and_sandwiched(self, monkeypatch):
        # default sizes and broad draws, each also with the jammer off; the
        # closed form bounds the SJNR for any phases
        draws = []
        real = optimizer.extract_rank_one

        def counted(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(optimizer, "extract_rank_one", counted)
        rng = np.random.default_rng(61)
        defaults = [default_scenario(k_rows=k, k_cols=k) for k in range(2, 11)]
        broad = [make_random_scenario(rng) for _ in range(60)]
        skipped_broad = 0
        for i, sc in enumerate(defaults + broad):
            for case in (sc, dataclasses.replace(sc, p_jam=0.0)):
                n_draws = len(draws)
                res, other = optimize(case, seed=0), optimize(case, seed=1)
                if len(draws) > n_draws:
                    assert i >= len(defaults), "a default-size solve ran the draws"
                    continue
                skipped_broad += i >= len(defaults)
                a, b = res.to_json_dict(), other.to_json_dict()
                assert (a.pop("seed"), b.pop("seed")) == (0, 1)
                assert a == b
                s, bound = res.final_report.sjnr_linear, res.sdp_bound
                assert _gap_closed(bound, s)
                closed = _closed_form_bound(case)
                assert s <= bound
                assert s <= closed * (1.0 + 1e-9)
                # the certified bound sits within the skip test's slack of
                # the SJNR, so at most that slack above the closed form
                assert bound <= closed * (1.0 + 1e-9) + _TOL * (1.0 + abs(s))
        assert skipped_broad >= 100

    def test_seed_checked_even_when_certified(self):
        lifted = lift(build_channel_set(default_scenario()), default_scenario())
        with pytest.raises(ValidationError, match="seed"):
            optimize_phases(lifted, OptimizerSettings(), seed=-1)


class TestReportFromLift:
    """optimize reports its pick from lift's factors, with evaluate's arithmetic."""

    def test_final_report_equals_evaluate(self):
        rng = np.random.default_rng(1818)
        defaults = [default_scenario(k_rows=k, k_cols=k) for k in range(2, 11)]
        broad = [make_random_scenario(rng) for _ in range(40)]
        scenarios = (
            defaults
            + broad
            + [dataclasses.replace(sc, p_jam=0.0) for sc in broad]
            + [default_scenario(ris_enabled=False)]
        )
        for sc in scenarios:
            res = optimize(sc, seed=0)
            assert res.final_report == evaluate(sc, res.phases)


@pytest.fixture
def inner_iterations(monkeypatch):
    """The ADMM iterations of each inner solve run after set-up, in order."""
    steps = []
    solve = sdp_core.solve_unit_diag_sdp

    def counting_steps(c, **kwargs):
        sol = solve(c, **kwargs)
        steps.append(sol.iterations)
        return sol

    monkeypatch.setattr(sdp_core, "solve_unit_diag_sdp", counting_steps)
    return steps


class TestWorkBudget:
    """Work counts of the default K = 100 optimize and of the two-step solves.

    K = 100: measured on one x86-64 host with OpenBLAS 0.3.31, equal under
    1 and 2 BLAS threads: 650 ADMM steps, 0 solve, 18 eigh and 640 cholesky
    calls at order 101 (the 3x3 Ritz eigh calls, 198 and 243, are not
    counted).
    The counts depend on rounding, so another BLAS build may differ; an LU
    solve runs only when the 3x3 Ritz pair's residual exceeds 64 eps ||m||,
    and on the default 4x4...10x10 it was at most 1.2 eps ||m||. The
    cholesky bound holds on any host. Never raise a budget to let a slower
    change pass.
    """

    def test_default_k100_kernel_calls(self, monkeypatch, inner_iterations):
        order = 101
        calls = dict.fromkeys(("solve", "eigh", "cholesky"), 0)
        for name in calls:

            def counting(a, *args, _name=name, _original=getattr(np.linalg, name)):
                calls[_name] += a.shape[0] == order
                return _original(a, *args)

            monkeypatch.setattr(np.linalg, name, counting)
        assert optimize(default_scenario(k_rows=10, k_cols=10), seed=0).converged
        assert calls["solve"] == 0
        assert calls["eigh"] <= 20
        # every ADMM step without a dense eigh is certified by a factorization
        assert calls["cholesky"] >= sum(inner_iterations) - calls["eigh"]

    @pytest.mark.parametrize("draw", [175, 188, 199])
    def test_second_dinkelbach_step(self, inner_iterations, draw):
        # The two-step solves among the first 200 draws under default_rng(7)
        # (K <= 9; the only other multi-step one, draw 132, runs 4 capped
        # steps). Started at the incumbent, their second inner solve ran 16,
        # 50 and 25 ADMM iterations (1 and 2 BLAS threads); the budget is
        # twice the largest, two checkpoints or more above each.
        rng = np.random.default_rng(7)
        scenarios = [make_random_scenario(rng) for _ in range(draw + 1)]
        assert optimize(scenarios[draw], seed=draw).converged
        assert len(inner_iterations) == 2
        assert inner_iterations[1] <= 100
