"""Lifting, power step, phase subproblem, and the joint optimization."""
import dataclasses
import math

import numpy as np
import pytest

from risjam import (
    OptimizerSettings,
    PhaseConfig,
    ValidationError,
    build_channel_set,
    default_scenario,
    evaluate,
    identity_phases,
    lift,
    optimize,
    optimize_phases,
    optimize_power,
)
from risjam.channel import TWO_PI
from risjam.link import EffectiveGains

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
    def test_returns_the_cap(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = EffectiveGains(float(rng.uniform(0, 1e-10)), float(rng.uniform(0, 1e-10)))
            p = float(rng.uniform(1e-3, 1e4))
            assert optimize_power(g, p) == p

    def test_rejects_bad_cap(self):
        with pytest.raises(ValidationError):
            optimize_power(EffectiveGains(1.0, 1.0), 0.0)
        with pytest.raises(ValidationError):
            optimize_power(EffectiveGains(1.0, 1.0), math.inf)

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
    def test_trace_starts_at_identity_baseline(self):
        sc = default_scenario()
        res = optimize(sc, seed=0)
        assert res.sjnr_trace[0].sjnr_linear == evaluate(sc).sjnr_linear

    def test_trace_nondecreasing_and_bounded(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            sc = make_random_scenario(rng)
            res = optimize(sc, seed=1)
            vals = [r.sjnr_linear for r in res.sjnr_trace]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= res.sdp_bound * (1 + 1e-6)
            assert res.outer_iterations == len(res.sjnr_trace) - 1

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
    def test_json_trace_toggle(self):
        res = optimize(default_scenario(), seed=0)
        with_trace = res.to_json_dict(include_trace=True)
        without = res.to_json_dict(include_trace=False)
        assert "sjnr_trace" in with_trace
        assert "sjnr_trace" not in without
        assert without["sjnr_linear"] == res.final_report.sjnr_linear
        assert without["seed"] == 0


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
