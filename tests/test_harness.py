"""Baselines, exhaustive oracle, sweep orchestration, and CSV output."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from risjam import (
    CSV_HEADER,
    OptimizerSettings,
    PhaseConfig,
    SweepSpec,
    ValidationError,
    baseline_identity,
    baseline_random_mean,
    build_channel_set,
    default_scenario,
    evaluate,
    fig2_spec,
    fig3_spec,
    fig4_spec,
    format_csv_rows,
    lift,
    linear_to_db,
    optimize_phases,
    oracle_exhaustive,
    run_sweep,
    write_sweep_csv,
)
from risjam.channel import TWO_PI
from risjam.harness import _scenario_at

from conftest import make_random_scenario

# fig4 at seed 0 with default settings, as format_csv_rows renders it.
FIG4_SEED0 = Path(__file__).parent / "data" / "fig4_seed0.csv"


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        variable="leo_distance",
        grid=(300e3, 600e3),
        ris_sizes=((2, 2),),
        base=default_scenario(),
        seed=5,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestBaselines:
    def test_identity_equals_evaluate(self):
        sc = default_scenario()
        assert baseline_identity(sc).sjnr_linear == evaluate(sc).sjnr_linear

    def test_random_mean_reproducible(self):
        sc = default_scenario()
        a = baseline_random_mean(sc, n_samples=50, seed=3)
        b = baseline_random_mean(sc, n_samples=50, seed=3)
        assert a.sjnr_linear == b.sjnr_linear

    def test_random_mean_against_manual_loop(self):
        sc = default_scenario(k_rows=1, k_cols=2)
        got = baseline_random_mean(sc, n_samples=40, seed=9)
        rng = np.random.default_rng(9)
        thetas = rng.uniform(0.0, TWO_PI, (40, 2))
        acc = [evaluate(sc, PhaseConfig(t)).sjnr_linear for t in thetas]
        assert got.sjnr_linear == pytest.approx(float(np.mean(acc)), rel=1e-12)

    def test_random_mean_with_ris_disabled_is_direct_value(self):
        sc = default_scenario(ris_enabled=False)
        got = baseline_random_mean(sc, n_samples=10, seed=0)
        assert got.sjnr_linear == pytest.approx(evaluate(sc).sjnr_linear, rel=1e-12)

    def test_random_mean_fields_are_sample_means(self):
        # RIS 1 m above the user at 0 dB reference gain: the cascade rivals the
        # direct path, so the mean SJNR differs from the ratio of mean powers
        sc = default_scenario(k_rows=2, k_cols=2, rho_db=0.0, pos_ris_m=[0.0, 0.0, 1.0])
        got = baseline_random_mean(sc, n_samples=30, seed=4)
        thetas = np.random.default_rng(4).uniform(0.0, TWO_PI, (30, 4))
        ch = build_channel_set(sc)
        cascade = np.exp(1j * thetas) * np.conj(ch.h_ris_ue)
        signal = sc.p_tx_max * np.abs(ch.h_tx_ue + cascade @ ch.h_tx_ris) ** 2
        jam = sc.p_jam * np.abs(ch.h_jam_ue + cascade @ ch.h_jam_ris) ** 2
        assert got.signal_w == pytest.approx(np.mean(signal), rel=1e-12)
        assert got.jam_w == pytest.approx(np.mean(jam), rel=1e-12)
        assert got.noise_w == sc.noise_power
        assert got.sjnr_linear == pytest.approx(np.mean(signal / (jam + sc.noise_power)), rel=1e-12)
        assert got.sjnr_db == linear_to_db(got.sjnr_linear)

    def test_random_mean_rejects_zero_samples(self):
        with pytest.raises(ValidationError):
            baseline_random_mean(default_scenario(), n_samples=0)

    @pytest.mark.parametrize("n_samples", [2.5, True])
    def test_random_mean_rejects_non_integer_samples(self, n_samples):
        with pytest.raises(ValidationError, match="n_samples"):
            baseline_random_mean(default_scenario(), n_samples=n_samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_random_mean_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            baseline_random_mean(default_scenario(), seed=seed)


class TestOracle:
    def test_single_level_is_identity(self):
        sc = default_scenario(k_rows=2, k_cols=2)
        assert oracle_exhaustive(sc, 1).sjnr_linear == evaluate(sc).sjnr_linear

    def test_single_level_past_64_elements(self):
        # a K-dimensional grid would exceed numpy's 64-dimension limit here
        sc = default_scenario(k_rows=10, k_cols=10)
        assert oracle_exhaustive(sc, 1) == evaluate(sc)

    def test_budget_guard(self):
        with pytest.raises(ValidationError):
            oracle_exhaustive(default_scenario(), 6)  # 6**9 > 1e6
        with pytest.raises(ValidationError):
            oracle_exhaustive(default_scenario(), 0)

    @pytest.mark.parametrize("levels", [2.5, True])
    def test_rejects_non_integer_levels(self, levels):
        # 2.5 used to search the 3-point grid 2 pi arange(2.5) / 2.5
        with pytest.raises(ValidationError, match="levels"):
            oracle_exhaustive(default_scenario(k_rows=1, k_cols=2), levels)

    def test_single_element_agrees_with_phase_subproblem(self):
        rng = np.random.default_rng(67)
        sc = make_random_scenario(rng, k_rows=1, k_cols=1)
        coarse = oracle_exhaustive(sc, 360)
        ps = optimize_phases(lift(build_channel_set(sc), sc), OptimizerSettings(), seed=1)
        assert ps.sjnr_linear >= coarse.sjnr_linear - abs(coarse.sjnr_linear) * 1e-3
        assert coarse.sjnr_linear <= ps.sdp_bound * (1 + 1e-9)

    def test_two_elements_against_manual_double_loop(self):
        sc = default_scenario(k_rows=1, k_cols=2)
        got = oracle_exhaustive(sc, 8)
        best = -math.inf
        for m1 in range(8):
            for m2 in range(8):
                pc = PhaseConfig(np.array([TWO_PI * m1 / 8, TWO_PI * m2 / 8]))
                best = max(best, evaluate(sc, pc).sjnr_linear)
        assert got.sjnr_linear == pytest.approx(best, rel=1e-12)

    def test_dominates_identity(self):
        sc = default_scenario(k_rows=2, k_cols=2)
        assert oracle_exhaustive(sc, 5).sjnr_linear >= evaluate(sc).sjnr_linear


class TestSweepSpec:
    def test_rejects_unknown_variable(self):
        with pytest.raises(ValidationError):
            small_spec(variable="carrier_frequency")

    def test_rejects_nonincreasing_grid(self):
        with pytest.raises(ValidationError):
            small_spec(grid=(600e3, 300e3))
        with pytest.raises(ValidationError):
            small_spec(grid=(300e3, 300e3))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            small_spec(grid=())
        with pytest.raises(ValidationError):
            small_spec(ris_sizes=())

    def test_rejects_equal_element_counts(self):
        for sizes in (((2, 2), (2, 2)), ((2, 3), (3, 2))):
            with pytest.raises(ValidationError, match="distinct element counts"):
                small_spec(ris_sizes=sizes)
            with pytest.raises(ValidationError, match="distinct element counts"):
                small_spec(variable="ris_distance", grid=(20.0, 40.0), ris_sizes=sizes)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            small_spec(seed=-1)

    def test_element_sweep_requires_matching_pairs(self):
        with pytest.raises(ValidationError):
            SweepSpec(
                variable="num_elements",
                grid=(4.0, 9.0),
                ris_sizes=((2, 2),),
                base=default_scenario(),
            )
        with pytest.raises(ValidationError):
            SweepSpec(
                variable="num_elements",
                grid=(5.0,),
                ris_sizes=((2, 2),),
                base=default_scenario(),
            )

    def test_element_grid_equals_counts_exactly(self):
        def spec(value):
            return SweepSpec(
                variable="num_elements", grid=(value,), ris_sizes=((2, 2),), base=default_scenario()
            )

        with pytest.raises(ValidationError, match="does not match"):
            spec(4.5)
        assert spec(4.0).grid == (4.0,)

    def test_points_cartesian_vs_paired(self):
        spec = small_spec(ris_sizes=((2, 2), (3, 3)))
        assert len(spec.points) == 4
        fig4 = fig4_spec()
        assert len(fig4.points) == 9
        assert fig4.points[0] == (4.0, (2, 2))

    def test_figure_specs_shapes(self):
        f2, f3 = fig2_spec(), fig3_spec()
        assert f2.variable == "leo_distance"
        assert f2.grid[0] == 300e3 and f2.grid[-1] == 1200e3 and len(f2.grid) == 10
        assert f3.variable == "ris_distance"
        assert f3.grid == tuple(float(v) for v in range(10, 101, 10))
        assert f2.ris_sizes == ((3, 3), (5, 5), (10, 10))

    @pytest.mark.parametrize(
        "spec_fn, moved",
        [(fig2_spec, "pos_tx.z"), (fig3_spec, "pos_ris.z"), (fig4_spec, None)],
    )
    def test_figure_points_change_only_their_coordinate(self, spec_fn, moved):
        def flat(sc):
            out = {}
            for key, value in dataclasses.asdict(sc).items():
                if isinstance(value, dict):
                    out.update({f"{key}.{axis}": v for axis, v in value.items()})
                else:
                    out[key] = value
            return out

        base = make_random_scenario(np.random.default_rng(71))
        spec = spec_fn(base=base)
        for value, size in spec.points:
            built = flat(_scenario_at(spec, value, size))
            expected = dict(flat(base), k_rows=size[0], k_cols=size[1])
            if moved is not None:
                expected[moved] = value
            assert built == expected


class TestRunSweep:
    def test_row_layout_and_order(self):
        spec = small_spec()
        rows = run_sweep(spec)
        assert len(rows) == 6
        assert [r.method for r in rows] == ["optimized", "identity", "random_mean"] * 2
        assert [r.variable_value for r in rows] == [300e3] * 3 + [600e3] * 3
        assert all(r.k == 4 for r in rows)

    def test_seeds_shared_within_point(self):
        rows = run_sweep(small_spec())
        assert rows[0].seed == rows[1].seed == rows[2].seed
        assert rows[0].seed != rows[3].seed

    def test_optimized_dominates_baselines(self):
        rows = run_sweep(small_spec())
        for i in range(0, len(rows), 3):
            opt, ident, rand = rows[i : i + 3]
            assert opt.sjnr_db >= ident.sjnr_db - 1e-6
            assert opt.sjnr_db >= rand.sjnr_db - 1e-6
            assert opt.sdp_bound_db >= opt.sjnr_db - 1e-6
            assert ident.sdp_bound_db is None and rand.sdp_bound_db is None

    def test_deterministic_rerun(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        assert format_csv_rows(a) == format_csv_rows(b)

    def test_runtime_column_zero_without_timing(self):
        rows = run_sweep(small_spec(), timing=False)
        assert all(r.runtime_ms == 0 for r in rows)

    def test_timing_populates_runtime(self):
        rows = run_sweep(small_spec(), timing=True)
        assert any(r.runtime_ms >= 0 for r in rows)

    def test_element_sweep_changes_k(self):
        spec = SweepSpec(
            variable="num_elements",
            grid=(1.0, 4.0),
            ris_sizes=((1, 1), (2, 2)),
            base=default_scenario(),
            seed=2,
        )
        rows = run_sweep(spec)
        assert [r.k for r in rows] == [1, 1, 1, 4, 4, 4]


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == "variable,K,method,sjnr_db,sdp_bound_db,runtime_ms,seed"
        rows = run_sweep(small_spec())
        text = format_csv_rows(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("\n")

    def test_baseline_rows_have_empty_bound(self):
        rows = run_sweep(small_spec())
        lines = format_csv_rows(rows).splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            assert len(cells) == 7
            if cells[2] in ("identity", "random_mean"):
                assert cells[4] == ""
            else:
                assert cells[4] != ""

    def test_file_roundtrip_bytes(self, tmp_path):
        rows = run_sweep(small_spec())
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(path))
        assert path.read_bytes() == format_csv_rows(rows).encode()

    def test_fig4_seed0_matches_committed_csv(self):
        text = format_csv_rows(run_sweep(fig4_spec(seed=0)))
        assert text.encode() == FIG4_SEED0.read_bytes()
