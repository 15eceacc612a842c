"""Subcommand behavior, exit codes, and output reproducibility."""
import json
from pathlib import Path

import numpy as np
import pytest

from risjam import CSV_HEADER, default_scenario, evaluate, linear_to_db
from risjam.channel import PhaseConfig
from risjam.cli import main

from conftest import make_stall_scenario

FIG4_SEED0 = Path(__file__).parent / "data" / "fig4_seed0.csv"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k_rows": 2, "k_cols": 2}))
    return str(path)


@pytest.fixture
def stall_config_path(tmp_path):
    sc = make_stall_scenario()
    path = tmp_path / "stall.json"
    path.write_text(json.dumps({
        "pos_tx_m": [sc.pos_tx.x, sc.pos_tx.y, sc.pos_tx.z],
        "pos_jam_m": [sc.pos_jam.x, sc.pos_jam.y, sc.pos_jam.z],
        "pos_ris_m": [sc.pos_ris.x, sc.pos_ris.y, sc.pos_ris.z],
        "pos_ue_m": [sc.pos_ue.x, sc.pos_ue.y, sc.pos_ue.z],
        "p_tx_dbw": linear_to_db(sc.p_tx_max),
        "p_jam_dbw": linear_to_db(sc.p_jam),
        "rho_db": linear_to_db(sc.rho),
        "k_rows": sc.k_rows,
        "k_cols": sc.k_cols,
    }))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_default_phases(self, capsys, config_path):
        code, out, err = run_cli(capsys, ["eval", "--config", config_path])
        assert code == 0
        report = json.loads(out)
        sc = default_scenario(k_rows=2, k_cols=2)
        assert report["sjnr_linear"] == evaluate(sc).sjnr_linear
        assert err == ""

    def test_explicit_phases_list(self, capsys, config_path, tmp_path):
        phases = [0.3, 1.1, 2.9, 0.0]
        ppath = tmp_path / "phases.json"
        ppath.write_text(json.dumps(phases))
        code, out, _ = run_cli(
            capsys, ["eval", "--config", config_path, "--phases", str(ppath)]
        )
        assert code == 0
        sc = default_scenario(k_rows=2, k_cols=2)
        expected = evaluate(sc, PhaseConfig(np.array(phases))).sjnr_linear
        assert json.loads(out)["sjnr_linear"] == expected

    def test_phases_object_form(self, capsys, config_path, tmp_path):
        ppath = tmp_path / "phases.json"
        ppath.write_text(json.dumps({"phases_rad": [0.0, 0.0, 0.0, 0.0]}))
        code, out, _ = run_cli(
            capsys, ["eval", "--config", config_path, "--phases", str(ppath)]
        )
        assert code == 0

    def test_dump_channels(self, capsys, config_path, tmp_path):
        dump = tmp_path / "channels.json"
        code, _, _ = run_cli(
            capsys, ["eval", "--config", config_path, "--dump-channels", str(dump)]
        )
        assert code == 0
        data = json.loads(dump.read_text())
        assert data["num_elements"] == 4
        assert len(data["h_tx_ris"]) == 4

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["eval", "--config", str(tmp_path / "no.json")])
        assert code == 2
        assert "error:" in err

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"k_rows": 0}))
        code, _, err = run_cli(capsys, ["eval", "--config", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"p_tx_dbw": "abc"}, "p_tx_dbw"),
            ({"p_tx_dbw": None}, "p_tx_dbw"),
            ({"p_tx_dbw": 4000}, "p_tx_dbw"),
            ({"pos_tx_m": ["a", 0, 0]}, "pos_tx_m"),
            ({"ris_enabled": "no"}, "ris_enabled"),
            ({"k_rows": 3.7}, "k_rows"),
            ({"k_rows": True}, "k_rows"),
            ({"p_tx_dbw": True}, "p_tx_dbw"),
            ({"p_tx_dbw": "20"}, "p_tx_dbw"),
            ({"pos_tx_m": ["0", 0, 5e5]}, "pos_tx_m"),
        ],
    )
    def test_bad_config_value_exits_2(self, capsys, tmp_path, config, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, ["eval", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and key in err

    def test_non_numeric_phases_exit_2(self, capsys, config_path, tmp_path):
        ppath = tmp_path / "phases.json"
        for phases in (["a"], [0.0, 0.0, 0.0, True], [0.0, 0.0, 0.0, "1.5"], [0.0, None, 0.0, 0.0]):
            ppath.write_text(json.dumps(phases))
            code, out, err = run_cli(
                capsys, ["eval", "--config", config_path, "--phases", str(ppath)]
            )
            assert code == 2, phases
            assert out == ""
            assert err.startswith("error:") and "phases" in err

    def test_wrong_phase_count_exits_2(self, capsys, config_path, tmp_path):
        ppath = tmp_path / "phases.json"
        ppath.write_text(json.dumps([0.0, 0.0]))
        code, _, err = run_cli(
            capsys, ["eval", "--config", config_path, "--phases", str(ppath)]
        )
        assert code == 2

    def test_malformed_phases_exits_2(self, capsys, config_path, tmp_path):
        ppath = tmp_path / "phases.json"
        ppath.write_text("{\"wrong_key\": 3}")
        code, _, _ = run_cli(
            capsys, ["eval", "--config", config_path, "--phases", str(ppath)]
        )
        assert code == 2

    def test_thetas_rad_key_exits_2(self, capsys, config_path, tmp_path):
        ppath = tmp_path / "phases.json"
        ppath.write_text(json.dumps({"thetas_rad": [0.0, 0.0, 0.0, 0.0]}))
        code, out, err = run_cli(
            capsys, ["eval", "--config", config_path, "--phases", str(ppath)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "phases_rad" in err

    @pytest.mark.parametrize("command", ["eval", "optimize"])
    @pytest.mark.parametrize(
        "config, key", [({"alpha_direct": -200}, "alpha_direct"), ({"alpha_ris": -300}, "alpha_ris")]
    )
    def test_overflowing_path_loss_exits_2(self, capsys, tmp_path, command, config, key):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("command", ["eval", "optimize"])
    @pytest.mark.parametrize(
        "config, key", [({"alpha_direct": 300}, "alpha_direct"), ({"alpha_ris": 300}, "alpha_ris")]
    )
    def test_underflowing_path_loss_exits_2(self, capsys, tmp_path, command, config, key):
        # a zero path gain printed "sjnr_db": -Infinity with exit 0
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and key in err and "underflows" in err


class TestOptimize:
    def test_success_and_payload(self, capsys, config_path):
        code, out, _ = run_cli(
            capsys, ["optimize", "--config", config_path, "--seed", "4"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["seed"] == 4
        assert len(payload["phases_rad"]) == 4
        assert payload["sjnr_linear"] <= payload["sdp_bound_linear"] * (1 + 1e-9)
        assert "sjnr_trace" not in payload

    def test_settings_keys(self, capsys, config_path):
        _, out, _ = run_cli(capsys, ["optimize", "--config", config_path])
        assert set(json.loads(out)["settings"]) == {"inner_max_iters"}

    def test_byte_identical_reruns(self, capsys, config_path):
        _, out_a, _ = run_cli(capsys, ["optimize", "--config", config_path, "--seed", "7"])
        _, out_b, _ = run_cli(capsys, ["optimize", "--config", config_path, "--seed", "7"])
        assert out_a == out_b

    def test_dump_trace(self, capsys, config_path):
        # the flag is gone: argparse rejects it as a usage error
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", config_path, "--dump-trace"])
        assert exc.value.code == 2
        assert "--dump-trace" in capsys.readouterr().err

    def test_budget_exhaustion_exits_3_with_output(self, capsys, stall_config_path):
        code, out, _ = run_cli(
            capsys,
            ["optimize", "--config", stall_config_path, "--inner-max-iters", "1"],
        )
        assert code == 3
        payload = json.loads(out)  # partial result still printed
        assert payload["converged"] is False

    def test_bad_settings_exit_2(self, capsys, config_path):
        code, _, err = run_cli(
            capsys, ["optimize", "--config", config_path, "--inner-max-iters", "0"]
        )
        assert code == 2

    def test_negative_seed_exits_2(self, capsys, config_path):
        code, out, err = run_cli(capsys, ["optimize", "--config", config_path, "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert "seed" in err


class TestSweep:
    def test_small_sweep_writes_csv(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--figure", "fig2", "--config", config_path,
             "--out", str(out_csv), "--grid", "300000,500000",
             "--ris-sizes", "2x2", "--seed", "3"],
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        assert "wrote 6 rows" in out

    def test_rerun_is_byte_identical(self, capsys, config_path, tmp_path):
        args = ["sweep", "--figure", "fig3", "--config", config_path,
                "--out", "", "--grid", "20,40", "--ris-sizes", "2x2",
                "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args[6] = str(a)
        assert main(args) == 0
        args[6] = str(b)
        assert main(args) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_element_sweep_takes_sizes_not_grid(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--figure", "fig4", "--config", config_path,
             "--out", str(out_csv), "--ris-sizes", "1x2,2x2"],
        )
        assert code == 0
        ks = [line.split(",")[1] for line in out_csv.read_text().splitlines()[1:]]
        assert ks == ["2"] * 3 + ["4"] * 3

    def test_grid_override_on_element_sweep_rejected(self, capsys, config_path, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--figure", "fig4", "--config", config_path,
             "--out", str(tmp_path / "x.csv"), "--grid", "4,9"],
        )
        assert code == 2

    def test_nonconvergence_exits_3_but_writes(self, capsys, stall_config_path, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--figure", "fig4", "--config", stall_config_path,
             "--out", str(out_csv), "--ris-sizes", "5x5",
             "--inner-max-iters", "1"],
        )
        assert code == 3
        assert out_csv.exists()
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_unordered_element_counts_exit_2(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "x.csv"
        cases = (
            (["--figure", "fig4", "--ris-sizes", "5x5,2x2"], "5x5=25, 2x2=4"),
            (["--figure", "fig4", "--ris-sizes", "2x3,3x2"], "2x3=6, 3x2=6"),
            (["--figure", "fig2", "--grid", "300000", "--ris-sizes", "2x2,2x2"], "2x2=4, 2x2=4"),
        )
        for args, counts in cases:
            code, _, err = run_cli(
                capsys, ["sweep", *args, "--config", config_path, "--out", str(out_csv)]
            )
            assert code == 2
            assert "element counts" in err and counts in err
            assert "grid" not in err
            assert not out_csv.exists()

    def test_negative_seed_exits_2(self, capsys, config_path, tmp_path):
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys,
            ["sweep", "--figure", "fig4", "--config", config_path,
             "--out", str(out_csv), "--ris-sizes", "2x2", "--seed", "-1"],
        )
        assert code == 2
        assert out == ""
        assert "seed" in err
        assert not out_csv.exists()

    def test_malformed_sizes_exit_2(self, capsys, config_path, tmp_path):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--figure", "fig2", "--config", config_path,
             "--out", str(tmp_path / "x.csv"), "--ris-sizes", "3by3"],
        )
        assert code == 2

    def test_fig4_seed0_matches_committed_csv(self, capsys, tmp_path):
        config = tmp_path / "default.json"
        config.write_text("{}")
        out_csv = tmp_path / "fig4.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--figure", "fig4", "--config", str(config),
             "--out", str(out_csv), "--seed", "0"],
        )
        assert code == 0
        assert out_csv.read_bytes() == FIG4_SEED0.read_bytes()


class TestOracle:
    def test_small_exhaustive(self, capsys, config_path):
        code, out, _ = run_cli(
            capsys, ["oracle", "--config", config_path, "--levels", "4"]
        )
        assert code == 0
        payload = json.loads(out)
        sc = default_scenario(k_rows=2, k_cols=2)
        assert payload["sjnr_linear"] >= evaluate(sc).sjnr_linear

    def test_single_level_on_100_elements(self, capsys, tmp_path):
        path = tmp_path / "ris100.json"
        path.write_text(json.dumps({"k_rows": 10, "k_cols": 10}))
        code, out, _ = run_cli(capsys, ["oracle", "--config", str(path), "--levels", "1"])
        assert code == 0
        sc = default_scenario(k_rows=10, k_cols=10)
        assert json.loads(out)["sjnr_linear"] == evaluate(sc).sjnr_linear

    def test_budget_guard_exits_2(self, capsys, config_path):
        code, _, err = run_cli(
            capsys, ["oracle", "--config", config_path, "--levels", "100"]
        )
        assert code == 2


class TestParser:
    def test_unknown_subcommand_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_arg_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main(["eval"])

    def test_removed_loop_flags_exit_2(self, config_path):
        sweep = ["sweep", "--figure", "fig4", "--out", "unused.csv"]
        for argv in (["optimize", "--max-outer", "1"], ["optimize", "--epsilon", "1e-3"],
                     ["optimize", "--restarts", "2"], ["optimize", "--n-draws", "20"],
                     sweep + ["--max-outer", "1"], sweep + ["--epsilon", "1e-3"],
                     sweep + ["--n-draws", "20"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--config", config_path])
            assert exc.value.code == 2
