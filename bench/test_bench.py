"""Tests of the benchmark itself: each check rejects a corrupted result, and
self time is computed right on a hand-built span tree.

    python3 -m pytest -q bench/test_bench.py
"""
import dataclasses
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import risjam  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """A K = 3 corpus scenario solved once: (scenario, channels, result)."""
    rng = np.random.default_rng(3)
    sc = next(s for s in (workloads.draw_scenario(rng) for _ in range(50)) if s.num_elements == 3)
    res = risjam.optimize(sc, seed=0)
    return sc, risjam.build_channel_set(sc), res


def solve_errors(solved, thetas=None, bound=None):
    sc, ch, res = solved
    thetas = res.phases.thetas if thetas is None else thetas
    bound = res.sdp_bound if bound is None else bound
    return checks.check_solve(sc, ch, thetas, res.p_tx, res.final_report.sjnr_linear, bound)


def test_untouched_result_passes(solved):
    sc, ch, res = solved
    assert solve_errors(solved) == []
    assert checks.check_grid(sc, ch, res.final_report.sjnr_linear, res.sdp_bound) == []


def test_own_sjnr_matches_program(solved):
    sc, ch, res = solved
    own = checks.sjnr_linear(ch, res.phases.thetas, res.p_tx, sc.p_jam, sc.noise_power)
    assert own == pytest.approx(risjam.evaluate(sc, res.phases).sjnr_linear, rel=1e-12)


def test_perturbed_phases_rejected(solved):
    _, _, res = solved
    thetas = res.phases.thetas + np.array([0.3, 0.0, 0.0])
    assert any("phases give" in e for e in solve_errors(solved, thetas=thetas))


def test_lowered_bound_rejected(solved):
    _, _, res = solved
    low = res.final_report.sjnr_linear * (1.0 - 1e-3)
    assert any("certified bound" in e for e in solve_errors(solved, bound=low))


def test_grid_rejects_poor_optimum_and_low_bound(solved):
    sc, ch, res = solved
    opt = res.final_report.sjnr_linear
    assert checks.check_grid(sc, ch, opt * 0.9, res.sdp_bound)  # 0.46 dB short
    assert checks.check_grid(sc, ch, opt, opt * 0.9)


def test_identity_above_optimum_rejected(solved):
    sc, ch, res = solved
    worst = np.pi - np.angle(np.conj(ch.h_ris_ue) * ch.h_tx_ris) + np.angle(ch.h_tx_ue)
    sjnr = float(checks.sjnr_linear(ch, worst, res.p_tx, sc.p_jam, sc.noise_power))
    errors = checks.check_solve(sc, ch, worst, res.p_tx, sjnr, res.sdp_bound)
    assert any("below identity" in e for e in errors)


def test_no_jammer_closed_form():
    sc = dataclasses.replace(risjam.default_scenario(k_rows=2, k_cols=2), p_jam=0.0)
    ch = risjam.build_channel_set(sc)
    res = risjam.optimize(sc, seed=0)
    assert checks.check_no_jammer(sc, ch, res.final_report.sjnr_linear) == []
    assert checks.check_no_jammer(sc, ch, res.final_report.sjnr_linear * 0.999)


@pytest.fixture(scope="module")
def sweep_csv():
    """A fig4 sweep over 2x2..4x4 and the benchmark's own identity SJNRs."""
    spec = risjam.fig4_spec(seed=0)
    spec = dataclasses.replace(spec, grid=spec.grid[:3], ris_sizes=spec.ris_sizes[:3])
    text = risjam.format_csv_rows(risjam.run_sweep(spec))
    ident = {}
    for n in (2, 3, 4):
        sc = risjam.default_scenario(k_rows=n, k_cols=n)
        ch = risjam.build_channel_set(sc)
        ident[n * n] = checks.db(float(checks.sjnr_linear(ch, np.zeros(n * n), sc.p_tx_max,
                                                          sc.p_jam, sc.noise_power)))
    return text, ident


def flat(errors):
    return [e for errs in errors.values() for e in errs]


def test_sweep_csv_passes(sweep_csv):
    text, ident = sweep_csv
    assert flat(checks.check_sweep(text, (4, 9, 16), ident)) == []


def test_sweep_dropped_row_rejected(sweep_csv):
    text, ident = sweep_csv
    lines = text.splitlines()
    dropped = "\n".join(line for line in lines if not line.startswith("9,9,random_mean")) + "\n"
    errors = checks.check_sweep(dropped, (4, 9, 16), ident)
    assert errors[9] and not errors[4] and not errors[16]


def test_sweep_header_bound_and_trend_rejected(sweep_csv):
    text, ident = sweep_csv
    assert checks.check_sweep(text.replace("sdp_bound_db", "bound_db"), (4, 9, 16), ident)[None]
    lines = text.splitlines()
    i = next(j for j, line in enumerate(lines) if line.startswith("16,16,optimized"))
    fields = lines[i].split(",")
    fields[4] = f"{float(fields[3]) - 0.01:.4f}"  # bound below the optimized value
    lowered = lines[:i] + [",".join(fields)] + lines[i + 1:]
    assert checks.check_sweep("\n".join(lowered), (4, 9, 16), ident)[16]
    fields = lines[i].split(",")
    fields[3] = f"{float(fields[3]) - 0.005:.4f}"  # gain at K=16 below the gain at K=9
    fields[4] = fields[3]
    shrunk = lines[:i] + [",".join(fields)] + lines[i + 1:]
    assert any("gain falls" in e for e in checks.check_sweep("\n".join(shrunk), (4, 9, 16),
                                                            ident)[None])


def test_sweep_exit_3_still_checks_csv(sweep_csv, tmp_path, monkeypatch):
    text, _ = sweep_csv
    dropped = "\n".join(line for line in text.splitlines()
                        if not line.startswith("9,9,random_mean")) + "\n"

    def main(argv):  # writes its CSV, then reports a point that did not converge
        with open(argv[argv.index("--out") + 1], "w") as fh:
            fh.write(dropped)
        return 3

    monkeypatch.setattr(risjam.cli, "main", main)
    monkeypatch.setattr(workloads.Sweep, "anchor_spec", ())
    work = workloads.Sweep(0, str(tmp_path))
    timed = work.round()
    work.finish(timed)
    errors = {op.k: op.errors for op in timed}
    assert all("sweep exited with 3" in errs for errs in errors.values())
    assert any("methods" in e for e in errors[9]) and not any("methods" in e for e in errors[4])


def test_hd_quantile():
    x = np.random.default_rng(0).exponential(size=2000)
    # 3.0775591 is scipy.stats.mstats.hdquantiles(x, [0.95]) on the same sample
    assert workloads.hd_quantile(x, 0.95) == pytest.approx(3.0775591, rel=1e-6)
    assert workloads.hd_quantile([1.0, 2.0], 0.5) == pytest.approx(1.5)
    assert workloads.hd_quantile([0.25] * 7, 0.95) == pytest.approx(0.25)


def test_self_time_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S(1, 0, "root", 0, 0, 0.0, 10.0),
        S(2, 1, "a", 0, 0, 1.0, 4.0),
        S(3, 2, "a.leaf", 0, 0, 2.0, 3.0),
        S(4, 1, "b", 0, 0, 5.0, 9.0),
        S(5, 4, "b.leaf", 0, 0, 5.0, 6.0),
        S(6, 4, "b.leaf", 0, 0, 7.5, 9.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5, 5: 1.0, 6: 1.5})


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [S(1, 0, "p", 0, 0, 0.0, 4.0), S(2, 1, "c", 0, 0, 0.5, 2.5),
             S(3, 1, "c", 1, 0, 1.5, 3.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(1.5)


def test_tracer_records_and_restores():
    tracer = tracing.Tracer()
    original = risjam.optimizer.solve_fractional_sdp
    eigh = np.linalg.eigh
    tracer.install()
    try:
        assert risjam.optimizer.solve_fractional_sdp is not original
        risjam.optimize(risjam.default_scenario(k_rows=2, k_cols=2), seed=0)
    finally:
        tracer.uninstall()
    assert risjam.optimizer.solve_fractional_sdp is original and np.linalg.eigh is eigh
    spans = tracer.spans()
    root = [s for s in spans if s.name == tracing.OPTIMIZE]
    assert len(root) == 1 and all(s.opt == root[0].id for s in spans)
    m = tracing.layer_metrics(spans, 1)
    assert m["sdp_core.eigh.calls"] > 0 and m["sdp_core.eigh.n3"] == pytest.approx(
        125 * m["sdp_core.eigh.calls"])
    assert m["sdp_core.dinkelbach_steps"] >= 1 and m["optimizer.optimize_phases.calls"] >= 1
