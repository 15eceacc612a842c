"""Effective gains and the SJNR report."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from risjam import (
    PhaseConfig,
    ValidationError,
    build_channel_set,
    default_scenario,
    effective_gains,
    evaluate,
    identity_phases,
    sjnr,
)
from risjam.channel import TWO_PI, ChannelSet
from risjam.link import EffectiveGains

from conftest import make_random_scenario

ANGLE = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)


def manual_gains(ch: ChannelSet, pc: PhaseConfig):
    phasors = pc.unit_phasors()
    g_tx = abs(ch.h_tx_ue + np.sum(np.conj(ch.h_ris_ue) * phasors * ch.h_tx_ris)) ** 2
    g_jam = abs(ch.h_jam_ue + np.sum(np.conj(ch.h_ris_ue) * phasors * ch.h_jam_ris)) ** 2
    return g_tx, g_jam


class TestEffectiveGains:
    def test_against_manual_sum(self):
        sc = default_scenario()
        ch = build_channel_set(sc)
        pc = PhaseConfig(np.linspace(0.1, 2.0, sc.num_elements))
        g = effective_gains(ch, pc)
        expected_tx, expected_jam = manual_gains(ch, pc)
        assert g.gamma_tx == pytest.approx(expected_tx, rel=1e-12)
        assert g.delta_jam == pytest.approx(expected_jam, rel=1e-12)

    def test_identity_phases_default_value(self):
        sc = default_scenario()
        g = effective_gains(build_channel_set(sc), identity_phases(9))
        got = sjnr(g, sc.p_tx_max, sc.p_jam, sc.noise_power)
        assert got.sjnr_linear == pytest.approx(0.25217796446152035, rel=1e-12)

    def test_ris_disabled_gives_direct_gains(self):
        sc = default_scenario(ris_enabled=False)
        ch = build_channel_set(sc)
        g = effective_gains(ch, PhaseConfig(np.linspace(0.3, 5.0, sc.num_elements)))
        assert g.gamma_tx == abs(ch.h_tx_ue) ** 2
        assert g.delta_jam == abs(ch.h_jam_ue) ** 2


class TestSjnr:
    def test_direct_only_frozen_value(self):
        sc = default_scenario(ris_enabled=False)
        report = evaluate(sc)
        # independent recomputation: P*rho/d_tx^2 / (Pj*rho/d_jam^2 + noise)
        num = 100.0 * sc.rho / (500e3) ** 2
        den = 1000.0 * sc.rho / (35786e3) ** 2 + sc.noise_power
        assert report.sjnr_linear == pytest.approx(num / den, rel=1e-12)
        assert report.sjnr_linear == pytest.approx(0.25225865249455076, rel=1e-12)
        assert report.sjnr_db == pytest.approx(-5.981539284956421, rel=1e-12)

    def test_no_jammer_reduces_to_snr(self):
        sc = default_scenario(ris_enabled=False)
        g = effective_gains(build_channel_set(sc), identity_phases(9))
        report = sjnr(g, sc.p_tx_max, 0.0, sc.noise_power)
        assert report.jam_w == 0.0
        assert report.sjnr_linear == pytest.approx(
            sc.p_tx_max * g.gamma_tx / sc.noise_power, rel=1e-12
        )

    def test_linearity_in_transmit_power(self):
        sc = default_scenario(ris_enabled=False)
        g = effective_gains(build_channel_set(sc), identity_phases(9))
        r1 = sjnr(g, 10.0, sc.p_jam, sc.noise_power)
        r2 = sjnr(g, 30.0, sc.p_jam, sc.noise_power)
        assert r2.sjnr_linear == pytest.approx(3.0 * r1.sjnr_linear, rel=1e-12)

    def test_rejects_bad_powers(self):
        g = EffectiveGains(1.0, 1.0)
        with pytest.raises(ValidationError):
            sjnr(g, -1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            sjnr(g, 1.0, -1.0, 1.0)
        with pytest.raises(ValidationError):
            sjnr(g, 1.0, 1.0, 0.0)

    def test_zero_signal_reports_neg_inf_db(self):
        report = sjnr(EffectiveGains(0.0, 1.0), 1.0, 1.0, 1.0)
        assert report.sjnr_linear == 0.0
        assert report.sjnr_db == -math.inf


class TestSjnrReport:
    def test_json_dict_fields(self):
        report = evaluate(default_scenario())
        d = report.to_json_dict()
        assert set(d) == {"sjnr_linear", "sjnr_db", "signal_w", "jam_w", "noise_w"}
        assert d["sjnr_linear"] == report.sjnr_linear


class TestEvaluate:
    def test_defaults_to_identity_and_power_cap(self):
        sc = default_scenario()
        a = evaluate(sc)
        g = effective_gains(build_channel_set(sc), identity_phases(sc.num_elements))
        b = sjnr(g, sc.p_tx_max, sc.p_jam, sc.noise_power)
        assert a.sjnr_linear == b.sjnr_linear

    def test_wrong_phase_count_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(default_scenario(), identity_phases(5))

    @given(st.lists(ANGLE, min_size=4, max_size=4), st.floats(0.0, TWO_PI - 1e-9))
    def test_global_phase_shift_changes_sjnr_continuously(self, thetas, shift):
        # a common shift on all elements is NOT an invariance (the direct path
        # keeps its phase), but the SJNR must stay within the coherent bounds
        sc = make_random_scenario(np.random.default_rng(3), k_rows=2, k_cols=2)
        ch = build_channel_set(sc)
        report = evaluate(sc, PhaseConfig(np.mod(np.array(thetas) + shift, TWO_PI)))
        cap_tx = (abs(ch.h_tx_ue) + np.sum(np.abs(np.conj(ch.h_ris_ue) * ch.h_tx_ris))) ** 2
        cap = sc.p_tx_max * cap_tx / sc.noise_power
        assert 0.0 <= report.sjnr_linear <= cap * (1 + 1e-9)

    def test_scenario_power_override(self):
        sc = default_scenario()
        half = evaluate(dataclasses.replace(sc, p_tx_max=sc.p_tx_max / 2))
        full = evaluate(sc)
        assert full.sjnr_linear == pytest.approx(2 * half.sjnr_linear, rel=1e-12)
