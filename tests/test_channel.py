"""LoS channels, planar-array steering, phase configs, and the cascade sum.

The cascade sum is read through link.effective_gains and checked against
sums written out here.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from risjam import (
    PhaseConfig,
    Position3D,
    ValidationError,
    build_channel_set,
    default_scenario,
    identity_phases,
)
from risjam.channel import (
    TWO_PI,
    ChannelSet,
    direct_channel,
    ris_link_channel,
    steering_vector,
)
from risjam.link import effective_gains
from risjam.scenario import aoa_angles

from conftest import make_random_scenario

ANGLE = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)


class TestPhaseConfig:
    def test_normalization_to_principal_range(self):
        pc = PhaseConfig(np.array([-0.5, TWO_PI + 0.25, 12.0, 0.0]))
        assert np.all(pc.thetas >= 0.0)
        assert np.all(pc.thetas < TWO_PI)
        assert pc.thetas[0] == pytest.approx(TWO_PI - 0.5, rel=1e-14)
        assert pc.thetas[1] == pytest.approx(0.25, rel=1e-12)
        assert pc.thetas[3] == 0.0

    def test_tiny_negative_does_not_wrap_to_two_pi(self):
        pc = PhaseConfig(np.array([-1e-20]))
        assert 0.0 <= pc.thetas[0] < TWO_PI

    def test_identity(self):
        pc = identity_phases(4)
        assert pc.num_elements == 4
        assert np.array_equal(pc.thetas, np.zeros(4))
        assert np.array_equal(pc.unit_phasors(), np.ones(4, dtype=complex))

    @pytest.mark.parametrize("count", [0, True, 2.5, "3"])
    def test_identity_rejects_non_count(self, count):
        with pytest.raises(ValidationError, match="num_elements"):
            identity_phases(count)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            PhaseConfig(np.array([]))
        with pytest.raises(ValidationError):
            PhaseConfig(np.array([math.nan]))

    def test_thetas_read_only(self):
        pc = identity_phases(3)
        with pytest.raises(ValueError):
            pc.thetas[0] = 1.0

    @given(st.lists(ANGLE, min_size=1, max_size=8))
    def test_phasors_unit_modulus(self, thetas):
        ph = PhaseConfig(np.array(thetas)).unit_phasors()
        assert np.allclose(np.abs(ph), 1.0, atol=1e-12)


class TestDirectChannel:
    def test_magnitude_from_first_principles(self):
        sc = default_scenario()
        h = direct_channel(sc, sc.pos_tx, sc.pos_ue)
        d = 500e3
        assert abs(h) ** 2 == pytest.approx(sc.rho / d**2, rel=1e-12)
        assert abs(h) ** 2 == pytest.approx(1.2649110640673518e-17, rel=1e-12)

    def test_integer_wavelength_multiple_gives_positive_real(self):
        # 500 km is an exact multiple of a 0.1 m wavelength: zero residual phase
        sc = default_scenario(wavelength_m=0.1)
        h = direct_channel(sc, sc.pos_tx, sc.pos_ue)
        assert h.imag == pytest.approx(0.0, abs=abs(h) * 1e-7)
        assert h.real > 0

    def test_half_wavelength_offset_flips_sign(self):
        sc = default_scenario(wavelength_m=0.1)
        a = Position3D(0.0, 0.0, 100.0)
        b = Position3D(0.0, 0.0, 0.0)
        c = Position3D(0.0, 0.0, 100.05)
        ha = direct_channel(sc, a, b)
        hc = direct_channel(sc, c, b)
        assert abs(cmath.phase(ha / hc)) == pytest.approx(math.pi, abs=1e-7)

    def test_bulk_phase_value(self):
        sc = default_scenario()
        d = 500e3
        expected = math.sqrt(sc.rho) / d * cmath.exp(-1j * TWO_PI * d / sc.wavelength)
        h = direct_channel(sc, sc.pos_tx, sc.pos_ue)
        assert h == pytest.approx(expected, rel=1e-9)

    def test_exponent_changes_decay(self):
        sc3 = default_scenario(alpha_direct=3.0)
        h = direct_channel(sc3, sc3.pos_tx, sc3.pos_ue)
        assert abs(h) ** 2 == pytest.approx(sc3.rho / (500e3) ** 3, rel=1e-12)

    def test_doubling_distance_halves_magnitude(self):
        sc = default_scenario()
        near = direct_channel(sc, Position3D(0, 0, 1000.0), sc.pos_ue)
        far = direct_channel(sc, Position3D(0, 0, 2000.0), sc.pos_ue)
        assert abs(near) / abs(far) == pytest.approx(2.0, rel=1e-12)


class TestSteeringVector:
    def test_reference_element_is_unity(self):
        angles = aoa_angles(Position3D(3, 4, 12), Position3D(0, 0, 0))
        v = steering_vector(angles, 3, 3, 0.075, 0.15)
        assert v[0] == pytest.approx(1.0 + 0j, abs=1e-15)
        assert np.allclose(np.abs(v), 1.0, atol=1e-12)

    def test_kron_layout_row_major(self):
        # pure-x arrival: the column ramp is flat, so the phase pattern
        # repeats k_cols times per row step
        angles = aoa_angles(Position3D(100, 0, -100), Position3D(0, 0, 0))
        sin_vert, sin_horiz, cos_horiz = angles
        assert sin_horiz == 1.0 and cos_horiz == 0.0
        v = steering_vector(angles, 2, 2, 0.075, 0.15)
        # a_x = sin_vert*cos_horiz = 0 here, a_z = sin_vert*sin_horiz = sqrt(2)/2
        a_z = sin_vert
        phase = -TWO_PI * 0.075 / 0.15 * a_z
        expected = np.array([1, cmath.exp(1j * phase), 1, cmath.exp(1j * phase)])
        assert np.allclose(v, expected, atol=1e-12)

    def test_vertical_arrival_is_all_ones_step(self):
        # on-axis: a_x = sin_vert*1, a_z = 0 -> phase ramps along rows only
        angles = aoa_angles(Position3D(0, 0, 500e3), Position3D(0, 0, 50))
        v = steering_vector(angles, 2, 2, 0.075, 0.15)
        step = cmath.exp(-1j * math.pi)  # half-wavelength spacing, sin_vert = 1
        expected = np.array([1, 1, step, step])
        assert np.allclose(v, expected, atol=1e-12)


class TestRisLink:
    def test_default_leo_magnitude(self):
        sc = default_scenario()
        v = ris_link_channel(sc, sc.pos_tx)
        # d = 499950 m exactly on the shared axis
        expected = math.sqrt(sc.rho) / 499950.0
        assert np.allclose(np.abs(v), expected, rtol=1e-12)
        assert abs(v[0]) == pytest.approx(3.5569145115289986e-09, rel=1e-12)

    def test_element_count_matches_array(self):
        sc = default_scenario(k_rows=2, k_cols=5)
        assert ris_link_channel(sc, sc.pos_tx).shape == (10,)

    def test_bulk_phase_against_manual(self):
        sc = default_scenario()
        v = ris_link_channel(sc, sc.pos_ue)
        d = 50.0
        ref = math.sqrt(sc.rho) / d * cmath.exp(-1j * TWO_PI * d / sc.wavelength)
        assert v[0] == pytest.approx(ref, rel=1e-9)


def random_channels(rng, k) -> ChannelSet:
    def draw(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    return ChannelSet(complex(draw(1)[0]), complex(draw(1)[0]), draw(k), draw(k), draw(k))


def coherent_cap(h_d, h_ru, h_sr) -> float:
    """(|h_d| + sum_k |h_ru[k]| |h_sr[k]|)^2, the largest total gain over all phases."""
    return float(abs(h_d) + np.sum(np.abs(h_ru) * np.abs(h_sr))) ** 2


class TestCascade:
    def test_manual_three_element_sum(self):
        h_ru = np.array([1 + 1j, 2.0, -1j])
        h_tx = np.array([0.5, 1j, 1 + 0j])
        h_jam = np.array([2j, -1.0, 0.5 + 0.5j])
        ch = ChannelSet(0.3 - 0.2j, -0.1 + 0.4j, h_tx, h_jam, h_ru)
        pc = PhaseConfig(np.array([0.0, math.pi / 2, math.pi]))
        g = effective_gains(ch, pc)
        for h_d, h_sr, got in ((ch.h_tx_ue, h_tx, g.gamma_tx), (ch.h_jam_ue, h_jam, g.delta_jam)):
            cascade = sum(
                np.conj(h_ru[k]) * cmath.exp(1j * pc.thetas[k]) * h_sr[k] for k in range(3)
            )
            assert got == pytest.approx(abs(h_d + cascade) ** 2, rel=1e-12)

    def test_alignment_attains_coherent_sum(self):
        ch = random_channels(np.random.default_rng(5), 6)
        thetas = np.angle(ch.h_tx_ue) - np.angle(np.conj(ch.h_ris_ue) * ch.h_tx_ris)
        got = effective_gains(ch, PhaseConfig(thetas)).gamma_tx
        assert got == pytest.approx(coherent_cap(ch.h_tx_ue, ch.h_ris_ue, ch.h_tx_ris), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        ch = ChannelSet(1j, 1j, np.ones(3), np.ones(3), np.ones(3))
        with pytest.raises(ValidationError):
            effective_gains(ch, identity_phases(2))

    @given(st.lists(ANGLE, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_triangle_bound(self, thetas, seed):
        ch = random_channels(np.random.default_rng(seed), len(thetas))
        g = effective_gains(ch, PhaseConfig(np.array(thetas)))
        cap_tx = coherent_cap(ch.h_tx_ue, ch.h_ris_ue, ch.h_tx_ris)
        cap_jam = coherent_cap(ch.h_jam_ue, ch.h_ris_ue, ch.h_jam_ris)
        assert g.gamma_tx <= cap_tx * (1 + 1e-12)
        assert g.delta_jam <= cap_jam * (1 + 1e-12)


class TestBuildChannelSet:
    def test_deterministic(self):
        sc = default_scenario()
        a, b = build_channel_set(sc), build_channel_set(sc)
        assert a.h_tx_ue == b.h_tx_ue
        assert np.array_equal(a.h_tx_ris, b.h_tx_ris)
        assert np.array_equal(a.h_ris_ue, b.h_ris_ue)

    def test_swapping_tx_and_jam_swaps_channels(self):
        rng = np.random.default_rng(77)
        sc = make_random_scenario(rng)
        import dataclasses

        swapped = dataclasses.replace(sc, pos_tx=sc.pos_jam, pos_jam=sc.pos_tx)
        a, b = build_channel_set(sc), build_channel_set(swapped)
        assert a.h_tx_ue == b.h_jam_ue
        assert np.array_equal(a.h_tx_ris, b.h_jam_ris)

    def test_ris_disabled_zeroes_array_channels(self):
        sc = default_scenario(ris_enabled=False)
        ch = build_channel_set(sc)
        assert np.all(ch.h_tx_ris == 0)
        assert np.all(ch.h_jam_ris == 0)
        assert np.all(ch.h_ris_ue == 0)
        assert ch.h_tx_ue != 0

    @pytest.mark.parametrize("key, alpha", [("alpha_direct", -200.0), ("alpha_ris", -300.0)])
    def test_overflowing_exponent_names_its_key(self, key, alpha):
        with pytest.raises(ValidationError, match=key):
            build_channel_set(default_scenario(**{key: alpha}))

    @pytest.mark.parametrize("key", ["alpha_direct", "alpha_ris"])
    def test_underflowing_exponent_names_its_key(self, key):
        with pytest.raises(ValidationError, match=f"{key} = 300.0 underflows"):
            build_channel_set(default_scenario(**{key: 300.0}))

    def test_json_dump_shape(self):
        ch = build_channel_set(default_scenario(k_rows=1, k_cols=2))
        d = ch.to_json_dict()
        assert set(d) == {
            "num_elements", "h_tx_ue", "h_jam_ue", "h_tx_ris", "h_jam_ris", "h_ris_ue",
        }
        assert d["num_elements"] == 2
        assert d["h_tx_ue"] == [ch.h_tx_ue.real, ch.h_tx_ue.imag]
        assert len(d["h_tx_ris"]) == 2
        assert len(d["h_tx_ris"][0]) == 2
