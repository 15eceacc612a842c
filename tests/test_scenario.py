"""Geometry, unit conversions, config parsing, and validation rules."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from risjam import (
    DEFAULT_CONFIG,
    Position3D,
    Scenario,
    ValidationError,
    db_to_linear,
    default_scenario,
    linear_to_db,
    load_config,
    noise_power_from,
    scenario_from_config,
)
from risjam.scenario import aoa_angles, distance

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def pos(x, y, z):
    return Position3D(float(x), float(y), float(z))


class TestConversions:
    def test_db_roundtrip(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
        assert db_to_linear(-55.0) == pytest.approx(3.1622776601683795e-06, rel=1e-14)
        assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)
        assert linear_to_db(0.0) == -math.inf

    def test_noise_power_examples(self):
        # density -30 dBm/Hz over 1 Hz with no noise figure is exactly 1 uW
        assert noise_power_from(1.0, -30.0, 0.0) == pytest.approx(1e-6, rel=1e-14)
        # 1 MHz at -174 dBm/Hz with a 1 dB figure
        assert noise_power_from(1e6, -174.0, 1.0) == pytest.approx(
            5.0118723362727146e-15, rel=1e-14
        )
        # dropping the figure lands on kT*B alone
        assert noise_power_from(1e6, -174.0, 0.0) == pytest.approx(
            3.9810717055349695e-15, rel=1e-14
        )

    def test_noise_power_rejects_bad_bandwidth(self):
        with pytest.raises(ValidationError):
            noise_power_from(0.0, -174.0, 1.0)
        with pytest.raises(ValidationError):
            noise_power_from(-1e6, -174.0, 1.0)

    @given(st.floats(min_value=-200, max_value=50), st.floats(min_value=-200, max_value=50))
    def test_noise_monotone_in_density(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert noise_power_from(1e6, lo, 1.0) <= noise_power_from(1e6, hi, 1.0)


class TestDistance:
    def test_examples(self):
        assert distance(pos(0, 0, 0), pos(3, 4, 0)) == 5.0
        assert distance(pos(0, 0, 0), pos(0, 0, 500e3)) == 500e3
        # default geometry: transmitter to RIS along the z axis
        sc = default_scenario()
        assert distance(sc.pos_tx, sc.pos_ris) == 499950.0
        assert distance(sc.pos_ris, sc.pos_ue) == 50.0

    @given(finite, finite, finite, finite, finite, finite)
    def test_symmetry(self, ax, ay, az, bx, by, bz):
        a, b = pos(ax, ay, az), pos(bx, by, bz)
        assert distance(a, b) == distance(b, a)
        assert distance(a, a) == 0.0

    @given(*([finite] * 9))
    def test_triangle_inequality(self, ax, ay, az, bx, by, bz, cx, cy, cz):
        a, b, c = pos(ax, ay, az), pos(bx, by, bz), pos(cx, cy, cz)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestAoa:
    def test_diagonal_example(self):
        sin_vert, sin_horiz, cos_horiz = aoa_angles(pos(100, 0, 0), pos(0, 0, 100))
        assert sin_vert == pytest.approx(0.7071067811865475, rel=1e-14)
        assert sin_horiz == 1.0
        assert cos_horiz == 0.0

    def test_on_axis_convention(self):
        # zero horizontal offset: the convention pins cos=1, sin=0
        sin_vert, sin_horiz, cos_horiz = aoa_angles(pos(0, 0, 500e3), pos(0, 0, 50))
        assert sin_vert == 1.0
        assert sin_horiz == 0.0
        assert cos_horiz == 1.0

    def test_pure_y_offset(self):
        sin_vert, sin_horiz, cos_horiz = aoa_angles(pos(0, -30, 40), pos(0, 0, 0))
        assert sin_vert == pytest.approx(0.8, rel=1e-14)
        assert sin_horiz == 0.0
        assert cos_horiz == 1.0

    @given(finite, finite, st.floats(min_value=-1e6, max_value=-1.0), finite, finite)
    def test_normalization(self, sx, sy, sz, rx, ry):
        sat, ris = pos(sx, sy, sz), pos(rx, ry, 0.0)
        sin_vert, sin_horiz, cos_horiz = aoa_angles(sat, ris)
        assert 0.0 <= sin_vert <= 1.0
        assert 0.0 <= sin_horiz <= 1.0
        assert 0.0 <= cos_horiz <= 1.0
        assert sin_horiz**2 + cos_horiz**2 == pytest.approx(1.0, abs=1e-12)


class TestScenarioValidation:
    def test_default_is_valid(self):
        sc = default_scenario()
        assert sc.num_elements == 9
        assert sc.p_tx_max == pytest.approx(100.0, rel=1e-14)
        assert sc.p_jam == pytest.approx(1000.0, rel=1e-14)
        assert sc.element_spacing == pytest.approx(0.075)
        assert sc.ris_enabled

    def test_rejects_nonpositive_scalars(self, random_scenario):
        import dataclasses

        sc = random_scenario(np.random.default_rng(0))
        for field, bad in [
            ("p_tx_max", 0.0),
            ("p_jam", -1.0),
            ("noise_power", 0.0),
            ("wavelength", -0.15),
            ("element_spacing", 0.0),
            ("rho", 0.0),
        ]:
            with pytest.raises(ValidationError):
                dataclasses.replace(sc, **{field: bad})

    def test_rejects_bad_element_counts(self):
        with pytest.raises(ValidationError):
            default_scenario(k_rows=0)
        with pytest.raises(ValidationError):
            default_scenario(k_cols=-2)

    def test_rejects_airborne_user(self):
        with pytest.raises(ValidationError):
            default_scenario(pos_ue_m=[0.0, 0.0, 5.0])

    def test_rejects_coincident_nodes(self):
        with pytest.raises(ValidationError):
            default_scenario(pos_ris_m=[0.0, 0.0, 0.0])

    def test_position_must_be_finite(self):
        with pytest.raises(ValidationError):
            Position3D(math.nan, 0.0, 0.0)
        with pytest.raises(ValidationError):
            Position3D(0.0, math.inf, 0.0)

    @pytest.mark.parametrize("coordinate", ["1", True, None, 1j])
    def test_position_coordinates_must_be_real_numbers(self, coordinate):
        with pytest.raises(ValidationError, match="position coordinate x"):
            Position3D(coordinate, 0.0, 0.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("k_rows", 2.5),
            ("k_rows", 3.0),
            ("k_cols", True),
            ("k_cols", "3"),
            ("p_tx_max", "100"),
            ("rho", True),
            ("alpha_ris", None),
            ("ris_enabled", 0),
            ("ris_enabled", "yes"),
            ("pos_ris", (0.0, 0.0, 50.0)),
        ],
    )
    def test_rejects_wrong_types(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(default_scenario(), **{field: bad})

    def test_numpy_scalars_become_python_numbers(self):
        sc = dataclasses.replace(
            default_scenario(), k_rows=np.int64(2), rho=np.float64(1e-5),
            pos_tx=Position3D(np.float64(1.0), 0, 5e5),
        )
        assert (sc.k_rows, sc.num_elements) == (2, 6)
        assert type(sc.k_rows) is int and type(sc.rho) is float
        assert type(sc.pos_tx.x) is float and type(sc.pos_tx.y) is float


class TestConfig:
    def test_defaults_roundtrip(self):
        assert scenario_from_config({}) == default_scenario()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            scenario_from_config({"p_tx_dbw": 20.0, "unknown_knob": 1})

    def test_spacing_defaults_to_half_wavelength(self):
        sc = scenario_from_config({"wavelength_m": 0.2, "element_spacing_m": None})
        assert sc.element_spacing == pytest.approx(0.1)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_rows": 2, "k_cols": 5}))
        sc = load_config(str(path))
        assert sc.num_elements == 10

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(str(tmp_path / "absent.json"))

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_config(str(path))

    def test_load_config_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            load_config(str(path))

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"noise_figure_db": 4000}, "noise_figure_db"),
            ({"k_rows": math.inf}, "k_rows"),
            ({"ris_enabled": 1}, "ris_enabled"),
            ({"k_rows": 3.7}, "k_rows"),
            ({"k_cols": True}, "k_cols"),
            ({"k_rows": "3"}, "k_rows"),
            ({"p_tx_dbw": True}, "p_tx_dbw"),
            ({"p_tx_dbw": "20"}, "p_tx_dbw"),
            ({"pos_tx_m": ["0", 0, 5e5]}, "pos_tx_m"),
            ({"element_spacing_m": False}, "element_spacing_m"),
        ],
    )
    def test_bad_value_names_its_key(self, config, key):
        with pytest.raises(ValidationError, match=key):
            scenario_from_config(config)

    def test_integral_float_counts_accepted(self):
        sc = scenario_from_config({"k_rows": 3.0, "k_cols": np.int64(2)})
        assert (sc.k_rows, sc.k_cols) == (3, 2)
        assert isinstance(sc.k_rows, int)

    def test_default_config_is_complete(self):
        # every key the parser reads is present with a serializable value
        json.dumps(DEFAULT_CONFIG)
        assert DEFAULT_CONFIG["k_rows"] == 3
        assert DEFAULT_CONFIG["wavelength_m"] == 0.15


class TestRandomFactory:
    def test_factory_produces_valid_scenarios(self, random_scenario):
        rng = np.random.default_rng(123)
        for _ in range(25):
            sc = random_scenario(rng)
            assert isinstance(sc, Scenario)
            assert sc.pos_ue.z == 0.0
            assert sc.num_elements >= 1
