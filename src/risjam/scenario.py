"""Physical scenario: node geometry, powers, RIS layout, noise.

All internal computation is in linear SI units (watts, meters, Hz).
dB-valued quantities appear only at config ingestion and report emission.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass


class ValidationError(ValueError):
    """Raised for invalid scenario parameters, geometry, or config files."""


def _number(key: str, value) -> float:
    """A JSON number as a float; booleans, strings and null are not numbers."""
    if isinstance(value, float):  # also numpy.float64; the ABC check below is slower
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{key} is out of range, got {value!r}") from exc


def _integer(name: str, value, minimum: int) -> int:
    """A count or seed as an int; bools and integral floats are not integers.

    Seeds take minimum 0: numpy's generators take only non-negative integers.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """10*log10(x), and -inf for x = 0 (a zero power or ratio)."""
    return 10.0 * math.log10(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class Position3D:
    """Cartesian position in meters; the ground plane is z = 0."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = _number(f"position coordinate {name}", getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"position coordinate {name} is not finite: {v!r}")
            object.__setattr__(self, name, v)


# Horizontal offsets below this are treated as exactly on-axis.
HORIZONTAL_DEGENERACY_EPS = 1e-9


@dataclass(frozen=True)
class Scenario:
    """All physical parameters of one run; the single source of truth.

    Powers in watts, lengths in meters, rho is the linear path gain at 1 m.
    """

    pos_tx: Position3D
    pos_jam: Position3D
    pos_ris: Position3D
    pos_ue: Position3D
    p_tx_max: float
    p_jam: float
    noise_power: float
    k_rows: int
    k_cols: int
    wavelength: float
    element_spacing: float
    rho: float
    alpha_direct: float
    alpha_ris: float
    ris_enabled: bool = True

    def __post_init__(self):
        for name in ("k_rows", "k_cols"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        for name in ("p_tx_max", "p_jam", "noise_power", "wavelength", "element_spacing",
                     "rho", "alpha_direct", "alpha_ris"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not isinstance(self.ris_enabled, bool):
            raise ValidationError(f"ris_enabled must be true or false, got {self.ris_enabled!r}")
        for name in ("p_tx_max", "noise_power", "wavelength", "element_spacing", "rho"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be finite and > 0, got {v!r}")
        if not (math.isfinite(self.p_jam) and self.p_jam >= 0.0):
            raise ValidationError(f"p_jam must be finite and >= 0, got {self.p_jam!r}")
        for name in ("alpha_direct", "alpha_ris"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        nodes = [
            ("pos_tx", self.pos_tx),
            ("pos_jam", self.pos_jam),
            ("pos_ris", self.pos_ris),
            ("pos_ue", self.pos_ue),
        ]
        for name, node in nodes:
            if not isinstance(node, Position3D):
                raise ValidationError(f"{name} must be a Position3D, got {node!r}")
        if self.pos_ue.z != 0.0:
            raise ValidationError(f"user position must have z = 0, got z={self.pos_ue.z!r}")
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if distance(nodes[i][1], nodes[j][1]) == 0.0:
                    raise ValidationError(
                        f"{nodes[i][0]} and {nodes[j][0]} coincide; zero-distance links are invalid"
                    )

    @property
    def num_elements(self) -> int:
        return self.k_rows * self.k_cols


def distance(a: Position3D, b: Position3D) -> float:
    """Euclidean distance in meters."""
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def aoa_angles(sat: Position3D, ris: Position3D) -> tuple:
    """Arrival-angle trigonometry (sin_vert, sin_horiz, cos_horiz) of the sat->RIS link.

    sin_vert = |z_ris - z_sat| / distance, in [0, 1]; the horizontal pair
    uses the absolute x/y offsets, with sin_horiz on |dx| and cos_horiz on
    |dy|, so sin_horiz**2 + cos_horiz**2 = 1.
    A horizontal offset under HORIZONTAL_DEGENERACY_EPS takes the documented
    on-axis convention (cos_horiz = 1, sin_horiz = 0).
    """
    d = distance(sat, ris)
    dx = ris.x - sat.x
    dy = ris.y - sat.y
    dz = ris.z - sat.z
    horiz = math.hypot(dx, dy)
    if horiz < HORIZONTAL_DEGENERACY_EPS:
        sin_h, cos_h = 0.0, 1.0
    else:
        sin_h = abs(dx) / horiz
        cos_h = abs(dy) / horiz
    return abs(dz) / d, sin_h, cos_h


def noise_power_from(
    bandwidth_hz: float, noise_density_dbm_per_hz: float, noise_figure_db: float
) -> float:
    """Thermal noise power in watts from density (dBm/Hz), bandwidth, and NF."""
    if not (math.isfinite(bandwidth_hz) and bandwidth_hz > 0.0):
        raise ValidationError(f"bandwidth must be > 0, got {bandwidth_hz!r}")
    dbm = noise_density_dbm_per_hz + linear_to_db(bandwidth_hz) + noise_figure_db
    return db_to_linear(dbm - 30.0)


# Default configuration: LEO transmitter at 500 km, GEO jammer at 35786 km,
# RIS 50 m above the user at the origin; 20 dBW / 30 dBW powers; -55 dB
# reference path gain; 1 MHz bandwidth at -174 dBm/Hz with a 1 dB noise figure.
# Wavelength (S-band 2 GHz) and half-wavelength element spacing are defaults of
# this artifact, as are the free-space path-loss exponents.
DEFAULT_CONFIG: dict = {
    "pos_tx_m": [0.0, 0.0, 500e3],
    "pos_jam_m": [0.0, 0.0, 35786e3],
    "pos_ris_m": [0.0, 0.0, 50.0],
    "pos_ue_m": [0.0, 0.0, 0.0],
    "p_tx_dbw": 20.0,
    "p_jam_dbw": 30.0,
    "rho_db": -55.0,
    "noise_density_dbm_hz": -174.0,
    "noise_figure_db": 1.0,
    "bandwidth_hz": 1e6,
    "k_rows": 3,
    "k_cols": 3,
    "wavelength_m": 0.15,
    "element_spacing_m": None,  # defaults to wavelength / 2
    "alpha_direct": 2.0,
    "alpha_ris": 2.0,
    "ris_enabled": True,
}


def scenario_from_config(config: dict) -> Scenario:
    """Build a Scenario from a dB-valued config dict; absent keys take defaults."""
    unknown = set(config) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(DEFAULT_CONFIG)
    cfg.update(config)

    def num(key):
        return _number(key, cfg[key])

    def db(key):
        try:
            return db_to_linear(num(key))
        except OverflowError as exc:
            raise ValidationError(f"{key} is out of range, got {cfg[key]!r}") from exc

    def pos(key):
        v = cfg[key]
        if not (isinstance(v, (list, tuple)) and len(v) == 3):
            raise ValidationError(f"{key} must be a 3-element [x, y, z] list, got {v!r}")
        return Position3D(*(_number(key, c) for c in v))

    def count(key):
        v = num(key)
        if not v.is_integer():
            raise ValidationError(f"{key} must be a whole number, got {cfg[key]!r}")
        return int(v)

    wavelength = num("wavelength_m")
    spacing = wavelength / 2.0 if cfg["element_spacing_m"] is None else num("element_spacing_m")
    noise_keys = ("bandwidth_hz", "noise_density_dbm_hz", "noise_figure_db")
    try:
        noise_power = noise_power_from(*(num(key) for key in noise_keys))
    except OverflowError as exc:
        raise ValidationError(f"{'/'.join(noise_keys)} are out of range") from exc
    return Scenario(
        pos_tx=pos("pos_tx_m"),
        pos_jam=pos("pos_jam_m"),
        pos_ris=pos("pos_ris_m"),
        pos_ue=pos("pos_ue_m"),
        p_tx_max=db("p_tx_dbw"),
        p_jam=db("p_jam_dbw"),
        noise_power=noise_power,
        k_rows=count("k_rows"),
        k_cols=count("k_cols"),
        wavelength=wavelength,
        element_spacing=spacing,
        rho=db("rho_db"),
        alpha_direct=num("alpha_direct"),
        alpha_ris=num("alpha_ris"),
        ris_enabled=cfg["ris_enabled"],
    )


def load_config(path: str) -> Scenario:
    """Load a JSON config file into a Scenario."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError(f"config root must be a JSON object, got {type(config).__name__}")
    return scenario_from_config(config)


def default_scenario(**overrides) -> Scenario:
    """The default scenario; keyword overrides use config keys (dB-valued)."""
    return scenario_from_config(dict(overrides))
