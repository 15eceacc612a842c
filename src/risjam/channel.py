"""LoS channel synthesis: direct scalars, planar-array steering, gain factors.

Every link follows the same flat-fading LoS template (``_los_gain``):
amplitude sqrt(rho * d**-alpha) and geometric phase exp(-j*2*pi*d/lambda).
Array links additionally carry the element-wise planar steering response.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .scenario import Position3D, Scenario, ValidationError, aoa_angles, distance

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """Per-element RIS phase shifts in radians, normalized to [0, 2pi)."""

    thetas: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("thetas must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("phase shifts must be finite")
        arr = np.mod(arr, TWO_PI)
        # np.mod can land exactly on 2*pi for tiny negative inputs.
        arr = np.where(arr >= TWO_PI, arr - TWO_PI, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "thetas", arr)

    @property
    def num_elements(self) -> int:
        return int(self.thetas.size)

    def unit_phasors(self) -> np.ndarray:
        """exp(j*theta_k) for each element; the diagonal of the phase matrix."""
        return np.exp(1j * self.thetas)


def identity_phases(num_elements: int) -> PhaseConfig:
    """All-zero phase shifts (the RIS phase matrix is the identity)."""
    if num_elements < 1:
        raise ValidationError(f"need at least one element, got {num_elements}")
    return PhaseConfig(np.zeros(num_elements))


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """All complex gains of one scenario; a pure function of its geometry.

    h_tx_ue / h_jam_ue are the direct satellite-to-user scalars; the three
    vectors are the satellite-to-RIS and RIS-to-user element-wise channels.
    """

    h_tx_ue: complex
    h_jam_ue: complex
    h_tx_ris: np.ndarray
    h_jam_ris: np.ndarray
    h_ris_ue: np.ndarray

    @property
    def num_elements(self) -> int:
        return int(self.h_tx_ris.size)

    def gain_factors(self) -> tuple:
        """The rank-one factors (w_tx, w_jam) of the two total path gains.

        w_chi = [h_ris_ue * conj(h_chi_ris), conj(h_chi_ue)], so that for
        u = [e^{j theta_1}, ..., e^{j theta_K}, 1] the direct-plus-reflected
        gain h_chi_ue + sum_k conj(h_ris_ue[k]) e^{j theta_k} h_chi_ris[k]
        of satellite chi is w_chi^H u.
        """
        w_tx = np.append(self.h_ris_ue * np.conj(self.h_tx_ris), np.conj(self.h_tx_ue))
        w_jam = np.append(self.h_ris_ue * np.conj(self.h_jam_ris), np.conj(self.h_jam_ue))
        return w_tx, w_jam

    def to_json_dict(self) -> dict:
        def c2pair(z: complex) -> list:
            return [float(z.real), float(z.imag)]

        def vec(arr: np.ndarray) -> list:
            return [c2pair(complex(z)) for z in arr]

        return {
            "num_elements": self.num_elements,
            "h_tx_ue": c2pair(self.h_tx_ue),
            "h_jam_ue": c2pair(self.h_jam_ue),
            "h_tx_ris": vec(self.h_tx_ris),
            "h_jam_ris": vec(self.h_jam_ris),
            "h_ris_ue": vec(self.h_ris_ue),
        }


def _los_gain(
    scenario: Scenario, pos_from: Position3D, pos_to: Position3D, alpha_key: str
) -> complex:
    """Scalar LoS gain sqrt(rho*d**-alpha) * exp(-j*2*pi*d/lambda), alpha = scenario.<alpha_key>."""
    d = distance(pos_from, pos_to)
    if d <= 0.0:
        raise ValidationError("a LoS link requires distinct endpoints")
    alpha = getattr(scenario, alpha_key)
    try:
        magnitude = math.sqrt(scenario.rho * d ** (-alpha))
    except OverflowError:
        magnitude = math.inf
    if not math.isfinite(magnitude):
        raise ValidationError(f"{alpha_key} = {alpha!r} overflows the path gain at {d:g} m")
    if magnitude == 0.0:
        raise ValidationError(f"{alpha_key} = {alpha!r} underflows the path gain at {d:g} m")
    return magnitude * cmath.exp(-1j * TWO_PI * d / scenario.wavelength)


def direct_channel(scenario: Scenario, pos_from: Position3D, pos_to: Position3D) -> complex:
    """Direct satellite-to-user gain: the LoS template with exponent alpha_d."""
    return _los_gain(scenario, pos_from, pos_to, "alpha_direct")


def steering_vector(
    angles: tuple,
    k_rows: int,
    k_cols: int,
    element_spacing: float,
    wavelength: float,
) -> np.ndarray:
    """Planar-array phase response: Kronecker product of row and column ramps.

    angles is aoa_angles' (sin_vert, sin_horiz, cos_horiz). Rows step along
    a_x = sin_vert*cos_horiz, columns along a_z = sin_vert*sin_horiz; entry
    0 is the phase reference.
    """
    if k_rows < 1 or k_cols < 1:
        raise ValidationError(f"array size must be >= 1x1, got {k_rows}x{k_cols}")
    sin_vert, sin_horiz, cos_horiz = angles
    a_x = sin_vert * cos_horiz
    a_z = sin_vert * sin_horiz
    step = -TWO_PI * element_spacing / wavelength
    row = np.exp(1j * step * a_x * np.arange(k_rows))
    col = np.exp(1j * step * a_z * np.arange(k_cols))
    return np.outer(row, col).ravel()


def ris_link_channel(scenario: Scenario, far_node: Position3D) -> np.ndarray:
    """Element-wise channel between a far node and the RIS array.

    Produces the satellite-to-RIS vectors and, with the user position as
    far node, the RIS-to-user vector. The steering response is scaled by
    the common amplitude sqrt(rho*d**-alpha_r) and the bulk propagation
    phase exp(-j*2*pi*d/lambda) measured at element 0 (far field).
    """
    h0 = _los_gain(scenario, far_node, scenario.pos_ris, "alpha_ris")
    steer = steering_vector(
        aoa_angles(far_node, scenario.pos_ris),
        scenario.k_rows,
        scenario.k_cols,
        scenario.element_spacing,
        scenario.wavelength,
    )
    return h0 * steer


def build_channel_set(scenario: Scenario) -> ChannelSet:
    """Synthesize every channel of the scenario; deterministic and pure.

    With the RIS disabled the array vectors are zero, which removes the
    reflected path from every downstream expression.
    """
    k = scenario.num_elements
    if scenario.ris_enabled:
        h_tx_ris = ris_link_channel(scenario, scenario.pos_tx)
        h_jam_ris = ris_link_channel(scenario, scenario.pos_jam)
        h_ris_ue = ris_link_channel(scenario, scenario.pos_ue)
    else:
        h_tx_ris = np.zeros(k, dtype=complex)
        h_jam_ris = np.zeros(k, dtype=complex)
        h_ris_ue = np.zeros(k, dtype=complex)
    return ChannelSet(
        h_tx_ue=direct_channel(scenario, scenario.pos_tx, scenario.pos_ue),
        h_jam_ue=direct_channel(scenario, scenario.pos_jam, scenario.pos_ue),
        h_tx_ris=h_tx_ris,
        h_jam_ris=h_jam_ris,
        h_ris_ue=h_ris_ue,
    )
