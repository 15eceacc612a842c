"""Total effective gains and the signal-to-jamming-plus-noise ratio."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, PhaseConfig, build_channel_set, identity_phases
from .scenario import Scenario, ValidationError, linear_to_db


@dataclass(frozen=True)
class EffectiveGains:
    """Total power gains of the two satellite paths (direct + reflected)."""

    gamma_tx: float
    delta_jam: float


@dataclass(frozen=True)
class SjnrReport:
    """SJNR in linear and dB form, with its signal, jamming and noise powers (W).

    For one phase configuration sjnr_linear = signal_w / (jam_w + noise_w);
    a mean over many configurations reports the mean of each field instead.
    """

    sjnr_linear: float
    sjnr_db: float
    signal_w: float
    jam_w: float
    noise_w: float

    def to_json_dict(self) -> dict:
        return {
            "sjnr_linear": self.sjnr_linear,
            "sjnr_db": self.sjnr_db,
            "signal_w": self.signal_w,
            "jam_w": self.jam_w,
            "noise_w": self.noise_w,
        }


def _power_gain(w: np.ndarray, u: np.ndarray):
    """|w^H u|^2 for a candidate u of shape (n,), or per column of an (n, m) block."""
    return abs(w.conj() @ u) ** 2


def _gains(w_tx: np.ndarray, w_jam: np.ndarray, phases: PhaseConfig) -> EffectiveGains:
    """Both path gains at phases from the rank-one factors, unchecked."""
    u = np.append(phases.unit_phasors(), 1.0)
    return EffectiveGains(gamma_tx=_power_gain(w_tx, u), delta_jam=_power_gain(w_jam, u))


def effective_gains(channels: ChannelSet, phases: PhaseConfig) -> EffectiveGains:
    """|direct + reflected|^2 = |w^H [u; 1]|^2 for the transmitter and jammer paths."""
    if phases.num_elements != channels.num_elements:
        raise ValidationError(f"{phases.num_elements} phases for {channels.num_elements} elements")
    return _gains(*channels.gain_factors(), phases)


def sjnr(gains: EffectiveGains, p_tx: float, p_jam: float, noise_power: float) -> SjnrReport:
    """p_tx*gamma / (p_jam*delta + noise), reported with its power terms."""
    if not (math.isfinite(p_tx) and p_tx >= 0.0):
        raise ValidationError(f"p_tx must be finite and >= 0, got {p_tx!r}")
    if not (math.isfinite(p_jam) and p_jam >= 0.0):
        raise ValidationError(f"p_jam must be finite and >= 0, got {p_jam!r}")
    if not (math.isfinite(noise_power) and noise_power > 0.0):
        raise ValidationError(f"noise_power must be finite and > 0, got {noise_power!r}")
    return _report(gains, p_tx, p_jam, noise_power)


def _report(gains: EffectiveGains, p_tx: float, p_jam: float, noise_power: float) -> SjnrReport:
    """sjnr without its checks, for powers a validated Scenario already holds."""
    signal_w = p_tx * gains.gamma_tx
    jam_w = p_jam * gains.delta_jam
    sjnr_linear = signal_w / (jam_w + noise_power)
    return SjnrReport(
        sjnr_linear=sjnr_linear,
        sjnr_db=linear_to_db(sjnr_linear),
        signal_w=signal_w,
        jam_w=jam_w,
        noise_w=noise_power,
    )


def evaluate(scenario: Scenario, phases: PhaseConfig | None = None) -> SjnrReport:
    """SJNR of a scenario at given phases (default identity) and the power cap."""
    if phases is None:
        phases = identity_phases(scenario.num_elements)
    gains = effective_gains(build_channel_set(scenario), phases)
    return sjnr(gains, scenario.p_tx_max, scenario.p_jam, scenario.noise_power)
