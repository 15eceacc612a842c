"""The link model: both satellite paths' gains and the SJNR they give.

lift's LiftedProblem (the rank-one gain factors plus the powers at the cap)
is the package's one model of the link, and every SJNR the package reports
is read from its powers method. effective_gains and sjnr are the checked,
standalone form of the same arithmetic for a ChannelSet and given powers.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
        return asdict(self)


def _power_gain(w: np.ndarray, u: np.ndarray):
    """|w^H u|^2 for a candidate u of shape (n,), or per column of an (n, m) block."""
    return abs(w.conj() @ u) ** 2


def _candidate(phases: PhaseConfig, num_elements: int) -> np.ndarray:
    """[e^{j theta_1}, ..., e^{j theta_K}, 1] for phases on num_elements elements."""
    if phases.num_elements != num_elements:
        raise ValidationError(f"{phases.num_elements} phases for {num_elements} elements")
    return np.append(phases.unit_phasors(), 1.0)


@dataclass(frozen=True, eq=False)
class LiftedProblem:
    """Rank-one lifted forms of the two path gains, plus the power budget.

    w_tx / w_jam are the rank-one factors: for a unit-modulus candidate u
    with trailing slot 1, |w^H u|^2 equals |h_direct + h_cascade|^2 of the
    corresponding satellite exactly, so the lifted forms are w w^H. Only
    lift builds it, from a validated Scenario and its ChannelSet.
    """

    w_tx: np.ndarray
    w_jam: np.ndarray
    p_tx: float
    p_jam: float
    noise_power: float

    @property
    def order(self) -> int:
        return int(self.w_tx.size)

    def powers(self, candidate: np.ndarray) -> tuple:
        """(signal_w, jam_w, sjnr) of unit-modulus candidates via the rank-one factors.

        candidate is one vector of shape (n,), giving one value of each, or
        a block of shape (n, m) whose columns are candidates, giving m.
        """
        signal_w = self.p_tx * _power_gain(self.w_tx, candidate)
        jam_w = self.p_jam * _power_gain(self.w_jam, candidate)
        return signal_w, jam_w, signal_w / (jam_w + self.noise_power)

    def sjnr_of(self, candidate: np.ndarray) -> float | np.ndarray:
        """The SJNR part of powers."""
        return self.powers(candidate)[2]

    def report(self, phases: PhaseConfig) -> SjnrReport:
        """The SjnrReport at phases, from the candidate [e^{j theta}; 1]."""
        signal_w, jam_w, sjnr_linear = self.powers(_candidate(phases, self.order - 1))
        return SjnrReport(sjnr_linear, linear_to_db(sjnr_linear), signal_w, jam_w, self.noise_power)


def lift(channels: ChannelSet, scenario: Scenario) -> LiftedProblem:
    """The rank-one lifted forms of both total path gains at the power cap.

    The factors are ChannelSet.gain_factors: for any unit-modulus candidate
    u = [e^{j theta_1}, ..., e^{j theta_K}, 1], w^H u is the direct-plus-
    reflected gain that effective_gains squares.
    """
    if channels.num_elements != scenario.num_elements:
        raise ValidationError(
            f"channel set has {channels.num_elements} elements, scenario {scenario.num_elements}"
        )
    w_tx, w_jam = channels.gain_factors()
    return LiftedProblem(w_tx, w_jam, scenario.p_tx_max, scenario.p_jam, scenario.noise_power)


def effective_gains(channels: ChannelSet, phases: PhaseConfig) -> EffectiveGains:
    """|direct + reflected|^2 = |w^H [u; 1]|^2 for the transmitter and jammer paths."""
    u = _candidate(phases, channels.num_elements)
    w_tx, w_jam = channels.gain_factors()
    return EffectiveGains(gamma_tx=_power_gain(w_tx, u), delta_jam=_power_gain(w_jam, u))


def sjnr(gains: EffectiveGains, p_tx: float, p_jam: float, noise_power: float) -> SjnrReport:
    """p_tx*gamma / (p_jam*delta + noise), reported with its power terms."""
    if not (math.isfinite(p_tx) and p_tx >= 0.0):
        raise ValidationError(f"p_tx must be finite and >= 0, got {p_tx!r}")
    if not (math.isfinite(p_jam) and p_jam >= 0.0):
        raise ValidationError(f"p_jam must be finite and >= 0, got {p_jam!r}")
    if not (math.isfinite(noise_power) and noise_power > 0.0):
        raise ValidationError(f"noise_power must be finite and > 0, got {noise_power!r}")
    signal_w = p_tx * gains.gamma_tx
    jam_w = p_jam * gains.delta_jam
    sjnr_linear = signal_w / (jam_w + noise_power)
    return SjnrReport(sjnr_linear, linear_to_db(sjnr_linear), signal_w, jam_w, noise_power)


def evaluate(scenario: Scenario, phases: PhaseConfig | None = None) -> SjnrReport:
    """SJNR of a scenario at given phases (default identity) and the power cap."""
    if phases is None:
        phases = identity_phases(scenario.num_elements)
    return lift(build_channel_set(scenario), scenario).report(phases)
