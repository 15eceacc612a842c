"""Joint transmit-power and RIS-phase optimization.

The SJNR is strictly increasing in transmit power for fixed phases, so the
power subproblem's optimum is the cap. The phase subproblem lifts the
unit-modulus phase vector (with a trailing homogenization slot fixed to 1)
so both total path gains become rank-one quadratic forms, relaxes to a
unit-diagonal PSD program, solves the fractional SDP by Dinkelbach
iteration, and recovers feasible phases by scored rank-one extraction.
The identity phases and the transmitter-aligned phases are scored once,
seed the solver, and stay in the candidate pool. The phase maximizer does
not depend on the power, so one power step and one phase solve reach the
fixed point of alternating optimization.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelSet, PhaseConfig, build_channel_set, identity_phases
from .link import SjnrReport, effective_gains, sjnr
from .scenario import Scenario, ValidationError
from .sdp_core import _phase_project, extract_rank_one, solve_fractional_sdp

# Gaussian randomization draws of the rank-one extraction.
_N_DRAWS = 200


@dataclass(frozen=True, eq=False)
class LiftedProblem:
    """Rank-one lifted forms of the two path gains, plus the power budget.

    w_tx / w_jam are the rank-one factors: for a unit-modulus candidate u
    with trailing slot 1, |w^H u|^2 equals |h_direct + h_cascade|^2 of the
    corresponding satellite exactly, so the lifted forms are w w^H.
    """

    w_tx: np.ndarray
    w_jam: np.ndarray
    p_tx: float
    p_jam: float
    noise_power: float

    def __post_init__(self):
        for name in ("w_tx", "w_jam"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.ndim != 1 or arr.size < 1:
                raise ValidationError(f"{name} must be a nonempty 1-D array")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.w_tx.shape != self.w_jam.shape:
            raise ValidationError(
                f"lifted orders differ: {self.w_tx.size} vs {self.w_jam.size}"
            )
        if not (math.isfinite(self.p_tx) and self.p_tx > 0.0):
            raise ValidationError(f"p_tx must be > 0, got {self.p_tx!r}")
        if not (math.isfinite(self.p_jam) and self.p_jam >= 0.0):
            raise ValidationError(f"p_jam must be >= 0, got {self.p_jam!r}")
        if not (math.isfinite(self.noise_power) and self.noise_power > 0.0):
            raise ValidationError(f"noise_power must be > 0, got {self.noise_power!r}")

    @property
    def order(self) -> int:
        return int(self.w_tx.size)

    def sjnr_of(self, candidate: np.ndarray) -> float | np.ndarray:
        """Exact SJNR of unit-modulus candidates via the rank-one factors.

        candidate is one vector of shape (n,), giving one SJNR, or a block
        of shape (n, m) whose columns are candidates, giving m SJNRs.
        """
        f = np.abs(self.w_tx.conj() @ candidate) ** 2
        g = np.abs(self.w_jam.conj() @ candidate) ** 2
        return self.p_tx * f / (self.p_jam * g + self.noise_power)


@dataclass(frozen=True)
class OptimizerSettings:
    """The phase solve's budget: the iteration cap of each inner ADMM solve."""

    inner_max_iters: int = 20000

    def __post_init__(self):
        if self.inner_max_iters < 1:
            raise ValidationError(
                f"inner_max_iters must be >= 1, got {self.inner_max_iters!r}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class PhaseSolveResult:
    """One phase-subproblem solve: feasible phases plus the certified bound."""

    phases: PhaseConfig
    sjnr_linear: float
    sdp_bound: float
    converged: bool


@dataclass(frozen=True, eq=False)
class OptResult:
    """Joint power/phase outcome for one scenario and seed.

    sjnr_trace is (identity-phase report, report of the phase solve's
    pick). The identity phases are in that solve's candidate pool, so the
    trace is nondecreasing up to the rounding between the lifted and the
    link-path evaluation. converged is the phase solve's certificate flag.
    """

    phases: PhaseConfig
    p_tx: float
    sjnr_trace: tuple
    sdp_bound: float
    converged: bool
    seed: int
    settings: OptimizerSettings

    @property
    def final_report(self) -> SjnrReport:
        return self.sjnr_trace[-1]

    @property
    def outer_iterations(self) -> int:
        return len(self.sjnr_trace) - 1

    def to_json_dict(self, include_trace: bool = True) -> dict:
        out = {
            "phases_rad": [float(t) for t in self.phases.thetas],
            "p_tx_w": self.p_tx,
            "sjnr_linear": self.final_report.sjnr_linear,
            "sjnr_db": self.final_report.sjnr_db,
            "sdp_bound_linear": self.sdp_bound,
            "sdp_bound_db": 10.0 * math.log10(self.sdp_bound) if self.sdp_bound > 0 else -math.inf,
            "outer_iterations": self.outer_iterations,
            "converged": self.converged,
            "seed": self.seed,
            "settings": self.settings.to_json_dict(),
        }
        if include_trace:
            out["sjnr_trace"] = [r.to_json_dict() for r in self.sjnr_trace]
        return out


def lift(channels: ChannelSet, scenario: Scenario, p_tx: float | None = None) -> LiftedProblem:
    """Build the rank-one lifted forms of both total path gains.

    For chi in {tx, jam}: w_k = h_ris_ue[k] * conj(h_chi_ris[k]) for the K
    element slots and w_last = conj(h_chi_ue), so that for any unit-modulus
    candidate u = [e^{j theta_1}, ..., e^{j theta_K}, 1]:

        w^H u = h_chi_ue + sum_k conj(h_ris_ue[k]) e^{j theta_k} h_chi_ris[k]

    which is the direct-plus-cascade gain evaluated by the channel module.
    """
    if channels.num_elements != scenario.num_elements:
        raise ValidationError(
            f"channel set has {channels.num_elements} elements, scenario "
            f"{scenario.num_elements}"
        )
    w_tx = np.concatenate(
        [channels.h_ris_ue * np.conj(channels.h_tx_ris), [np.conj(channels.h_tx_ue)]]
    )
    w_jam = np.concatenate(
        [channels.h_ris_ue * np.conj(channels.h_jam_ris), [np.conj(channels.h_jam_ue)]]
    )
    return LiftedProblem(
        w_tx=w_tx,
        w_jam=w_jam,
        p_tx=scenario.p_tx_max if p_tx is None else p_tx,
        p_jam=scenario.p_jam,
        noise_power=scenario.noise_power,
    )


def optimize_power(gains, p_max: float) -> float:
    """The SJNR is nondecreasing in transmit power, so the cap is optimal."""
    if not (math.isfinite(p_max) and p_max > 0.0):
        raise ValidationError(f"p_max must be > 0, got {p_max!r}")
    return p_max


def optimize_phases(lifted: LiftedProblem, settings: OptimizerSettings, seed) -> PhaseSolveResult:
    """Solve the phase subproblem: fractional SDR plus scored extraction.

    Two anchors are scored first by their true SJNR: the identity phases
    and the phase projection of the transmitter factor w_tx, its coherent
    alignment (exact in the no-jamming limit). The better one, identity on
    a tie, starts the fractional solver, and an extracted candidate
    replaces it only if it scores strictly higher. So the returned value
    is always feasible, never below either anchor, and under the certified
    relaxation bound.
    """
    anchors = np.column_stack([np.ones(lifted.order, dtype=complex), _phase_project(lifted.w_tx)])
    scores = lifted.sjnr_of(anchors)
    pick = int(np.argmax(scores))
    best_vec, best_score = anchors[:, pick], float(scores[pick])
    fs = solve_fractional_sdp(
        lifted.w_tx,
        lifted.w_jam,
        lifted.p_tx,
        lifted.p_jam,
        lifted.noise_power,
        best_vec,
        inner_max_iters=settings.inner_max_iters,
    )
    vec, score = extract_rank_one(fs.v_opt, _N_DRAWS, seed, lifted.sjnr_of)
    if score > best_score:
        best_vec, best_score = vec, score
    return PhaseSolveResult(
        phases=PhaseConfig(np.angle(best_vec[:-1])),
        sjnr_linear=best_score,
        sdp_bound=max(fs.ratio_upper_bound, best_score),
        converged=fs.converged,
    )


def optimize(scenario: Scenario, settings: OptimizerSettings | None = None, seed: int = 0) -> OptResult:
    """Power at the cap and one phase solve, reported against identity.

    This is alternating optimization run to its fixed point: for fixed
    phases the SJNR p*F(u) / (p_jam*G(u) + N) increases in p, so the power
    step returns the cap whatever the phases are; for fixed power the phase
    maximizer of F(u) / (p_jam*G(u) + N) does not depend on p. A second
    round would repeat the same phase solve.
    """
    settings = settings or OptimizerSettings()
    channels = build_channel_set(scenario)
    gains = effective_gains(channels, identity_phases(scenario.num_elements))
    p_tx = optimize_power(gains, scenario.p_tx_max)
    start = sjnr(gains, p_tx, scenario.p_jam, scenario.noise_power)
    ps = optimize_phases(lift(channels, scenario, p_tx=p_tx), settings, seed)
    best = sjnr(
        effective_gains(channels, ps.phases), p_tx, scenario.p_jam, scenario.noise_power
    )
    return OptResult(
        phases=ps.phases,
        p_tx=p_tx,
        sjnr_trace=(start, best),
        sdp_bound=max(ps.sdp_bound, best.sjnr_linear),
        converged=ps.converged,
        seed=seed,
        settings=settings,
    )


# The benchmark's tracer (bench/tracing.py) wraps this name; same function.
alternate = optimize
