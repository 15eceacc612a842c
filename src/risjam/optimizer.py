"""Joint transmit-power and RIS-phase optimization.

The SJNR is strictly increasing in transmit power for fixed phases, so the
transmit power is the cap. The phase subproblem lifts the
unit-modulus phase vector (with a trailing homogenization slot fixed to 1)
so both total path gains become rank-one quadratic forms, relaxes to a
unit-diagonal PSD program, solves the fractional SDP by Dinkelbach
iteration, and recovers feasible phases from the phase-projected leading
eigenvector of its solution. The identity phases and the
transmitter-aligned phases are scored once, seed the solver, and stay in
the candidate pool. Gaussian randomization runs only when the best of
these three candidates fails the solver's certified-gap test, so a
certified solve does not depend on its seed. The phase maximizer does
not depend on the power, so one phase solve at the cap reaches the fixed
point of alternating optimization.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelSet, PhaseConfig, build_channel_set
from .link import SjnrReport, effective_gains, sjnr
from .scenario import Scenario, ValidationError, _integer, linear_to_db
from .sdp_core import _gap_closed, _phase_project, extract_rank_one, solve_fractional_sdp

# Gaussian randomization draws, run only for an uncertified pick.
_N_DRAWS = 200


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
        object.__setattr__(
            self, "inner_max_iters", _integer("inner_max_iters", self.inner_max_iters, 1)
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

    p_tx is the power cap. final_report is the link-path SJNR of the phase
    solve's pick, and converged is that solve's certificate flag.
    """

    phases: PhaseConfig
    p_tx: float
    final_report: SjnrReport
    sdp_bound: float
    converged: bool
    seed: int
    settings: OptimizerSettings

    # One phase solve is the fixed point, so this is always 1. Read by the
    # benchmark's tracer (bench/tracing.py, _optimize_counts).
    outer_iterations = 1

    def to_json_dict(self) -> dict:
        return {
            "phases_rad": [float(t) for t in self.phases.thetas],
            "p_tx_w": self.p_tx,
            "sjnr_linear": self.final_report.sjnr_linear,
            "sjnr_db": self.final_report.sjnr_db,
            "sdp_bound_linear": self.sdp_bound,
            "sdp_bound_db": linear_to_db(self.sdp_bound),
            "converged": self.converged,
            "seed": self.seed,
            "settings": self.settings.to_json_dict(),
        }


def lift(channels: ChannelSet, scenario: Scenario) -> LiftedProblem:
    """The rank-one lifted forms of both total path gains at the power cap.

    The factors are ChannelSet.gain_factors: for any unit-modulus candidate
    u = [e^{j theta_1}, ..., e^{j theta_K}, 1], w^H u is the direct-plus-
    reflected gain that link.effective_gains squares.
    """
    if channels.num_elements != scenario.num_elements:
        raise ValidationError(
            f"channel set has {channels.num_elements} elements, scenario "
            f"{scenario.num_elements}"
        )
    w_tx, w_jam = channels.gain_factors()
    return LiftedProblem(
        w_tx=w_tx,
        w_jam=w_jam,
        p_tx=scenario.p_tx_max,
        p_jam=scenario.p_jam,
        noise_power=scenario.noise_power,
    )


def optimize_phases(lifted: LiftedProblem, settings: OptimizerSettings, seed) -> PhaseSolveResult:
    """Solve the phase subproblem: fractional SDR plus rank-one recovery.

    Two anchors are scored first by their true SJNR: the identity phases
    and the phase projection of the transmitter factor w_tx, its coherent
    alignment (exact in the no-jamming limit). The better one, identity on
    a tie, starts the fractional solver. The phase-projected leading
    eigenvector of the solver's V replaces it if it scores strictly
    higher. A pick that passes the solver's own stopping test against the
    certified bound, bound - score <= tol*(1 + |score|), is returned as
    is. Otherwise _N_DRAWS Gaussian samples from CN(0, V), seeded by seed,
    are scored as well, and the best replaces the pick only if it scores
    strictly higher. So the returned value is always feasible, never below
    either anchor, and under the certified relaxation bound.
    """
    seed = _integer("seed", seed, 0)
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
    lead = _phase_project(np.linalg.eigh(fs.v_opt)[1][:, -1])
    score = float(lifted.sjnr_of(lead[:, None])[0])
    if score > best_score:
        best_vec, best_score = lead, score
    if not _gap_closed(fs.ratio_upper_bound, best_score):
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
    """Power at the cap and one phase solve, evaluated on the link path.

    This is alternating optimization run to its fixed point: for fixed
    phases the SJNR p*F(u) / (p_jam*G(u) + N) increases in p, so the power
    step returns the cap whatever the phases are; for fixed power the phase
    maximizer of F(u) / (p_jam*G(u) + N) does not depend on p. A second
    round would repeat the same phase solve.
    """
    seed = _integer("seed", seed, 0)
    settings = settings or OptimizerSettings()
    channels = build_channel_set(scenario)
    ps = optimize_phases(lift(channels, scenario), settings, seed)
    gains = effective_gains(channels, ps.phases)
    best = sjnr(gains, scenario.p_tx_max, scenario.p_jam, scenario.noise_power)
    return OptResult(
        phases=ps.phases,
        p_tx=scenario.p_tx_max,
        final_report=best,
        sdp_bound=max(ps.sdp_bound, best.sjnr_linear),
        converged=ps.converged,
        seed=seed,
        settings=settings,
    )


# The benchmark's tracer (bench/tracing.py) wraps this name; same function.
alternate = optimize
