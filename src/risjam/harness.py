"""Baselines, brute-force oracle, figure sweeps, and CSV emission.

The sweeps move one scenario coordinate along a grid (transmitter height,
RIS height, or element count), run the optimizer plus two labeled
non-optimized baselines at every point, and emit deterministic CSV rows.
The baselines and the oracle read every SJNR from LiftedProblem.powers,
as link.evaluate does.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .channel import TWO_PI, PhaseConfig, build_channel_set
from .link import SjnrReport, evaluate, lift
from .optimizer import OptimizerSettings, OptResult, optimize
from .scenario import Position3D, Scenario, ValidationError, _integer, default_scenario, linear_to_db

SWEEP_VARIABLES = ("leo_distance", "ris_distance", "num_elements")
CSV_HEADER = "variable,K,method,sjnr_db,sdp_bound_db,runtime_ms,seed"
ORACLE_BUDGET = 1_000_000


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One figure sweep: a variable, its grid, RIS sizes, and a base scenario.

    For leo_distance / ris_distance the rows are the cartesian product of
    grid values and RIS sizes; for num_elements the grid pairs with
    ris_sizes index by index (grid[i] == rows*cols of ris_sizes[i]). The
    sizes must have distinct element counts, because CSV rows carry K, not
    the RIS shape.
    """

    variable: str
    grid: tuple
    ris_sizes: tuple
    base: Scenario
    seed: int = 0

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValidationError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValidationError("grid must be nonempty")
        sizes = tuple((int(r), int(c)) for r, c in self.ris_sizes)
        if not sizes:
            raise ValidationError("ris_sizes must be nonempty")
        if any(r < 1 or c < 1 for r, c in sizes):
            raise ValidationError("ris_sizes entries must be >= 1x1")
        counts = [r * c for r, c in sizes]
        listing = ", ".join(f"{r}x{c}={r * c}" for r, c in sizes)
        if len(set(counts)) != len(counts):
            raise ValidationError(f"RIS sizes must have distinct element counts, got {listing}")
        if self.variable == "num_elements":
            if len(sizes) != len(grid):
                raise ValidationError(
                    "num_elements sweep needs one RIS size per grid value"
                )
            for v, (r, c) in zip(grid, sizes):
                if v != r * c:
                    raise ValidationError(
                        f"grid value {v} does not match RIS size {r}x{c}"
                    )
        if any(b <= a for a, b in zip(grid, grid[1:])):
            if self.variable == "num_elements":
                raise ValidationError(
                    f"RIS sizes must have strictly increasing element counts, got {listing}"
                )
            raise ValidationError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "ris_sizes", sizes)
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))

    @property
    def points(self) -> list:
        if self.variable == "num_elements":
            return list(zip(self.grid, self.ris_sizes))
        return [(v, s) for v in self.grid for s in self.ris_sizes]


@dataclass(frozen=True)
class SweepRow:
    """One CSV row; converged is diagnostic and not emitted."""

    variable_value: float
    k: int
    method: str
    sjnr_db: float
    sdp_bound_db: float | None
    runtime_ms: int
    seed: int
    converged: bool = True


def baseline_identity(scenario: Scenario) -> SjnrReport:
    """SJNR at identity phases and the power cap; one non-optimized reading."""
    return evaluate(scenario)


def baseline_random_mean(scenario: Scenario, n_samples: int = 100, seed: int = 0) -> SjnrReport:
    """Means over uniform random phases at the power cap; the other reading.

    Each field is its own sample mean: sjnr_linear of the SJNR, signal_w
    of p_tx*gamma and jam_w of p_jam*delta. So sjnr_linear is in general
    not signal_w / (jam_w + noise_w).
    """
    n_samples = _integer("n_samples", n_samples, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    phasors = np.exp(1j * rng.uniform(0.0, TWO_PI, (n_samples, scenario.num_elements)))
    block = np.vstack([phasors.T, np.ones(n_samples, dtype=complex)])
    powers = lift(build_channel_set(scenario), scenario).powers(block)
    signal_w, jam_w, sjnr_linear = (float(np.mean(p)) for p in powers)
    return SjnrReport(sjnr_linear, linear_to_db(sjnr_linear), signal_w, jam_w, scenario.noise_power)


def oracle_exhaustive(scenario: Scenario, levels: int) -> SjnrReport:
    """Exact maximum SJNR over the quantized phase grid {2 pi m / levels}.

    Guarded: levels**K must not exceed the evaluation budget of 1e6.
    """
    levels = _integer("levels", levels, 1)
    k = scenario.num_elements
    if levels**k > ORACLE_BUDGET:
        raise ValidationError(
            f"exhaustive budget exceeded: {levels}**{k} > {ORACLE_BUDGET}"
        )
    axis = TWO_PI * np.arange(levels) / levels
    # Row i: the base-levels digits of i, most significant first (meshgrid's 'ij' order, any K).
    combos = axis[np.arange(levels**k)[:, None] // levels ** np.arange(k - 1, -1, -1) % levels]
    block = np.vstack([np.exp(1j * combos).T, np.ones(len(combos), dtype=complex)])
    lifted = lift(build_channel_set(scenario), scenario)
    return lifted.report(PhaseConfig(combos[int(np.argmax(lifted.sjnr_of(block)))]))


def _scenario_at(spec: SweepSpec, value: float, size: tuple) -> Scenario:
    k_rows, k_cols = size
    base = spec.base
    if spec.variable == "leo_distance":
        pos = Position3D(base.pos_tx.x, base.pos_tx.y, float(value))
        return dataclasses.replace(base, pos_tx=pos, k_rows=k_rows, k_cols=k_cols)
    if spec.variable == "ris_distance":
        pos = Position3D(base.pos_ris.x, base.pos_ris.y, float(value))
        return dataclasses.replace(base, pos_ris=pos, k_rows=k_rows, k_cols=k_cols)
    return dataclasses.replace(base, k_rows=k_rows, k_cols=k_cols)


def run_sweep(
    spec: SweepSpec,
    settings: OptimizerSettings | None = None,
    timing: bool = False,
) -> list:
    """All sweep rows, in deterministic (grid x size x method) order.

    Seeds are fixed by the spec alone, so reruns produce identical rows.
    runtime_ms is 0 unless timing is requested (wall-clock timings are not
    reproducible).
    """
    settings = settings or OptimizerSettings()
    points = spec.points
    children = np.random.SeedSequence(spec.seed).spawn(len(points))
    seeds = [int(child.generate_state(1, np.uint64)[0] % (2**63)) for child in children]

    def ms(t: float) -> int:
        return int(round(t * 1000.0)) if timing else 0

    rows = []
    for (value, size), seed in zip(points, seeds):
        scenario = _scenario_at(spec, value, size)
        k = size[0] * size[1]
        t0 = time.perf_counter()
        res: OptResult = optimize(scenario, settings, seed=seed)
        t_opt = time.perf_counter() - t0
        t0 = time.perf_counter()
        ident = baseline_identity(scenario)
        t_ident = time.perf_counter() - t0
        t0 = time.perf_counter()
        rand = baseline_random_mean(scenario, seed=seed)
        t_rand = time.perf_counter() - t0
        rows += [
            SweepRow(value, k, "optimized", res.final_report.sjnr_db,
                     linear_to_db(res.sdp_bound), ms(t_opt), seed, res.converged),
            SweepRow(value, k, "identity", ident.sjnr_db, None, ms(t_ident), seed),
            SweepRow(value, k, "random_mean", rand.sjnr_db, None, ms(t_rand), seed),
        ]
    return rows


def fig2_spec(base: Scenario | None = None, seed: int = 0) -> SweepSpec:
    """Transmitter height 300-1200 km for 9, 25, and 100 RIS elements."""
    return SweepSpec(
        variable="leo_distance",
        grid=tuple(float(z) for z in range(300_000, 1_200_001, 100_000)),
        ris_sizes=((3, 3), (5, 5), (10, 10)),
        base=base or default_scenario(),
        seed=seed,
    )


def fig3_spec(base: Scenario | None = None, seed: int = 0) -> SweepSpec:
    """RIS height 10-100 m for 9, 25, and 100 RIS elements."""
    return SweepSpec(
        variable="ris_distance",
        grid=tuple(float(z) for z in range(10, 101, 10)),
        ris_sizes=((3, 3), (5, 5), (10, 10)),
        base=base or default_scenario(),
        seed=seed,
    )


def fig4_spec(base: Scenario | None = None, seed: int = 0) -> SweepSpec:
    """Square RIS sizes from 2x2 up to 10x10 at the default geometry."""
    sizes = tuple((n, n) for n in range(2, 11))
    return SweepSpec(
        variable="num_elements",
        grid=tuple(float(r * c) for r, c in sizes),
        ris_sizes=sizes,
        base=base or default_scenario(),
        seed=seed,
    )


def format_csv_rows(rows) -> str:
    """Render rows under the fixed header; dB values carry 4 decimals."""

    def num(v: float) -> str:
        return format(float(v), ".10g")

    lines = [CSV_HEADER]
    for row in rows:
        bound = "" if row.sdp_bound_db is None else f"{row.sdp_bound_db:.4f}"
        lines.append(
            f"{num(row.variable_value)},{row.k},{row.method},"
            f"{row.sjnr_db:.4f},{bound},{row.runtime_ms},{row.seed}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_csv_rows(rows))
