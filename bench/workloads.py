"""The three workloads: what one round runs, how it is checked, what it reports.

An operation is one ``optimize`` call or one sweep point. A round runs the
same operations in the same order every time, so repeated rounds must return
identical results. Correctness checks run after the timed rounds.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import time

import numpy as np

import risjam
import risjam.cli

import checks

LADDER_SIZES = (3, 5, 10)  # square RIS sides: K = 9, 25, 100
# Default-geometry solves each round runs, as (square side, repeats). They
# give every workload its solve_s.k9/k25/k100; the small sizes repeat so that
# each run holds dozens of samples of them.
ANCHORS = ((3, 20), (5, 20), (10, 1))
FIG4_K = tuple(n * n for n in range(2, 11))
CORPUS_SIZE = 200
# The corpus scenarios are drawn once from this fixed seed (the one ROADMAP's
# random corpus uses); --seed drives the solver seeds and the solve order. A
# corpus redrawn per seed is dominated by how many Dinkelbach-creep instances
# it happens to hold: 200-instance totals of 6.4-28.2 s over seeds 0-5.
CORPUS_DRAW_SEED = 7


@dataclasses.dataclass
class Op:
    """One operation of a round and what it returned."""

    kind: str
    k: int
    seconds: float
    result: object = None
    scenario: object = None
    index: int = 0
    errors: list = dataclasses.field(default_factory=list)
    gain_db: float = math.nan


def _solve(kind, scenario, seed, index=0) -> Op:
    t0 = time.perf_counter()
    try:
        res = risjam.optimize(scenario, seed=seed)
    except Exception as exc:  # an operation that raises counts as failed
        return Op(kind, scenario.num_elements, time.perf_counter() - t0, None, scenario, index,
                  [f"raised {type(exc).__name__}: {exc}"])
    op = Op(kind, scenario.num_elements, time.perf_counter() - t0, res, scenario, index)
    if not res.converged:
        op.errors.append("returned converged=False")
    return op


def _check_solve(op: Op) -> None:
    """Independent SJNR recomputation and the identity <= optimized <= bound sandwich."""
    if op.result is None:
        return
    sc, res = op.scenario, op.result
    channels = risjam.build_channel_set(sc)
    thetas = res.phases.thetas
    sjnr = res.final_report.sjnr_linear
    op.errors += checks.check_solve(sc, channels, thetas, res.p_tx, sjnr, res.sdp_bound)
    if op.kind == "corpus":
        op.errors += checks.check_grid(sc, channels, sjnr, res.sdp_bound)
    if op.kind == "no_jammer":
        op.errors += checks.check_no_jammer(sc, channels, sjnr)
    identity = checks.sjnr_linear(channels, np.zeros(len(thetas)), sc.p_tx_max, sc.p_jam,
                                  sc.noise_power)
    op.gain_db = checks.db(checks.sjnr_linear(channels, thetas, res.p_tx, sc.p_jam,
                                              sc.noise_power)) - checks.db(float(identity))


def _check_solves(ops) -> None:
    """Check the first of each repeated solve in full; hold each repeat (same
    scenario, same seed) to identical phases, and give it the same gain."""
    first: dict = {}
    for op in ops:
        key = (op.kind, op.k, op.index)
        ref = first.get(key)
        if ref is None or ref.result is None:
            _check_solve(op)
            first[key] = op
        elif op.result is not None:
            if not np.array_equal(ref.result.phases.thetas, op.result.phases.thetas):
                op.errors.append("a repeated solve returned other phases")
            op.gain_db = ref.gain_db


def _times(ops, kind, k=None) -> list:
    return [op.seconds for op in ops if op.kind == kind and (k is None or op.k == k)]


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))-weighted
    mean of all order statistics.

    A single order statistic jumps where the distribution is steep: the
    corpus's 95th percentile falls among its few slow instances, which take
    0.07 to 0.2 s each and trade places when the host's speed changes. The
    weights spread over neighbouring ranks, so a reordering moves it little.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 200 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def _solve_metrics(timed, tail, solved, solve_time, round_walls) -> dict:
    """The end-to-end metrics but set-up and memory.

    tail: the per-operation times the quantiles are taken over (on ladder and
    sweep, the solves the per-size times come from: per round 20 at K = 9,
    20 at K = 25 and one at K = 100, so p50 falls among the fastest K = 25
    solves); solved and solve_time: the operations and the seconds
    solves_per_s divides. The
    per-size times are the fastest repeat, as timeit reports: on a shared
    host the same solve runs at either of two speeds (9 or 15 ms at K = 9,
    switching within seconds, in CPU time as in wall time), and the mix moves
    a median or a mean by 30% from run to run.
    """
    return {
        **{f"solve_s.k{n * n}": min(_times(timed, "anchor", n * n))
           for n in LADDER_SIZES if _times(timed, "anchor", n * n)},
        "solve_s.p50": float(np.quantile(tail, 0.50)),
        "solve_s.p95": float(np.quantile(tail, 0.95)),
        "solves_per_s": solved / solve_time,
        "sweep_s": statistics.median(round_walls),
        "sjnr_gain_db": float(np.mean([op.gain_db for op in timed])),
    }


class Anchored:
    """A workload whose rounds hold the default-geometry anchor solves."""

    anchor_spec = ANCHORS

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        # Interleaved, so each size samples the whole round rather than one stretch.
        queue = [n for n, repeats in self.anchor_spec for _ in range(repeats)]
        order = sorted(range(len(queue)), key=lambda i: (queue[:i].count(queue[i]) + 0.5)
                       / queue.count(queue[i]))
        self.anchors = [risjam.default_scenario(k_rows=queue[i], k_cols=queue[i]) for i in order]

    def warmup(self) -> None:
        risjam.optimize(risjam.default_scenario(k_rows=2, k_cols=2), seed=self.seed)

    def round(self) -> list:
        return [_solve("anchor", sc, self.seed) for sc in self.anchors]


class Ladder(Anchored):
    """optimize on default_scenario at 3x3, 5x5 and 10x10, repeated: the anchors alone."""

    def finish(self, timed) -> list:
        """Solve each size once without the jammer, then check everything."""
        extra = [_solve("no_jammer", dataclasses.replace(
            risjam.default_scenario(k_rows=n, k_cols=n), p_jam=0.0), self.seed)
            for n in LADDER_SIZES]
        _check_solves(timed + extra)
        return extra

    def metrics(self, timed, round_walls) -> dict:
        everything = _times(timed, "anchor")
        return _solve_metrics(timed, everything, len(everything), sum(everything), round_walls)


def draw_scenario(rng: np.random.Generator):
    """A random valid scenario over the ranges of tests/conftest.py (K = 1..9)."""
    P = risjam.Position3D
    ue = P(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)), 0.0)
    ris = P(ue.x + float(rng.uniform(-100, 100)), ue.y + float(rng.uniform(-100, 100)),
            float(rng.uniform(10.0, 200.0)))
    tx = P(float(rng.uniform(-3e5, 3e5)), float(rng.uniform(-3e5, 3e5)),
           float(rng.uniform(2e5, 1.5e6)))
    jam = P(float(rng.uniform(-3e5, 3e5)), float(rng.uniform(-3e5, 3e5)),
            float(rng.uniform(2e6, 4e7)))
    return risjam.Scenario(
        pos_tx=tx, pos_jam=jam, pos_ris=ris, pos_ue=ue,
        p_tx_max=risjam.db_to_linear(float(rng.uniform(10.0, 25.0))),
        p_jam=risjam.db_to_linear(float(rng.uniform(20.0, 35.0))),
        noise_power=risjam.noise_power_from(1e6, -174.0, 1.0),
        k_rows=int(rng.integers(1, 4)), k_cols=int(rng.integers(1, 4)),
        wavelength=0.15, element_spacing=0.075,
        rho=risjam.db_to_linear(float(rng.uniform(-70.0, -40.0))),
        alpha_direct=2.0, alpha_ris=2.0,
    )


class Corpus(Anchored):
    """200 random small-K scenarios one after another, with the anchors spread
    among them.

    Spread, so that the fastest repeat of each size samples the whole round:
    the host's slow stretches last seconds, and anchors run back to back at the
    start of a round fell into one of them together.
    """

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        rng = np.random.default_rng(CORPUS_DRAW_SEED)
        self.scenarios = [draw_scenario(rng) for _ in range(CORPUS_SIZE)]
        self.order = np.random.default_rng(seed).permutation(CORPUS_SIZE).tolist()
        self.before = {}  # corpus position -> the anchors solved just before it
        for a, sc in enumerate(self.anchors):
            self.before.setdefault(a * CORPUS_SIZE // len(self.anchors), []).append(sc)

    def round(self) -> list:
        ops = []
        for j, i in enumerate(self.order):
            ops += [_solve("anchor", sc, self.seed) for sc in self.before.get(j, ())]
            ops.append(_solve("corpus", self.scenarios[i], self.seed + i, index=i))
        return ops

    def finish(self, timed) -> list:
        _check_solves(timed)
        return []

    def metrics(self, timed, round_walls) -> dict:
        tail = _times(timed, "corpus")
        out = _solve_metrics(timed, tail, len(tail), sum(tail), round_walls)
        # Over the corpus, the quantiles are Harrell-Davis estimates: its 95th
        # percentile falls on the steep part of the tail.
        out["solve_s.p50"] = hd_quantile(tail, 0.50)
        out["solve_s.p95"] = hd_quantile(tail, 0.95)
        return out


class Sweep(Anchored):
    """risjam.cli.main(["sweep", "--figure", "fig4", ...]) in this process, with
    half the anchors before it and half after (spread, as on Corpus).

    Points run two at a time in the pool, so the small points' own times (the
    CLI's --timing) swing by 2x from sweep to sweep: solve_s.k9/k25 and the
    quantiles come from the anchors. solve_s.k100 is the sweep's own K = 100
    point, which an anchor of that size would only repeat at a quarter of the
    run's time.
    """

    anchor_spec = ANCHORS[:2]

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self.config = os.path.join(outdir, "sweep-config.json")
        self.csv = os.path.join(outdir, f"sweep-fig4-seed{seed}.csv")
        with open(self.config, "w") as fh:
            json.dump({}, fh)  # every key at its default: the paper's geometry
        self.argv = ["sweep", "--figure", "fig4", "--config", self.config, "--out", self.csv,
                     "--seed", str(seed), "--timing"]
        self.texts = []
        self.walls = []

    def round(self) -> list:
        half = len(self.anchors) // 2
        anchors = [_solve("anchor", sc, self.seed) for sc in self.anchors[:half]]
        if os.path.exists(self.csv):
            os.remove(self.csv)  # so a sweep that writes nothing leaves no old CSV to check
        t0 = time.perf_counter()
        try:
            code = risjam.cli.main(self.argv)
            error = None if code == 0 else f"sweep exited with {code}"
        except Exception as exc:  # every point of the command fails with it
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        text = ""
        if os.path.exists(self.csv):  # also after exit code 3 (a point did not converge)
            with open(self.csv) as fh:
                text = fh.read()
        self.texts.append(text)
        ops = []
        for k in FIG4_K:
            op = Op("sweep", k, wall / len(FIG4_K), index=len(self.texts) - 1)
            if error:
                op.errors.append(error)
            ops.append(op)
        _, rows = checks.parse_sweep_csv(text)
        for row in rows:
            if row.get("method") == "optimized" and int(row["K"]) in FIG4_K:
                ops[FIG4_K.index(int(row["K"]))].seconds = int(row["runtime_ms"]) / 1000.0
        return anchors + ops + [_solve("anchor", sc, self.seed) for sc in self.anchors[half:]]

    def finish(self, timed) -> list:
        _check_solves([op for op in timed if op.kind == "anchor"])
        base = risjam.default_scenario()
        identity_db = {}
        for k in FIG4_K:
            n = math.isqrt(k)
            sc = dataclasses.replace(base, k_rows=n, k_cols=n)
            ch = risjam.build_channel_set(sc)
            identity_db[k] = checks.db(float(checks.sjnr_linear(
                ch, np.zeros(k), sc.p_tx_max, sc.p_jam, sc.noise_power)))
        reference = None
        for r, text in enumerate(self.texts):
            ops = [op for op in timed if op.kind == "sweep" and op.index == r]
            if not text:
                continue
            errors = checks.check_sweep(text, FIG4_K, identity_db)
            rows = checks.sweep_rows_without_runtime(text)
            if reference is None:
                reference = rows
            elif rows != reference:
                errors[None].append("a repeated sweep wrote other rows")
            _, parsed = checks.parse_sweep_csv(text)
            sjnr = {(int(row["K"]), row["method"]): float(row["sjnr_db"])
                    for row in parsed if "bad" not in row}
            for op in ops:
                op.errors += errors.get(op.k, []) + errors[None]
                if (op.k, "optimized") in sjnr and (op.k, "identity") in sjnr:
                    op.gain_db = sjnr[(op.k, "optimized")] - sjnr[(op.k, "identity")]
        return []

    def metrics(self, timed, round_walls) -> dict:
        per_size = _times(timed, "anchor") + _times(timed, "sweep", 100)
        out = _solve_metrics(timed, per_size, len(FIG4_K) * len(self.walls), sum(self.walls),
                             self.walls)
        out["solve_s.k100"] = min(_times(timed, "sweep", 100))
        return out


WORKLOADS = {"ladder": Ladder, "corpus": Corpus, "sweep": Sweep}
