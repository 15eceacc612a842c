"""Correctness checks that do not trust the program's own answers.

Each check returns a list of failure messages (empty when it passes). The
SJNR is recomputed here with plain numpy from the channel vectors, so a wrong
phase vector, a wrong reported SJNR or a bound below a feasible point all
show, whatever the solver believes about itself.
"""
from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "variable,K,method,sjnr_db,sdp_bound_db,runtime_ms,seed"
SWEEP_METHODS = ("optimized", "identity", "random_mean")
BOUND_SLACK = 1e-6  # relative slack allowed above the certified bound
RECOMPUTE_RTOL = 1e-9  # own SJNR vs the reported one
GRID_MARGIN_DB = 0.05  # optimized may trail the brute-force grid by this much
CSV_DB_STEP = 1e-4  # the CSV rounds dB values to 4 decimals
GRID_LEVELS = {1: 720, 2: 128, 3: 32}  # K -> phase levels per element (at most 33k points)


def db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0.0 else -math.inf


def sjnr_linear(channels, thetas, p_tx, p_jam, noise):
    """p_tx |h_d + sum_k conj(h_ris_ue) e^{j theta} h_sat_ris|^2 / (p_jam |...|^2 + noise).

    thetas may be one phase vector (K,) or a batch (N, K).
    """
    u = np.exp(1j * np.asarray(thetas, dtype=float))
    r = np.conj(np.asarray(channels.h_ris_ue))
    tx = channels.h_tx_ue + u @ (r * np.asarray(channels.h_tx_ris))
    jam = channels.h_jam_ue + u @ (r * np.asarray(channels.h_jam_ris))
    return p_tx * np.abs(tx) ** 2 / (p_jam * np.abs(jam) ** 2 + noise)


def check_solve(scenario, channels, thetas, p_tx, sjnr_reported, bound) -> list:
    """Recomputed SJNR matches; identity <= optimized <= bound*(1+1e-6)."""
    errors = []
    if not p_tx <= scenario.p_tx_max * (1.0 + 1e-12):
        errors.append(f"p_tx {p_tx!r} exceeds the cap {scenario.p_tx_max!r}")
    own = float(sjnr_linear(channels, thetas, p_tx, scenario.p_jam, scenario.noise_power))
    if not abs(own - sjnr_reported) <= RECOMPUTE_RTOL * max(abs(own), 1e-300):
        errors.append(f"reported SJNR {sjnr_reported!r} but the phases give {own!r}")
    identity = float(sjnr_linear(channels, np.zeros(len(thetas)), scenario.p_tx_max,
                                 scenario.p_jam, scenario.noise_power))
    if not identity <= own * (1.0 + 1e-12):
        errors.append(f"optimized SJNR {own!r} is below identity {identity!r}")
    if not (math.isfinite(bound) and own <= bound * (1.0 + BOUND_SLACK)):
        errors.append(f"SJNR {own!r} exceeds the certified bound {bound!r}")
    return errors


def grid_maximum(scenario, channels, levels: int) -> float:
    """Brute-force maximum SJNR over the phase grid {2 pi m / levels}^K."""
    k = scenario.num_elements
    axis = 2.0 * math.pi * np.arange(levels) / levels
    grid = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    return float(np.max(sjnr_linear(channels, grid, scenario.p_tx_max, scenario.p_jam,
                                    scenario.noise_power)))


def check_grid(scenario, channels, sjnr_opt, bound) -> list:
    """For K <= 3: optimized >= grid max - 0.05 dB and grid max <= bound."""
    levels = GRID_LEVELS.get(scenario.num_elements)
    if levels is None:
        return []
    best = grid_maximum(scenario, channels, levels)
    errors = []
    if db(sjnr_opt) < db(best) - GRID_MARGIN_DB:
        errors.append(f"optimized {db(sjnr_opt):.4f} dB trails the grid {db(best):.4f} dB")
    if not best <= bound * (1.0 + BOUND_SLACK):
        errors.append(f"grid point {best!r} beats the certified bound {bound!r}")
    return errors


def check_no_jammer(scenario, channels, sjnr_opt) -> list:
    """With p_jam = 0 the optimum aligns every path: (|h_d| + sum|h_r||h_s|)^2."""
    coherent = (abs(channels.h_tx_ue)
                + float(np.sum(np.abs(channels.h_ris_ue) * np.abs(channels.h_tx_ris)))) ** 2
    closed = scenario.p_tx_max * coherent / scenario.noise_power
    rel = abs(sjnr_opt - closed) / closed
    return [] if rel <= 1e-6 else [f"no-jammer optimum off the closed form by {rel:.2e}"]


def parse_sweep_csv(text: str) -> tuple:
    """(header, rows as dicts of strings); a row of the wrong width is {"bad": line}."""
    lines = text.splitlines()
    header = lines[0] if lines else ""
    keys = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append(dict(zip(keys, fields)) if len(fields) == len(keys) else {"bad": line})
    return header, rows


def check_sweep(text: str, sizes, identity_db) -> dict:
    """Per element count K: the failures of that sweep point's rows.

    identity_db maps K to the benchmark's own identity SJNR (dB). The key
    None collects failures that belong to no single point (header, trend).
    """
    header, rows = parse_sweep_csv(text)
    errors: dict = {None: []}
    if header != CSV_HEADER:
        errors[None].append(f"CSV header {header!r} != {CSV_HEADER!r}")
    by_k: dict = {}
    for row in rows:
        if "bad" in row:
            errors[None].append(f"malformed row {row['bad']!r}")
            continue
        by_k.setdefault(int(row["K"]), {})[row["method"]] = row
    gains = []
    for k in sizes:
        errs = errors.setdefault(k, [])
        point = by_k.pop(k, {})
        if sorted(point) != sorted(SWEEP_METHODS):
            errs.append(f"K={k}: methods {sorted(point)} != {sorted(SWEEP_METHODS)}")
            continue
        opt = float(point["optimized"]["sjnr_db"])
        bound = float(point["optimized"]["sdp_bound_db"])
        ident = float(point["identity"]["sjnr_db"])
        rand = float(point["random_mean"]["sjnr_db"])
        if abs(ident - identity_db[k]) > CSV_DB_STEP:
            errs.append(f"K={k}: identity {ident} dB, recomputed {identity_db[k]:.4f} dB")
        if opt < ident - CSV_DB_STEP:
            errs.append(f"K={k}: optimized {opt} dB below identity {ident} dB")
        if max(opt, rand) > bound + CSV_DB_STEP:
            errs.append(f"K={k}: a row exceeds the bound {bound} dB")
        gains.append((k, opt - ident))
    for k in by_k:
        errors[None].append(f"unexpected sweep point K={k}")
    for (k0, g0), (k1, g1) in zip(gains, gains[1:]):
        if g1 < g0 - 2 * CSV_DB_STEP:
            errors[None].append(f"gain falls from {g0:.4f} dB at K={k0} to {g1:.4f} at K={k1}")
    return errors


def sweep_rows_without_runtime(text: str) -> list:
    """The CSV with the wall-clock runtime_ms column blanked, for rerun identity."""
    _, rows = parse_sweep_csv(text)
    return [{**row, "runtime_ms": ""} for row in rows]
