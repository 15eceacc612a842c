"""Span recording around risjam's public entry points, and per-layer metrics.

A Tracer replaces each traced function with a wrapper, in every risjam module
that holds a reference to it (``from .x import f`` copies the name), and
restores the originals on uninstall. numpy.linalg.eigh/eigvalsh are wrapped on
the numpy.linalg module, which sdp_core looks them up on at every call.

Each span records its id, parent, name, thread, the id of the enclosing
``optimize`` span, start and end (perf_counter seconds), the matrix order of
an eigensolver call and counts read from the returned object. Every thread
appends one tuple per span to a shared list (``list.append`` holds the GIL);
``write`` writes them out.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

OPTIMIZE = "optimizer.optimize"


def _sdp_counts(args, kwargs, out):
    return {"iterations": out.iterations, "converged": out.converged}


def _fractional_counts(args, kwargs, out):
    return {"inner_solves": out.inner_solves, "converged": out.converged}


def _optimize_counts(args, kwargs, out):
    sjnr = out.final_report.sjnr_linear
    gap_db = 10.0 * math.log10(out.sdp_bound / sjnr) if sjnr > 0.0 else math.inf
    return {"gap_db": gap_db, "converged": out.converged,
            "outer_iterations": out.outer_iterations}


# (module, attribute, span name, counts read from the returned object)
TRACED = (
    ("risjam.channel", "build_channel_set", "channel.build_channel_set", None),
    ("risjam.link", "effective_gains", "link.effective_gains", None),
    ("risjam.link", "sjnr", "link.sjnr", None),
    ("risjam.link", "evaluate", "link.evaluate", None),
    ("risjam.sdp_core", "solve_unit_diag_sdp", "sdp_core.solve_unit_diag_sdp", _sdp_counts),
    ("risjam.sdp_core", "solve_fractional_sdp", "sdp_core.solve_fractional_sdp",
     _fractional_counts),
    ("risjam.sdp_core", "extract_rank_one", "sdp_core.extract_rank_one", None),
    ("risjam.optimizer", "lift", "optimizer.lift", None),
    ("risjam.optimizer", "optimize_phases", "optimizer.optimize_phases", None),
    ("risjam.optimizer", "alternate", "optimizer.alternate", None),
    ("risjam.optimizer", "optimize", OPTIMIZE, _optimize_counts),
    ("risjam.harness", "baseline_identity", "harness.baseline_identity", None),
    ("risjam.harness", "baseline_random_mean", "harness.baseline_random_mean", None),
    ("risjam.harness", "run_sweep", "harness.run_sweep", None),
    ("risjam.harness", "write_sweep_csv", "harness.write_sweep_csv", None),
    ("risjam.cli", "main", "cli.main", None),
)
EIGEN = (("eigh", "sdp_core.eigh"), ("eigvalsh", "sdp_core.eigvalsh"))


class Span(NamedTuple):
    """One finished span; thread is 0 for the tracer's own thread, then 1, 2, ..."""

    id: int
    parent: int
    name: str
    thread: int
    opt: int
    start: float
    end: float
    order: int = 0
    counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Stack(threading.local):
    def __init__(self):
        self.open = []  # (span id, optimize id) of this thread's open spans


class Tracer:
    """Records spans while installed; construct it on the thread that runs the workload."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._thread = threading.get_ident()
        self._stack = _Stack()
        self._records = []  # one Span-shaped tuple per finished span, from every thread
        self._wrappers = []  # (module, attribute, wrapper)
        self._patched = []

    def _wrap(self, fn, name, counts=None, sized=False):
        is_optimize = name == OPTIMIZE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack.open
            sid = next(self._ids)
            parent, opt = stack[-1] if stack else (0, 0)
            if is_optimize:
                opt = sid
            stack.append((sid, opt))
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                self._records.append((
                    sid, parent, name, threading.get_ident(), opt, start, end,
                    args[0].shape[-1] if sized else 0,
                    counts(args, kwargs, out) if counts is not None and out is not None else {},
                ))

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a risjam module refers to it."""
        if not self._wrappers:
            modules = [m for n, m in list(sys.modules.items())
                       if (n == "risjam" or n.startswith("risjam.")) and m is not None]
            for mod_name, attr, name, counts in TRACED:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(original, name, counts)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._wrappers.append((mod, key, wrapper))
            for attr, name in EIGEN:
                wrapper = self._wrap(getattr(np.linalg, attr), name, sized=True)
                self._wrappers.append((np.linalg, attr, wrapper))
        for mod, key, wrapper in self._wrappers:
            self._patched.append((mod, key, getattr(mod, key)))
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def spans(self) -> list:
        """The finished spans in id order, with threads numbered from 0."""
        threads = {self._thread: 0}
        out = []
        for r in sorted(self._records):
            thread = threads.setdefault(r[3], len(threads))
            out.append(Span(*r[:3], thread, *r[4:]))
        return out

    def write(self, path: str) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        spans = self.spans()
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        return len(spans)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that children cover."""
    children: dict = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer figures per traced round, from the spans of those rounds."""
    rounds = max(rounds, 1)
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / rounds

    def total(name):
        return sum(s.duration for s in by_name.get(name, ())) / rounds

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, ())) / rounds

    def count_sum(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ())) / rounds

    sdp = by_name.get("sdp_core.solve_unit_diag_sdp", ())
    optimizes = by_name.get(OPTIMIZE, ())
    gaps = [s.counts["gap_db"] for s in optimizes if "gap_db" in s.counts]
    # Pool threads start with an empty stack, so their spans are roots off thread 0.
    worker_roots = [s for s in spans if s.thread != 0 and not s.parent]
    busy = sum(s.duration for s in worker_roots)
    capacity = 0.0
    for sweep in by_name.get("harness.run_sweep", ()):
        inside = {s.thread for s in worker_roots if sweep.start <= s.start <= sweep.end}
        capacity += sweep.duration * len(inside)
    return {
        "sdp_core.eigh.calls": calls("sdp_core.eigh"),
        "sdp_core.eigh.s": total("sdp_core.eigh"),
        "sdp_core.eigh.n3": sum(s.order ** 3 for s in by_name.get("sdp_core.eigh", ())) / rounds,
        "sdp_core.admm_iterations": count_sum("sdp_core.solve_unit_diag_sdp", "iterations"),
        "sdp_core.admm_capped": sum(1 for s in sdp if not s.counts.get("converged", True)) / rounds,
        "sdp_core.dinkelbach_steps": count_sum("sdp_core.solve_fractional_sdp", "inner_solves"),
        "sdp_core.solve_unit_diag_sdp.self_s": self_s("sdp_core.solve_unit_diag_sdp"),
        "sdp_core.eigvalsh.calls": calls("sdp_core.eigvalsh"),
        "sdp_core.extract_rank_one.s": total("sdp_core.extract_rank_one"),
        "sdp_core.cert_gap_db.max": max(gaps) if gaps else 0.0,
        "optimizer.optimize_phases.calls": (
            len(by_name.get("optimizer.optimize_phases", ())) / len(optimizes) if optimizes else 0.0
        ),
        "optimizer.alternate.self_s": self_s("optimizer.alternate"),
        "optimizer.lift.s": total("optimizer.lift"),
        "channel.build_channel_set.calls": calls("channel.build_channel_set"),
        "channel.build_channel_set.s": total("channel.build_channel_set"),
        "link.effective_gains.calls": calls("link.effective_gains"),
        "link.effective_gains.s": total("link.effective_gains"),
        "harness.point.busy_s": busy / rounds,
        "harness.pool.efficiency": busy / capacity if capacity else 0.0,
        "harness.baseline_random_mean.s": total("harness.baseline_random_mean"),
        "harness.write_sweep_csv.s": total("harness.write_sweep_csv"),
        "cli.main.self_s": self_s("cli.main"),
    }
