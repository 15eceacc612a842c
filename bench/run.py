"""risjam benchmark: run one workload for a fixed time, check it, print metrics.

    python3 bench/run.py --workload {ladder,corpus,sweep,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; risjam is imported from its ``src/``. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the rounds alternate untraced and traced, and the metrics are the
per-layer ones from the traced rounds' spans (see README.md).
"""
import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy and risjam load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 12
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def import_risjam():
    """Import risjam from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "risjam", "__init__.py")):
        raise SystemExit(f"error: no risjam sources under {SRC}")
    sys.path.insert(0, SRC)
    import risjam

    if os.path.dirname(os.path.dirname(os.path.abspath(risjam.__file__))) != SRC:
        raise SystemExit(f"error: imported risjam from {risjam.__file__}, not {SRC}")
    return risjam


def build(workload: str, seed: int):
    import_risjam()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, OUT)


def setup_probes(workload: str, seed: int, count: int) -> list:
    """Seconds each of ``count`` fresh interpreters takes to import risjam and
    build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_rounds(work, seconds: float, tracer=None) -> list:
    """(wall seconds, ops, traced) per round, while the next group of rounds
    would end no more than half a group past ``seconds``.

    A group is one round, or with a tracer an untraced and a traced round.
    """
    per = 2 if tracer else 1
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            ops = work.round()
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((wall, ops, traced))
        if len(rounds) % per == 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * per * elapsed / len(rounds) > seconds:
                return rounds


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **{name: os.environ.get(name, "(unset)") for name in BLAS_VARS},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # setup_s is the median probe. Half the probes run before the rounds and
    # half after, so that one slow stretch of a shared host does not cover them
    # all: a median of five probes in a row moved by 0.29 (IQR / median)
    # between runs.
    probes = [] if trace else setup_probes(workload, seed, SETUP_REPEATS // 2)
    work = build(workload, seed)
    work.warmup()
    import tracing

    tracer = tracing.Tracer() if trace else None
    rounds = run_rounds(work, seconds, tracer)
    timed = [op for _, ops, _ in rounds for op in ops]
    extra = work.finish(timed)
    ops = timed + extra
    errors = [f"{op.kind} K={op.k}: {e}" for op in ops for e in op.errors]
    failed = sum(1 for op in ops if op.errors)
    if trace:
        spans = tracer.spans()
        n_traced = sum(1 for r in rounds if r[2])
        metrics = tracing.layer_metrics(spans, n_traced)
        traced = [w for w, _, t in rounds if t]
        plain = [w for w, _, t in rounds if not t]
        metrics["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(plain)
        path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write(path)
        print(f"{len(spans)} spans of {n_traced} traced round(s) written to {path}")
    else:
        walls = [w for w, _, _ in rounds]
        metrics = work.metrics(timed, walls)
        probes += setup_probes(workload, seed, SETUP_REPEATS - len(probes))
        metrics["setup_s"] = statistics.median(probes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json's")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "rounds": len(rounds),
    }


def report(workload: str, result: dict) -> None:
    print(f"[{workload}] rounds={result['rounds']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"[{workload}]   {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ladder", "corpus", "sweep", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        build(args.workload, args.seed)
        print(time.perf_counter() - _T0)
        return 0
    import_risjam()
    print("environment: " + json.dumps(environment()))
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, result)
        del result["rounds"]
        print(json.dumps(result))
        return 0

    # Each workload in its own interpreter, so set-up and peak memory are its own.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("ladder", "corpus", "sweep"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if line.startswith(f"[{name}]")))
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
