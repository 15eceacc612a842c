"""Command-line interface: eval, optimize, sweep, and oracle subcommands.

Exit codes: 0 on success, 2 on configuration or validation errors, 3 when
a solver failed to converge (partial output is still emitted).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .channel import PhaseConfig, build_channel_set
from .harness import (
    fig2_spec,
    fig3_spec,
    fig4_spec,
    oracle_exhaustive,
    run_sweep,
    write_sweep_csv,
)
from .link import evaluate
from .optimizer import OptimizerSettings, optimize
from .scenario import ValidationError, _number, load_config

_FIG_SPECS = {"fig2": fig2_spec, "fig3": fig3_spec, "fig4": fig4_spec}


def _load_phases(path: str) -> PhaseConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read phases {path}: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("phases_rad")
    if not isinstance(data, list):
        raise ValidationError(
            "phases file must be a JSON list of radians or an object with a phases_rad list"
        )
    return PhaseConfig([_number(f"phases[{i}] in {path}", t) for i, t in enumerate(data)])


def _cmd_eval(args) -> int:
    scenario = load_config(args.config)
    phases = _load_phases(args.phases) if args.phases else None
    report = evaluate(scenario, phases)
    if args.dump_channels:
        with open(args.dump_channels, "w") as fh:
            json.dump(build_channel_set(scenario).to_json_dict(), fh, indent=2)
            fh.write("\n")
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def _cmd_optimize(args) -> int:
    scenario = load_config(args.config)
    result = optimize(scenario, OptimizerSettings(args.inner_max_iters), seed=args.seed)
    print(json.dumps(result.to_json_dict(), indent=2))
    return 0 if result.converged else 3


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: {exc}") from exc


def _parse_sizes(text: str) -> tuple:
    sizes = []
    for token in text.split(","):
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise ValidationError(f"bad RIS size {token!r}; expected RxC like 3x3")
        try:
            sizes.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"bad RIS size {token!r}: {exc}") from exc
    return tuple(sizes)


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    spec = _FIG_SPECS[args.figure](base=base, seed=args.seed)
    overrides = {}
    if args.ris_sizes is not None:
        sizes = _parse_sizes(args.ris_sizes)
        overrides["ris_sizes"] = sizes
        if spec.variable == "num_elements":
            overrides["grid"] = tuple(float(r * c) for r, c in sizes)
    if args.grid is not None:
        if spec.variable == "num_elements":
            raise ValidationError(
                "the element-count sweep derives its grid from --ris-sizes"
            )
        overrides["grid"] = _parse_grid(args.grid)
    spec = dataclasses.replace(spec, **overrides)
    rows = run_sweep(spec, OptimizerSettings(args.inner_max_iters), timing=args.timing)
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0 if all(row.converged for row in rows) else 3


def _cmd_oracle(args) -> int:
    scenario = load_config(args.config)
    report = oracle_exhaustive(scenario, args.levels)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risjam",
        description="RIS-assisted satellite downlink simulator and SJNR optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate SJNR for a config")
    p_eval.add_argument("--config", required=True, help="scenario JSON file")
    p_eval.add_argument("--phases", help="JSON file with RIS phases in radians")
    p_eval.add_argument("--dump-channels", help="write the channel set JSON here")
    p_eval.set_defaults(func=_cmd_eval)

    p_opt = sub.add_parser("optimize", help="jointly optimize power and phases")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--inner-max-iters", type=int,
                       default=OptimizerSettings.inner_max_iters)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="reproduce a figure sweep as CSV")
    p_sweep.add_argument("--figure", required=True, choices=sorted(_FIG_SPECS))
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--timing", action="store_true",
                         help="record wall-clock runtime_ms (breaks rerun identity)")
    p_sweep.add_argument("--grid", help="override grid, comma-separated values")
    p_sweep.add_argument("--ris-sizes", dest="ris_sizes",
                         help="override RIS sizes, e.g. 3x3,5x5")
    p_sweep.add_argument("--inner-max-iters", type=int,
                         default=OptimizerSettings.inner_max_iters)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exhaustive quantized-phase maximum")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--levels", type=int, required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
