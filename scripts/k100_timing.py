"""Time one full joint optimization at 100 RIS elements (101x101 lifted SDP)."""
import argparse
import json
import sys
import time

from risjam import default_scenario, optimize


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)

    scenario = default_scenario(k_rows=10, k_cols=10)
    timings = []
    result = None
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        result = optimize(scenario, seed=args.seed)
        timings.append(time.perf_counter() - t0)

    print(json.dumps({
        "num_elements": scenario.num_elements,
        "lifted_order": scenario.num_elements + 1,
        "seconds": [round(t, 3) for t in timings],
        "best_seconds": round(min(timings), 3),
        "sjnr_db": result.final_report.sjnr_db,
        "sdp_bound_linear": result.sdp_bound,
        "converged": result.converged,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
