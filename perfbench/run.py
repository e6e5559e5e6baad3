"""Benchmark of the schottky_strata package, run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census, oracles, kernels (see README.md).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.
The line before it gives the raw wall-clock figures beside the calibrated
ones.  Exits with code 2, printing no result, when the package source is
missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "schottky_strata"


def plain_run(runner):
    from perfbench import measure

    setups = [runner.setup_round() for _ in range(measure.SETUP_ROUNDS)]
    pkg, ops = setups[-1][0], setups[-1][1]
    records = runner.measure(ops, runner.until_seconds(runner.seconds))
    peak = measure.peak_rss_mb()
    failed, wrong = measure.problems(records)
    wrong += measure.post_checks(runner, pkg, ops)
    figures = measure.summary(records)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {name: {"value": cal, "unit": units[name]}
               for name, (cal, _raw) in figures.items()}
    metrics["setup_s"] = {"value": statistics.median(s[3] for s in setups),
                          "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    raw = {name: raw for name, (_cal, raw) in figures.items()}
    raw["setup_s"] = statistics.median(s[2] for s in setups)
    raw["host_ref_ms"] = statistics.median(runner.ref_samples) * 1000
    info = {"workload": runner.workload, "seed": runner.seed,
            "passes": len(records) // len(ops), "raw": raw,
            "problems": (failed + wrong)[:5]}
    return len(records), len(failed), wrong, metrics, info


def main(argv=None):
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: package source not found at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # third-party dependencies are loaded before any set-up is timed
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    from perfbench import measure, traced

    runner = measure.Runner(args.workload, args.seed, args.seconds, str(ROOT))
    run = traced.traced_run if args.trace else plain_run
    attempted, failed, wrong, metrics, info = run(runner)
    for problem in wrong:
        print(problem, file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
