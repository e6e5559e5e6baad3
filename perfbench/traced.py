"""The traced run: per-layer figures and the overhead of tracing.

Passes of the workload alternate between untraced and traced, so the
difference of their calibrated op latencies is the tracing overhead.  Each
per-layer metric belongs to the workload that drives that layer (the table
in README.md); a metric whose workload is not the one running is taken from
one traced pass of its own workload, built from the same seed.  The
fresh-interpreter figures (``cli.import_ms``, ``cli.interpreter_ms``) come
from child processes on every workload.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from . import measure, tracing, workloads

# share of --seconds spent on the alternating passes; the rest goes to the
# fresh-interpreter launches and the passes of the other workloads
_ALTERNATING_SHARE = 0.6
_LAUNCHES = 3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import schottky_strata.cli; "
                 "print(time.perf_counter() - t)")


def _fresh_interpreter(runner):
    """(import ms, bare interpreter ms), medians of calibrated launches."""
    env = dict(os.environ, PYTHONPATH=os.path.join(runner.root, "src"))
    imports, bare = [], []
    for _ in range(_LAUNCHES):
        refs = [runner.ref() for _ in range(3)]
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=runner.root,
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=runner.root, env=env,
                       timeout=120, check=True)
        elapsed = time.perf_counter() - start
        refs += [runner.ref() for _ in range(3)]
        imports.append(runner.calibrated(float(proc.stdout), refs))
        bare.append(runner.calibrated(elapsed, refs))
    return statistics.median(imports) * 1000, statistics.median(bare) * 1000


def _aggregate(records):
    funcs = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    counters = defaultdict(int)
    array_bytes = 0
    for _raw, factor, _status, bucket in records:
        for key, value in bucket.items():
            if isinstance(key, tuple):
                rec = funcs[key]
                rec[0] += value[0]
                for i in (1, 2, 3):
                    rec[i] += value[i] * factor
            elif key == "array_bytes":
                array_bytes = max(array_bytes, value)
            else:
                counters[key] += value
    return {"ops": len(records), "funcs": funcs, "counters": counters,
            "array_bytes": array_bytes}


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_metrics(agg):
    """Per-layer metrics from the traced aggregates of each workload."""
    def fn(owner, layer, name):
        return agg[owner]["funcs"].get((layer, name), [0, 0.0, 0.0, 0.0])

    def per_call_ms(owner, layer, name, field=1):
        rec = fn(owner, layer, name)
        return _ratio(rec[field], rec[0]) * 1000

    def layer_self_ms_per_op(owner, layer):
        total = sum(rec[2] for (lay, _n), rec in agg[owner]["funcs"].items()
                    if lay == layer)
        return _ratio(total, agg[owner]["ops"]) * 1000

    def count(owner, key):
        return agg[owner]["counters"].get(key, 0)

    schreier = fn("kernels", "freegroup", "schreier_kernel")
    fold = fn("kernels", "freegroup", "fold")
    sample = fn("kernels", "cyclic_schottky", "kernel_sample")
    lox = fn("kernels", "moebius", "purely_loxodromic_sample")
    return {
        "strata.enumerate_ms": (layer_self_ms_per_op("census", "strata"), "ms"),
        "strata.rows_per_s": (_ratio(count("census", "rows"),
                                     fn("census", "strata", "enumerate_tuples")[1]), "1/s"),
        "cli.run_self_ms": (layer_self_ms_per_op("census", "cli"), "ms"),
        "cli.output_bytes": (_ratio(count("census", "output_bytes"),
                                    agg["census"]["ops"]), "bytes"),
        "homorbits.canonical_ms": (per_call_ms("oracles", "homorbits",
                                               "orbit_count_tuples"), "ms"),
        "homorbits.vectors_per_s": (_ratio(count("oracles", "vectors"),
                                           fn("oracles", "homorbits",
                                              "orbit_count_tuples")[1]), "1/s"),
        "homorbits.bfs_ms": (per_call_ms("oracles", "homorbits", "bfs_orbit_count"), "ms"),
        "homorbits.bfs_states_per_s": (_ratio(count("oracles", "states"),
                                              fn("oracles", "homorbits",
                                                 "bfs_orbit_count")[1]), "1/s"),
        "homorbits.array_mb": (agg["oracles"]["array_bytes"] / 2**20, "MB"),
        "surfaces.count_orbits_ms": (per_call_ms("oracles", "surfaces", "count_orbits"), "ms"),
        "surfaces.tuples_per_s": (_ratio(count("oracles", "rot_tuples"),
                                         fn("oracles", "surfaces", "count_orbits")[1]), "1/s"),
        "freegroup.schreier_ms": (per_call_ms("kernels", "freegroup", "schreier_kernel"), "ms"),
        "freegroup.fold_ms": (per_call_ms("kernels", "freegroup", "fold"), "ms"),
        "freegroup.letters_per_s": (_ratio(count("kernels", "letters"),
                                           schreier[1] + fold[1]), "1/s"),
        "cyclic_schottky.presentation_ms": (per_call_ms("kernels", "cyclic_schottky",
                                                        "kernel_presentation"), "ms"),
        "cyclic_schottky.generators_per_s": (_ratio(count("kernels", "generators"),
                                                    fn("kernels", "cyclic_schottky",
                                                       "kernel_presentation")[1]), "1/s"),
        "cyclic_schottky.sample_ms": (per_call_ms("kernels", "cyclic_schottky",
                                                  "kernel_sample"), "ms"),
        "cyclic_schottky.sampled_words": (_ratio(count("kernels", "sampled_words"),
                                                 sample[0]), "count"),
        "moebius.build_ms": (per_call_ms("kernels", "moebius", "build_matrix_group"), "ms"),
        "moebius.classify_ms": (per_call_ms("kernels", "moebius",
                                            "purely_loxodromic_sample", field=3), "ms"),
        "moebius.words_per_s": (_ratio(count("kernels", "classified_words"), lox[3]), "1/s"),
    }


def _function_table(agg):
    return {owner: {f"{layer}.{name}": {"calls": rec[0], "inclusive_ms": rec[1] * 1000,
                                        "self_ms": rec[2] * 1000,
                                        "layer_ms": rec[3] * 1000}
                    for (layer, name), rec in sorted(data["funcs"].items())}
            for owner, data in agg.items()}


def _mean_ms(records):
    return _ratio(sum(raw * f for raw, f, _s, _b in records), len(records)) * 1000


def traced_run(runner):
    pkg, ops, _raw, _cal = runner.setup_round()
    start = time.perf_counter()
    import_ms, interpreter_ms = _fresh_interpreter(runner)
    tracer = tracing.Tracer(pkg.top, pkg.modules)

    untraced, traced = [], []
    window = runner.seconds * _ALTERNATING_SHARE
    while True:
        untraced += runner.measure(ops, measure.one_pass)
        tracer.install()
        try:
            traced += runner.measure(ops, measure.one_pass, tracer)
        finally:
            tracer.uninstall()
        enough = len(untraced) >= measure.MIN_OPS // 2
        if enough and time.perf_counter() - start >= window:
            break

    failed, wrong = measure.problems(untraced + traced)
    agg = {runner.workload: _aggregate(traced)}
    for owner in workloads.WORKLOADS:
        if owner in agg:
            continue
        owner_ops = workloads.build(owner, runner.seed, pkg)
        tracer.install()
        try:
            records = runner.measure(owner_ops, measure.one_pass, tracer)
        finally:
            tracer.uninstall()
        # failures there are counted by that workload's own runs
        wrong += measure.problems(records)[1]
        agg[owner] = _aggregate(records)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in _layer_metrics(agg).items()}
    metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    metrics["cli.interpreter_ms"] = {"value": interpreter_ms, "unit": "ms"}
    metrics["host.ref_ms"] = {"value": statistics.median(runner.ref_samples) * 1000,
                              "unit": "ms"}
    metrics["trace.overhead_ms"] = {"value": _mean_ms(traced) - _mean_ms(untraced),
                                    "unit": "ms"}

    out_dir = os.path.join(runner.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{runner.workload}-{runner.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": runner.workload, "seed": runner.seed,
                   "functions": _function_table(agg)}, fh, indent=1)

    info = {"workload": runner.workload, "seed": runner.seed,
            "trace_file": os.path.relpath(path, runner.root),
            "untraced_op_ms": _mean_ms(untraced), "traced_op_ms": _mean_ms(traced),
            "problems": (failed + wrong)[:5]}
    return len(untraced) + len(traced), len(failed), wrong, metrics, info
