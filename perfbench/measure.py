"""Set-up, whole-pass measurement and calibration shared by the plain and
the traced run."""

from __future__ import annotations

import importlib
import math
import random
import resource
import statistics
import sys
import time

from . import calibrate, tracing, workloads

SETUP_ROUNDS = 3
# op_p90_ms needs ten operations beyond it, so every run makes at least this
# many, in whole passes
MIN_OPS = 100


def _purge_package():
    for name in [n for n in sys.modules
                 if n == "schottky_strata" or n.startswith("schottky_strata.")]:
        del sys.modules[name]


class Package:
    """The freshly imported package: the top-level module and one
    attribute per layer module."""

    def __init__(self):
        self.top = importlib.import_module("schottky_strata")
        self.modules = {layer: importlib.import_module(f"schottky_strata.{layer}")
                        for layer in tracing.LAYERS}
        for layer, module in self.modules.items():
            setattr(self, layer, module)


class Runner:
    def __init__(self, workload, seed, seconds, root):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.unit = calibrate.RefUnit()
        for _ in range(20):
            self.unit.sample()
        self.ref_samples = []

    # -- calibration ------------------------------------------------------

    def ref(self):
        sample = self.unit.sample()
        self.ref_samples.append(sample)
        return sample

    def calibrated(self, raw, refs):
        return raw * calibrate.NOMINAL_S / statistics.median(refs)

    # -- set-up -----------------------------------------------------------

    def setup_round(self):
        """Import the package, build the seeded inputs and run one warm-up
        pass; returns (package, ops, raw seconds, calibrated seconds).
        The warm-up pass is timed and calibrated like a measured pass, and
        its output checks are not timed."""
        refs = [self.ref() for _ in range(3)]
        start = time.perf_counter()
        _purge_package()
        pkg = Package()
        ops = workloads.build(self.workload, self.seed, pkg)
        raw = time.perf_counter() - start
        refs += [self.ref() for _ in range(3)]
        cal = self.calibrated(raw, refs)
        warm = self.measure(ops, one_pass)
        raw += sum(r for r, _f, _s, _b in warm)
        cal += sum(r * f for r, f, _s, _b in warm)
        return pkg, ops, raw, cal

    # -- measurement ------------------------------------------------------

    def measure(self, ops, stop, tracer=None):
        """Run whole passes of ``ops`` until ``stop(passes, attempted,
        elapsed, pass_seconds)`` is true.  Returns a record per operation:
        (raw seconds, calibration factor, status, trace bucket)."""
        refs = [self.ref()]
        raws, statuses, buckets = [], [], []
        start = time.perf_counter()
        passes = 0
        while True:
            pass_start = time.perf_counter()
            for op in ops:
                if tracer is not None:
                    tracer.begin_op()
                t0 = time.perf_counter()
                try:
                    out = op.call()
                    status = "ok"
                except Exception as exc:  # the program failed the operation
                    status = f"failed: {op.label}: {type(exc).__name__}: {exc}"
                raw = time.perf_counter() - t0
                buckets.append(tracer.end_op() if tracer is not None else None)
                refs.append(self.ref())
                if status == "ok":
                    try:
                        op.check(out)
                    except workloads.OpFailed as exc:
                        status = f"failed: {op.label}: {exc}"
                    except Exception as exc:  # WrongOutput, or malformed output
                        status = f"wrong: {op.label}: {type(exc).__name__}: {exc}"
                raws.append(raw)
                statuses.append(status)
            passes += 1
            now = time.perf_counter()
            if stop(passes, len(raws), now - start, now - pass_start):
                break
        factors = calibrate.local_factors(refs, len(raws))
        return list(zip(raws, factors, statuses, buckets))

    def until_seconds(self, seconds):
        def stop(passes, attempted, elapsed, pass_seconds):
            return attempted >= MIN_OPS and elapsed + pass_seconds > seconds
        return stop


def one_pass(passes, attempted, elapsed, pass_seconds):
    return True


def percentile(values, q):
    """Nearest-rank percentile: of 100 values, p90 leaves ten above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(records):
    """(calibrated, raw) figures over the operations that did not fail;
    throughput divides their number by the time of all operations."""
    ok = [(raw, f) for raw, f, status, _ in records if status == "ok"]
    cal_lat = [raw * f * 1000 for raw, f in ok]
    raw_lat = [raw * 1000 for raw, _ in ok]
    cal_total = sum(raw * f for raw, f, _, _ in records)
    raw_total = sum(raw for raw, _, _, _ in records)
    return {
        "ops_per_s": (len(ok) / cal_total, len(ok) / raw_total),
        "op_p50_ms": (statistics.median(cal_lat), statistics.median(raw_lat)),
        "op_p90_ms": (percentile(cal_lat, 0.9), percentile(raw_lat, 0.9)),
    }


def problems(records):
    failed = [s for _, _, s, _ in records if s.startswith("failed")]
    wrong = [s for _, _, s, _ in records if s.startswith("wrong")]
    return failed, wrong


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def post_checks(runner, pkg, ops):
    """Checks outside the timed region; returns a list of errors."""
    errors = []
    try:
        if runner.workload == "census":
            workloads.check_published(pkg)
        elif runner.workload == "kernels":
            rng = random.Random(f"cosets:{runner.seed}")
            workloads.check_cosets(rng, pkg, ops)
    except workloads.WrongOutput as exc:
        errors.append(f"wrong: {exc}")
    return errors
