"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each public function of the package's modules
with a wrapper that times the call, and also replaces the names other
modules imported (``cli.kernel_presentation``, ``moebius.kernel_sample``
and so on), so calls between layers are seen too.  ``uninstall`` puts the
originals back, so untraced passes run the program exactly as shipped.

A wrapper keeps, per function and per operation: calls, inclusive time,
self time (inclusive minus its traced children) and layer time (inclusive
minus the traced descendants that belong to other layers).  Spans are
summed as they close, so memory does not grow with the run.
"""

from __future__ import annotations

import functools
import inspect
import time
import types

from . import checkers

LAYERS = ("strata", "homorbits", "freegroup", "cyclic_schottky", "surfaces",
          "moebius", "cli")

# Functions called once per tuple or per word from inside their own layer:
# a wrapper would cost about as much as they do, so their time counts to
# their caller.
_UNWRAPPED = {"is_prime", "is_admissible", "m_count", "dimension",
              "component_bounds", "kernel_membership", "classify"}


def _arg(bound, name):
    return bound.arguments[name]


def _orbit_counters(bound, result, bucket):
    p, r, s = _arg(bound, "p"), _arg(bound, "r"), _arg(bound, "s")
    action = bound.arguments.get("action")
    scalings = p - 1 if action is not None and action.global_scale else 1
    n, k = (p - 1) ** (r + s), r + s
    bucket["vectors"] = bucket.get("vectors", 0) + n * scalings
    # the vector array and its mapped copy (bytes), their uint64 codes and
    # the running minimum, plus np.unique's sorted copy: computed, not
    # measured
    array_bytes = n * (2 * k + 8 * k + 3 * 8)
    bucket["array_bytes"] = max(bucket.get("array_bytes", 0), array_bytes)


def _bfs_counters(bound, result, bucket):
    states = checkers.bfs_state_count(_arg(bound, "p"), _arg(bound, "t"),
                                      _arg(bound, "r"), _arg(bound, "s"))
    bucket["states"] = bucket.get("states", 0) + states


def _rotation_counters(bound, result, bucket):
    tuples = (_arg(bound, "p") - 1) ** _arg(bound, "m")
    bucket["rot_tuples"] = bucket.get("rot_tuples", 0) + tuples


def _add(key, size):
    def hook(bound, result, bucket):
        bucket[key] = bucket.get(key, 0) + size(result)
    return hook


_COUNTERS = {
    ("strata", "enumerate_tuples"): _add("rows", len),
    ("homorbits", "orbit_count_tuples"): _orbit_counters,
    ("homorbits", "bfs_orbit_count"): _bfs_counters,
    ("surfaces", "count_orbits"): _rotation_counters,
    ("freegroup", "schreier_kernel"):
        _add("letters", lambda words: sum(len(w.letters) for w in words)),
    ("cyclic_schottky", "kernel_presentation"): _add("generators", len),
    ("cyclic_schottky", "kernel_sample"): _add("sampled_words", len),
    ("moebius", "purely_loxodromic_sample"):
        _add("classified_words", lambda rep: rep["n_words"]),
    ("cli", "run"): _add("output_bytes", lambda res: len(res[2])),
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if (isinstance(fn, types.FunctionType)
                and fn.__module__ == module.__name__
                and name not in _UNWRAPPED):
            yield name, fn


class Tracer:
    def __init__(self, package, modules):
        """``package`` is the imported top-level package and ``modules``
        maps layer name to its module."""
        self._package = package
        self._modules = modules
        self._stack = []
        self._bucket = {}
        self._swaps = []  # (namespace, attribute, original, wrapper)

    # -- installation -----------------------------------------------------

    def install(self):
        namespaces = [self._package] + list(self._modules.values())
        for layer in LAYERS:
            for name, fn in _public_functions(self._modules[layer]):
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._swaps.append((ns, attr, fn, wrapper))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn, _wrapper in reversed(self._swaps):
            setattr(ns, attr, fn)
        self._swaps = []

    # -- per-operation buckets --------------------------------------------

    def begin_op(self):
        self._bucket = {}

    def end_op(self):
        bucket, self._bucket = self._bucket, {}
        return bucket

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        hook = _COUNTERS.get(key)
        signature = inspect.signature(fn) if hook else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # [time in traced children, time in other-layer descendants, layer]
            frame = [0.0, 0.0, layer]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += elapsed if parent[2] != layer else frame[1]
                rec = self._bucket.setdefault(key, [0, 0.0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
                rec[3] += elapsed - frame[1]
            if hook is not None:
                hook(signature.bind(*args, **kwargs), result, self._bucket)
            return result

        return wrapper
