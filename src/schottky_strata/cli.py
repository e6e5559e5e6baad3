"""Batch command-line front end.

Every command prints one JSON envelope {command, inputs, results, checks}
(or CSV for the two table commands under --csv).  Output is deterministic;
--meta adds a timestamp block outside the payload.  Exit codes: 0 all
checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from datetime import datetime, timezone
from itertools import repeat
from operator import itemgetter

from . import homorbits, moebius, strata, surfaces
from .cyclic_schottky import (
    KHom,
    build_spec,
    fpword_str,
    kernel_membership,
    kernel_presentation,
    normalized_homs,
)
from .freegroup import check, verify_example1
from .homorbits import PERM_INV, PERM_INV_SCALE, HomImage
from .strata import AdmissibleTuple

_E2_SEED = 20240501  # fixed so `verify example2` output is byte-identical


def _tuple_from_args(args):
    return AdmissibleTuple(args.g, args.p, args.t, args.r, args.s)


def _complex_json(z):
    return [z.real, z.imag]


def _matrix_json(m):
    return [_complex_json(z) for z in m.entries()]


def _default_phi(spec):
    return next(iter(normalized_homs(spec)))


def _phi_from_args(spec, phi_text):
    if phi_text is None:
        return _default_phi(spec)
    data = json.loads(phi_text)
    if not isinstance(data, dict):
        raise ValueError("--phi must be a JSON object with keys a, e, tau, f")
    for key in ("a", "e", "tau", "f"):
        value = data.get(key, [])
        if not isinstance(value, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in value
        ):
            raise ValueError(
                f"--phi: {key!r} must be a list of integers, got {value!r}"
            )
    tup = spec.tuple
    hom = HomImage(
        tup.p,
        a=tuple(data.get("a", [0] * tup.t)),
        e=tuple(data.get("e", [])),
        tau=tuple(data.get("tau", [0] * tup.s)),
        f=tuple(data.get("f", [])),
    )
    return KHom(spec, hom)


def _stratum_row(tup):
    g, p, t, r, s = tup
    m, exact, basis = strata.component_bounds(g, p, t, r, s)
    return g, p, t, r, s, m, strata.dimension(g, p, t, r, s), exact, m, basis


def _stratum_dict(row):
    # the bounds results, and the form that every report row prints
    g, p, t, r, s, m, dim, exact, upper, basis = row
    return {
        "tuple": {"g": g, "p": p, "t": t, "r": r, "s": s},
        "m_count": m,
        "dimension": dim,
        "components": {"upper": upper, "exact": exact, "basis": basis},
    }


# --------------------------------------------------------------------------
# command handlers: each returns (results, checks)

def _cmd_tuples(args):
    n = strata.count_strata(args.p, args.g)
    if n > args.budget:
        raise homorbits.BudgetExceeded(n, args.budget, what="rows")
    tuples = strata.enumerate_tuples(args.g, args.p)
    results = {"count": len(tuples), "tuples": tuples}
    checks = [
        check(
            "all_admissible",
            all(g == args.g and p == args.p and min(t, r, s) >= 0
                and g == strata.genus(p, t, r, s) for g, p, t, r, s in tuples),
            f"{len(tuples)} tuples verified against the defining relation",
        )
    ]
    return results, checks


def _cmd_count(args):
    n = strata.count_strata(args.p, args.g)
    checks = []
    if args.p in (2, 3):
        closed = strata.closed_form_count(args.p, args.g)
        checks.append(check("closed_form_agreement", closed == n,
                            f"enumeration {n}, closed form {closed}"))
    return {"count": n}, checks


def _cmd_oracle(args):
    action = PERM_INV_SCALE if args.scale else PERM_INV
    count = homorbits.orbit_count_tuples(
        args.p, args.r, args.s, action, budget=args.budget
    )
    results = {"orbit_count": count, "scaled": bool(args.scale)}
    closed = homorbits.closed_form_orbit_count(args.p, args.r, args.s,
                                               args.scale)
    checks = [check("closed_form_agreement", closed == count,
                    f"enumeration {count}, closed form {closed}")]
    if args.t is not None:
        # the shape must realise a genus g >= 2, as for the tuple commands
        g = strata.genus(args.p, args.t, args.r, args.s)
        AdmissibleTuple(g, args.p, args.t, args.r, args.s)
        bfs = homorbits.bfs_orbit_count(
            args.p, args.t, args.r, args.s, action, budget=args.budget
        )
        results["bfs_orbit_count"] = bfs
        checks.append(check("bfs_matches_canonical", bfs == count,
                            f"bfs {bfs}, canonical {count}"))
    return results, checks


def _cmd_bounds(args):
    return _stratum_dict(_stratum_row(_tuple_from_args(args))), []


def _cmd_kernel(args):
    tup = _tuple_from_args(args)
    spec = build_spec(tup)
    phi = _phi_from_args(spec, args.phi)
    words = kernel_presentation(phi)
    results = {
        "tuple": tup._asdict(),
        "phi": {
            "a": list(phi.hom.a),
            "e": list(phi.hom.e),
            "tau": list(phi.hom.tau),
            "f": list(phi.hom.f),
        },
        "rank": len(words),
        "generators": [fpword_str(w) for w in words],
    }
    checks = [
        check("rank_equals_genus", len(words) == tup.g,
              f"{len(words)} generators for genus {tup.g}"),
        check("all_in_kernel", all(kernel_membership(phi, w) for w in words),
              "every generator has zero image"),
    ]
    return results, checks


def _cmd_verify(args):
    if args.example == "example1":
        report = verify_example1()
        return {"suite": "example1"}, report["checks"]
    return _verify_example2(args)


def _verify_example2(args):
    p = args.p if args.p is not None else 5
    m = args.m if args.m is not None else 4
    moebius.check_finite_positive("tolerance", args.tolerance)
    user_curve = None
    if args.curve is not None:
        user_curve = surfaces.CurveData.from_json(json.loads(args.curve))
    checks = []

    tup = surfaces.example2_type(p, m)
    results = {"suite": "example2", "type": tup._asdict()}
    if m >= 4:
        _m, exact, basis = strata.component_bounds(*tup)
        checks.append(check(
            "family_is_connected_case",
            exact == 1 and basis == "example2_family",
            f"basis={basis} exact={exact}",
        ))

    witness = surfaces.witness_pair(p, m)
    if witness is None:
        checks.append(check(
            "witness_pair", False,
            f"action on (Z_{p}^*)^{m} is transitive, no witness",
        ))
    else:
        x, y = witness
        results["witness"] = [list(x.entries), list(y.entries)]
        checks.append(check("witness_pair_distinct_orbits",
                            not surfaces.same_orbit(x, y),
                            f"{list(x.entries)} vs {list(y.entries)}"))

    rng = random.Random(_E2_SEED)
    residuals = []
    all_pass = True
    for mm in (1, 2):
        for _ in range(5):
            curve = surfaces.random_curve(5, mm, rng)
            rep = surfaces.fixed_point_check(curve, tolerance=1e-9)
            residuals.append(rep["max_residual"])
            all_pass = all_pass and rep["passed"]
    results["fixed_point_max_residual"] = max(residuals)
    checks.append(check("fixed_point_check", all_pass,
                        f"10 instances, max residual {max(residuals):.3e}"))

    if user_curve is not None:
        rep = surfaces.fixed_point_check(user_curve, tolerance=args.tolerance)
        results["curve_report"] = rep
        checks.append(check("user_curve_fixed_points", rep["passed"],
                            f"max residual {rep['max_residual']:.3e}"))
    return results, checks


def _built_group(args):
    """The command's matrix group, its tolerances and its invariant check."""
    tup = _tuple_from_args(args)
    tol = moebius.Tolerances(classify=args.tol_classify, order=args.tol_order)
    mg = moebius.build_matrix_group(tup, separation=args.separation)
    defects = moebius.matrix_group_defects(mg, tol)
    invariants = check(
        "build_invariants", not defects,
        "; ".join(defects)
        or "order, classification and commutation checks hold",
    )
    return tup, tol, mg, invariants


def _cmd_build(args):
    tup, tol, mg, invariants = _built_group(args)
    matrices = []
    for sym in mg.spec.symbols():
        m = mg.matrices[sym]
        matrices.append(
            {
                "symbol": f"{sym[0]}{sym[1]}",
                "matrix": _matrix_json(m),
                "center": _complex_json(mg.centers[sym]),
                "class": moebius.classify(m, tolerances=tol).value,
            }
        )
    results = {"tuple": tup._asdict(), "separation": args.separation,
               "matrices": matrices}
    return results, [invariants]


def _cmd_loxcheck(args):
    tup, tol, mg, invariants = _built_group(args)
    phi = _phi_from_args(mg.spec, args.phi)
    report = moebius.purely_loxodromic_sample(
        mg,
        phi,
        max_syllables=args.max_syllables,
        budget=args.budget,
        tolerances=tol,
    )
    results = {
        "tuple": tup._asdict(),
        "separation": args.separation,
        "report": report,
    }
    checks = [
        check(
            "purely_loxodromic",
            report["passed"],
            f"{report['n_loxodromic']}/{report['n_words']} loxodromic, "
            f"{len(report['violations'])} violations",
        ),
        invariants,
    ]
    return results, checks


def _cmd_report(args):
    if args.g_min > args.g_max:
        raise ValueError(
            f"empty genus window: --g-min {args.g_min} > --g-max {args.g_max}"
        )
    window = range(args.g_min, args.g_max + 1)
    expected = 0
    for g in window:  # refuse at the first genus past the budget
        expected += strata.count_strata(args.p, g)
        if expected > args.budget:
            raise homorbits.BudgetExceeded(expected, args.budget, what="rows")
    rows = [
        _stratum_row(tup)
        for g in window
        for tup in strata.enumerate_tuples(g, args.p)
    ]
    results = {"p": args.p, "g_min": args.g_min, "g_max": args.g_max,
               "reports": rows}
    checks = [
        check("row_count", len(rows) == expected,
              f"{len(rows)} rows, count_strata sums to {expected}"),
    ]
    return results, checks


# --------------------------------------------------------------------------
# envelope encoding: the text of json.dumps(value, indent=2, allow_nan=False),
# byte for byte.  That call runs json's pure-Python encoder, because any
# indent disables the C one.  An encoded JSON string never holds a raw
# newline, so the C encoder with "\n" as item separator turns a sequence
# of scalars into one text that splits back into their texts.  Dicts that
# share their keys (such as loxcheck's words) are encoded a column at a
# time.  Table rows bypass the encoder: see the table section below.

_SCALARS = json.JSONEncoder(separators=("\n", ": "), allow_nan=False)
_CONTAINERS = (dict, list, tuple)


def _key_text(key):
    # json.dumps writes true, null, 1 or 1.5 as the key's string
    if not isinstance(key, (str, int, float, type(None))):
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _SCALARS.encode(key if isinstance(key, str)
                           else _SCALARS.encode(key))


def _indented(value, depth=0):
    """The text of ``value`` at nesting depth ``depth``."""
    if not isinstance(value, _CONTAINERS):
        return _SCALARS.encode(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        keys = [_key_text(k) for k in value]
        items = map("{}: {}".format, keys,
                    _indented_items(list(value.values()), depth + 1))
    else:
        items = _indented_items(value, depth + 1)
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}{inner[:-2]}{brackets[1]}"


def _indented_items(values, depth):
    """The texts of a non-empty sequence of values at ``depth``, in order."""
    kinds = set(map(type, values))
    if not any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return _SCALARS.encode(values)[1:-1].split("\n")
    if kinds == {dict}:
        keys = tuple(values[0])
        # equal keys of other types can print differently (True, 1, 1.0)
        if (keys and all(type(k) is str for k in keys)
                and all(map(keys.__eq__, map(tuple, values)))):
            return _indented_rows(keys, values, depth)
    return [_indented(v, depth) for v in values]


def _indented_rows(keys, rows, depth):
    # dicts with the same str keys in the same order.  itemgetter makes no
    # object per row: a view per row would set off the cyclic garbage
    # collector over the whole envelope.
    inner = "\n" + "  " * (depth + 1)
    parts = []
    for key in keys:
        lead = "," if parts else "{"
        column = list(map(itemgetter(key), rows))
        parts += [repeat(f"{lead}{inner}{_key_text(key)}: "),
                  _indented_items(column, depth + 1)]
    parts.append(repeat(inner[:-2] + "}"))
    return list(map("".join, zip(*parts)))


# --------------------------------------------------------------------------
# tables: each row's text is its kind's %-template filled from the row
# tuple with str semantics, and only the rest of the envelope is encoded.
# A JSON template is the encoder's text of the row's dict form, so a
# report row prints what bounds prints.

_ROW = "\n" + "  " * 3  # a row's indent: an item of the list at results[key]
_TUPLE_JSON = _indented(dict.fromkeys("gptrs", "%s"), 3).replace('"%s"', "%s")
_REPORT_JSON = _indented(_stratum_dict(["%s"] * 10), 3).replace('"%s"', "%s")


def _csv_output(command, results):
    # None, an unsettled exact count, is an empty field; basis names need
    # no quoting
    if command == "tuples":
        return "".join(["g,p,t,r,s\n", *map("%s,%s,%s,%s,%s\n".__mod__,
                                            results["tuples"])])
    return "".join(["g,p,t,r,s,m_count,dimension,exact,upper,basis\n", *[
        "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n"
        % (g, p, t, r, s, m, dim, "" if exact is None else exact, upper, basis)
        for g, p, t, r, s, m, dim, exact, upper, basis in results["reports"]]])


def _json_output(envelope):
    command, results = envelope["command"], envelope["results"]
    if command == "tuples" and results:
        key = "tuples"
        texts = list(map(_TUPLE_JSON.__mod__, results[key]))
    elif command == "report" and results:
        key, quoted = "reports", _SCALARS.encode
        # in _stratum_dict's order: upper before exact, None as null
        texts = [_REPORT_JSON % (g, p, t, r, s, m, dim, upper,
                                 "null" if exact is None else exact,
                                 quoted(basis))
                 for g, p, t, r, s, m, dim, exact, upper, basis
                 in results[key]]
    else:
        return _indented(envelope) + "\n"
    text = _indented({**envelope, "results": {**results, key: []}}) + "\n"
    if not texts:
        return text
    head, mark, tail = text.partition(f'"{key}": [')
    texts[0] = head + mark + _ROW + texts[0]
    texts[-1] += _ROW[:-2] + tail
    return ("," + _ROW).join(texts)


def _crash(exc):
    return check("internal_invariant", False, f"{type(exc).__name__}: {exc}")


_HANDLERS = {
    "tuples": _cmd_tuples,
    "count": _cmd_count,
    "oracle": _cmd_oracle,
    "bounds": _cmd_bounds,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
    "build": _cmd_build,
    "loxcheck": _cmd_loxcheck,
    "report": _cmd_report,
}


def _add_tuple_flags(sub):
    sub.add_argument("--g", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)


def _add_tol_flags(sub):
    sub.add_argument("--tol-classify", type=float, default=1e-9,
                     dest="tol_classify")
    sub.add_argument("--tol-order", type=float, default=1e-8, dest="tol_order")


# rows that tuples and report build by default: a report row peaks at
# about 0.95 KB of memory as JSON, so a default run stays near 1 GB
_ROW_BUDGET = 10**6


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schottky-strata",
        description="Combinatorial invariants of cyclic-Schottky strata",
    )
    parser.add_argument("--meta", action="store_true",
                        help="attach a timestamp block to the envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tuples", help="enumerate admissible (t,r,s)")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--budget", type=int, default=_ROW_BUDGET)

    sp = sub.add_parser("count", help="number of admissible tuples")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("oracle", help="brute-force orbit counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, default=None,
                    help="also run the BFS oracle over the full image space")
    sp.add_argument("--scale", action="store_true")
    sp.add_argument("--budget", type=int, default=10**7)

    sp = sub.add_parser("bounds", help="connected-component bounds")
    _add_tuple_flags(sp)

    sp = sub.add_parser("kernel", help="free generating set of a kernel")
    _add_tuple_flags(sp)
    sp.add_argument("--phi", type=str, default=None,
                    help='images as JSON, e.g. {"a":[0],"e":[1]}')

    sp = sub.add_parser("verify", help="worked-example suites")
    examples = sp.add_subparsers(dest="example", required=True)
    examples.add_parser("example1", help="rank-26 kernel suite")
    sp = examples.add_parser("example2", help="fiber-product family suite")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--curve", type=str, default=None,
                    help="additional CurveData as JSON (complex as [re, im])")
    sp.add_argument("--tolerance", type=float, default=1e-9)

    sp = sub.add_parser("build", help="matrix realisation of a group")
    _add_tuple_flags(sp)
    sp.add_argument("--separation", type=float, default=10.0)
    _add_tol_flags(sp)

    sp = sub.add_parser("loxcheck", help="classify short kernel words")
    _add_tuple_flags(sp)
    sp.add_argument("--separation", type=float, default=10.0)
    sp.add_argument("--max-syllables", type=int, default=4,
                    dest="max_syllables")
    sp.add_argument("--budget", type=int, default=10**6)
    sp.add_argument("--phi", type=str, default=None)
    _add_tol_flags(sp)

    sp = sub.add_parser("report", help="stratum reports over a genus range")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--g-min", type=int, required=True, dest="g_min")
    sp.add_argument("--g-max", type=int, required=True, dest="g_max")
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--budget", type=int, default=_ROW_BUDGET)

    return parser


@functools.cache
def _parser():
    # argparse keeps no state between parse_args calls, so one parser
    # serves every run() in the process
    return build_parser()


def run(argv):
    """Parse and execute; returns (exit_code, envelope_or_None, text).

    Table rows in the envelope are tuples in CSV column order."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if exc.code is not None else 2), None, ""

    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "meta") and v is not None
    }
    try:
        results, checks = _HANDLERS[args.command](args)
    except (ValueError, homorbits.BudgetExceeded) as exc:
        flag = isinstance(exc, homorbits.BudgetExceeded) and "budget" in inputs
        print(f"error: {exc}{'; raise it with --budget' if flag else ''}",
              file=sys.stderr)
        return 2, None, ""
    except Exception as exc:
        # a broken library invariant fails a check instead of escaping
        results, checks = {}, [_crash(exc)]

    envelope = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }
    if args.meta:
        envelope["meta"] = {
            "timestamp": datetime.now(timezone.utc).isoformat()
        }
    try:  # under --csv, a failed command's envelope says why
        if getattr(args, "csv", False) and results:
            text = _csv_output(args.command, results)
        else:
            text = _json_output(envelope)
    except Exception as exc:
        # a value that no template or the encoder can write
        envelope["results"], envelope["checks"] = {}, [_crash(exc)]
        text = _indented(envelope) + "\n"
    code = 0 if all(c["pass"] for c in envelope["checks"]) else 1
    return code, envelope, text


def main(argv=None):
    code, _envelope, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
