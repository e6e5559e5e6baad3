"""Batch command-line front end.

Every command prints one JSON envelope {command, inputs, results, checks}
(or CSV for the two table commands under --csv), as the text of
json.dumps(envelope, indent=2, allow_nan=False) with table rows filled
from templates.  Output is deterministic; --meta adds a timestamp block
outside the payload.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage error.

Check records and refusals come from ``strata``.  Each handler imports the
other layers it uses when it is dispatched, so ``count``, ``tuples``,
``bounds`` and ``report`` load no other module of the package, and
``verify example2`` loads only ``surfaces``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import strata
from .strata import (AdmissibleTuple, BudgetExceeded, check, within_budget,
                     writable)


def _tuple_from_args(args):
    return AdmissibleTuple(args.g, args.p, args.t, args.r, args.s)


def _phi_from_args(spec, phi_text):
    from .cyclic_schottky import KHom, normalized_homs
    from .homorbits import HomImage
    if phi_text is None:
        return next(iter(normalized_homs(spec)))
    data = json.loads(phi_text)
    if not isinstance(data, dict):
        raise ValueError("--phi must be a JSON object with keys a, e, tau, f")
    unknown = sorted(data.keys() - {"a", "e", "tau", "f"})
    if unknown:
        raise ValueError(f"--phi: unknown key {unknown[0]!r}; the keys are "
                         "a, e, tau, f")
    for key in ("a", "e", "tau", "f"):
        value = data.get(key, [])
        # type, not isinstance: true and false are not integers here
        if not isinstance(value, list) or any(type(c) is not int for c in value):
            raise ValueError(
                f"--phi: {key!r} must be a list of integers, got {value!r}")
    hom = HomImage(
        spec.p,
        a=tuple(data.get("a", [0] * spec.t)),
        e=tuple(data.get("e", [])),
        tau=tuple(data.get("tau", [0] * spec.s)),
        f=tuple(data.get("f", [])),
    )
    return KHom(spec, hom)


def _stratum_row(tup):
    what, h = f"M of {tup}", (tup.p - 1) // 2
    # before M, which can take seconds
    strata.refuse_unwritable(strata.multiset_log10(h, tup.r, tup.s), what)
    m, exact, basis = strata.component_bounds(*tup)
    return (*tup, writable(m, what),
            writable(strata.dimension(*tup), f"the dimension of {tup}"),
            exact, basis)


def _stratum_dict(row):
    # the bounds results, and the form that every report row prints: M is
    # both m_count and the upper bound on the components
    g, p, t, r, s, m, dim, exact, basis = row
    return {
        "tuple": {"g": g, "p": p, "t": t, "r": r, "s": s},
        "m_count": m,
        "dimension": dim,
        "components": {"upper": m, "exact": exact, "basis": basis},
    }


# --------------------------------------------------------------------------
# command handlers: each returns (results, checks)

def _cmd_tuples(args):
    g, p = args.g, args.p
    within_budget(strata.count_strata(p, g), args.budget, "rows")
    tuples = strata.tuple_rows(g, p)
    # the rows failing in one pass: g and p, a negative entry, the genus
    admissible = not [(rg, rp, t, r, s) for rg, rp, t, r, s in tuples
                      if not (rg == g and rp == p and t >= 0 and r >= 0
                              and s >= 0 and p * (t + r + s - 1) + 1 - r == g)]
    return {"count": len(tuples), "tuples": tuples}, [check(
        "all_admissible", admissible,
        f"{len(tuples)} tuples verified against the defining relation")]


def _cmd_count(args):
    n = writable(strata.count_strata(args.p, args.g), "the count")
    checks = []
    if args.p in (2, 3):
        closed = strata.closed_form_count(args.p, args.g)
        checks.append(check("closed_form_agreement", closed == n,
                            f"enumeration {n}, closed form {closed}"))
    return {"count": n}, checks


def _cmd_oracle(args):
    from . import homorbits
    action = homorbits.PERM_INV_SCALE if args.scale else homorbits.PERM_INV
    count = homorbits.orbit_count_tuples(args.p, args.r, args.s, action,
                                         budget=args.budget)
    results = {"orbit_count": count, "scaled": bool(args.scale)}
    closed = homorbits.closed_form_orbit_count(args.p, args.r, args.s,
                                               args.scale)
    checks = [check("closed_form_agreement", closed == count,
                    f"cycle index {count}, closed form {closed}")]
    if args.t is not None:
        # the shape must realise a genus g >= 2, as for the tuple commands
        g = strata.genus(args.p, args.t, args.r, args.s)
        AdmissibleTuple(g, args.p, args.t, args.r, args.s)
        bfs = homorbits.bfs_orbit_count(
            args.p, args.t, args.r, args.s, action, budget=args.budget
        )
        results["bfs_orbit_count"] = bfs
        checks.append(check("bfs_matches_canonical", bfs == count,
                            f"bfs {bfs}, cycle index {count}"))
    return results, checks


def _cmd_bounds(args):
    return _stratum_dict(_stratum_row(_tuple_from_args(args))), []


def _cmd_kernel(args):
    from .cyclic_schottky import (build_spec, fpword_str, kernel_membership,
                                  kernel_presentation)
    tup = _tuple_from_args(args)
    # all g words and their text are held before any is written
    within_budget(tup.g, _ROW_BUDGET, "basis words")
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
        from .freegroup import verify_example1
        return {"suite": "example1"}, verify_example1()["checks"]
    from . import surfaces
    p, m = args.p, args.m
    tup = surfaces.example2_type(p, m)
    results = {"suite": "example2", "type": tup._asdict()}
    genus, fixed, quotient = surfaces.riemann_hurwitz(p, m)
    family = f"p={p} m={m}"
    checks = [
        check("riemann_hurwitz_genus", genus == tup.g,
              f"{family}: Z_{p}^2 cover branched at {4 * m} points has "
              f"g={genus}, type g={tup.g}"),
        check("sigma1_fixed_points", fixed == 2 * tup.r,
              f"{family}: sigma1 fixes {fixed} points over the {2 * m} "
              f"a-points, 2r={2 * tup.r}"),
        check("quotient_genus", quotient == tup.t + tup.s,
              f"{family}: S/<sigma1> branched at {2 * m} points has "
              f"genus {quotient}, t+s={tup.t + tup.s}"),
    ]
    if m >= 4:
        # component_bounds' rule without its M, which can be too long to
        # form: only theorem_case_3 reads M, and r = mp, s = 0 never meet it
        exact, basis = strata._settled(p, tup.t, tup.r, tup.s, None)
        checks.append(check(
            "family_is_connected_case",
            exact == 1 and basis == "example2_family",
            f"lookup of component_bounds: basis={basis} exact={exact}",
        ))

    witness = surfaces.witness_pair(p, m)
    if witness is None:
        checks.append(check(
            "witness_pair", False,
            f"action on (Z_{p}^*)^{m} is transitive, no witness",
        ))
    else:
        x, y = witness
        results["witness"] = [list(x), list(y)]
        # a rescale or a permutation of x keeps all its entries equal
        first, second = len(set(x)), len(set(y))
        checks.append(check("witness_pair_distinct_orbits",
                            first == 1 < second,
                            f"distinct entries: {first} in the first tuple, "
                            f"{second} in the second"))
    return results, checks


def _within_doubles(handler):
    """``handler`` with an overflow of its matrix arithmetic refused as a
    bad separation, as ``build_matrix_group`` refuses one it cannot place."""
    def refusing(args):
        try:
            return handler(args)
        except OverflowError:
            raise ValueError(f"separation {args.separation} takes the matrix "
                             "arithmetic beyond double precision") from None
    return refusing


def _built_group(tup, args):
    """The matrix group of ``tup`` and its invariant check."""
    from . import moebius
    within_budget(tup.t + tup.r + 2 * tup.s, _MATRIX_BUDGET, "matrices")
    mg = moebius.build_matrix_group(tup, separation=args.separation)
    defects = moebius.matrix_group_defects(mg)
    invariants = check(
        "build_invariants", not defects,
        "; ".join(defects)
        or "order, classification and commutation checks hold",
    )
    return mg, invariants


@_within_doubles
def _cmd_build(args):
    from .cyclic_schottky import symbols
    from .moebius import classify
    mg, invariants = _built_group(_tuple_from_args(args), args)
    matrices = []
    for sym in symbols(mg.spec):
        m = mg.matrices[sym]
        matrices.append(
            {
                "symbol": f"{sym[0]}{sym[1]}",
                "matrix": [[z.real, z.imag] for z in m],
                "center": [mg.centers[sym].real, mg.centers[sym].imag],
                "class": classify(m),
            }
        )
    results = {"tuple": mg.spec._asdict(), "separation": args.separation,
               "matrices": matrices}
    return results, [invariants]


@_within_doubles
def _cmd_loxcheck(args):
    from .moebius import _walk_budget, purely_loxodromic_sample
    tup = _tuple_from_args(args)
    _walk_budget(tup, args.max_syllables, args.budget)  # before any factor
    mg, invariants = _built_group(tup, args)
    phi = _phi_from_args(mg.spec, args.phi)
    report = purely_loxodromic_sample(
        mg, phi, max_syllables=args.max_syllables, budget=args.budget)
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
    # refuse at the first genus past the budget, in rows or in genera
    for visited, g in enumerate(window, 1):
        expected += strata.count_strata(args.p, g)
        within_budget(expected, args.budget, "rows")
        if visited >= args.budget and g < args.g_max:
            within_budget(args.g_max - args.g_min + 1, args.budget, "genera")
    # genus by genus, so a refused M stops the walk before any later genus
    rows = [row for g in window for row in strata.stratum_rows(g, args.p)]
    results = {"p": args.p, "g_min": args.g_min, "g_max": args.g_max,
               "reports": rows}
    checks = [
        check("row_count", len(rows) == expected,
              f"{len(rows)} rows, count_strata sums to {expected}"),
    ]
    return results, checks


# --------------------------------------------------------------------------
# output: every envelope's text is json.dumps(envelope, indent=2,
# allow_nan=False).  Table rows skip it: each row's text is its kind's
# %-template filled from the row tuple with str semantics, and the rows are
# spliced into the text of the rest of the envelope.  A JSON template is
# json.dumps of the row's dict form at the row indent, so a report row
# prints what bounds prints.

_ROW = "\n" + "  " * 3  # a row's indent: an item of the list at results[key]


def _row_template(row):
    return json.dumps(row, indent=2).replace("\n", _ROW).replace('"%s"', "%s")


_TUPLE_JSON = _row_template(dict.fromkeys("gptrs", "%s"))
# basis names are fixed identifiers, which need no escaping
_REPORT_JSON = _row_template(_stratum_dict(["%s"] * 9)).replace(
    '"basis": %s', '"basis": "%s"')


def _csv_output(command, results):
    # None, an unsettled exact count, is an empty field; basis names need
    # no quoting
    if command == "tuples":
        return "".join(["g,p,t,r,s\n", *map("%s,%s,%s,%s,%s\n".__mod__,
                                            results["tuples"])])
    return "".join(["g,p,t,r,s,m_count,dimension,exact,upper,basis\n", *[
        "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n"
        % (g, p, t, r, s, m, dim, "" if exact is None else exact, m, basis)
        for g, p, t, r, s, m, dim, exact, basis in results["reports"]]])


def _json_output(envelope):
    command, results = envelope["command"], envelope["results"]
    texts = []
    if command == "tuples" and results:
        key = "tuples"
        rows, inputs = results[key], envelope["inputs"]
        if envelope["checks"][0]["pass"]:  # each row has the g, p asked
            fill = _TUPLE_JSON % (inputs["g"], inputs["p"], "%s", "%s", "%s")
            texts = [fill % (t, r, s) for _g, _p, t, r, s in rows]
        else:
            texts = list(map(_TUPLE_JSON.__mod__, rows))
    elif command == "report" and results:
        key = "reports"
        # in _stratum_dict's order: upper before exact, None as null
        texts = [_REPORT_JSON % (g, p, t, r, s, m, dim, m,
                                 "null" if exact is None else exact, basis)
                 for g, p, t, r, s, m, dim, exact, basis in results[key]]
    if texts:
        envelope = {**envelope, "results": {**results, key: []}}
    text = json.dumps(envelope, indent=2, allow_nan=False) + "\n"
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
    for name in "gptrs":
        sub.add_argument(f"--{name}", type=int, required=True)


# rows that tuples and report build by default: a report row peaks at
# about 0.95 KB of memory as JSON, so a default run stays near 1 GB
_ROW_BUDGET = 10**6
_MATRIX_BUDGET = 2 * 10**5  # build or loxcheck: about 3.7 KB a matrix


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
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--m", type=int, default=4)

    sp = sub.add_parser("build", help="matrix realisation of a group")
    _add_tuple_flags(sp)
    sp.add_argument("--separation", type=float, default=10.0)

    sp = sub.add_parser("loxcheck", help="classify short kernel words")
    _add_tuple_flags(sp)
    sp.add_argument("--separation", type=float, default=10.0)
    sp.add_argument("--max-syllables", type=int, default=4,
                    dest="max_syllables")
    sp.add_argument("--budget", type=int, default=10**6)
    sp.add_argument("--phi", type=str, default=None)

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

    Table rows in the envelope are plain tuples: (g, p, t, r, s) for
    ``tuples`` and, for ``report``, (g, p, t, r, s, M, dimension, exact,
    basis), which the text prints with M as both m_count and upper."""
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
    except (ValueError, BudgetExceeded) as exc:
        flag = (isinstance(exc, BudgetExceeded)  # --budget, no fixed limit
                and exc.budget == inputs.get("budget"))
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
        from datetime import datetime, timezone
        envelope["meta"] = {
            "timestamp": datetime.now(timezone.utc).isoformat()
        }
    try:  # under --csv, a failed command's envelope says why
        if getattr(args, "csv", False) and results:
            text = _csv_output(args.command, results)
        else:
            text = _json_output(envelope)
    except Exception as exc:
        # a value that no template or json.dumps can write
        envelope["results"], envelope["checks"] = {}, [_crash(exc)]
        text = _json_output(envelope)
    code = 0 if all(c["pass"] for c in envelope["checks"]) else 1
    return code, envelope, text


def main(argv=None):
    code, _envelope, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
