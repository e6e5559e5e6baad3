"""The three workloads: seeded operation lists and the checks on their outputs.

Each workload is a fixed list of *slots*.  A slot fixes what sets an
operation's cost (the command and prime, the orbit oracle and its vector
count, the kernel shape); the seed draws everything that leaves the cost
about the same (genus windows, splits r + s = k, the homomorphism images,
the order of the list).  So every seed gives a list of one cost class,
about 10 to 30 ms an operation on the reference host, and two seeds give
lists of nearly the same total cost.

Every output is checked against :mod:`.checkers`, never against a stored
copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from . import checkers as ck


class OpFailed(Exception):
    """The program did not complete the operation: it raised, or returned an
    exit code other than the one the operation expects."""


class WrongOutput(Exception):
    """The program completed the operation but its output disagrees with an
    independent checker."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # (p, t, r, s) of a kernel presentation, for the coset-enumeration check
    coset_input: tuple | None = None


def _expect(cond, message):
    if not cond:
        raise WrongOutput(message)


# ---------------------------------------------------------------------------
# census: cli.run in-process, table-making commands


def _check_envelope_checks(env):
    failed = [c["name"] for c in env["checks"] if not c["pass"]]
    _expect(not failed, f"envelope checks failed: {failed}")


def _check_rows(p, g_min, g_max, rows):
    by_genus = {}
    for row in rows:
        _expect(row["p"] == p, f"row for p={row['p']} in a p={p} report")
        err = ck.check_report_row(row)
        _expect(err is None, err)
        by_genus.setdefault(row["g"], []).append((row["t"], row["r"], row["s"]))
    expected = sum(ck.stratum_count(p, g) for g in range(g_min, g_max + 1))
    _expect(len(rows) == expected, f"{len(rows)} rows, N sums to {expected}")
    for g in range(g_min, g_max + 1):
        got = sorted(by_genus.get(g, []))
        _expect(got == ck.stratum_triples(g, p), f"triples of (g={g}, p={p})")


def _json_report_check(p, g_min, g_max):
    def check(result):
        code, _env, text = result
        _expect(code == 0, f"exit code {code}")
        env = json.loads(text)
        _check_envelope_checks(env)
        rows = []
        for row in env["results"]["reports"]:
            flat = dict(row["tuple"])
            flat.update(m_count=row["m_count"], dimension=row["dimension"],
                        upper=row["components"]["upper"],
                        exact=row["components"]["exact"])
            rows.append(flat)
        _check_rows(p, g_min, g_max, rows)
    return check


def _csv_report_check(p, g_min, g_max):
    def check(result):
        code, _env, text = result
        _expect(code == 0, f"exit code {code}")
        reader = csv.DictReader(io.StringIO(text))
        rows = []
        for rec in reader:
            row = {k: int(rec[k]) for k in ("g", "p", "t", "r", "s", "m_count",
                                             "dimension", "upper")}
            row["exact"] = int(rec["exact"]) if rec["exact"] else None
            rows.append(row)
        _check_rows(p, g_min, g_max, rows)
    return check


def _tuples_check(p, g):
    def check(result):
        code, _env, text = result
        _expect(code == 0, f"exit code {code}")
        env = json.loads(text)
        _check_envelope_checks(env)
        res = env["results"]
        _expect(res["count"] == ck.stratum_count(p, g), f"count for (g={g}, p={p})")
        got = sorted((t["t"], t["r"], t["s"]) for t in res["tuples"])
        _expect(got == ck.stratum_triples(g, p), f"triples of (g={g}, p={p})")
        _expect(all(t["g"] == g and t["p"] == p for t in res["tuples"]),
                "tuples carry the wrong (g, p)")
    return check


def _count_check(p, g):
    def check(result):
        code, _env, text = result
        _expect(code == 0, f"exit code {code}")
        env = json.loads(text)
        _check_envelope_checks(env)
        want = ck.stratum_count(p, g)
        _expect(env["results"]["count"] == want, f"N({p},{g}) != {want}")
    return check


# Row bands (report JSON, report CSV, tuples) and the loop-length band of
# count_strata, each sized so that one operation takes 15 to 25 ms.
_REPORT_ROWS = (380, 460)
_CSV_ROWS = (850, 1050)
_TUPLES_ROWS = (1400, 1700)
_COUNT_STEPS = (110_000, 140_000)


def _report_window(rng, p, band):
    lo, hi = band
    # start genera whose own row count is at most a third of the band, so
    # a window covers several genera
    cap = 2
    while ck.stratum_count(p, cap + 1) <= lo // 3 or cap < 2 * p:
        cap += 1
    while True:
        g_min = rng.randint(max(2, cap // 2), cap)
        g, rows = g_min, 0
        while rows < lo:
            rows += ck.stratum_count(p, g)
            g += 1
        if rows <= hi:
            return g_min, g - 1


def _tuples_genus(rng, p, band):
    lo, hi = band
    candidates, g = [], 2
    while ck.stratum_count(p, g) <= 2 * hi:
        if lo <= ck.stratum_count(p, g) <= hi:
            candidates.append(g)
        g += 1
    return rng.choice(candidates)


def _count_genus(rng, p, band):
    # count_strata runs floor((g+p-1)/p) + 1 steps, and does more work on the
    # 1/(p-1) of them that pass its modulus test
    weight = 1 + 1 / (p - 1)
    steps = rng.randint(int(band[0] / weight), int(band[1] / weight))
    return steps * p + rng.randrange(p)


# argv lists that crash cli.run today with a TypeError, an AttributeError and
# a KeyError; each counts as a failed operation until the CLI rejects it as
# a usage error (exit code 2)
CRASHING_ARGV = (
    ["kernel", "--g", "5", "--p", "5", "--t", "1", "--r", "1", "--s", "0",
     "--phi", '{"a":["x"],"e":[1]}'],
    ["kernel", "--g", "5", "--p", "5", "--t", "1", "--r", "1", "--s", "0",
     "--phi", "[1]"],
    ["verify", "example2", "--curve", '{"p":5}'],
)


def _usage_error_check(result):
    code, _env, _text = result
    if code != 2:
        raise OpFailed(f"exit code {code}, not a usage error")


def census_ops(rng, pkg):
    ops = []

    def cli_op(label, argv, check):
        return Op(label, lambda: pkg.cli.run(argv), check)

    for argv in CRASHING_ARGV:
        ops.append(cli_op("usage error: " + " ".join(argv), argv, _usage_error_check))

    for p in ck.PRIMES_TO_31:
        a, b = _report_window(rng, p, _REPORT_ROWS)
        ops.append(cli_op(f"report p={p} g={a}..{b}",
                          ["report", "--p", str(p), "--g-min", str(a),
                           "--g-max", str(b)], _json_report_check(p, a, b)))
        a, b = _report_window(rng, p, _CSV_ROWS)
        ops.append(cli_op(f"report --csv p={p} g={a}..{b}",
                          ["report", "--csv", "--p", str(p), "--g-min", str(a),
                           "--g-max", str(b)], _csv_report_check(p, a, b)))
        g = _tuples_genus(rng, p, _TUPLES_ROWS)
        ops.append(cli_op(f"tuples p={p} g={g}",
                          ["tuples", "--g", str(g), "--p", str(p)],
                          _tuples_check(p, g)))
        g = _count_genus(rng, p, _COUNT_STEPS)
        ops.append(cli_op(f"count p={p} g={g}",
                          ["count", "--g", str(g), "--p", str(p)],
                          _count_check(p, g)))
    rng.shuffle(ops)
    return ops


def check_published(pkg):
    """The paper's lists N(5,5), N(5,10), N(11,10), N(11,100), N(13,157)
    against ``tuples``, after the reindex from (t, s, r) to (t, r, s)."""
    for g, p in ck.PUBLISHED_TSR:
        code, _env, text = pkg.cli.run(["tuples", "--g", str(g), "--p", str(p)])
        _expect(code == 0, f"tuples --g {g} --p {p} exit code {code}")
        got = sorted((t["t"], t["r"], t["s"])
                     for t in json.loads(text)["results"]["tuples"])
        _expect(got == ck.published_trs(g, p), f"N({p},{g}) differs from the paper")


# ---------------------------------------------------------------------------
# oracles: brute-force orbit engines

# (p, r + s): (p-1)^(r+s) vectors, 10 to 20 ms unscaled
_PLAIN_SLOTS = ((5, 8), (11, 5), (17, 4), (19, 4))
# (p, r + s): (p-1)^(r+s+1) vector scalings, 10 to 30 ms
_SCALED_SLOTS = ((11, 4), (13, 4), (19, 3), (23, 3))
# splits drawn per slot, among the mixed ones (0 < r < k): a single block
# costs a quarter less, so mixing the two kinds would make the cost of a
# pass depend on the seed
_SPLITS_PER_SLOT = 3
# each slot: (t, r, s) shapes with one prime, one state count and about
# the same cost
_BFS_SLOTS = (
    (5, ((0, 1, 2), (1, 2, 1))),
    (5, ((0, 3, 1),)),
    (7, ((0, 0, 2), (1, 1, 1))),
    (7, ((0, 2, 1), (1, 3, 0))),
)
# (p, m): rotation tuples in (Z_p^*)^m
_ROTATION_SLOTS = ((5, 5), (7, 4), (11, 3), (23, 2))


def _count_check_value(want, label):
    def check(result):
        _expect(result == want, f"{label}: {result} orbits, expected {want}")
    return check


def oracle_ops(rng, pkg):
    ops = []
    for scaled, slots in ((False, _PLAIN_SLOTS), (True, _SCALED_SLOTS)):
        for p, k in slots:
            for r in rng.sample(range(1, k), min(_SPLITS_PER_SLOT, k - 1)):
                s = k - r
                want = (ck.scaled_orbit_count if scaled else ck.plain_orbit_count)(p, r, s)
                label = f"orbit_count_tuples({p},{r},{s}{', scaled' if scaled else ''})"

                def call(p=p, r=r, s=s, scaled=scaled):
                    ho = pkg.homorbits
                    return ho.orbit_count_tuples(
                        p, r, s, ho.PERM_INV_SCALE if scaled else ho.PERM_INV)

                ops.append(Op(label, call, _count_check_value(want, label)))
    for p, shapes in _BFS_SLOTS:
        for scaled in (False, True):
            t, r, s = rng.choice(shapes)
            want = ck.bfs_orbit_expected(p, t, r, s, scaled)
            label = f"bfs_orbit_count({p},{t},{r},{s}{', scaled' if scaled else ''})"

            def call(p=p, t=t, r=r, s=s, scaled=scaled):
                ho = pkg.homorbits
                return ho.bfs_orbit_count(
                    p, t, r, s, ho.PERM_INV_SCALE if scaled else ho.PERM_INV)

            ops.append(Op(label, call, _count_check_value(want, label)))
    for p, m in _ROTATION_SLOTS:
        label = f"surfaces.count_orbits({p},{m})"
        ops.append(Op(label, lambda p=p, m=m: pkg.surfaces.count_orbits(p, m),
                      _count_check_value(ck.rotation_orbit_count(p, m), label)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# kernels: free groups, Reidemeister-Schreier + Tietze, Moebius words

# (p, r, s); the seed draws t in 0..4 and the unit images of E and F
_PRESENTATION_SLOTS = ((13, 4, 2), (17, 0, 3), (17, 3, 2), (19, 2, 2),
                       (23, 0, 3), (23, 5, 1), (31, 2, 1), (31, 3, 1))
# (p, rank k): index-p kernels of rank 1 + p(k-1) in 530..590
_SCHREIER_SLOTS = ((47, 12), (53, 11), (61, 10), (71, 9), (83, 8), (97, 7))
# (p, t, r, s, max_syllables): about 300 to 500 kernel words
_LOX_SLOTS = ((5, 1, 2, 1, 3), (5, 0, 1, 2, 3), (5, 1, 3, 0, 3),
              (7, 3, 0, 1, 3), (7, 1, 0, 2, 3), (7, 0, 3, 0, 3))
_DRAWS_PER_SLOT = 2


def _syllables(word):
    return [(kind, idx, exp) for (kind, idx), exp in word.syllables]


def _image_dict(hom):
    return {"a": list(hom.a), "e": list(hom.e), "t": list(hom.tau), "f": list(hom.f)}


def _normalized_hom(rng, pkg, p, t, r, s):
    """A hom in the normal form of ``normalized_homs``: a = tau = 0 and unit
    images on E and F, or a = (1, 0, ...) when r = s = 0."""
    if r == 0 and s == 0:
        return pkg.homorbits.HomImage(p, a=(1,) + (0,) * (t - 1))
    return pkg.homorbits.HomImage(
        p, a=(0,) * t, e=tuple(rng.randrange(1, p) for _ in range(r)),
        tau=(0,) * s, f=tuple(rng.randrange(1, p) for _ in range(s)))


def _presentation_check(g, p, images):
    def check(words):
        _expect(len(words) == g, f"{len(words)} generators for genus {g}")
        for w in words:
            syl = _syllables(w)
            _expect(syl and ck.is_normal_form(syl, p), f"{w} is not in normal form")
            _expect(ck.structural_image_sum(syl, images, p) == 0,
                    f"{w} is not in the kernel")
    return check


def _schreier_check(p, k, images):
    def check(result):
        gens, (index, rank) = result
        want = ck.nielsen_schreier_rank(p, k)
        _expect(len(gens) == want, f"{len(gens)} Schreier generators, expected {want}")
        _expect((index, rank) == (p, want), f"index {index}, rank {rank}")
        for w in gens:
            _expect(w.letters and ck.free_image_sum(w.letters, images, p) == 0,
                    "a Schreier generator is not in the kernel")
    return check


def _lox_check(p, t, r, s, images, max_syllables):
    want = ck.kernel_word_count(t, r, s, images, p, max_syllables)

    def check(report):
        _expect(report["n_words"] == want,
                f"{report['n_words']} kernel words, dynamic programming gives {want}")
        _expect(report["passed"] and report["n_loxodromic"] == want,
                "not every kernel word is loxodromic at the default separation")
        for entry in report["words"]:
            syl = ck.parse_syllables(entry["word"])
            _expect(ck.is_normal_form(syl, p)
                    and ck.structural_image_sum(syl, images, p) == 0,
                    f"{entry['word']} is not a normal-form kernel word")
            _expect(entry["class"] == "loxodromic"
                    and ck.trace_is_loxodromic(*entry["trace"], 1e-9),
                    f"{entry['word']} has a non-loxodromic trace")
    return check


def kernel_ops(rng, pkg):
    cs, fg, mo = pkg.cyclic_schottky, pkg.freegroup, pkg.moebius
    ops = []
    for _ in range(_DRAWS_PER_SLOT):
        for p, r, s in _PRESENTATION_SLOTS:
            t = rng.randrange(5)
            g = p * (t + r + s - 1) + 1 - r
            spec = cs.build_spec(pkg.strata.AdmissibleTuple(g, p, t, r, s))
            hom = _normalized_hom(rng, pkg, p, t, r, s)
            phi = cs.KHom(spec, hom)
            ops.append(Op(f"kernel_presentation(g={g},p={p};{t},{r},{s})",
                          lambda phi=phi: pkg.cyclic_schottky.kernel_presentation(phi),
                          _presentation_check(g, p, _image_dict(hom)),
                          coset_input=(p, t, r, s)))
        for p, k in _SCHREIER_SLOTS:
            images = [rng.randrange(p) for _ in range(k)]
            if not any(images):
                images[rng.randrange(k)] = 1
            phi = fg.AbelianHom(k, (p,), tuple((v,) for v in images))

            def call(phi=phi):
                f = pkg.freegroup
                gens = f.schreier_kernel(phi)
                return gens, f.index_and_rank(f.fold(gens))

            ops.append(Op(f"schreier+fold(k={k},p={p})", call,
                          _schreier_check(p, k, images)))
        for p, t, r, s, length in _LOX_SLOTS:
            g = p * (t + r + s - 1) + 1 - r
            tup = pkg.strata.AdmissibleTuple(g, p, t, r, s)
            hom = _normalized_hom(rng, pkg, p, t, r, s)
            phi = cs.KHom(cs.build_spec(tup), hom)

            def call(tup=tup, phi=phi, length=length):
                m = pkg.moebius
                return m.purely_loxodromic_sample(
                    m.build_matrix_group(tup), phi, max_syllables=length)

            ops.append(Op(f"build+loxcheck(g={g},p={p};{t},{r},{s},L={length})",
                          call, _lox_check(p, t, r, s, _image_dict(hom), length)))
    rng.shuffle(ops)
    return ops


def check_cosets(rng, pkg, ops, count=2):
    """Coset enumeration (sympy) on a seeded subset of the presentations:
    index p in the structural group shows the words generate the kernel."""
    chosen = rng.sample([op for op in ops if op.coset_input], count)
    for op in chosen:
        p, t, r, s = op.coset_input
        words = [_syllables(w) for w in op.call()]
        index = ck.coset_index(p, t, r, s, words)
        _expect(index == p, f"{op.label}: the words have index {index}, not {p}")


# ---------------------------------------------------------------------------


WORKLOADS = ("census", "oracles", "kernels")


def build(workload, seed, pkg):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return census_ops(rng, pkg)
    if workload == "oracles":
        return oracle_ops(rng, pkg)
    if workload == "kernels":
        return kernel_ops(rng, pkg)
    raise ValueError(f"unknown workload {workload!r}")
