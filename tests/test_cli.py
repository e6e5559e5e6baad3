import csv
import io
import itertools
import json
import math
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import schottky_strata
from perfbench import checkers
from schottky_strata import (cli, cyclic_schottky, homorbits, moebius,
                             strata, surfaces)
from schottky_strata.cli import run
from schottky_strata.cyclic_schottky import FPWord
from schottky_strata.strata import AdmissibleTuple


_G5_TUPLE = ["--g", "5", "--p", "5", "--t", "0", "--r", "1", "--s", "1"]
# a genus whose stratum count has more digits than Python writes as text
_G_4201_DIGITS = "1" + "0" * 4200
# a genus that Python still reads, with a dimension 1.5 (g - 1) that it
# cannot write
_G_4300_NINES = "9" * 4300
_HALF = str(5 * 10**4299)  # t = (g + 1) / 2 for that genus at p = 2
# (argv, the number it names); M of (200109994, 10007; 0, 20000, 0) has
# about 8,291 digits
_TEXT_LIMIT_CASES = [
    (["bounds", "--g", "200109994", "--p", "10007", "--t", "0", "--r",
      "20000", "--s", "0"], "M of (200109994,10007;0,20000,0)"),
    (["count", "--g", _G_4201_DIGITS, "--p", "5"], "the count"),
    # refused at the first row: no later row's M is computed
    (["report", "--p", "10007", "--g-min", "200109994", "--g-max",
      "200109994"], "M of (200109994,10007;0,9993,10006)"),
    (["bounds", "--g", _G_4300_NINES, "--p", "2", "--t", _HALF, "--r", "0",
      "--s", "0"], f"the dimension of ({_G_4300_NINES},2;{_HALF},0,0)"),
]
# row counts too long to write: --budget is read by int, so it is shorter,
# and the budget refuses the count by its digits
_ROW_COUNT_PAST_THE_TEXT_LIMIT = [
    ["tuples", "--g", _G_4201_DIGITS, "--p", "5"],
    ["report", "--p", "5", "--g-min", _G_4201_DIGITS, "--g-max",
     _G_4201_DIGITS],
]

_ORACLE_NEGATIVE_R = ["oracle", "--p", "5", "--r", "-1", "--s", "0"]

# overflows on a level-2 word, but its budget is exceeded only on level 3:
# the budget wins, as no word is classified before the walk has finished
_BUDGET_BEFORE_OVERFLOW = [
    "loxcheck", "--g", "4", "--p", "5", "--t", "0", "--r", "2", "--s", "0",
    "--separation", "1e70", "--max-syllables", "3", "--budget", "100"]

# a basis of 10^9 + 6 words: refused by its size before any hom is made
_KERNEL_PAST_THE_ROW_BUDGET = [
    "kernel", "--g", "1000000006", "--p", "1000000007", "--t", "0", "--r", "2",
    "--s", "0"]

# a misspelt --phi key (t for tau) names itself, for both commands that
# take --phi
_PHI_UNKNOWN_KEY = [
    [command, "--g", "6", "--p", "5", "--t", "1", "--r", "0", "--s", "1",
     "--phi", '{"t":[2],"f":[1]}'] for command in ("kernel", "loxcheck")]


# one free and one elliptic generator at p = 10^9 + 7: an alphabet of
# 10^9 + 8 syllables, refused by its size before the default hom, the
# alphabet or any power is made
_LOXCHECK_PAST_THE_ALPHABET = [
    "loxcheck", "--g", "1000000007", "--p", "1000000007", "--t", "1", "--r",
    "1", "--s", "0", "--max-syllables", "1"]
_ALPHABET_REFUSAL = ("error: enumeration requires 1000000008 sampled words, "
                     "exceeding budget 1000000; raise it with --budget\n")

# ten thousand free generators at p = 2: 20,000 one-syllable candidates, and
# 20,000 + 20,000 * 19,998 through two syllables, counted from the symbol
# widths before the alphabet or any table is made
_LOXCHECK_WIDE_ROSTER = [
    "loxcheck", "--g", "19999", "--p", "2", "--t", "10000", "--r", "0",
    "--s", "0", "--max-syllables", "1"]


def run_json(argv):
    code, envelope, text = run(argv)
    return code, envelope, text


def _dict_rows(env):
    """``env`` with its table rows in the dict form that its text prints;
    in-process they are tuples, a report row carrying M once."""
    results = dict(env["results"])
    if env["command"] == "tuples" and results:
        results["tuples"] = [dict(zip("gptrs", row))
                             for row in results["tuples"]]
    if env["command"] == "report" and results:
        results["reports"] = [
            {"tuple": dict(zip("gptrs", row[:5])), "m_count": row[5],
             "dimension": row[6],
             "components": {"upper": row[5], "exact": row[7],
                            "basis": row[8]}}
            for row in results["reports"]]
    return {**env, "results": results}


class TestEnvelope:
    def test_tuples_payload(self):
        code, env, text = run_json(["tuples", "--g", "5", "--p", "5"])
        assert code == 0
        assert env["command"] == "tuples"
        assert env["results"]["count"] == 2
        assert env["results"]["tuples"] == strata.enumerate_tuples(5, 5)
        # plain tuples, not AdmissibleTuples
        assert {type(row) for row in env["results"]["tuples"]} == {tuple}
        rows = json.loads(text)["results"]["tuples"]
        assert rows[0] == {"g": 5, "p": 5, "t": 0, "r": 1, "s": 1}
        assert json.loads(text) == _dict_rows(env)

    def test_deterministic_output(self):
        _, _, first = run_json(["report", "--p", "5", "--g-min", "2", "--g-max", "8"])
        _, _, second = run_json(["report", "--p", "5", "--g-min", "2", "--g-max", "8"])
        assert first == second

    def test_meta_flag_adds_block(self):
        _, env, _ = run_json(["--meta", "count", "--g", "5", "--p", "5"])
        assert "timestamp" in env["meta"]
        _, env2, _ = run_json(["count", "--g", "5", "--p", "5"])
        assert "meta" not in env2

    def test_checks_nonempty_for_verification(self):
        _, env, _ = run_json(["verify", "example1"])
        assert env["checks"]


class TestExitCodes:
    def test_usage_error(self):
        code, env, _ = run_json(["tuples", "--g", "5"])
        assert code == 2 and env is None

    def test_unknown_command(self):
        # m is gone: bounds prints M and oracle checks it; example1 takes
        # no flags
        for argv in (["frobnicate"], ["m", *_G5_TUPLE],
                     ["m", *_G5_TUPLE, "--oracle"],
                     ["verify", "example1", "--tolerance", "nan"],
                     ["verify", "example1", "--p", "4", "--curve", "garbage"]):
            assert run_json(argv)[:2] == (2, None)

    def test_domain_error(self):
        code, _, _ = run_json(["tuples", "--g", "5", "--p", "4"])
        assert code == 2

    def test_failed_check_exits_one(self):
        code, env, _ = run_json(
            ["loxcheck", "--g", "4", "--p", "5", "--t", "0", "--r", "2",
             "--s", "0", "--separation", "0.1"]
        )
        assert code == 1
        assert not env["checks"][0]["pass"]

    def test_success(self):
        assert run_json(["verify", "example1"])[0] == 0
        assert run_json(["verify", "example2"])[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--g", "5", "--p", "5", "--t", "1", "--r", "1", "--s", "0",
             "--phi", '{"a":["x"],"e":[1]}'],
            ["kernel", "--g", "5", "--p", "5", "--t", "1", "--r", "1", "--s", "0",
             "--phi", "[1]"],
            ["report", "--p", "5", "--g-min", "10", "--g-max", "2"],
            ["oracle", "--p", "5", "--r", "0", "--s", "0", "--t", "0"],
            ["oracle", "--p", "5", "--r", "0", "--s", "0", "--t", "1"],
            _ORACLE_NEGATIVE_R,
            *(
                ["build", *_G5_TUPLE, "--separation", value]
                for value in ["nan", "inf", "0", "-1"]
            ),
            ["loxcheck", *_G5_TUPLE, "--separation", "0"],
            ["loxcheck", *_G5_TUPLE, "--separation", "-1"],
            ["loxcheck", *_G5_TUPLE, "--max-syllables", "0"],
            # centers and matrices overflow a double
            ["build", *_G5_TUPLE, "--separation", "1e308"],
            ["loxcheck", *_G5_TUPLE, "--separation", "1e308"],
            # outside the fiber-product family
            ["verify", "example2", "--p", "4"],
            ["verify", "example2", "--p", "3"],
            ["verify", "example2", "--m", "0"],
            # a witness pair too long to write
            ["verify", "example2", "--m", "1000000000"],
            *(argv for argv, _what in _TEXT_LIMIT_CASES),
            *_ROW_COUNT_PAST_THE_TEXT_LIMIT,
            _BUDGET_BEFORE_OVERFLOW,
            _KERNEL_PAST_THE_ROW_BUDGET,
            *_PHI_UNKNOWN_KEY,
        ],
    )
    def test_bad_input_is_usage_error(self, argv, capsys):
        code, env, text = run_json(argv)
        assert (code, env, text) == (2, None, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if argv == _BUDGET_BEFORE_OVERFLOW:
            # 8 syllables, then 4 after each on levels 2 and 3
            assert err == ("error: enumeration requires 168 sampled words, "
                           "exceeding budget 100; raise it with --budget\n")
        if argv == _ORACLE_NEGATIVE_R:
            # the shape message of every other layer
            assert err == "error: r must be >= 0, got -1\n"
        if argv == _KERNEL_PAST_THE_ROW_BUDGET:
            # kernel takes no --budget flag, so no hint names one
            assert err == ("error: enumeration requires 1000000006 basis "
                           "words, exceeding budget 1000000\n")
        if argv in _PHI_UNKNOWN_KEY:
            assert err == ("error: --phi: unknown key 't'; the keys are a, e, "
                           "tau, f\n")

    @pytest.mark.parametrize("flag,value", [("--curve", '{"p":5}'),
                                            ("--tolerance", "1e-9")])
    def test_example2_takes_only_p_and_m(self, flag, value, capsys):
        # no command takes these flags: argparse's usage error
        assert run_json(["verify", "example2", flag, value]) == (2, None, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: schottky-strata ")
        assert err.endswith(
            f"schottky-strata: error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize("command", ["build", "loxcheck"])
    def test_tol_order_is_gone(self, command, capsys):
        # one tolerance bounds every trace test: argparse's usage error
        argv = [command, *_G5_TUPLE, "--tol-order", "nan"]
        assert run_json(argv) == (2, None, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: schottky-strata ")
        assert err.endswith(
            "schottky-strata: error: unrecognized arguments: --tol-order nan\n")

    @pytest.mark.parametrize("command", ["build", "loxcheck"])
    def test_tol_classify_is_gone(self, command, capsys):
        # the trace tolerance is fixed: argparse's usage error
        argv = [command, *_G5_TUPLE, "--tol-classify", "1e-9"]
        assert run_json(argv) == (2, None, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: schottky-strata ")
        assert err.endswith("schottky-strata: error: unrecognized "
                            "arguments: --tol-classify 1e-9\n")

    @pytest.mark.parametrize("argv,what", _TEXT_LIMIT_CASES,
                             ids=[argv[0] for argv, _what in _TEXT_LIMIT_CASES])
    def test_number_past_the_text_limit(self, argv, what, capsys):
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            f"error: {what} has more than {sys.get_int_max_str_digits()} "
            "digits, the limit of sys.get_int_max_str_digits() for writing "
            "an int as text\n")

    _LARGE_BOUNDS = ["bounds", "--g", "7000034000040", "--p", "1000003",
                     "--t", "3000006", "--r", "4000012", "--s", "0"]

    def test_unwritable_m_is_refused_before_it_is_formed(self, monkeypatch,
                                                         capsys):
        # forming this M, C(4500012, 500000), takes seconds; its lower bound
        # (n/k)^k alone is past the text limit
        called = []
        monkeypatch.setattr(strata, "component_bounds",
                            lambda *tup: called.append(tup))
        assert run_json(self._LARGE_BOUNDS) == (2, None, "")
        assert called == []
        assert capsys.readouterr().err == (
            "error: M of (7000034000040,1000003;3000006,4000012,0) has more "
            f"than {sys.get_int_max_str_digits()} digits, the limit of "
            "sys.get_int_max_str_digits() for writing an int as text\n")

    @pytest.mark.parametrize("limit", [640, 4300])
    # p = 5 is left out: M = r + 1 reaches 10^limit only with a g too long
    # to read
    @pytest.mark.parametrize("p", [7, 101, 10007])
    @pytest.mark.parametrize("block", ["r", "s"])
    def test_lower_bound_refuses_only_what_m_refuses(self, limit, p, block,
                                                     capsys):
        # the least block size whose M reaches 10^limit, found by bisection,
        # and its neighbours: refused exactly when M has too many digits
        h, least_refused = (p - 1) // 2, 10**limit
        low, high = 0, 1
        while math.comb(high + h - 1, high) < least_refused:
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            if math.comb(mid + h - 1, mid) < least_refused:
                low = mid
            else:
                high = mid
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for w in (high - 1, high, high + 1, 2 * high):
                r, s = (w, 0) if block == "r" else (0, w)
                g = strata.genus(p, 1, r, s)
                argv = ["bounds", "--g", str(g), "--p", str(p), "--t", "1",
                        "--r", str(r), "--s", str(s)]
                code = run_json(argv)[0]
                err = capsys.readouterr().err
                assert code == (2 if w >= high else 0), w
                assert err.startswith("error: M of ") == (w >= high), w
        finally:
            sys.set_int_max_str_digits(old_limit)

    @pytest.mark.parametrize("argv", _ROW_COUNT_PAST_THE_TEXT_LIMIT,
                             ids=["tuples", "report"])
    def test_row_count_past_the_text_limit_is_over_budget(self, argv,
                                                          capsys):
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            "error: enumeration requires a 8398-digit number of rows, "
            "exceeding budget 1000000; raise it with --budget\n")

    _G4_TUPLE = ["--g", "4", "--p", "5", "--t", "0", "--r", "2", "--s", "0"]

    @pytest.mark.parametrize("separation", ["1e40", "1e60"])
    def test_far_elliptic_factor_fails_its_order(self, separation, capsys):
        # e2's trace cancels at its far center: the order check reads it
        # and fails, however large the matrix norm
        failed = _failed_check(["build", *self._G4_TUPLE, "--separation",
                                separation], "build_invariants", capsys)
        assert failed["detail"] == "e2 does not have order 5"

    @pytest.mark.parametrize("shape,detail", [
        ((5, 5, 0, 1, 1), "t1 is elliptic, not loxodromic"),
        ((9, 3, 1, 1, 2), "t1 is elliptic, not loxodromic; t2 is elliptic, "
         "not loxodromic; a1 is elliptic, not loxodromic"),
        ((14, 5, 1, 2, 1), "e2 does not have order 5; t1 is elliptic, not "
         "loxodromic; a1 is elliptic, not loxodromic"),
        ((19, 7, 0, 3, 1), "e2 does not have order 7; e3 does not have "
         "order 7; t1 is elliptic, not loxodromic"),
    ])
    def test_far_pairs_commute_without_overflow(self, shape, detail, capsys):
        # at 1e60 the loxodromic traces round to elliptic ones; the pairs
        # still commute, and their test multiplies no matrices, so nothing
        # overflows
        flags = [x for name, v in zip("gptrs", shape)
                 for x in (f"--{name}", str(v))]
        failed = _failed_check(["build", *flags, "--separation", "1e60"],
                               "build_invariants", capsys)
        assert failed["detail"] == detail

    @pytest.mark.parametrize("argv,separation", [
        (["build", "--g", "2", "--p", "2", "--t", "0", "--r", "3", "--s", "0"],
         "1e120"),
        (["loxcheck", *_G4_TUPLE, "--max-syllables", "3"], "1e70"),
        (["loxcheck", *_G5_TUPLE, "--max-syllables", "3"], "1e70"),
        (["build", *_G4_TUPLE], "1e100"),
        (["loxcheck", *_G4_TUPLE, "--max-syllables", "3"], "1e60"),
        (["loxcheck", *_G4_TUPLE, "--max-syllables", "3"], "1e62"),
        (["loxcheck", *_G4_TUPLE, "--max-syllables", "3"], "1e100"),
    ], ids=["build", "loxcheck-g4", "loxcheck-g5", "build-g4-1e100",
            "loxcheck-g4-1e60", "loxcheck-g4-1e62", "loxcheck-g4-1e100"])
    def test_separation_that_overflows_the_checks(self, argv, separation,
                                                  capsys):
        # the factors are finite, but classification or a word product
        # overflows a double; the message names the separation
        assert run_json([*argv, "--separation", separation]) == (2, None, "")
        assert capsys.readouterr().err == (
            f"error: separation {float(separation)} takes the matrix "
            "arithmetic beyond double precision\n")

    def test_budget_error_names_its_flag(self, capsys):
        code, env, _ = run_json(
            ["loxcheck", "--g", "26", "--p", "5", "--t", "6", "--r", "0",
             "--s", "0", "--max-syllables", "5", "--budget", "100"])
        assert (code, env) == (2, None)
        err = capsys.readouterr().err
        # the candidates counted through level 2, 12 + 12 * 10
        assert err == ("error: enumeration requires 132 sampled words, "
                       "exceeding budget 100; raise it with --budget\n")

    def test_large_prime_answers_at_once(self, capsys):
        # two free generators at p = 10^9 + 7: nothing the walk or the
        # default hom builds grows with p, so both runs answer at once
        argv = ["loxcheck", "--g", "1000000008", "--p", "1000000007", "--t",
                "2", "--r", "0", "--s", "0", "--max-syllables", "2"]
        code, env, _ = run_json(argv)
        assert code == 0 and env["results"]["report"]["n_words"] == 2
        assert run_json([*argv, "--budget", "0"]) == (2, None, "")
        assert capsys.readouterr().err == (
            "error: enumeration requires 4 sampled words, exceeding budget 0; "
            "raise it with --budget\n")

    def test_large_prime_alphabet_refused_before_it_is_built(
            self, monkeypatch, capsys):
        # the hom is given, so only the alphabet could grow with p; the
        # wrapper refuses to build one that large rather than exhaust memory
        real, built = moebius._syllable_alphabet, []

        def counting(spec):
            built.append(spec.p)
            assert spec.p < 10**6, "the alphabet of a refused run was built"
            return real(spec)

        monkeypatch.setattr(moebius, "_syllable_alphabet", counting)
        argv = [*_LOXCHECK_PAST_THE_ALPHABET, "--phi", '{"a":[0],"e":[1]}']
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == _ALPHABET_REFUSAL
        assert built == []
        # the wrapper sees the alphabet of a run that is not refused, made
        # once by the walk
        assert run_json(["loxcheck", *_G5_TUPLE, "--max-syllables", "1"])[0] == 0
        assert built == [5]

    def test_wide_roster_counted_from_widths(self):
        # a fresh process held to 1 GB, as a walk that made a follow table
        # per symbol would need several GB for either run; a wrapper counts
        # the calls that make the alphabet and each follow-table entry
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        script = (
            "from schottky_strata import cli, moebius as mo\n"
            "calls = []\n"
            "for name in ('_syllable_alphabet', '_may_follow'):\n"
            "    setattr(mo, name, lambda *args, name=name, real=getattr(\n"
            "        mo, name): calls.append(name) or real(*args))\n"
            f"argv = {_LOXCHECK_WIDE_ROSTER!r}\n"
            "code, env, _ = cli.run(argv)\n"
            # a1 maps to 1 and every other a_j^+-1 is a kernel word
            "assert code == 0, code\n"
            "assert env['results']['report']['n_words'] == 2 * 9999\n"
            # one syllable needs the root's follow table alone
            "assert calls.count('_syllable_alphabet') == 1, calls[:3]\n"
            "assert calls.count('_may_follow') == 20000, len(calls)\n"
            "calls.clear()\n"
            "assert cli.run(argv[:-1] + ['2'])[0] == 2\n"
            "assert calls == [], len(calls)\n"
        )
        src = str(Path(schottky_strata.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=20, preexec_fn=limit, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, (
            "error: enumeration requires 399980000 sampled words, exceeding "
            "budget 1000000; raise it with --budget\n"))

    def test_million_symbols_refused_before_any_factor(self):
        # a fresh process held to 1 GB: placing 10^6 factors runs out of
        # memory, so build refuses them by their count and loxcheck counts
        # its words first; a wrapper counts the groups built
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        tup = ["--g", "1999999", "--p", "2", "--t", "1000000", "--r", "0",
               "--s", "0"]
        script = (
            "from schottky_strata import cli, moebius\n"
            "calls = []\n"
            "real = moebius.build_matrix_group\n"
            "moebius.build_matrix_group = lambda *args, **kw: (\n"
            "    calls.append(args) or real(*args, **kw))\n"
            f"assert cli.run({['build', *tup]!r})[0] == 2\n"
            f"argv = {['loxcheck', *tup, '--max-syllables', '1']!r}\n"
            "assert cli.run(argv)[0] == 2\n"
            "assert calls == [], len(calls)\n"
        )
        src = str(Path(schottky_strata.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=20, preexec_fn=limit, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, (
            "error: enumeration requires 1000000 matrices, exceeding budget "
            "200000\n"
            "error: enumeration requires 2000000 sampled words, exceeding "
            "budget 1000000; raise it with --budget\n"))

    def test_matrix_limit_counts_every_factor(self, monkeypatch, capsys):
        # t + r + 2s factors: one per A_j and E_j, two per pair
        argv = ["build", "--g", "6", "--p", "3", "--t", "1", "--r", "1",
                "--s", "1"]
        monkeypatch.setattr(cli, "_MATRIX_BUDGET", 3)
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            "error: enumeration requires 4 matrices, exceeding budget 3\n")
        # loxcheck's --budget counts words, so raising it does not help
        loxcheck = ["loxcheck", *argv[1:], "--max-syllables", "1"]
        assert run_json(loxcheck) == (2, None, "")
        assert capsys.readouterr().err == (
            "error: enumeration requires 4 matrices, exceeding budget 3\n")
        monkeypatch.setattr(cli, "_MATRIX_BUDGET", 4)
        assert run_json(argv)[0] == 0 and run_json(loxcheck)[0] == 0

    @pytest.mark.parametrize("phi", [[], ["--phi", '{"a":[0],"e":[1]}']])
    def test_large_prime_alphabet_refused_within_a_gigabyte(self, phi):
        # the default hom and the alphabet each take several GB if made, so
        # under 1 GB of address space either would exit 1 with MemoryError
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        src = str(Path(schottky_strata.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "schottky_strata.cli",
             *_LOXCHECK_PAST_THE_ALPHABET, *phi],
            capture_output=True, text=True, timeout=10, preexec_fn=limit,
            env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", _ALPHABET_REFUSAL)

    @pytest.mark.parametrize("argv,count", [
        # 4^8000 block vectors and 5^8000 * 4 image vectors: formed, but
        # longer than Python writes as text
        (["oracle", "--p", "5", "--r", "8000", "--s", "0"],
         "a 4817-digit number of block vectors"),
        (["oracle", "--p", "5", "--r", "1", "--s", "0", "--t", "8000"],
         "a 5593-digit number of image vectors"),
        # (10^9 + 6)^300000, refused by its bit length before it is formed
        (["oracle", "--p", "1000000007", "--r", "300000", "--s", "0"],
         "a 2700001-digit number of block vectors"),
    ])
    def test_count_too_long_to_write_is_named_by_its_digits(
            self, argv, count, capsys):
        start = time.perf_counter()
        assert run_json(argv) == (2, None, "")
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            f"error: enumeration requires {count}, exceeding budget 10000000; "
            "raise it with --budget\n")

    @pytest.mark.parametrize("argv,rows", [
        (["tuples", "--g", "100", "--p", "5", "--budget", "65"], 66),
        (["report", "--csv", "--p", "5", "--g-min", "2", "--g-max", "40",
          "--budget", "221"], 222),
    ])
    def test_row_budget(self, argv, rows, monkeypatch, capsys):
        # refused from the count, before any row is made
        made = []
        for name in ("tuple_rows", "stratum_rows"):
            real = getattr(strata, name)
            monkeypatch.setattr(strata, name, lambda g, p, real=real:
                                made.append(g) or real(g, p))
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            f"error: enumeration requires {rows} rows, exceeding budget "
            f"{argv[-1]}; raise it with --budget\n")
        assert made == []
        assert run_json(argv[:-1] + [str(rows)])[0] == 0 and made

    @pytest.mark.parametrize("argv,rows", [
        (["tuples", "--g", "3000", "--p", "2"], 1127251),
        (["report", "--p", "5", "--g-min", "2", "--g-max", "832"], 1000212),
    ])
    def test_default_row_budget(self, argv, rows, capsys):
        # refused from the count alone, before a gigabyte of rows is built
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            f"error: enumeration requires {rows} rows, exceeding budget "
            "1000000; raise it with --budget\n")

    def test_report_refuses_at_the_first_genus_past_the_budget(
            self, monkeypatch, capsys):
        original, calls = strata.count_strata, []

        def counting(p, g):
            calls.append(g)
            return original(p, g)

        monkeypatch.setattr(strata, "count_strata", counting)
        argv = ["report", "--p", "5", "--g-min", "2", "--g-max", "2000000",
                "--budget", "10"]
        assert run_json(argv) == (2, None, "")
        assert calls == list(range(2, 11))
        assert capsys.readouterr().err == (
            "error: enumeration requires 12 rows, exceeding budget 10; "
            "raise it with --budget\n")

    def test_report_refuses_a_window_wider_than_the_budget(
            self, monkeypatch, capsys):
        # no genus below 10^9 + 8 has a tuple for this p, so only the
        # genera visited bound the work
        original, calls = strata.count_strata, []

        def counting(p, g):
            calls.append(g)
            return original(p, g)

        monkeypatch.setattr(strata, "count_strata", counting)
        strata.is_prime.cache_clear()
        argv = ["report", "--p", "1000000007", "--g-min", "2", "--g-max",
                str(10**12), "--budget", "1000"]
        assert run_json(argv) == (2, None, "")
        assert calls == list(range(2, 1002))
        assert strata.is_prime.cache_info().misses == 1  # p tested once
        assert capsys.readouterr().err == (
            "error: enumeration requires 999999999999 genera, exceeding "
            "budget 1000; raise it with --budget\n")
        argv[-3] = "1001"  # a window of exactly the budget in genera
        code, env, _ = run_json(argv)
        assert (code, env["results"]["reports"]) == (0, [])

    @pytest.mark.parametrize("command", ["tuples", "report"])
    def test_genus_beyond_a_c_integer(self, command, capsys):
        g = str(10**21)
        argv = ([command, "--g", g, "--p", "5"] if command == "tuples" else
                [command, "--p", "5", "--g-min", g, "--g-max", g])
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            "error: enumeration requires 5000000000000000000150000000000000000"
            "001 rows, exceeding budget 1000000; raise it with --budget\n")

    def test_oracle_past_a_byte(self):
        code, env, _ = run_json(["oracle", "--p", "257", "--r", "1", "--s", "1"])
        assert code == 0
        assert env["results"]["orbit_count"] == 128**2


def _failed_check(argv, name, capsys):
    code, env, _ = run_json(argv)
    assert code == 1
    assert capsys.readouterr().err == ""
    (failed,) = [c for c in env["checks"] if c["name"] == name]
    assert failed["pass"] is False
    return failed


class TestChecksCanFail:
    """Each check that no library guard pre-empts can read false."""

    @pytest.mark.parametrize("command", ["build", "loxcheck"])
    def test_build_invariants(self, command, monkeypatch, capsys):
        monkeypatch.setattr(moebius, "_EPS", 10)
        failed = _failed_check([command, *_G5_TUPLE], "build_invariants",
                               capsys)
        assert failed["detail"] == (
            "e1 is identity, not elliptic; t1 is parabolic, not loxodromic; "
            "f1 is parabolic, not elliptic")

    _KERNEL = ["kernel", "--g", "26", "--p", "5", "--t", "6", "--r", "0",
               "--s", "0"]

    def test_rank_equals_genus(self, monkeypatch, capsys):
        real = cyclic_schottky.kernel_presentation
        monkeypatch.setattr(cyclic_schottky, "kernel_presentation",
                            lambda phi: real(phi)[:-1])
        _failed_check(self._KERNEL, "rank_equals_genus", capsys)

    def test_all_in_kernel(self, monkeypatch, capsys):
        real = cyclic_schottky.kernel_presentation
        monkeypatch.setattr(
            cyclic_schottky, "kernel_presentation",
            lambda phi: real(phi) + [FPWord(((("a", 1), 1),))],
        )
        _failed_check(self._KERNEL, "all_in_kernel", capsys)

    def test_witness_pair_distinct_orbits(self, monkeypatch, capsys):
        # a second tuple with equal entries lies in the first one's orbit
        monkeypatch.setattr(surfaces, "witness_pair",
                            lambda p, m: ((1,) * m, (1,) * m))
        failed = _failed_check(["verify", "example2"],
                               "witness_pair_distinct_orbits", capsys)
        assert failed["detail"] == (
            "distinct entries: 1 in the first tuple, 1 in the second")

    def test_family_is_connected_case(self, monkeypatch, capsys):
        monkeypatch.setattr(strata, "_example2_family_member",
                            lambda p, t, r, s: False)
        _failed_check(["verify", "example2"], "family_is_connected_case",
                      capsys)

    def test_riemann_hurwitz_genus(self, monkeypatch, capsys):
        real = surfaces.example2_type
        monkeypatch.setattr(surfaces, "example2_type",
                            lambda p, m: real(p, m + 1))
        failed = _failed_check(["verify", "example2", "--p", "7", "--m", "5"],
                               "riemann_hurwitz_genus", capsys)
        assert failed["detail"].startswith("p=7 m=5: ")

    # (136, 5; 28, 0, 0) is admissible with the genus of p = 5, m = 4
    @pytest.mark.parametrize("name", ["sigma1_fixed_points", "quotient_genus"])
    def test_same_genus_other_type(self, name, monkeypatch, capsys):
        monkeypatch.setattr(surfaces, "example2_type",
                            lambda p, m: AdmissibleTuple(136, 5, 28, 0, 0))
        failed = _failed_check(["verify", "example2"], name, capsys)
        assert failed["detail"].startswith("p=5 m=4: ")

    @pytest.mark.parametrize("scale", [[], ["--scale"]])
    def test_oracle_closed_form_agreement(self, scale, monkeypatch, capsys):
        argv = ["oracle", "--p", "7", "--r", "3", "--s", "0", *scale]
        code, env, _ = run_json(argv)
        assert code == 0 and env["checks"] == [cli.check(
            "closed_form_agreement", True,
            "enumeration 4, closed form 4" if scale
            else "enumeration 10, closed form 10")]
        real = homorbits.canonical_codes
        monkeypatch.setattr(homorbits, "canonical_codes",
                            lambda *a: real(*a)[1:])
        _failed_check(argv, "closed_form_agreement", capsys)

    def test_row_count(self, monkeypatch, capsys):
        real = strata.stratum_rows
        monkeypatch.setattr(strata, "stratum_rows",
                            lambda g, p: itertools.islice(real(g, p), 1, None))
        failed = _failed_check(
            ["report", "--p", "5", "--g-min", "2", "--g-max", "8"],
            "row_count", capsys,
        )
        assert failed["detail"] == "3 rows, count_strata sums to 7"

    # (10, 5; 0, 1, 2), the first row, changed so that it fails the genus
    # alone, the g alone, the p and the genus, or one sign test alone:
    # (10, 5; -1, 1, 3), (10, 5; 4, -4, 2) and (10, 5; 3, 1, -1) keep g, p
    # and the relation
    @pytest.mark.parametrize("off", [
        lambda g, p, t, r, s: (g, p, t, r + 1, s),
        lambda g, p, t, r, s: (g + 1, p, t, r, s),
        lambda g, p, t, r, s: (g, 7, t, r, s),
        lambda g, p, t, r, s: (g, p, t - 1, r, s + 1),
        lambda g, p, t, r, s: (g, p, t + 4, r - 5, s),
        lambda g, p, t, r, s: (g, p, t + 3, r, s - 3),
    ], ids=["r_plus_1", "other_g", "other_p", "negative_t", "negative_r",
            "negative_s"])
    def test_all_admissible(self, off, monkeypatch, capsys):
        real = strata.tuple_rows

        def one_row_off(g, p):
            tuples = real(g, p)
            return [off(*tuples[0]), *tuples[1:]]

        monkeypatch.setattr(strata, "tuple_rows", one_row_off)
        failed = _failed_check(["tuples", "--g", "10", "--p", "5"],
                               "all_admissible", capsys)
        assert failed["detail"] == "3 tuples verified against the defining relation"
        # the text prints each row's own g and p, not the ones asked for
        _code, env, text = run_json(["tuples", "--g", "10", "--p", "5"])
        assert json.loads(text) == _dict_rows(env)

    @staticmethod
    def _admissible_by_column(g, p, tuples):
        # the reference: whole columns, sets and a min, and strata.genus
        gs, ps, ts, rs, ss = list(zip(*tuples)) or [()] * 5
        return (set(gs) <= {g} and set(ps) <= {p}
                and min(ts + rs + ss, default=0) >= 0
                and set(map(strata.genus, ps, ts, rs, ss)) <= {g})

    def test_all_admissible_matches_column_form(self, monkeypatch):
        # one field of one row moved by 0, +-1 or +-p: the verdict of
        # cli.run is the column form's on every list
        rng = random.Random(7)
        real = strata.tuple_rows
        rows = {}
        monkeypatch.setattr(strata, "tuple_rows", lambda g, p: rows[g, p])
        verdicts = set()
        for p in (2, 3, 5, 7, 11, 13):
            for _ in range(20):
                g = rng.randrange(2, 80)
                tuples = real(g, p)
                if tuples:
                    i, field = rng.randrange(len(tuples)), rng.randrange(5)
                    row = list(tuples[i])
                    row[field] += rng.choice((0, 1, -1, p, -p))
                    tuples[i] = tuple(row)
                rows[g, p] = tuples
                _code, env, _text = run(["tuples", "--g", str(g), "--p", str(p)])
                (verdict,) = [c["pass"] for c in env["checks"]]
                assert verdict == self._admissible_by_column(g, p, tuples)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("argv", [
        ["bounds", "--g", "136", "--p", "5", "--t", "12", "--r", "20",
         "--s", "0"],
        ["report", "--csv", "--p", "5", "--g-min", "2", "--g-max", "8"],
    ])
    def test_internal_invariant(self, argv, monkeypatch, capsys):
        def broken(g, p, t, r, s):
            raise AssertionError("dimension is not integral")

        monkeypatch.setattr(strata, "dimension", broken)
        code, env, text = run_json(argv)
        assert (code, env["results"]) == (1, {})
        assert env["checks"] == [{
            "name": "internal_invariant", "pass": False,
            "detail": "AssertionError: dimension is not integral",
        }]
        assert json.loads(text) == env
        assert capsys.readouterr().err == ""

    def test_internal_invariant_while_encoding(self, monkeypatch, capsys):
        # a value that json.dumps refuses fails the check, as a crash does
        monkeypatch.setattr(strata, "component_bounds",
                            lambda g, p, t, r, s: (math.nan, 1, "upper_only"))
        code, env, text = run_json(["bounds", *_G5_TUPLE])
        assert (code, env["results"]) == (1, {})
        assert env["checks"] == [{
            "name": "internal_invariant", "pass": False,
            "detail": "ValueError: Out of range float values are not JSON "
                      "compliant: nan",
        }]
        assert json.loads(text) == env
        assert capsys.readouterr().err == ""

    class _Unprintable:
        def __str__(self):
            raise RuntimeError("no text")

    @pytest.mark.parametrize("as_csv", [False, True], ids=["json", "csv"])
    def test_internal_invariant_while_rendering(self, as_csv, monkeypatch,
                                                capsys):
        # a row value that no template can write fails the check, with the
        # envelope in place of the table
        monkeypatch.setattr(strata, "dimension",
                            lambda g, p, t, r, s: self._Unprintable())
        argv = ["report", "--p", "5", "--g-min", "2", "--g-max", "8"]
        code, env, text = run_json(argv + ["--csv"] * as_csv)
        assert (code, env["results"]) == (1, {})
        assert env["checks"] == [{
            "name": "internal_invariant", "pass": False,
            "detail": "RuntimeError: no text",
        }]
        assert json.loads(text) == env
        assert capsys.readouterr().err == ""


def _fresh_python(*args):
    """stdout of a new interpreter with the package's source on its path."""
    src = str(Path(schottky_strata.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fresh_process_stdout(argv):
    return _fresh_python("-m", "schottky_strata.cli", *argv)


class TestParserReuse:
    @pytest.mark.parametrize(
        "first,second",
        [
            (["report", "--csv", "--p", "5", "--g-min", "2", "--g-max", "12"],
             ["report", "--p", "5", "--g-min", "2", "--g-max", "12"]),
            (["tuples", "--csv", "--g", "30", "--p", "3"],
             ["count", "--g", "30", "--p", "3"]),
        ],
    )
    def test_runs_in_one_process_match_fresh_processes(self, first, second):
        for argv in (first, second):
            assert run_json(argv)[2] == _fresh_process_stdout(argv)


class TestCommands:
    @pytest.mark.parametrize("g,p,count", [
        (10**21, 5, 5 * 10**39 + 15 * 10**19 + 1),
        (2 * 10**19, 2, 5 * 10**37 + 15 * 10**18 + 1),
    ])
    def test_count_beyond_a_c_integer(self, g, p, count):
        # more admissible totals than a C integer holds
        code, env, _ = run_json(["count", "--g", str(g), "--p", str(p)])
        assert code == 0 and env["results"]["count"] == count
        assert strata.count_strata(p, g) == count

    def test_count_matches_tuples(self):
        for g, p in [(5, 5), (10, 5), (100, 11), (20, 2), (21, 3)]:
            _, env_c, _ = run_json(["count", "--g", str(g), "--p", str(p)])
            _, env_t, _ = run_json(["tuples", "--g", str(g), "--p", str(p)])
            assert env_c["results"]["count"] == env_t["results"]["count"]

    def test_m_from_oracle_and_bounds(self):
        code, env, _ = run_json(["oracle", "--p", "5", "--r", "1", "--s", "1"])
        assert code == 0 and env["results"]["orbit_count"] == 4
        code, env, _ = run_json(["bounds", *_G5_TUPLE])
        assert code == 0 and env["results"]["m_count"] == 4

    @pytest.mark.parametrize("argv,count", [
        # the scaled closed form at r = s = 0 is 1, with no walk over the
        # divisors of h = (p - 1) / 2
        (["--p", "1000000007", "--r", "0", "--s", "0", "--scale"], 1),
        (["--p", "1000000000000000003", "--r", "0", "--s", "0", "--scale"], 1),
        # 2 * 4^6 block vectors and 49 class pairs, within the default budget
        (["--p", "5", "--r", "6", "--s", "6"], 49),
    ])
    def test_oracle_agrees_with_its_closed_form(self, argv, count):
        code, env, _ = run_json(["oracle", *argv])
        assert code == 0 and env["results"]["orbit_count"] == count
        assert [c["name"] for c in env["checks"]] == ["closed_form_agreement"]

    def test_oracle_with_bfs_and_scale(self):
        code, env, _ = run_json(
            ["oracle", "--p", "5", "--r", "1", "--s", "0", "--t", "1", "--scale"]
        )
        assert code == 0
        assert env["results"]["orbit_count"] == 1
        assert env["results"]["bfs_orbit_count"] == 1

    def test_bounds(self):
        _, env, _ = run_json(
            ["bounds", "--g", "136", "--p", "5", "--t", "12", "--r", "20",
             "--s", "0"]
        )
        assert env["results"]["components"]["basis"] == "example2_family"
        assert env["results"]["components"]["exact"] == 1

    def test_kernel_rank(self):
        code, env, _ = run_json(
            ["kernel", "--g", "26", "--p", "5", "--t", "6", "--r", "0", "--s", "0"]
        )
        assert code == 0
        assert env["results"]["rank"] == 26

    def test_kernel_custom_phi(self):
        code, env, _ = run_json(
            ["kernel", "--g", "5", "--p", "5", "--t", "1", "--r", "1", "--s", "0",
             "--phi", '{"a": [2], "e": [3]}']
        )
        assert code == 0
        assert env["results"]["rank"] == 5

    @pytest.mark.parametrize("shape,generators", [
        # a loxodromic pivot keeps xi^p, written as one syllable
        ((6, 5, 2, 0, 0), ["a1^5", "a2", "a1 a2 a1^-1", "a1^2 a2 a1^-2",
                           "a1^3 a2 a1^-3", "a1^4 a2 a1^-4"]),
        # F_1 is the pivot and tau_1 = 0: T_1 alone, with no power of F_1
        ((6, 5, 1, 0, 1), ["a1", "f1 a1 f1^4", "f1^2 a1 f1^3", "f1^3 a1 f1^2",
                           "f1^4 a1 f1", "t1"]),
        # p = 2: xi^-1 is xi, and a zero power of xi is dropped
        ((5, 2, 1, 0, 2), ["a1", "f1 a1 f1", "t1", "f1 t2 f1", "f1 f2"]),
    ], ids=["loxodromic-pivot", "bare-t1", "p2"])
    def test_kernel_construction_edges(self, shape, generators):
        argv = ["kernel", *(x for name, v in zip("gptrs", shape)
                            for x in (f"--{name}", str(v)))]
        code, env, _ = run_json(argv)
        assert code == 0
        assert env["results"]["generators"] == generators

    def test_build_matrices(self):
        code, env, _ = run_json(
            ["build", "--g", "2", "--p", "2", "--t", "0", "--r", "3", "--s", "0"]
        )
        assert code == 0
        rows = env["results"]["matrices"]
        assert [row["symbol"] for row in rows] == ["e1", "e2", "e3"]
        assert all(row["class"] == "elliptic" for row in rows)
        assert rows[1]["center"] == [10.0, 0.0]

    def test_build_and_loxcheck_inputs(self):
        _, env, _ = run_json(["build", *_G5_TUPLE])
        assert list(env["inputs"]) == ["g", "p", "r", "s", "separation", "t"]
        _, env, _ = run_json(["loxcheck", *_G5_TUPLE])
        assert list(env["inputs"]) == ["budget", "g", "max_syllables", "p",
                                       "r", "s", "separation", "t"]

    def test_identity_words_fail_loxcheck(self):
        # the three half turns coincide at this separation, so every
        # e_i e_j reads +-I: no nontrivial Schottky word is the identity
        for separation in ("1e-12", "1e-20", "1e-300"):
            code, env, _ = run_json(
                ["loxcheck", "--g", "2", "--p", "2", "--t", "0", "--r", "3",
                 "--s", "0", "--separation", separation, "--max-syllables",
                 "2"])
            assert code == 1
            report = env["results"]["report"]
            assert [e["class"] for e in report["violations"]] == [
                "identity"] * 6
            assert env["checks"][0] == cli.check(
                "purely_loxodromic", False, "0/6 loxodromic, 6 violations")

    def test_csv_tuples(self):
        code, _, text = run_json(["tuples", "--g", "2", "--p", "2", "--csv"])
        assert code == 0
        assert text.splitlines() == [
            "g,p,t,r,s",
            "2,2,0,1,1",
            "2,2,0,3,0",
            "2,2,1,1,0",
        ]

    def test_csv_report(self):
        code, _, text = run_json(
            ["report", "--p", "2", "--g-min", "2", "--g-max", "3", "--csv"]
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "g,p,t,r,s,m_count,dimension,exact,upper,basis"
        assert all(line.endswith("theorem_case_1") for line in lines[1:])

    def test_bounds_is_the_report_row(self):
        _, _, text = run_json(["report", "--p", "5", "--g-min", "2",
                               "--g-max", "40"])
        rows = json.loads(text)["results"]["reports"]
        assert len(rows) == sum(strata.count_strata(5, g) for g in range(2, 41))
        for row in rows:
            t = row["tuple"]
            argv = ["bounds", *(f"--{k}={v}" for k, v in t.items())]
            code, bounds, _ = run_json(argv)
            assert code == 0 and bounds["results"] == row
            assert list(row["components"]) == ["upper", "exact", "basis"]

    def test_report_upper_is_m_count(self):
        window = ["report", "--p", "7", "--g-min", "2", "--g-max", "60"]
        _, _, text = run_json(window)
        rows = json.loads(text)["results"]["reports"]
        assert rows and all(
            row["components"]["upper"] == row["m_count"] for row in rows
        )
        _, _, text = run_json([*window, "--csv"])
        table = list(csv.DictReader(io.StringIO(text)))
        assert len(table) == len(rows)
        assert all(row["upper"] == row["m_count"] for row in table)

    def test_verify_example2_payload(self):
        code, env, _ = run_json(["verify", "example2"])
        assert code == 0
        assert env["inputs"] == {"example": "example2", "m": 4, "p": 5}
        assert env["results"]["witness"] == [[1, 1, 1, 1], [1, 1, 1, 2]]
        assert [c["name"] for c in env["checks"]] == [
            "riemann_hurwitz_genus", "sigma1_fixed_points", "quotient_genus",
            "family_is_connected_case", "witness_pair_distinct_orbits"]

    @pytest.mark.parametrize("p,m", [(7, 5), (13, 6), (13, 7)])
    def test_verify_example2_checks_the_requested_family(self, p, m):
        code, env, _ = run_json(["verify", "example2", "--p", str(p),
                                 "--m", str(m)])
        assert code == 0
        assert env["results"]["type"] == surfaces.example2_type(p, m)._asdict()
        for check in env["checks"][:3]:
            assert check["detail"].startswith(f"p={p} m={m}: ")

    @pytest.mark.parametrize("p,m", [(1000003, 2), (5, 250_001)])
    def test_witness_costs_its_entries_not_p(self, p, m):
        # 2m entries are written, whatever p; the (p - 1) m rescaled entries
        # are never formed
        code, env, _ = run_json(["verify", "example2", "--p", str(p),
                                 "--m", str(m)])
        assert code == 0
        x, y = env["results"]["witness"]
        assert x == [1] * m and y == [1] * (m - 1) + [2]
        # the check states its invariant, not the tuples again
        assert env["checks"][-1]["detail"] == (
            "distinct entries: 1 in the first tuple, 2 in the second")

    def test_witness_budget_counts_written_entries(self, capsys):
        assert run_json(["verify", "example2", "--m", "500001"]) == (
            2, None, "")
        assert capsys.readouterr().err == (
            "error: enumeration requires 1000002 witness entries, exceeding "
            "budget 1000000\n")

    def test_family_case_never_forms_m(self, monkeypatch):
        # M of the family at p = 10^9 + 7, m = 4 has about 6.8 * 10^8 digits;
        # the basis is settled without it
        counted = []
        real = strata._multisets
        monkeypatch.setattr(strata, "_multisets",
                            lambda *args: counted.append(args) or real(*args))
        code, env, _ = run_json(["verify", "example2", "--p", "1000000007",
                                 "--m", "4"])
        assert code == 0 and counted == []
        assert env["checks"][3] == cli.check(
            "family_is_connected_case", True,
            "lookup of component_bounds: basis=example2_family exact=1")

    def test_verify_deterministic(self):
        _, _, first = run_json(["verify", "example2"])
        _, _, second = run_json(["verify", "example2"])
        assert first == second


def _checked_rows(p, g_min, g_max):
    """The rows ``report`` gives for the window, after checking that they
    are the window's tuples in order and that each passes the benchmark's
    independent row check (binomial product, dimension formula)."""
    code, _, text = run_json(["report", "--p", str(p), "--g-min", str(g_min),
                              "--g-max", str(g_max)])
    assert code == 0
    rows = json.loads(text)["results"]["reports"]
    assert [tuple(row["tuple"].values()) for row in rows] == [
        (g, p, *trs) for g in range(g_min, g_max + 1)
        for trs in checkers.stratum_triples(g, p)]
    for row in rows:
        assert list(row) == ["tuple", "m_count", "dimension", "components"]
        assert list(row["components"]) == ["upper", "exact", "basis"]
        flat = {**row["tuple"], "m_count": row["m_count"],
                "dimension": row["dimension"], **row["components"]}
        assert checkers.check_report_row(flat) is None
    return rows


def _reference_csv(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if value is None else value for value in row])
    return out.getvalue()


def _with_meta(envelope, meta):
    """The envelope's json.dumps text, with the meta block ``meta`` if any."""
    if meta is not None:
        envelope["meta"] = meta
    return json.dumps(envelope, indent=2) + "\n"


def _reference_report(p, g_min, g_max, as_csv, meta=None):
    rows = _checked_rows(p, g_min, g_max)
    if as_csv:
        return _reference_csv(
            ["g", "p", "t", "r", "s", "m_count", "dimension", "exact", "upper",
             "basis"],
            [[*row["tuple"].values(), row["m_count"], row["dimension"],
              row["components"]["exact"], row["components"]["upper"],
              row["components"]["basis"]] for row in rows])
    envelope = {
        "command": "report",
        "inputs": {"budget": 10**6, "csv": False, "g_max": g_max,
                   "g_min": g_min, "p": p},
        "results": {"p": p, "g_min": g_min, "g_max": g_max, "reports": rows},
        "checks": [{"name": "row_count", "pass": True,
                    "detail": f"{len(rows)} rows, count_strata sums to "
                              f"{len(rows)}"}],
    }
    return _with_meta(envelope, meta)


def _reference_tuples(g, p, as_csv, meta=None):
    tuples = [{"g": tup.g, "p": tup.p, "t": tup.t, "r": tup.r, "s": tup.s}
              for tup in strata.enumerate_tuples(g, p)]
    if as_csv:
        return _reference_csv(["g", "p", "t", "r", "s"],
                              [row.values() for row in tuples])
    envelope = {
        "command": "tuples",
        "inputs": {"budget": 10**6, "csv": False, "g": g, "p": p},
        "results": {"count": len(tuples), "tuples": tuples},
        "checks": [{"name": "all_admissible", "pass": True,
                    "detail": f"{len(tuples)} tuples verified against the "
                              "defining relation"}],
    }
    return _with_meta(envelope, meta)


# (p, g_min, g_max): windows that between them meet all four bases,
# including the Example 2 members (136,5;12,20,0) and (288,7;18,28,0), a
# window with no row and one whose M passes 2^63
_TABLE_WINDOWS = [(2, 2, 30), (3, 2, 40), (5, 2, 60), (5, 130, 140),
                  (7, 280, 290), (31, 2, 400), (5, 7, 7), (31, 3630, 3630)]
# (g, p), the last with no row
_TUPLE_GENERA = [(30, 2), (40, 3), (136, 5), (288, 7), (311, 31), (7, 5)]
# --meta prints its block in JSON and nothing in CSV
_MODES = pytest.mark.parametrize("as_csv,meta", [
    (False, False), (True, False), (False, True), (True, True),
], ids=["json", "csv", "json-meta", "csv-meta"])


def _table_text(argv, meta):
    """The text and meta block of a table command, run with ``--meta``
    when ``meta`` is set."""
    code, env, text = run_json(["--meta"] * meta + argv)
    assert code == 0
    return text, env.get("meta")


class TestTableOutput:
    """``report`` and ``tuples`` print, byte for byte, the tables that
    json.dumps and the csv module make from the checked rows."""

    @_MODES
    @pytest.mark.parametrize("p,g_min,g_max", _TABLE_WINDOWS)
    def test_report(self, p, g_min, g_max, as_csv, meta):
        argv = ["report", "--p", str(p), "--g-min", str(g_min),
                "--g-max", str(g_max)] + ["--csv"] * as_csv
        text, block = _table_text(argv, meta)
        assert (block is not None) == meta
        assert text == _reference_report(p, g_min, g_max, as_csv, block)

    @_MODES
    @pytest.mark.parametrize("g,p", _TUPLE_GENERA)
    def test_tuples(self, g, p, as_csv, meta):
        argv = ["tuples", "--g", str(g), "--p", str(p)] + ["--csv"] * as_csv
        text, block = _table_text(argv, meta)
        assert (block is not None) == meta
        assert text == _reference_tuples(g, p, as_csv, block)

    def test_windows_meet_every_basis(self):
        rows = [row for window in _TABLE_WINDOWS
                for row in _checked_rows(*window)]
        assert {row["components"]["basis"] for row in rows} == {
            "theorem_case_1", "theorem_case_3", "example2_family", "upper_only"}
        family = [tuple(row["tuple"].values()) for row in rows
                  if row["components"]["basis"] == "example2_family"]
        assert family == [(136, 5, 12, 20, 0), (288, 7, 18, 28, 0)]
        assert not _checked_rows(5, 7, 7) and not strata.enumerate_tuples(7, 5)
        big = _checked_rows(31, 3630, 3630)
        assert max(row["m_count"] for row in big) > 2**63


class TestStratumRows:
    """``strata.stratum_rows`` walks the admissible totals in blocks; its
    rows are ``enumerate_tuples``' tuples with ``component_bounds``' M and
    case and ``dimension``'s dimension."""

    @pytest.mark.parametrize("p,g_min,g_max", [
        *((p, 2, 120) for p in checkers.PRIMES_TO_31), *_TABLE_WINDOWS])
    def test_rows_match_the_row_functions(self, p, g_min, g_max):
        for g in range(g_min, g_max + 1):
            rows = list(strata.stratum_rows(g, p))
            assert [row[:5] for row in rows] == strata.enumerate_tuples(g, p)
            for row in rows:
                m, exact, basis = strata.component_bounds(*row[:5])
                assert row[5:] == (m, strata.dimension(*row[:5]), exact,
                                   basis)

    def test_factors_are_made_once_at_their_first_row(self, monkeypatch):
        # one r factor per admissible total, one s factor per s (no row of
        # this genus has r = 0, so the two kinds of call differ)
        calls = []
        real = strata._multisets
        monkeypatch.setattr(strata, "_multisets",
                            lambda *args: calls.append(args) or real(*args))
        rows = list(strata.stratum_rows(300, 7))
        assert all(row[3] for row in rows)
        assert sorted(r for _h, r, s in calls if r) == sorted(
            {row[3] for row in rows})
        assert sorted(s for _h, r, s in calls if not r) == sorted(
            {row[4] for row in rows})

    # (argv, the first refused row): each M is too long to write, and its
    # lower bound says so before any factor of M is formed.  The last two
    # took 7 s and 58 s to refuse when every r factor was made up front
    _UNWRITTEN_M = [
        (["report", "--p", "10007", "--g-min", "200109994", "--g-max",
          "200109994"], "(200109994,10007;0,9993,10006)"),
        (["report", "--p", "1000003", "--g-min", "399999799998",
          "--g-max", "399999799998"], "(399999799998,1000003;0,400000,0)"),
        (["report", "--p", "1000003", "--g-min", "399999799998",
          "--g-max", "399999799998", "--csv"],
         "(399999799998,1000003;0,400000,0)"),
        (["report", "--p", "1000003", "--g-min", "4000006999998",
          "--g-max", "4000006999998", "--budget", "10000000"],
         "(4000006999998,1000003;0,999991,3000006)"),
    ]

    @pytest.mark.parametrize("argv,row", _UNWRITTEN_M,
                             ids=["two blocks", "one block", "one block csv",
                                  "four blocks"])
    def test_refusal_computes_no_m(self, argv, row, monkeypatch, capsys):
        calls = []
        real = strata._multisets
        monkeypatch.setattr(strata, "_multisets",
                            lambda *args: calls.append(args) or real(*args))
        start = time.perf_counter()
        assert run_json(argv) == (2, None, "")
        assert time.perf_counter() - start < 1
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: M of {row} has more than {sys.get_int_max_str_digits()} "
            "digits, the limit of sys.get_int_max_str_digits() for writing "
            "an int as text\n")

    # (g, p, the refused row, the blocks before it): at a text limit of 640
    # digits every block's M passes its lower bound, and the refused block
    # is refused by the exact digits of its first row's M
    @pytest.mark.parametrize("g,p,row,passed", [
        (4192514, 10007, "(4192514,10007;0,420,0)", 0),
        (1706397, 503, "(1706397,503;0,1792,1605)", 3),
    ], ids=["one block", "fourth of seven blocks"])
    def test_refuses_its_own_m(self, g, p, row, passed, monkeypatch):
        calls = []
        real = strata._multisets
        monkeypatch.setattr(strata, "_multisets",
                            lambda *args: calls.append(args) or real(*args))
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError) as raised:
                strata.stratum_rows(g, p)
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert str(raised.value) == (
            f"M of {row} has more than 640 digits, the limit of "
            "sys.get_int_max_str_digits() for writing an int as text")
        # no factor of M is made for a block after the refused one
        blocks = strata._totals(g, p)[:passed + 1]
        assert str(AdmissibleTuple(g, p, 0, *blocks[-1][::-1])) == row
        assert calls and {(r, s) for _h, r, s in calls} <= {
            pair for n, r in blocks for pair in ((r, n), (r, 0))}


def _dumps(value):
    return json.dumps(value, indent=2, allow_nan=False)


class TestEncoder:
    """The envelope text is json.dumps(envelope, indent=2), byte for byte."""

    @pytest.mark.parametrize("argv", [
        ["tuples", "--g", "10", "--p", "5"],
        ["count", "--g", "21", "--p", "3"],
        ["oracle", "--p", "5", "--r", "1", "--s", "1", "--scale"],
        ["oracle", "--p", "5", "--r", "1", "--s", "0", "--t", "1"],
        ["bounds", "--g", "136", "--p", "5", "--t", "12", "--r", "20",
         "--s", "0"],
        ["kernel", "--g", "26", "--p", "5", "--t", "6", "--r", "0",
         "--s", "0"],
        ["verify", "example1"],
        ["verify", "example2", "--p", "7", "--m", "5"],
        ["build", *_G5_TUPLE],
        ["loxcheck", "--g", "4", "--p", "5", "--t", "0", "--r", "2",
         "--s", "0", "--separation", "0.1", "--max-syllables", "3"],
        ["report", "--p", "7", "--g-min", "2", "--g-max", "30"],
        ["--meta", "report", "--p", "2", "--g-min", "2", "--g-max", "5"],
    ])
    def test_every_command(self, argv):
        _code, env, text = run_json(argv)
        assert text == _dumps(_dict_rows(env)) + "\n"


_SMALL_INTS = st.integers(-3, 40)


@st.composite
def _table_argv(draw):
    command = draw(st.sampled_from(["tuples", "count", "report", "bounds"]))
    p = draw(_SMALL_INTS)
    budget = st.integers(-1, 200)
    if command == "report":
        window = draw(st.tuples(_SMALL_INTS, _SMALL_INTS))
        argv = ["report", "--p", str(p), "--g-min", str(window[0]),
                "--g-max", str(window[1])]
        _optional(draw, argv, "--budget", budget)
        return argv
    g = draw(_SMALL_INTS)
    if command != "bounds":
        argv = [command, "--g", str(g), "--p", str(p)]
        if command == "tuples":
            _optional(draw, argv, "--budget", budget)
        return argv
    t, r, s = draw(st.tuples(_SMALL_INTS, _SMALL_INTS, _SMALL_INTS))
    if draw(st.booleans()):
        g = p * (t + r + s - 1) + 1 - r  # the relation, so some exit 0
    return ["bounds", "--g", str(g), "--p", str(p), "--t", str(t),
            "--r", str(r), "--s", str(s)]


_SHAPE = st.integers(-1, 4)
_FLOAT_TEXTS = st.sampled_from(["nan", "inf", "-inf", "1e308", "1e120",
                                "1e70", "-1", "0", "1e-12", "1e-9", "0.1",
                                "10"])
# a small JSON grammar for --phi
_JSON_LEAVES = st.integers(-2, 13) | st.sampled_from([5.0, True, False, None,
                                                      "x"])
_JSON = st.recursive(_JSON_LEAVES, lambda kids: st.lists(kids, max_size=3),
                     max_leaves=6)


@st.composite
def _json_text(draw, base, values):
    """``base`` with one key kept, dropped or given a value from ``values``;
    now and then a bare grammar value instead."""
    how = draw(st.sampled_from(["keep", "drop", "replace", "replace", "bare"]))
    if how == "bare" or not base:
        return json.dumps(draw(_JSON))
    data = dict(base)
    key = draw(st.sampled_from(sorted(data)))
    if how == "drop":
        del data[key]
    elif how == "replace":
        data[key] = draw(values)
    return json.dumps(data)


def _optional(draw, argv, flag, values):
    """Add ``flag`` one time in three, so most runs keep most defaults; as
    ``--flag=value``, so argparse takes a value such as -inf as a value."""
    if draw(st.integers(0, 2)) == 0:
        argv.append(f"{flag}={draw(values)}")


@st.composite
def _command_argv(draw):
    """argv lists for the commands that take a shape, a --phi or a family."""
    command = draw(st.sampled_from(["oracle", "kernel", "verify", "build",
                                    "loxcheck"]))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]) | st.integers(-1, 13))
    t, r, s = draw(st.tuples(_SHAPE, _SHAPE, _SHAPE))
    if command == "oracle":
        argv = ["oracle", "--p", str(p), "--r", str(r), "--s", str(s),
                "--budget", str(draw(st.integers(-1, 10**5)))]
        _optional(draw, argv, "--t", st.just(t))
        return argv + (["--scale"] if draw(st.booleans()) else [])
    if command == "verify":
        argv = ["verify", draw(st.sampled_from(["example1", "example2"]))]
        _optional(draw, argv, "--p", st.integers(-1, 13))
        _optional(draw, argv, "--m", st.integers(-1, 5))
        return argv
    if draw(st.integers(0, 2)):
        g = p * (t + r + s - 1) + 1 - r  # the relation, so some exit 0
    else:
        g = draw(st.integers(-1, 200))
    argv = [command, "--g", str(g), "--p", str(p), "--t", str(t),
            "--r", str(r), "--s", str(s)]
    if command in ("kernel", "loxcheck"):
        t, r, s = max(t, 0), max(r, 0), max(s, 0)
        phi = {"a": [0] * t, "e": [1] * r, "tau": [0] * s, "f": [1] * s}
        _optional(draw, argv, "--phi",
                  _json_text(phi, st.lists(_JSON_LEAVES, max_size=4) | _JSON))
    if command in ("build", "loxcheck"):
        _optional(draw, argv, "--separation", _FLOAT_TEXTS)
    if command == "loxcheck":
        # a budget, as the default of 10^6 sampled words takes seconds
        argv += ["--max-syllables", str(draw(st.integers(-1, 3))),
                 "--budget", str(draw(st.integers(-1, 5000)))]
    return argv


_KERNEL_ARGV = ["kernel", "--g", "5", "--p", "5", "--t", "1", "--r", "1",
                "--s", "0"]


class TestArgvFuzz:
    @given(_table_argv() | _command_argv())
    @example(["verify", "example1", "--tolerance", "nan"])
    @example(_KERNEL_ARGV + ["--phi", '{"a":["x"],"e":[1]}'])
    @example(_KERNEL_ARGV + ["--phi", "[1]"])
    @example(["build", "--g", "2", "--p", "2", "--t", "0", "--r", "3", "--s",
              "0", "--separation", "1e120"])
    @example(["loxcheck", "--g", "4", "--p", "5", "--t", "0", "--r", "2", "--s",
              "0", "--separation", "1e70", "--max-syllables", "3"])
    @settings(max_examples=300, deadline=None)
    def test_exit_code_contract(self, argv):
        code, env, text = run_json(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert not all(c["pass"] for c in env["checks"])
            # malformed input exits 2; a crash in a handler is a bug
            assert "internal_invariant" not in {c["name"] for c in env["checks"]}
        if code == 0:
            assert json.loads(text) == _dict_rows(env)


def _without_brackets(line):
    """``line`` with its bracketed optional parts, nested ones included, cut."""
    kept, depth = [], 0
    for char in line:
        depth += (char == "[") - (char == "]")
        if depth == 0 and char != "]":
            kept.append(char)
    return "".join(kept)


def _readme_examples():
    """The argv of each ``schottky-strata`` line in the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    return [shlex.split(_without_brackets(line), comments=True)[1:]
            for line in block.splitlines()
            if line.startswith("schottky-strata ")]


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
    def test_cli_example_passes(self, argv):
        assert run_json(argv)[0] == 0

    def test_every_command_has_an_example(self):
        assert {argv[0] for argv in _readme_examples()} == set(cli._HANDLERS)


class TestRuntimeImports:
    def test_table_commands_load_only_strata(self):
        # count, tuples, bounds and report are tuple arithmetic: the other
        # layers, numpy and dataclasses are imported only by the handlers
        # that use them
        tables = ("count", "tuples", "bounds", "report")
        examples = [argv for argv in _readme_examples() if argv[0] in tables]
        assert {argv[0] for argv in examples} == set(tables)
        _fresh_python("-c", (
            "import sys\n"
            "from schottky_strata.cli import run\n"
            f"for argv in {[['count', '--g', '100', '--p', '11'], *examples]!r}:\n"
            "    assert run(argv)[0] == 0, argv\n"
            "loaded = {m for m in sys.modules if m.startswith('schottky_strata')}\n"
            "assert loaded == {'schottky_strata', 'schottky_strata.cli',\n"
            "                  'schottky_strata.strata'}, loaded\n"
            "assert 'dataclasses' not in sys.modules\n"
            "assert 'numpy' not in sys.modules\n"
        ))

    def test_example2_loads_only_surfaces(self):
        # the witness is written and checked in closed form: no orbit
        # engine, no dataclass
        _fresh_python("-c", (
            "import sys\n"
            "from schottky_strata.cli import run\n"
            "for argv in [['verify', 'example2'],\n"
            "             ['verify', 'example2', '--p', '13', '--m', '7']]:\n"
            "    assert run(argv)[0] == 0, argv\n"
            "loaded = {m for m in sys.modules if m.startswith('schottky_strata')}\n"
            "assert loaded == {'schottky_strata', 'schottky_strata.cli',\n"
            "                  'schottky_strata.strata',\n"
            "                  'schottky_strata.surfaces'}, loaded\n"
            "assert 'dataclasses' not in sys.modules\n"
            "assert 'numpy' not in sys.modules\n"
        ))

    def test_only_the_orbit_engines_load_numpy(self):
        # numpy is imported inside the homorbits functions that use it, so
        # every command but oracle starts without it (verify example2 writes
        # its witness pair in closed form)
        examples = [argv for argv in _readme_examples() if argv[0] != "oracle"]
        assert ["verify", "example2"] in examples
        assert {argv[0] for argv in examples} == set(cli._HANDLERS) - {"oracle"}
        more = [["count", "--g", "100", "--p", "11"],
                ["verify", "example2", "--p", "13", "--m", "7"]]
        _fresh_python("-c", (
            "import sys\n"
            "from schottky_strata.cli import run\n"
            "assert 'numpy' not in sys.modules\n"
            f"for argv in {[*more, *examples]!r}:\n"
            "    assert run(argv)[0] == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
        ))

    def test_the_orbit_engines_never_load_numpy_ma(self):
        # the engines need core numpy only; numpy.ma (which np.unique pulls
        # in) would add its import time and memory to every oracle run
        examples = [argv for argv in _readme_examples() if argv[0] == "oracle"]
        assert any("--scale" in argv for argv in examples)
        _fresh_python("-c", (
            "import sys\n"
            "from schottky_strata import surfaces\n"
            "from schottky_strata.cli import run\n"
            "assert surfaces.count_orbits(7, 4) == 22\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'numpy.ma' not in sys.modules, 'count_orbits'\n"
            f"for argv in {examples!r}:\n"
            "    assert run(argv)[0] == 0, argv\n"
            "    assert 'numpy.ma' not in sys.modules, argv\n"
        ))

    def test_cli_examples_never_load_dataclasses(self):
        # every record is a namedtuple, so no command imports dataclasses
        _fresh_python("-c", (
            "import sys\n"
            "from schottky_strata.cli import run\n"
            f"for argv in {_readme_examples()!r}:\n"
            "    assert run(argv)[0] == 0, argv\n"
            "    assert 'dataclasses' not in sys.modules, argv\n"
        ))

    def test_cli_examples_never_load_mpmath(self):
        # mpmath is a test dependency only; a fresh interpreter runs every
        # README example and must not have imported it
        _fresh_python("-c", (
            "import sys\n"
            "from schottky_strata.cli import run\n"
            f"for argv in {_readme_examples()!r}:\n"
            "    assert run(argv)[0] == 0, argv\n"
            "assert 'mpmath' not in sys.modules\n"
        ))
