import csv
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import schottky_strata
from perfbench import checkers
from schottky_strata import cli, homorbits, strata
from schottky_strata.cli import run
from schottky_strata.cyclic_schottky import normal_form
from schottky_strata.surfaces import random_curve


_G5_TUPLE = ["--g", "5", "--p", "5", "--t", "0", "--r", "1", "--s", "1"]
# finite coordinates whose p-th powers overflow a double
HUGE_CURVE = ('{"p": 5, "a": [[[1e300, 0], [2, 0]]], '
              '"b": [[[3, 0], [-1e300, 0]]], "alpha": [2], "beta": [1]}')


# a float p and a bool rotation entry, each in an otherwise valid curve
FLOAT_P_CURVE = ('{"p": 5.0, "a": [[[1, 0], [2, 0]]], "b": [[[3, 0], [-1, 0]]], '
                 '"alpha": [1], "beta": [1]}')
BOOL_ENTRY_CURVE = ('{"p": 5, "a": [[[1, 0], [2, 0]]], "b": [[[3, 0], [-1, 0]]], '
                    '"alpha": [true], "beta": [1]}')


def _scaled_curve(factor):
    """A seeded curve with every branch point multiplied by ``factor``."""
    data = random_curve(5, 2, random.Random(3)).to_json()
    for key in ("a", "b"):
        data[key] = [[[factor * re, factor * im] for re, im in pair]
                     for pair in data[key]]
    return json.dumps(data)


def run_json(argv):
    code, envelope, text = run(argv)
    return code, envelope, text


def _dict_rows(env):
    """``env`` with its table rows in the dict form that its text prints;
    in-process they are tuples in CSV column order."""
    results = dict(env["results"])
    if env["command"] == "tuples" and results:
        results["tuples"] = [dict(zip("gptrs", row))
                             for row in results["tuples"]]
    if env["command"] == "report" and results:
        results["reports"] = [
            {"tuple": dict(zip("gptrs", row[:5])), "m_count": row[5],
             "dimension": row[6],
             "components": {"upper": row[8], "exact": row[7],
                            "basis": row[9]}}
            for row in results["reports"]]
    return {**env, "results": results}


class TestEnvelope:
    def test_tuples_payload(self):
        code, env, text = run_json(["tuples", "--g", "5", "--p", "5"])
        assert code == 0
        assert env["command"] == "tuples"
        assert env["results"]["count"] == 2
        assert env["results"]["tuples"] == strata.enumerate_tuples(5, 5)
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
        # none of example2's flags
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
            ["verify", "example2", "--curve", '{"p":5}'],
            ["report", "--p", "5", "--g-min", "10", "--g-max", "2"],
            ["oracle", "--p", "5", "--r", "0", "--s", "0", "--t", "0"],
            ["oracle", "--p", "5", "--r", "0", "--s", "0", "--t", "1"],
            *(
                ["build", *_G5_TUPLE, flag, value]
                for flag, value in [
                    ("--separation", "nan"),
                    ("--separation", "inf"),
                    ("--tol-classify", "-1"),
                    ("--tol-classify", "nan"),
                ]
            ),
            ["loxcheck", *_G5_TUPLE, "--tol-order", "nan"],
            *(["verify", "example2", "--tolerance", value]
              for value in ("nan", "inf", "-1")),
            ["loxcheck", *_G5_TUPLE, "--max-syllables", "0"],
            ["verify", "example2", "--curve", HUGE_CURVE],
            # centers and matrices overflow a double
            ["build", *_G5_TUPLE, "--separation", "1e308"],
            ["loxcheck", *_G5_TUPLE, "--separation", "1e308"],
            # bases that are not finite: NaN residuals at 1e40, NaN in the
            # output at 1e80
            ["verify", "example2", "--curve", _scaled_curve(1e40)],
            ["verify", "example2", "--curve", _scaled_curve(1e80)],
            ["verify", "example2", "--curve", FLOAT_P_CURVE],
            ["verify", "example2", "--curve", BOOL_ENTRY_CURVE],
            # a finite tolerance whose threshold overflows a double
            ["verify", "example2", "--tolerance", "1e308",
             "--curve", _scaled_curve(1)],
        ],
    )
    def test_bad_input_is_usage_error(self, argv, capsys):
        code, env, text = run_json(argv)
        assert (code, env, text) == (2, None, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    _G4_TUPLE = ["--g", "4", "--p", "5", "--t", "0", "--r", "2", "--s", "0"]

    @pytest.mark.parametrize("command", ["build", "loxcheck"])
    @pytest.mark.parametrize("separation", ["1e60", "1e100"])
    def test_separation_that_cancels_a_determinant(self, command, separation,
                                                   capsys):
        # the second elliptic factor's determinant cancels to 0 in doubles;
        # the message names the separation, not the matrix
        extra = ["--max-syllables", "3"] if command == "loxcheck" else []
        argv = [command, *self._G4_TUPLE, "--separation", separation, *extra]
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            f"error: separation {float(separation)} places e2 beyond double "
            "precision\n")

    def test_separation_between_them_builds(self, capsys):
        # 1e80 builds its matrices, and the loxodromy check fails
        code, env, _ = run_json(["loxcheck", *self._G4_TUPLE, "--separation",
                                 "1e80", "--max-syllables", "3"])
        assert code == 1 and capsys.readouterr().err == ""
        assert not all(c["pass"] for c in env["checks"])

    def test_budget_error_names_its_flag(self, capsys):
        code, env, _ = run_json(
            ["loxcheck", "--g", "26", "--p", "5", "--t", "6", "--r", "0",
             "--s", "0", "--max-syllables", "5", "--budget", "100"])
        assert (code, env) == (2, None)
        err = capsys.readouterr().err
        assert err == ("error: enumeration requires 101 sampled words, "
                       "exceeding budget 100; raise it with --budget\n")

    @pytest.mark.parametrize("argv,rows", [
        (["tuples", "--g", "100", "--p", "5", "--budget", "65"], 66),
        (["report", "--csv", "--p", "5", "--g-min", "2", "--g-max", "40",
          "--budget", "221"], 222),
    ])
    def test_row_budget(self, argv, rows, capsys):
        assert run_json(argv) == (2, None, "")
        assert capsys.readouterr().err == (
            f"error: enumeration requires {rows} rows, exceeding budget "
            f"{argv[-1]}; raise it with --budget\n")
        assert run_json(argv[:-1] + [str(rows)])[0] == 0

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
    def test_build_invariants(self, command, capsys):
        failed = _failed_check(
            [command, *_G5_TUPLE, "--tol-classify", "10"], "build_invariants",
            capsys,
        )
        assert "e1 does not have order 5" in failed["detail"]

    _KERNEL = ["kernel", "--g", "26", "--p", "5", "--t", "6", "--r", "0",
               "--s", "0"]

    def test_rank_equals_genus(self, monkeypatch, capsys):
        real = cli.kernel_presentation
        monkeypatch.setattr(cli, "kernel_presentation",
                            lambda phi: real(phi)[:-1])
        _failed_check(self._KERNEL, "rank_equals_genus", capsys)

    def test_all_in_kernel(self, monkeypatch, capsys):
        real = cli.kernel_presentation
        monkeypatch.setattr(
            cli, "kernel_presentation",
            lambda phi: real(phi) + [normal_form(phi.spec, [(("a", 1), 1)])],
        )
        _failed_check(self._KERNEL, "all_in_kernel", capsys)

    def test_family_is_connected_case(self, monkeypatch, capsys):
        monkeypatch.setattr(strata, "_example2_family_member",
                            lambda p, t, r, s: False)
        _failed_check(["verify", "example2"], "family_is_connected_case",
                      capsys)

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
        real = strata.enumerate_tuples
        monkeypatch.setattr(strata, "enumerate_tuples",
                            lambda g, p: real(g, p)[1:])
        failed = _failed_check(
            ["report", "--p", "5", "--g-min", "2", "--g-max", "8"],
            "row_count", capsys,
        )
        assert failed["detail"] == "3 rows, count_strata sums to 7"

    def test_all_admissible(self, monkeypatch, capsys):
        real = strata.enumerate_tuples

        def one_row_off(g, p):
            tuples = real(g, p)
            t = tuples[0]
            off = strata.AdmissibleTuple._from_relation((g, p, t.t, t.r + 1, t.s))
            return [off, *tuples[1:]]

        monkeypatch.setattr(strata, "enumerate_tuples", one_row_off)
        failed = _failed_check(["tuples", "--g", "10", "--p", "5"],
                               "all_admissible", capsys)
        assert failed["detail"] == "3 tuples verified against the defining relation"

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

    def test_build_matrices(self):
        code, env, _ = run_json(
            ["build", "--g", "2", "--p", "2", "--t", "0", "--r", "3", "--s", "0"]
        )
        assert code == 0
        rows = env["results"]["matrices"]
        assert [row["symbol"] for row in rows] == ["e1", "e2", "e3"]
        assert all(row["class"] == "elliptic" for row in rows)
        assert rows[1]["center"] == [10.0, 0.0]

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
        assert env["results"]["witness"] == [[1, 1, 1, 1], [1, 1, 1, 2]]
        names = {c["name"] for c in env["checks"]}
        assert "family_is_connected_case" in names
        assert "fixed_point_check" in names

    def test_verify_example2_user_curve(self):
        import random

        from schottky_strata.surfaces import random_curve

        curve = random_curve(5, 1, random.Random(5))
        code, env, _ = run_json(
            ["verify", "example2", "--curve", json.dumps(curve.to_json())]
        )
        assert code == 0
        assert env["results"]["curve_report"]["passed"]
        assert any(c["name"] == "user_curve_fixed_points" for c in env["checks"])

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


def _dumps(value):
    return json.dumps(value, indent=2, allow_nan=False)


# every character json escapes, JSON syntax, and text beyond ASCII
_TEXT = st.text(
    st.sampled_from('"\\[]{},:% \n\t\x00\x1f\x7f\xe9\u2028\ud800\U0001f600')
    | st.characters(),
    max_size=6,
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
# True, 1 and 1.0 are one dict key but three texts; False, 0, 0.0 and -0.0
# are one key and four texts
_KEYS = (st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, None])
         | st.integers() | _FLOATS | _TEXT)
# rows whose keys compare equal, or are the same keys in another order
_EQUAL_KEYED_ROWS = st.lists(st.sampled_from(
    [{True: 1}, {1: 2}, {1.0: 3}, {0: 4}, {-0.0: 5}, {None: 6},
     {"a": 1, "b": 2}, {"b": 3, "a": 4}, {}]
), max_size=4)


def _records(keys, children):
    """Lists of dicts that share one key list, like the table rows."""
    return st.tuples(
        st.lists(keys, max_size=3, unique=True),
        st.lists(st.lists(children, min_size=3, max_size=3), max_size=4),
    ).map(lambda spec: [dict(zip(spec[0], row)) for row in spec[1]])


_VALUES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
        | _records(_TEXT, children)
        | _records(_KEYS, children)
        | _EQUAL_KEYED_ROWS
    ),
    max_leaves=12,
)

_G5_CURVE = json.dumps(random_curve(5, 1, random.Random(5)).to_json())


class TestEncoder:
    """The envelope text is json.dumps(envelope, indent=2), byte for byte."""

    @given(_VALUES)
    @example([{True: 1}, {1: 2}, {1.0: 3}])
    @example([{0: [1]}, {-0.0: [2]}, {False: [3]}])
    @example([{"a": 1, "b": 2}, {"b": 3, "a": 4}])
    @example({True: [], None: {}, 1.5: (), -0.0: [{}], 7: "\u2028"})
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_json_dumps(self, value):
        assert cli._indented(value) == _dumps(value)

    @pytest.mark.parametrize("value,error", [
        *((value, ValueError) for value in (
            math.nan, math.inf, -math.inf, [1.0, math.nan], {"x": [math.inf]},
            {math.nan: 1}, [{"a": 1}, {"a": -math.inf}],
        )),
        ({(1, 2): 0}, TypeError),
        ([{"a": 1}, {"a": {1, 2}}], TypeError),
    ])
    def test_rejects_what_json_dumps_rejects(self, value, error):
        with pytest.raises(error):
            _dumps(value)
        with pytest.raises(error):
            cli._indented(value)

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
        ["verify", "example2", "--curve", _G5_CURVE],
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
_FLOAT_TEXTS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1", "0",
                                "1e-12", "1e-9", "0.1", "10"])
# a small JSON grammar for --phi and --curve
_JSON_LEAVES = st.integers(-2, 13) | st.sampled_from([5.0, True, False, None,
                                                      "x"])
_JSON = st.recursive(_JSON_LEAVES, lambda kids: st.lists(kids, max_size=3),
                     max_leaves=6)
_CURVE_VALUES = (
    st.sampled_from([5, 7, 5.0, True, "5", 4])
    | st.lists(st.sampled_from([1, 2, 4, 0, 2.0, True, "1"]), min_size=1,
               max_size=2)
    | st.sampled_from([1e300, math.nan, math.inf, 0.5]).map(
        lambda x: [[[x, 0], [2, 0]]])
    | _JSON
)


def _integral(value):
    return isinstance(value, int) and not isinstance(value, bool)


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
    """argv lists for the commands that take a shape, a --phi or a --curve."""
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
        _optional(draw, argv, "--m", st.integers(-1, 4))
        _optional(draw, argv, "--tolerance", _FLOAT_TEXTS)
        base = random_curve(draw(st.sampled_from([5, 7])),
                            draw(st.integers(1, 2)),
                            random.Random(draw(st.integers(0, 3)))).to_json()
        _optional(draw, argv, "--curve", _json_text(base, _CURVE_VALUES))
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
        for flag in ("--separation", "--tol-classify", "--tol-order"):
            _optional(draw, argv, flag, _FLOAT_TEXTS)
    if command == "loxcheck":
        # a budget, as the default of 10^6 sampled words takes seconds
        argv += ["--max-syllables", str(draw(st.integers(-1, 3))),
                 "--budget", str(draw(st.integers(-1, 5000)))]
    return argv


_KERNEL_ARGV = ["kernel", "--g", "5", "--p", "5", "--t", "1", "--r", "1",
                "--s", "0"]


class TestArgvFuzz:
    @given(_table_argv() | _command_argv())
    @example(["verify", "example2", f"--curve={FLOAT_P_CURVE}"])
    @example(["verify", "example2", f"--curve={BOOL_ENTRY_CURVE}"])
    @example(["verify", "example1", "--tolerance", "nan"])
    @example(_KERNEL_ARGV + ["--phi", '{"a":["x"],"e":[1]}'])
    @example(_KERNEL_ARGV + ["--phi", "[1]"])
    @example(["verify", "example2", '--curve={"p":5}'])
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
        curves = [arg[len("--curve="):] for arg in argv
                  if arg.startswith("--curve=")]
        if code != 2 and curves:
            # a curve's p and rotation entries are integers, never bools
            curve = json.loads(curves[0])
            assert all(map(_integral,
                           [curve["p"], *curve["alpha"], *curve["beta"]]))


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
    def test_only_the_orbit_engines_load_numpy(self):
        # numpy is imported inside the homorbits functions that use it, so
        # every command but oracle and verify example2 starts without it
        examples = [argv for argv in _readme_examples()
                    if argv[0] != "oracle" and argv[:2] != ["verify", "example2"]]
        assert {argv[0] for argv in examples} == set(cli._HANDLERS) - {"oracle"}
        _fresh_python("-c", (
            "import sys\n"
            "from schottky_strata.cli import run\n"
            "assert 'numpy' not in sys.modules\n"
            f"for argv in {[['count', '--g', '100', '--p', '11'], *examples]!r}:\n"
            "    assert run(argv)[0] == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
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
