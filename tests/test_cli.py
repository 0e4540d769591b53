"""Command-line interface: subcommands, settings, exit codes."""

import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from degmc.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    EXIT_VERIFY_FAIL,
    _build_parser,
    main,
)
from degmc import verify
from degmc.chains import RNG_LAYOUT, DegreeIntervalKernel
from degmc.counting import exact_interval_count
from degmc.graphs import DegreeInterval, read_edge_list, read_intervals
from degmc.oracle import DENSE_LIMIT

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def iv5(tmp_path):
    p = tmp_path / "iv5.txt"
    p.write_text("".join(f"{i} 1 2\n" for i in range(5)))
    return str(p)


@pytest.fixture
def triangle(tmp_path):
    p = tmp_path / "tri.edges"
    p.write_text("0 1\n1 2\n0 2\n")
    return str(p)


class TestIngest:
    def test_triangle_zeros(self, triangle, tmp_path, capsys):
        miss = tmp_path / "miss.txt"
        miss.write_text("0 0\n1 0\n2 0\n")
        out = tmp_path / "out.iv"
        rc = main(["ingest", triangle, str(miss), "--output", str(out)])
        assert rc == EXIT_OK
        iv = read_intervals(out)
        assert iv.lower == iv.upper == (2, 2, 2)

    def test_node_without_observed_edges(self, tmp_path):
        """A node named only in the missing-count file is a node of the
        observed graph with degree 0, the partially observed case."""
        edges, miss, out = tmp_path / "g.edges", tmp_path / "miss.txt", tmp_path / "out.iv"
        edges.write_text("0 1\n1 2\n")
        miss.write_text("0 1\n3 1\n")
        assert main(["ingest", str(edges), str(miss), "--output", str(out)]) == EXIT_OK
        iv = read_intervals(out)
        assert iv.lower == (1, 2, 1, 0) and iv.upper == (2, 2, 1, 1)

    def test_malformed_line(self, triangle, tmp_path):
        miss = tmp_path / "miss.txt"
        # a line that is not 'i k_i', a negative count, a count past n - 1
        for text in ("0 0\nnot a line\n", "0 -1\n", "0 1\n"):
            miss.write_text(text)
            assert main(["ingest", triangle, str(miss)]) == EXIT_PARSE

    def test_duplicate_node(self, triangle, tmp_path, capsys):
        """A node named twice in the missing-count file is a parse error, as
        in an interval file, not a silent overwrite."""
        miss = tmp_path / "dup.txt"
        miss.write_text("0 1\n0 0\n")
        assert main(["ingest", triangle, str(miss)]) == EXIT_PARSE
        assert f"{miss}:2: duplicate node 0" in capsys.readouterr().err

    @pytest.mark.parametrize("unreadable", [0, 1], ids=["edges", "missing-counts"])
    def test_unreadable_file(self, triangle, tmp_path, capsys, unreadable):
        miss = tmp_path / "miss.txt"
        miss.write_text("0 0\n")
        argv = [triangle, str(miss)]
        for path in (str(tmp_path / "no_such_file"), str(tmp_path)):  # missing, a directory
            argv[unreadable] = path
            assert main(["ingest", *argv]) == EXIT_PARSE
            assert path in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [0, 1], ids=["edges", "missing-counts"])
    def test_non_utf8_file(self, triangle, tmp_path, capsys, bad):
        miss = tmp_path / "miss.txt"
        miss.write_text("0 0\n")
        argv = [triangle, str(miss)]
        argv[bad] = str(tmp_path / "bad.txt")
        (tmp_path / "bad.txt").write_bytes(b"0 1\n\xff\xfe\x00 1 2\n")
        assert main(["ingest", *argv]) == EXIT_PARSE
        assert f"{argv[bad]}:2: not UTF-8" in capsys.readouterr().err

    def test_roundtrip_sample_within_intervals(self, triangle, tmp_path):
        miss = tmp_path / "miss.txt"
        miss.write_text("0 0\n1 0\n2 0\n")
        out = tmp_path / "out.iv"
        assert main(["ingest", triangle, str(miss), "--output", str(out)]) == EXIT_OK
        base = str(tmp_path / "s")
        rc = main(
            ["sample", str(out), "--chain", "interval", "--steps", "200", "--count", "5",
             "--seed", "1", "--output", base]
        )
        assert rc == EXIT_OK
        iv = read_intervals(out)
        for k in range(5):
            g = read_edge_list(f"{base}_{k:04d}.edges")
            assert iv.contains_graph(g)


interval_commands = pytest.mark.parametrize(
    "command", [["count"], ["sample"], ["ladder", "--m", "1"], ["analyze"]],
    ids=["count", "sample", "ladder", "analyze"],
)


@interval_commands
def test_malformed_bounds(tmp_path, capsys, command):
    """lo > hi, a negative bound or hi > n - 1 is a parse error naming the file."""
    p = tmp_path / "iv.txt"
    for text in ("0 3 1\n1 0 2\n2 0 2\n3 0 2\n", "0 -1 1\n1 0 1\n", "0 0 2\n1 0 1\n"):
        p.write_text(text)
        assert main([command[0], str(p), *command[1:]]) == EXIT_PARSE
        assert str(p) in capsys.readouterr().err


@interval_commands
def test_unreadable_interval_file(tmp_path, capsys, command):
    """A missing path or a directory is a parse error naming it."""
    for path in (str(tmp_path / "no_such_file"), str(tmp_path)):
        assert main([command[0], path, *command[1:]]) == EXIT_PARSE
        assert path in capsys.readouterr().err


@interval_commands
def test_non_utf8_interval_file(tmp_path, capsys, command):
    """Bytes that are not UTF-8 are a parse error naming the file and line."""
    p = tmp_path / "iv.txt"
    for text, line in ((b"\xff\xfe\x00 1 2\n", 1), (b"0 1 2\n# ok\n1 \xe9 2\n", 3)):
        p.write_bytes(text)
        assert main([command[0], str(p), *command[1:]]) == EXIT_PARSE
        assert f"{p}:{line}: not UTF-8" in capsys.readouterr().err


@interval_commands
def test_interval_file_naming_no_node(tmp_path, capsys, command):
    p = tmp_path / "iv.txt"
    for text in ("", "# a comment\n\n"):
        p.write_text(text)
        assert main([command[0], str(p), *command[1:]]) == EXIT_PARSE
        assert "names no node" in capsys.readouterr().err


class TestSample:
    def test_singleton_class_always_triangle(self, tmp_path):
        p = tmp_path / "iv.txt"
        p.write_text("0 2 2\n1 2 2\n2 2 2\n")
        base = str(tmp_path / "t")
        rc = main(["sample", str(p), "--chain", "switch", "--steps", "50",
                   "--count", "3", "--seed", "9", "--output", base])
        assert rc == EXIT_OK
        for k in range(3):
            g = read_edge_list(f"{base}_{k:04d}.edges")
            assert g.degree_sequence() == (2, 2, 2)

    def test_manifest_and_determinism(self, iv5, tmp_path):
        b1, b2 = str(tmp_path / "a"), str(tmp_path / "b")
        for base in (b1, b2):
            rc = main(["sample", iv5, "--chain", "interval", "--steps", "100",
                       "--count", "2", "--seed", "4", "--output", base])
            assert rc == EXIT_OK
        for k in range(2):
            f1 = open(f"{b1}_{k:04d}.edges").read()
            f2 = open(f"{b2}_{k:04d}.edges").read()
            assert f1 == f2
        man = json.load(open(f"{b1}_manifest.json"))
        assert man["seed"] == 4 and man["chain"] == "interval" and man["steps"] == 100
        assert "instance_hash" in man and len(man["files"]) == 2
        assert man["rng_layout"] == RNG_LAYOUT == 4

    def test_switch_needs_constant_interval(self, iv5):
        assert main(["sample", iv5, "--chain", "switch", "--steps", "10"]) == EXIT_INFEASIBLE

    def test_switch_hinge_needs_m(self, iv5):
        assert main(["sample", iv5, "--chain", "switch-hinge", "--steps", "10"]) == EXIT_PARSE

    def test_infeasible(self, tmp_path):
        p = tmp_path / "iv.txt"
        p.write_text("0 0 0\n1 0 0\n2 2 2\n")
        assert main(["sample", str(p), "--chain", "interval"]) == EXIT_INFEASIBLE

    def test_negative_count(self, iv5, tmp_path):
        base = tmp_path / "neg"
        assert main(["sample", iv5, "--count", "-2", "--output", str(base)]) == EXIT_PARSE
        assert not (tmp_path / "neg_manifest.json").exists()


def _exact_record(capsys, iv_path, m=None):
    """The JSON record count printed, checked to be the exact count."""
    rec = json.loads(capsys.readouterr().out)
    assert rec["method"] == "exact"
    assert rec["log_value"] == math.log(exact_interval_count(read_intervals(iv_path), m))
    assert (rec["samples_used"], rec["ladder_length"], rec["per_rung_ratios"]) == (0, 0, [])
    return rec


class TestCount:
    def test_unconstrained_n3(self, tmp_path, capsys):
        p = tmp_path / "iv.txt"
        p.write_text("0 0 2\n1 0 2\n2 0 2\n")
        rc = main(["count", str(p), "--eps", "0.1", "--delta", "0.05", "--seed", "0"])
        assert rc == EXIT_OK
        rec = _exact_record(capsys, p)
        assert rec["value_if_small"] == pytest.approx(8.0, rel=1e-12)
        assert (rec["eps"], rec["delta"]) == (0.1, 0.05)

    def test_m_flag(self, iv5, capsys):
        assert main(["count", iv5, "--m", "4", "--seed", "0"]) == EXIT_OK
        _exact_record(capsys, iv5, 4)

    def test_m_flag_n8(self, tmp_path, capsys):
        p = tmp_path / "iv8.txt"
        p.write_text("".join(f"{i} 2 3\n" for i in range(8)))
        assert main(["count", str(p), "--m", "10", "--seed", "3"]) == EXIT_OK
        _exact_record(capsys, p, 10)

    def test_output_file(self, iv5, tmp_path):
        out = tmp_path / "est.json"
        assert main(["count", iv5, "--seed", "1", "--output", str(out)]) == EXIT_OK
        rec = json.loads(out.read_text())
        assert set(rec) >= {"log_value", "eps", "delta", "method"}

    def test_bad_eps(self, iv5):
        assert main(["count", iv5, "--eps", "1.5"]) == EXIT_PARSE

    def test_beyond_enumeration_cap(self, tmp_path, capsys):
        """[2,3]^9 has no enumeration; the recursion counts it."""
        p = tmp_path / "iv.txt"
        p.write_text("".join(f"{i} 2 3\n" for i in range(9)))
        assert main(["count", str(p), "--seed", "0"]) == EXIT_OK
        _exact_record(capsys, p)

    @pytest.mark.parametrize("m", [[], ["--m", "13"]], ids=["m-free", "m-13"])
    def test_beyond_count_cap(self, tmp_path, capsys, m):
        p = tmp_path / "iv.txt"
        p.write_text("".join(f"{i} 2 3\n" for i in range(13)))
        assert main(["count", str(p), "--seed", "0", *m]) == EXIT_TOO_LARGE
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [5, 13])
    @pytest.mark.parametrize("m", [[], ["--m", "2"]], ids=["m-free", "m-2"])
    def test_infeasible_at_any_n(self, tmp_path, capsys, n, m):
        """[1,1]^n with n odd has an odd degree sum, so no graph: count exits
        2 before the recursion, above the count cap too."""
        p = tmp_path / "iv.txt"
        p.write_text("".join(f"{i} 1 1\n" for i in range(n)))
        assert main(["count", str(p), *m]) == EXIT_INFEASIBLE
        assert json.loads(capsys.readouterr().out)["method"] == "infeasible"


class TestLadderCmd:
    def test_ladder_json(self, iv5, capsys):
        assert main(["ladder", iv5, "--m", "4"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["rungs"][0] == [1, 1, 1, 1, 1]
        assert sum(rec["final_sequence"]) == 8
        assert rec["num_ratios"] == len(rec["rungs"]) - 1

    def test_infeasible_m(self, iv5):
        assert main(["ladder", iv5, "--m", "1"]) == EXIT_INFEASIBLE

    def test_feasible_beyond_water_fill(self, tmp_path):
        # water-fill is not graphical here, but (1,5,4,2,2,2,0,...) is
        p = tmp_path / "iv29.txt"
        rows = list(zip((0, 5, 4, 2, 1, 2), (1, 5, 5, 3, 3, 4))) + [(0, 1)] * 23
        p.write_text("".join(f"{i} {lo} {hi}\n" for i, (lo, hi) in enumerate(rows)))
        assert main(["ladder", str(p), "--m", "8"]) == EXIT_OK


class TestAnalyze:
    def test_interval_diagnostics(self, iv5, capsys):
        assert main(["analyze", iv5, "--chain", "interval"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["symmetric"] is True
        assert 0 < rec["spectral_gap"] < 1
        assert rec["states"] == 112

    def test_beyond_dense_limit(self, tmp_path, capsys):
        # [1,3]^6 has 8,285 states, above DENSE_LIMIT: nothing densifies it
        p = tmp_path / "iv.txt"
        p.write_text("".join(f"{i} 1 3\n" for i in range(6)))
        assert main(["analyze", str(p), "--chain", "interval"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["states"] == 8285
        assert 0 < rec["spectral_gap"] < 1
        assert rec["symmetric"] is True

    def test_beyond_enumeration_cap(self, tmp_path, capsys):
        p = tmp_path / "iv.txt"
        p.write_text("".join(f"{i} 1 2\n" for i in range(9)))
        assert main(["analyze", str(p), "--chain", "interval"]) == EXIT_TOO_LARGE
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("chain", [["interval"], ["switch-hinge", "--m", "2"]])
    def test_empty_space(self, tmp_path, capsys, chain):
        # node 0 needs degree 3 but every other node has degree 0
        p = tmp_path / "iv.txt"
        p.write_text("0 3 3\n1 0 0\n2 0 0\n3 0 0\n")
        assert main(["analyze", str(p), "--chain", *chain]) == EXIT_INFEASIBLE
        assert "is empty" in capsys.readouterr().err


class TestVerify:
    def test_stationarity_n7(self):
        # the homogeneous n = 7 chains; [2,3]^7 has 35,150 states, far above
        # DENSE_LIMIT
        records = []
        for r in range(1, 6):
            for u in (r, r + 1):
                iv = DegreeInterval((r,) * 7, (u,) * 7)
                records += verify.check_stationarity(DegreeIntervalKernel(iv))
        assert records and all(rec["pass"] for rec in records)
        states = [int(rec["instance"].split()[-2]) for rec in records]  # "..., N states"
        assert max(states) == 35150 > DENSE_LIMIT

    @pytest.mark.parametrize("suite", list(verify.SUITES))
    def test_passing_suite(self, suite, capsys):
        n = "6" if suite == "sbound" else "5"  # sbound has no instance below n = 6
        assert main(["verify", suite, "--n", n]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["suite"] == suite and rec["checks"] and rec["pass"] is True

    @pytest.mark.parametrize("suite, n", [("sbound", "5"), ("stationarity", "3")])
    def test_empty_suite_usage_error(self, suite, n, capsys):
        assert main(["verify", suite, "--n", n]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert suite in err and f"--n {n}" in err

    def test_formula_honours_n(self, capsys):
        assert main(["verify", "formula", "--n", "12"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert {f"d={(r,) * 12}" for r in (2, 3)} <= {c["instance"] for c in rec["checks"]}
        # the count recursion stops at oracle.COUNT_CAP = 12 nodes
        assert main(["verify", "formula", "--n", "13"]) == EXIT_TOO_LARGE
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["logconcave", "congestion"])
    def test_unit_family_cap(self, suite, capsys):
        """The unit-interval family has about 2.0M members at n = 9: --n 9
        exits 4 before checking any n."""
        assert main(["verify", suite, "--n", "9"]) == EXIT_TOO_LARGE
        assert "too large" in capsys.readouterr().err

    def test_sbound_suite_passes(self, capsys):
        assert main(["verify", "sbound", "--n", "20"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["pass"] is True and rec["checks"]

    def test_worst_dispersion_matches_exhaustive(self):
        from degmc.weights import DegenerateDensity, sequence_stats

        def exhaustive(n, lo, hi):
            worst = 0.0
            for d in itertools.combinations_with_replacement(range(lo, hi + 1), n):
                if sum(d) % 2:
                    continue
                try:
                    worst = max(worst, sequence_stats(d).s)
                except DegenerateDensity:
                    continue
            return worst

        for n in range(2, 11):
            for lo in range(n):
                for hi in range(lo, min(lo + 3, n - 1) + 1):
                    assert verify.worst_dispersion(n, lo, hi) == pytest.approx(
                        exhaustive(n, lo, hi), abs=1e-12
                    ), (n, lo, hi)

    def test_seed_is_not_an_option(self, capsys):
        """verify draws nothing at random, so it takes no --seed."""
        assert main(["verify", "formula", "--n", "4", "--seed", "3"]) == EXIT_PARSE
        assert "--seed" in capsys.readouterr().err

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "nonsense"]) == EXIT_PARSE

    def test_failure_exit_code(self, monkeypatch, capsys):
        fail = {"instance": "x", "quantity": "q", "bound": 0, "measured": 1, "pass": False}
        monkeypatch.setitem(
            verify.SUITES, "logconcave", verify.Suite(lambda n: ["x"], lambda x: [fail])
        )
        assert main(["verify", "logconcave"]) == EXIT_VERIFY_FAIL


def test_readme_usage_matches_parser():
    """Each command of the README's usage block names exactly the --options
    its subparser takes, --help aside, and brackets an option exactly when
    the parser gives it a default, i.e. does not require it."""
    block = README.read_text().split("## Command-line interface", 1)[1].split("```")[1]
    usage = {}
    for line in block.splitlines():
        text = line.split("#", 1)[0]
        if text.startswith("degmc "):
            command = text.split()[1]
            usage[command] = ""
        if text.strip():
            usage[command] += text
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(usage) == set(sub.choices)
    for command, sp in sub.choices.items():
        want = {o for a in sp._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", usage[command])) == want, command
        optional = {o for a in sp._actions for o in a.option_strings if not a.required}
        depth = 0
        for token in re.findall(r"\[|\]|--[a-z][a-z-]*", usage[command]):
            depth += {"[": 1, "]": -1}.get(token, 0)
            if token.startswith("--"):
                assert (depth > 0) == (token in optional), (command, token)
        assert depth == 0, command


def test_environment_changes_no_run(iv5, tmp_path, monkeypatch):
    """Flags are the only settings: with DEGMC_* variables set, even to
    values no flag accepts, sample and count write what they write without
    them, and the manifest names the defaults that replay the run."""
    env = {"DEGMC_SEED": "123", "DEGMC_STEPS": "many", "DEGMC_EPS": "2",
           "DEGMC_DELTA": "0.5", "DEGMC_CHAIN": "bogus"}
    runs = []
    for k, setting in enumerate(({}, env)):
        for name, value in setting.items():
            monkeypatch.setenv(name, value)
        base, count = str(tmp_path / f"s{k}"), str(tmp_path / f"c{k}.json")
        assert main(["sample", iv5, "--steps", "50", "--count", "2", "--output", base]) == EXIT_OK
        assert main(["count", iv5, "--output", count]) == EXIT_OK
        manifest = json.load(open(f"{base}_manifest.json"))
        files = [open(f).read() for f in manifest.pop("files")]
        runs.append((manifest, files, open(count).read()))
    assert runs[1] == runs[0]
    assert runs[1][0]["chain"] == "interval" and runs[1][0]["seed"] == 0


# Runs cli.main on each argument list of argv[1] (JSON) in one process, then
# prints the exit codes and the scipy modules loaded.
_FRESH_MAIN = """
import json, sys
from degmc.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _fresh_main(commands):
    """(exit codes, scipy modules loaded) of the commands run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _FRESH_MAIN, json.dumps(commands)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


class TestImports:
    """Only analyze and verify need scipy; the other commands never load it."""

    def test_sample_count_ladder_ingest_load_no_scipy(self, iv5, triangle, tmp_path):
        const = tmp_path / "const.txt"
        const.write_text("0 2 2\n1 2 2\n2 2 2\n")
        miss = tmp_path / "miss.txt"
        miss.write_text("0 0\n1 0\n2 0\n")
        out = str(tmp_path / "s")
        commands = [
            ["sample", str(const), "--chain", "switch", "--steps", "50", "--output", out],
            ["sample", iv5, "--chain", "switch-hinge", "--m", "4", "--steps", "50", "--output", out],
            ["sample", iv5, "--chain", "interval", "--steps", "50", "--count", "2", "--output", out],
            ["count", iv5],
            ["count", iv5, "--m", "4"],
            ["ladder", iv5, "--m", "4"],
            ["ingest", triangle, str(miss), "--output", str(tmp_path / "ingested.txt")],
        ]
        codes, scipy_modules = _fresh_main(commands)
        assert codes == [EXIT_OK] * len(commands)
        assert scipy_modules == []

    def test_analyze_in_fresh_process(self, iv5):
        codes, scipy_modules = _fresh_main([["analyze", iv5, "--chain", "interval"]])
        assert codes == [EXIT_OK]
        assert "scipy.sparse" in scipy_modules
