"""CLI subcommands, exit codes, and report determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.cli import main
from tanglekit.experiments import _LAYOUT
from tanglekit.graphdeduce import EDGES

RUN = [sys.executable, "-m", "tanglekit.cli"]


def run_cli(args, stdin=b"", budget=None):
    """Run `tanglekit args` in a fresh process, with TANGLEKIT_BUDGET set to
    `budget` or unset; stdin, stdout and stderr are bytes."""
    env = {k: v for k, v in os.environ.items() if k != "TANGLEKIT_BUDGET"}
    if budget is not None:
        env["TANGLEKIT_BUDGET"] = budget
    return subprocess.run(
        RUN + args, input=stdin, capture_output=True, env=env, timeout=600
    )


class TestSolve:
    def test_default_table(self, capsys):
        assert main(["solve"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["solution"]["O1"] == "-1/4"
        assert data["solution"]["d_t"] == [0, 4]

    def test_config_file(self, capsys):
        assert main(["solve", "--config", "tests/fixtures/table15.json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["solution"]["v"] == [1, -1, 1]

    def test_unsolvable_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"deletion": {"e": 1}}))
        assert main(["solve", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("lt", [0, 1, -1])
    def test_degenerate_in_trans_product_exits_one(self, lt, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"in_trans": {"deletion": lt}}))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "torus link product" in json.loads(capsys.readouterr().out)["error"]

    def test_deterministic_output(self):
        a = run_cli(["solve"])
        b = run_cli(["solve"])
        assert a.stdout == b.stdout


class TestPipelines:
    def test_pjh_verify_pipeline(self):
        pd = run_cli(["pjh"]).stdout
        result = run_cli(["verify", "--in-trans"], stdin=pd)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["passed"] and len(report["checks"]) == 8

    def test_pjh_has_no_emit_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pjh", "--emit", "pd"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --emit pd" in capsys.readouterr().err

    def test_verify_failure_exit(self, tmp_path, capsys):
        from tanglekit.diagram import emit_pd, trivial_tangle

        pd = tmp_path / "triv.pd"
        pd.write_text(emit_pd(trivial_tangle()))
        assert main(["verify", "--pd", str(pd)]) == 1

    def test_identify(self, tmp_path, capsys):
        from tanglekit.diagram import close_numerator, emit_pd, rational_tangle_diagram
        from tanglekit.rational import reduce

        pd = tmp_path / "tre.pd"
        pd.write_text(emit_pd(close_numerator(rational_tangle_diagram(reduce(3, 1)))))
        assert main(["identify", "--pd", str(pd)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "torus2" and data["torus_p"] == 3

    def test_duplicate_pd_label_fails(self, tmp_path, capsys):
        pd = tmp_path / "dup.pd"
        pd.write_text("tangle k=0 n=0\nS a: 1\nS a: 2\n")
        assert main(["identify", "--pd", str(pd)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate S label 'a' (line 3)\n"

    def test_lk(self, tmp_path, capsys):
        from tanglekit.diagram import close_with_x_arcs, emit_pd
        from tanglekit.experiments import pjh_tangle

        pd = tmp_path / "link.pd"
        pd.write_text(emit_pd(close_with_x_arcs(pjh_tangle())))
        assert main(["lk", "--pd", str(pd)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data.values()) == {-1}

    def test_reduce_target(self, tmp_path, capsys):
        from tanglekit.diagram import emit_pd
        from tanglekit.experiments import pjh_tangle

        pd = tmp_path / "pjh.pd"
        pd.write_text(emit_pd(pjh_tangle()))
        assert main(["reduce", "--pd", str(pd), "--free", "--target", "7"]) == 0
        out = capsys.readouterr().out
        assert "tangle k=3 n=0" in out
        assert main(["reduce", "--pd", str(pd), "--target", "3"]) == 1


class TestEnumerate:
    def test_small_level(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["enumerate", "--max-crossings", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        totals = [lvl["total"] for lvl in data["levels"]]
        assert totals == [5, 72, 1020]
        assert all(lvl["holds"] for lvl in data["levels"])

    def test_jobs_merge(self, tmp_path):
        solo = tmp_path / "solo.json"
        multi = tmp_path / "multi.json"
        assert main(["enumerate", "--max-crossings", "1", "--out", str(solo)]) == 0
        assert main(
            ["enumerate", "--max-crossings", "1", "--jobs", "2", "--out", str(multi)]
        ) == 0
        assert json.loads(solo.read_text()) == json.loads(multi.read_text())

    def test_jobs_report_byte_identical(self):
        # pool workers each search their own subtrees of the shadow search
        solo = run_cli(["enumerate", "--max-crossings", "3"])
        multi = run_cli(["enumerate", "--max-crossings", "3", "--jobs", "2"])
        assert solo.returncode == multi.returncode == 0
        assert multi.stdout == solo.stdout

    def test_unresolved_independent_of_jobs(self, tmp_path, monkeypatch):
        """No level has an unresolved diagram up to n = 4, so a stand-in
        `classify` calls a fixed seventh of the hard variants unresolved,
        chosen by a sha256 of `alpha`, and the rest reducible.  The report
        and the --unresolved-dir tree must then be the same for every
        --jobs N.  The pool's workers see the stand-in only because they
        are forked from this process: the start method on Linux, where CI
        runs."""
        from tanglekit import census

        def stand_in(d):
            if hashlib.sha256(repr(d.alpha).encode()).digest()[0] % 7 == 0:
                return "unresolved"
            return "reducible"

        monkeypatch.setattr(census, "classify", stand_in)
        runs = []
        for jobs in ("1", "2", "3"):
            out, tree = tmp_path / f"jobs{jobs}.json", tmp_path / f"unresolved{jobs}"
            argv = ["enumerate", "--max-crossings", "4", "--jobs", jobs]
            assert main([*argv, "--out", str(out), "--unresolved-dir", str(tree)]) == 1
            files = {p.name: p.read_bytes() for p in tree.iterdir()}
            runs.append((out.read_bytes(), files))
        levels = json.loads(runs[0][0])["levels"]
        assert [len(level["unresolved"]) for level in levels] == [0, 0, 0, 3, 151]
        assert len(runs[0][1]) == 154
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-crossings", "6"],
            ["--max-crossings", "6", "--jobs", "2"],
            ["--max-crossings", "8"],
            ["--max-crossings", "8", "--extended"],
        ],
    )
    def test_gates_checked_before_any_level(self, argv, monkeypatch, capsys):
        from tanglekit import census

        def refuse(*args, **kwargs):
            raise AssertionError("a level was classified past a gate")

        monkeypatch.setattr(census, "classify_level", refuse)
        assert main(["enumerate", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1

    def test_rewrite_results_stay_validated_after_enumerate(self, capsys):
        # an in-process census must leave the R2 push picking a planar
        # embedding; an unvalidated push returns a genus-1 rotation here
        from tanglekit.diagram import close_numerator, rational_tangle_diagram
        from tanglekit.diagram.rewrite import apply_r2_add
        from tanglekit.rational import reduce

        assert main(["enumerate", "--max-crossings", "1"]) == 0
        trefoil = close_numerator(rational_tangle_diagram(reduce(3, 1)))
        pushed = apply_r2_add(trefoil, 1, 5)
        assert pushed.validate() is pushed
        assert pushed.n == trefoil.n + 2


class TestDeduce:
    def test_rational_scenario(self, capsys, tmp_path):
        trace = tmp_path / "trace.txt"
        assert main(
            ["deduce", "--facts", "tests/fixtures/facts_rational_solution.json",
             "--trace", str(trace)]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["planar"] and data["consistent"]
        assert "Planar" in trace.read_text()

    def test_unknown_atom_is_a_usage_error(self, tmp_path, capsys):
        facts = tmp_path / "facts.json"
        facts.write_text(json.dumps({"facts": ["Planar", "Bogus(x)"]}))
        assert main(["deduce", "--facts", str(facts)]) == 2
        assert capsys.readouterr().err == "error: unknown fact atom 'Bogus(x)'\n"

    def test_empty_facts(self, capsys):
        assert main(["deduce", "--facts", "tests/fixtures/facts_empty.json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["facts"] == [] and not data["planar"]


class TestBudget:
    def test_budget_exit_code(self, tmp_path, monkeypatch, capsys):
        from tanglekit.diagram import close_numerator, emit_pd, rational_tangle_diagram
        from tanglekit.rational import reduce

        monkeypatch.setenv("TANGLEKIT_BUDGET", "2")
        pd = tmp_path / "big.pd"
        pd.write_text(emit_pd(close_numerator(rational_tangle_diagram(reduce(7, 2)))))
        assert main(["identify", "--pd", str(pd)]) == 3

    def test_non_integer_budget_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        from tanglekit.diagram import close_numerator, emit_pd, rational_tangle_diagram
        from tanglekit.rational import reduce

        monkeypatch.setenv("TANGLEKIT_BUDGET", "abc")
        pd = tmp_path / "trefoil.pd"
        pd.write_text(emit_pd(close_numerator(rational_tangle_diagram(reduce(3, 1)))))
        assert main(["identify", "--pd", str(pd)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TANGLEKIT_BUDGET") and err.count("\n") == 1

    def test_negative_budget_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        from tanglekit.diagram import close_numerator, emit_pd, rational_tangle_diagram
        from tanglekit.rational import reduce

        pd = tmp_path / "trefoil.pd"
        pd.write_text(emit_pd(close_numerator(rational_tangle_diagram(reduce(3, 1)))))
        monkeypatch.setenv("TANGLEKIT_BUDGET", "-1")
        assert main(["identify", "--pd", str(pd)]) == 2
        err = capsys.readouterr().err
        assert err == "error: TANGLEKIT_BUDGET must be a non-negative integer, got '-1'\n"
        # a zero budget is valid: it refuses every crossing
        monkeypatch.setenv("TANGLEKIT_BUDGET", "0")
        assert main(["identify", "--pd", str(pd)]) == 3

    @pytest.mark.parametrize(
        "budget",
        ["1_3", " 13 ", "+13", "\u0661\u0663", pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_budget_is_ascii_digits_only(self, budget, monkeypatch, capsys):
        # int() reads each of the first four as 13, which torus14's 14
        # crossings exceed, and refuses the last past its digit limit
        monkeypatch.setenv("TANGLEKIT_BUDGET", budget)
        assert main(["identify", "--pd", "tests/fixtures/torus14.pd"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: TANGLEKIT_BUDGET must be a non-negative integer, got {budget!r}\n"

    @pytest.mark.parametrize("budget, code", [("0", 3), ("14", 0)])
    def test_budget_in_digits(self, budget, code, monkeypatch, capsys):
        monkeypatch.setenv("TANGLEKIT_BUDGET", budget)
        assert main(["identify", "--pd", "tests/fixtures/torus14.pd"]) == code


FIX = "tests/fixtures/"
# trivial3.pd with its B line given twice, which `verify` refuses
with open(FIX + "trivial3.pd") as _fh:
    TWO_B = re.sub(r"(?m)^B .*$", r"\g<0>\n\g<0>", _fh.read())

# Every golden of the CLI, one row each: (argv, stdin, TANGLEKIT_BUDGET,
# stdout, stderr, exit code).  Every row is replayed twice: cold, in a
# fresh `python -m tanglekit.cli` process as a user runs it, and in
# process through `main`.  stdin is None for none, the argv whose stdout
# is piped in, or the text itself.  A budget of None unsets the variable.
# stdout and stderr are each a fixture to equal byte for byte, "" for
# none, or 1 for a single line.  A row whose argv holds "{file}" is
# checked on what the command writes to that file instead of stdout.  A
# golden is named as a file of tests/fixtures/, or by its path when it
# lies in bench/data/.  A new golden is one new row.
# the n = 6 census takes minutes: it is replayed cold only, under
# `pytest -m slow`, which the default run deselects
CENSUS_N6 = (
    ["enumerate", "--max-crossings", "6", "--extended", "--jobs", "2", "--out", "{file}"],
    None, None, "census_n6.json", "", 0,
)
CI_GOLDENS = (
    (["solve"], None, None, "solve_default.json", "", 0),
    (["solve", "--config", "bench/data/framed.json"], None, None, "solve_framed.json", "", 0),
    (
        ["solve", "--config", FIX + "framing_edge.json"],
        None, None, "solve_framing_edge.json", "", 0,
    ),
    (
        ["deduce", "--facts", FIX + "facts_rational_solution.json"],
        None, None, "deduce_rational_solution.json", "", 0,
    ),
    (
        ["deduce", "--facts", FIX + "facts_rational_solution.json", "--trace", "{file}"],
        None, None, "deduce_rational_solution_trace.txt", "", 0,
    ),
    (
        ["deduce", "--facts", FIX + "facts_three_trans.json"],
        None, None, "deduce_three_trans.json", "", 0,
    ),
    (
        ["deduce", "--facts", FIX + "facts_no_common_vertex.json"],
        None, None, "deduce_no_common_vertex.json", "", 0,
    ),
    (
        ["deduce", "--facts", FIX + "facts_inconsistent.json"],
        None, None, "deduce_inconsistent.json", "", 1,
    ),
    (["pjh"], None, None, "pjh.pd", "", 0),
    (["verify", "--in-trans"], ["pjh"], None, "pjh_verify_in_trans.json", "", 0),
    (["verify", "--pd", FIX + "candidate_8x.pd"], None, None, "candidate_8x_verify.json", "", 0),
    (
        ["verify", "--in-trans", "--pd", FIX + "trivial3.pd"],
        None, None, "trivial3_verify_in_trans.json", "", 1,
    ),
    (
        ["verify", "--in-trans", "--pd", FIX + "loops_tangle.pd"],
        None, None, "loops_tangle_verify_in_trans.json", "", 1,
    ),
    (["lk", "--pd", FIX + "pjh_xarc.pd"], None, None, "pjh_xarc_lk.json", "", 0),
    (
        ["reduce", "--free", "--pd", FIX + "candidate_9x.pd"],
        None, None, "candidate_9x_reduce_free.pd", "candidate_9x_reduce_free.err", 0,
    ),
    (
        ["reduce", "--pd", FIX + "closure_13_5_inflated.pd"],
        None, None, "closure_13_5_inflated_reduce.pd", "closure_13_5_inflated_reduce.err", 0,
    ),
    (
        ["reduce", "--pd", FIX + "loops_tangle.pd"],
        None, None, "loops_tangle_reduce.pd", "loops_tangle_reduce.err", 0,
    ),
    (
        ["reduce", "--free", "--pd", FIX + "loops_tangle.pd"],
        None, None, "loops_tangle_reduce_free.pd", "loops_tangle_reduce_free.err", 0,
    ),
    (["identify", "--pd", FIX + "genus1.pd"], None, None, "", 1, 2),
    (["verify", "--in-trans"], TWO_B, None, "", 1, 2),
    (
        ["enumerate", "--max-crossings", "4", "--out", "{file}"],
        None, None, "bench/data/census_n4.json", "", 0,
    ),
    (
        ["enumerate", "--max-crossings", "3", "--jobs", "2", "--out", "{file}"],
        None, None, "bench/data/census_n3.json", "", 0,
    ),
    (
        ["enumerate", "--max-crossings", "4", "--jobs", "2", "--out", "{file}"],
        None, None, "bench/data/census_n4.json", "", 0,
    ),
    CENSUS_N6,
) + tuple(
    (["identify", "--pd", f"{FIX}{name}.pd"], None, budget, out, err, code)
    for name, budget, out, err, code in (
        ("figure_eight", None, "figure_eight_identify.json", "", 0),
        ("closure_7_3_inflated", None, "closure_7_3_inflated_identify.json", "", 0),
        ("closure_m7_3_inflated", None, "closure_m7_3_inflated_identify.json", "", 0),
        ("closure_13_5_inflated", None, "closure_13_5_inflated_identify.json", "", 0),
        ("torus14", None, "torus14_identify.json", "", 0),
        ("torus14", "13", "", 1, 3),
    )
)


def _replay(row, tmp_path, monkeypatch, capsysbinary):
    """Run one row through `main` and check it against the row's goldens."""
    argv, stdin, budget = row[:3]
    if budget is None:
        monkeypatch.delenv("TANGLEKIT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TANGLEKIT_BUDGET", budget)
    if isinstance(stdin, list):
        assert main(stdin) == 0
        stdin = capsysbinary.readouterr().out.decode()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    file = tmp_path / "written"
    code = main([str(file) if a == "{file}" else a for a in argv])
    _check(row, code, *capsysbinary.readouterr(), file)


def _check(row, code, out, err, file):
    """Check one run of a row; a "{file}" row's output is what it wrote."""
    argv, _, _, out_golden, err_golden, exit_code = row
    if "{file}" in argv:
        out = file.read_bytes()
    got = (argv, code, _seen(out, out_golden), _seen(err, err_golden))
    assert got == (argv, exit_code, _golden(out_golden), _golden(err_golden))


def _seen(got, golden):
    """What a golden column checks of `got`: its bytes, or its line count."""
    return got.count(b"\n") if golden == 1 else got


def _golden(golden):
    if golden == 1:
        return 1
    if not golden:
        return b""
    with open(golden if golden.startswith("bench/") else FIX + golden, "rb") as fh:
        return fh.read()


def _row_id(row):
    """A row as a shell line: `pjh | verify --in-trans`, fixtures by name."""
    argv, stdin, budget = row[:3]
    words = [a.removeprefix(FIX) for a in argv]
    if isinstance(stdin, list):
        words = [*stdin, "|", *words]
    elif stdin is not None:
        words.append("< text")
    if budget is not None:
        words.insert(0, f"TANGLEKIT_BUDGET={budget}")
    return " ".join(words)


class TestCIGoldens:
    @pytest.mark.parametrize(
        "row",
        [pytest.param(r, marks=pytest.mark.slow) if r is CENSUS_N6 else r for r in CI_GOLDENS],
        ids=_row_id,
    )
    def test_replayed_cold(self, row, tmp_path):
        argv, stdin, budget = row[:3]
        if isinstance(stdin, list):
            piped = run_cli(stdin, budget=budget)
            assert piped.returncode == 0, piped.stderr
            stdin = piped.stdout
        else:
            stdin = (stdin or "").encode()
        file = tmp_path / "written"
        proc = run_cli([str(file) if a == "{file}" else a for a in argv], stdin, budget)
        _check(row, proc.returncode, proc.stdout, proc.stderr, file)

    def test_replayed_in_process(self, tmp_path, monkeypatch, capsysbinary):
        for row in CI_GOLDENS:
            if row is not CENSUS_N6:
                _replay(row, tmp_path, monkeypatch, capsysbinary)


class TestIdentifyGoldens:
    def test_replayed_in_process_both_ways(self, tmp_path, monkeypatch, capsysbinary):
        """The identify goldens, run through `main` from cold caches in
        order and then reversed, so that what an earlier query left in
        the per-determinant table caches cannot change an answer."""
        from tanglekit.diagram import identify

        identify._class_table.cache_clear()
        identify._fingerprint_table.cache_clear()
        rows = [row for row in CI_GOLDENS if row[0][0] == "identify" and row[5] != 2]
        assert len(rows) == 6
        for row in rows + rows[::-1]:
            _replay(row, tmp_path, monkeypatch, capsysbinary)


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["identify", "--pd", "{missing}"],
            ["verify", "--pd", "{directory}"],
            ["lk", "--pd", "{binary}"],
            ["solve", "--config", "{missing}"],
            ["solve", "--config", "{malformed}"],
            ["deduce", "--facts", "{missing}"],
            ["deduce", "--facts", "{malformed}"],
            ["solve", "--config", "{list}"],
            ["solve", "--config", "{wrong_section}"],
            ["solve", "--config", "{not_a_number}"],
            ["deduce", "--facts", "{list}"],
            ["deduce", "--facts", "{facts_not_a_list}"],
            ["deduce", "--facts", "{unknown_atom}"],
            ["deduce", "--facts", "{number_atom}"],
            ["solve", "--config", "{fractional}"],
            ["solve", "--config", "{boolean}"],
            ["identify", "--pd", "tests/fixtures/genus1.pd"],
            ["reduce", "--pd", "{truncated}"],
            ["enumerate", "--max-crossings", "-1"],
            ["enumerate", "--max-crossings", "1", "--jobs", "0"],
            ["enumerate", "--max-crossings", "1", "--jobs", "-3"],
            ["reduce", "--pd", "tests/fixtures/pjh.pd", "--target", "-1"],
            ["verify", "--pd", "{trivial}", "--L", "0"],
            ["verify", "--pd", "{trivial}", "--L", "1"],
            ["verify", "--pd", "{trivial}", "--L", "-1"],
            ["verify", "--pd", "{trivial}", "--in-trans", "--Lt", "0"],
            ["verify", "--pd", "{trivial}", "--in-trans", "--Lt", "1"],
            ["verify", "--pd", "{trivial}", "--in-trans", "--Lt", "-1"],
            ["verify", "--pd", "{duplicate_b}", "--in-trans"],
            ["solve", "--config", "{unknown_key}"],
            ["solve", "--config", "{unknown_section}"],
            ["deduce", "--facts", "{misspelled_facts}"],
            ["solve", "--config", "{long_integer}"],
            ["solve", "--config", "{deep}"],
            ["deduce", "--facts", "{long_integer}"],
            ["deduce", "--facts", "{deep}"],
        ],
    )
    def test_one_line_and_usage_exit(self, argv, tmp_path, capsys):
        files = {
            "malformed": '{"facts": [',
            "list": "[]",
            "wrong_section": '{"deletion": [4, 4, 4]}',
            "not_a_number": '{"framing": {"d1": "one"}}',
            "fractional": '{"deletion": {"e": 4.7}}',
            "boolean": '{"deletion": {"e": true}}',
            "facts_not_a_list": '{"facts": "Planar"}',
            "unknown_atom": '{"facts": ["Bogus(x)"]}',
            "number_atom": '{"facts": [5]}',
            "unknown_key": '{"deletion": {"e": 4, "atR": 6}}',
            "unknown_section": '{"framng": {"d1": 2}}',
            "misspelled_facts": '{"fatcs": ["Planar", "NotPlanar"]}',
            # refused by `json` with ValueError and RecursionError
            "long_integer": "9" * 5000,
            "deep": "[" * 100_000,
        }
        paths = {
            "missing": str(tmp_path / "missing"),
            "directory": str(tmp_path),
            "binary": str(tmp_path / "binary"),
            "truncated": str(tmp_path / "truncated.pd"),
            "trivial": str(tmp_path / "trivial.pd"),
            "duplicate_b": str(tmp_path / "duplicate_b.pd"),
        }
        (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
        (tmp_path / "truncated.pd").write_text("tangle k=0 n=1\nX 1 2 1\n")
        # the crossing-free 3-string tangle
        (tmp_path / "trivial.pd").write_text(
            "tangle k=3 n=0\nB 1 1 2 2 3 3\nS s12: 1\nS s23: 2\nS s31: 3\n"
        )
        (tmp_path / "duplicate_b.pd").write_text(
            "tangle k=3 n=0\nB 1 1 2 2 3 3\nB 1 1 2 2 3 3\nS s12: 1\nS s23: 2\nS s31: 3\n"
        )
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
            paths[name] = str(tmp_path / f"{name}.json")
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# -- input fuzz: any config, fact file or budget ends in an exit code --------

TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=10,
)
# configs in the real layout, and near misses: its sections and keys in
# the wrong places, misspellings, and values of any JSON type
CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        name: st.dictionaries(st.sampled_from(sorted(keys)), st.integers(-12, 12))
        for name, keys in _LAYOUT.items()
    },
)
NEAR_CONFIGS = st.dictionaries(
    st.sampled_from(sorted(_LAYOUT) + ["framng", "in trans"]),
    JSON
    | st.dictionaries(
        st.sampled_from(sorted({k for keys in _LAYOUT.values() for k in keys}) + ["atR"]),
        st.integers() | JSON,
        max_size=4,
    ),
    max_size=4,
)
ATOMS = st.sampled_from(["Planar", "NotPlanar", "CompressibleExt"]) | st.builds(
    lambda head, edges: f"{head}:{'+'.join(edges)}",
    st.sampled_from(["PlanarMinus", "CompressibleExtMinus", "PlanarSubgraph"]),
    st.lists(st.sampled_from(EDGES), min_size=1, max_size=3),
)
FACT_FILES = st.fixed_dictionaries({"facts": st.lists(ATOMS, max_size=10)})
NEAR_FACT_FILES = st.dictionaries(
    st.sampled_from(["facts", "fatcs"]),
    JSON | st.lists(ATOMS | JSON | st.sampled_from(["Planar:e1", "PlanarSubgraph:"])),
    max_size=2,
)


def _main_quietly(argv):
    """`main(argv)`'s exit code and stderr, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check_exit(code, err):
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.endswith("\n") and err.count("\n") == 1, err


class TestInputFuzz:
    """Random inputs through `main` in process: each ends in exit 0, 1, 2
    or 3, never in an exception, and a usage error is one stderr line."""

    @settings(max_examples=40, deadline=None)
    @given(text=(CONFIGS | NEAR_CONFIGS | JSON).map(json.dumps) | TEXT)
    def test_solve_config(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "config.json"
        path.write_text(text, encoding="utf-8")
        _check_exit(*_main_quietly(["solve", "--config", str(path)]))

    @settings(max_examples=40, deadline=None)
    @given(text=(FACT_FILES | NEAR_FACT_FILES | JSON).map(json.dumps) | TEXT)
    def test_deduce_facts(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "facts.json"
        path.write_text(text, encoding="utf-8")
        _check_exit(*_main_quietly(["deduce", "--facts", str(path)]))

    @settings(max_examples=40, deadline=None)
    @given(budget=TEXT | st.integers(-3, 20).map(str))
    def test_budget(self, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("TANGLEKIT_BUDGET", budget)
            _check_exit(*_main_quietly(["identify", "--pd", FIX + "figure_eight.pd"]))
