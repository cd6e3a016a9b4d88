"""Tests for the text file format and the command-line interface."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chieflie
from chieflie.algebra import LieAlgebra, validate
from chieflie.cli import _axiom_lines, main
from chieflie.corpus import heisenberg, random_solvable, registry
from chieflie.fileio import (AlgebraFileError, format_algebra, load_algebra,
                             parse_algebra)
from test_maximal import witt_text

HEIS_TEXT = """\
# three-dimensional nilpotent example
field 2
dim 3
labels x1 x2 x3
bracket 1 2 3 1
"""


# -- file format -------------------------------------------------------------


def test_parse_canonical_heisenberg():
    l = parse_algebra(HEIS_TEXT)
    assert l == heisenberg(2)
    assert l.labels == ("x1", "x2", "x3")


def test_round_trip_whole_registry():
    for e in registry():
        back = parse_algebra(format_algebra(e.algebra))
        assert back == e.algebra, e.name
        assert back.labels == e.algebra.labels, e.name


def test_parser_is_tolerant():
    text = ("# comment\n\nfield 3\ndim 2  # inline comment\n"
            "bracket 2 1 2 1\n")
    l = parse_algebra(text)
    # the single lower-orientation entry is mirrored: [e1, e2] = -e2 = 2 e2
    assert l == LieAlgebra.from_brackets(2, 3, {(0, 1): (0, 2)})
    assert l.labels is None
    # values reduce mod p
    l2 = parse_algebra("field 3\ndim 2\nbracket 1 2 2 5\n")
    assert l2 == LieAlgebra.from_brackets(2, 3, {(0, 1): (0, 2)})


def test_parser_rejects_bad_syntax():
    with pytest.raises(AlgebraFileError, match="line 1"):
        parse_algebra("bogus 1\n")
    with pytest.raises(AlgebraFileError, match="missing field"):
        parse_algebra("dim 2\n")
    with pytest.raises(AlgebraFileError, match="missing dim"):
        parse_algebra("field 2\n")
    with pytest.raises(AlgebraFileError, match="one of"):
        parse_algebra("field 4\ndim 2\n")
    with pytest.raises(AlgebraFileError, match="out of range"):
        parse_algebra("field 2\ndim 2\nbracket 1 3 1 1\n")
    with pytest.raises(AlgebraFileError, match="before bracket"):
        parse_algebra("bracket 1 2 1 1\n")
    with pytest.raises(AlgebraFileError, match="labels"):
        parse_algebra("field 2\ndim 3\nlabels a b\n")
    with pytest.raises(AlgebraFileError, match="conflicting"):
        parse_algebra("field 3\ndim 2\nbracket 1 2 2 1\nbracket 1 2 2 2\n")
    with pytest.raises(AlgebraFileError, match="itself"):
        parse_algebra("field 2\ndim 2\nbracket 1 1 2 1\n")
    with pytest.raises(AlgebraFileError, match="integer"):
        parse_algebra("field 2\ndim x\n")
    with pytest.raises(AlgebraFileError, match="duplicate"):
        parse_algebra("field 2\nfield 2\ndim 1\n")


def test_save_and_load(tmp_path):
    path = tmp_path / "heis.alg"
    path.write_text(HEIS_TEXT)
    assert load_algebra(str(path)) == heisenberg(2)


# -- CLI ---------------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def heis_file(tmp_path):
    path = tmp_path / "heis.alg"
    path.write_text(HEIS_TEXT)
    return str(path)


def test_cli_validate_ok(capsys, heis_file):
    code, out, _ = run(capsys, "validate", heis_file)
    assert code == 0
    assert "field: GF(2)" in out
    assert "valid, solvable, derived length 2" in out


def test_cli_validate_abelian(capsys, tmp_path):
    path = tmp_path / "ab.alg"
    path.write_text("field 2\ndim 2\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "valid, abelian" in out


def test_cli_validate_not_solvable(capsys):
    code, out, _ = run(capsys, "validate", "corpus:sl2", "--field", "5")
    assert code == 0
    assert "valid, not solvable" in out


def test_cli_validate_antisymmetry_conflict(capsys, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("field 3\ndim 3\nbracket 1 2 3 1\nbracket 2 1 3 1\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "antisymmetry error at (1, 2, 3)" in out


def test_cli_axiom_lines_report_a_nonzero_square():
    # [x1, x1] = x2, built directly: the file parser refuses [x, x]
    for p in (2, 3):
        bad = LieAlgebra(2, p, (((0, 1), (0, 0)), ((0, 0), (0, 0))))
        assert _axiom_lines(bad, validate(bad)) == [
            "antisymmetry error at (1, 1, 2)",
            "  [e1, e1] = [0, 1] but [e1, e1] = [0, 1]"]


def test_cli_validate_jacobi_failure(capsys, tmp_path):
    path = tmp_path / "jac.alg"
    path.write_text("field 2\ndim 3\nbracket 1 2 1 1\nbracket 1 3 3 1\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "jacobi error at (1, 2, 3)" in out


def test_cli_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "syntax.alg"
    path.write_text("field 2\nwat\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "line 2" in err


def test_cli_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.alg")
    assert code == 1
    assert "cannot read" in err


def test_cli_analyze_heisenberg(capsys, heis_file):
    code, out, _ = run(capsys, "analyze", heis_file)
    assert code == 0
    assert "maximal subalgebras: 3" in out
    assert "frattini: dim 1" in out
    assert "factor 1: dim 1, abelian, frattini" in out
    assert out.count("complemented") == 2


def test_cli_analyze_oracle_on(capsys, heis_file):
    code, out, _ = run(capsys, "analyze", heis_file, "--oracle", "on")
    assert code == 0
    assert "oracle cross-checks: ok" in out


def test_cli_analyze_primitive(capsys):
    code, out, _ = run(capsys, "analyze", "corpus:sl2", "--field", "5")
    assert code == 0
    assert "primitivity: type 2" in out
    assert "factor 1: dim 3, nonabelian, supplemented" in out


def test_cli_analyze_structured(capsys, heis_file):
    code, out, _ = run(capsys, "analyze", heis_file, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3 and doc["field"] == 2
    assert doc["socle_dim"] == 1
    assert [f["classification"] for f in doc["chief_factors"]] == \
        ["frattini", "complemented", "complemented"]


def test_cli_analyze_budget_refusal(capsys):
    code, _, err = run(capsys, "analyze", "corpus:abelian", "--field", "2",
                       "--dim", "7", "--oracle", "on")
    assert code == 3
    assert "budget exceeded" in err


def test_cli_chief_series(capsys, heis_file):
    code, out, _ = run(capsys, "chief-series", heis_file)
    assert code == 0
    assert "total: 3" in out
    code, out, err = run(capsys, "chief-series", heis_file, "--cap", "2")
    assert code == 3
    assert "truncated" in err


def test_cli_chief_series_structured(capsys, heis_file):
    code, out, _ = run(capsys, "chief-series", heis_file,
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3 and not doc["truncated"]
    assert len(doc["series"]) == 3
    assert doc["series"][0][0] == []          # zero term
    assert len(doc["series"][0][-1]) == 3     # full term rows


def test_cli_jh_explicit_series(capsys, tmp_path):
    path = tmp_path / "ab22.alg"
    path.write_text("field 2\ndim 2\n")
    first = "[[], [[1,0]], [[1,0],[0,1]]]"
    second = "[[], [[0,1]], [[1,0],[0,1]]]"
    code, out, _ = run(capsys, "jh", str(path), first, second)
    assert code == 0
    assert "sigma = (1 2)" in out
    assert out.count("case 1") == 2
    assert "shared complements" in out
    code, out, _ = run(capsys, "jh", str(path), first, first)
    assert code == 0
    assert "sigma = id" in out


def test_cli_jh_structured(capsys, heis_file):
    first = "[[], [[0,0,1]], [[1,0,0],[0,0,1]], [[1,0,0],[0,1,0],[0,0,1]]]"
    second = "[[], [[0,0,1]], [[0,1,0],[0,0,1]], [[1,0,0],[0,1,0],[0,0,1]]]"
    code, out, _ = run(capsys, "jh", heis_file, first, second,
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["permutation"] == [1, 3, 2]
    assert doc["matches"][0]["transfer_case"] == "intersection_collapses"


def test_cli_jh_all_pairs(capsys, heis_file):
    code, out, _ = run(capsys, "jh", heis_file, "--all-pairs")
    assert code == 0
    assert "9 ordered pairs verified" in out
    assert out.count("sigma = id") == 3


def test_cli_jh_all_pairs_refuses_too_many_pairs(capsys, monkeypatch):
    """470 series make 220,900 ordered pairs, over ENUM_COUNT_CAP: exit 3
    before any pair runs, nothing on stdout, both counts on stderr."""
    def no_pair(first, second):
        raise AssertionError("a pair ran before the refusal")

    monkeypatch.setattr("chieflie.cli.jh_permutation", no_pair)
    code, out, err = run(capsys, "jh", "corpus:random", "--field", "5",
                         "--dim", "5", "--seed", "1", "--all-pairs")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "error: budget exceeded: 470 chief series make 220900 ordered "
        "pairs, over 120000 (computed count: 220900)"]


def test_cli_jh_abelian55_needs_no_ideal_enumeration(capsys):
    """abelian(5, 5) has 42,176 ideals, and its chief-factor catalog refuses
    to enumerate them (tests/test_factors.py).  Matching the coordinate flag
    with itself takes each relation from the collapsed sum transfer, so the
    catalog is never built: exit 0 within seconds."""
    flag = json.dumps([[[int(i == j) for j in range(5)] for i in range(k)]
                       for k in range(6)])
    start = time.perf_counter()
    code, out, err = run(capsys, "jh", "corpus:abelian", "--field", "5",
                         "--dim", "5", flag, flag)
    assert time.perf_counter() - start < 30
    assert (code, err) == (0, "")
    assert out.splitlines() == ["sigma = id"] + [
        f"index {i} -> {i}: dim 1, complemented, case 1, connection "
        f"module_isomorphic, transfer sum_collapses, {5 ** (5 - i)} shared "
        f"supplements, {5 ** (5 - i)} shared complements"
        for i in range(1, 6)] + [
        "verified: bijection, relatedness, parity and shared supplements at "
        "every index"]


def test_cli_jh_names_the_series_with_a_malformed_vector(capsys):
    """A bad vector is reported as itself, not as a series that is not a
    chief series, and names the series it is in."""
    good, bad = "[[],[[0,1,0,0]]]", "[[],[[true,1,0,0]]]"
    for argv, which, got in (([bad, good], "first", "[True, 1, 0, 0]"),
                             ([good, "[[],[[0,1,0]]]"], "second",
                              "[0, 1, 0]")):
        assert run(capsys, "jh", "corpus:r4", "--field", "2", *argv) == (
            1, "", f"error: {which} series: each vector must be a list of 4 "
                   f"integers, got {got}\n")


def test_cli_jh_bad_series(capsys, heis_file):
    # a dim-3 jump is not a chief step
    bad = "[[], [[1,0,0],[0,1,0],[0,0,1]]]"
    code, _, err = run(capsys, "jh", heis_file, bad, bad)
    assert code == 1
    assert "not a chief series" in err
    code, _, err = run(capsys, "jh", heis_file, "{oops", "{oops")
    assert code == 1
    assert "JSON" in err
    code, _, err = run(capsys, "jh", heis_file)
    assert code == 1
    assert "all-pairs" in err


@pytest.mark.parametrize("first", ["[1]", "[[],5]", "[null]"])
def test_cli_jh_rejects_series_terms_that_are_not_lists(capsys, first):
    # each term is a list of vectors; another JSON value is an input error
    code, out, err = run(capsys, "jh", "corpus:r4", "--field", "2", first,
                         "[[]]")
    assert (code, out) == (1, "")
    assert err.startswith("error: first series ")


def test_cli_jh_readme_example_with_flags_before_series(capsys):
    """The README's jh example, run verbatim, gives its series after the
    flags; it prints what the series-first order prints.  argparse binds
    the optional series as empty next to PATH, so the CLI has to place
    series that come after a flag."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").replace("\\\n", "")
    line = next(s for s in text.splitlines()
                if s.startswith("chieflie jh corpus:abelian"))
    argv = shlex.split(line)[1:]
    series = [a for a in argv if a.startswith("[")]
    flags = argv[2:argv.index(series[0])]
    assert argv == ["jh", "corpus:abelian", *flags, *series] and flags
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("sigma = (1 2)\n")
    assert run(capsys, "jh", "corpus:abelian", *series, *flags) == \
        (0, out, "")
    assert run(capsys, "jh", "corpus:abelian", series[0], *flags,
               series[1]) == (0, out, "")
    code, out, err = run(capsys, *argv, "[]")
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: []\n"


def test_cli_refuses_json_booleans_as_vector_entries(capsys):
    """JSON true and false are not integers, though Python's bool is."""
    first = "[[], [[true,false]], [[1,0],[0,1]]]"
    second = "[[], [[0,1]], [[1,0],[0,1]]]"
    code, out, err = run(capsys, "jh", "corpus:abelian", first, second,
                         "--field", "2", "--dim", "2")
    assert (code, out) == (1, "")
    assert "each vector must be a list of 2 integers, got [True, False]" \
        in err


def test_cli_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    assert "heisenberg(2)" in out
    assert "sl2sum(5)" in out
    code, out, _ = run(capsys, "corpus", "list", "--format", "structured")
    assert code == 0
    assert any(e["name"] == "r4(2)" for e in json.loads(out))


def test_cli_corpus_export_round_trip(capsys):
    code, out, _ = run(capsys, "corpus", "export", "heisenberg",
                       "--field", "3")
    assert code == 0
    assert parse_algebra(out) == heisenberg(3)


def test_cli_corpus_export_random(capsys, tmp_path):
    """export resolves a name as a corpus: target does, with the same
    message, and writes the file load_algebra reads back."""
    dest = tmp_path / "rand.alg"
    code, out, err = run(capsys, "corpus", "export", "random", "--field",
                         "2", "--dim", "4", "--seed", "3", "--out", str(dest))
    assert (code, out, err) == (0, f"wrote {dest}\n", "")
    assert load_algebra(str(dest)) == random_solvable(4, 2, 3)
    assert dest.read_text() == format_algebra(random_solvable(4, 2, 3))
    code, out, _ = run(capsys, "validate", str(dest))
    assert code == 0 and out.endswith("valid, solvable, derived length 2\n")
    missing = [run(capsys, *argv, "--field", "2") for argv in
               (["corpus", "export", "random"], ["analyze", "corpus:random"])]
    assert missing == 2 * [(1, "", "error: corpus:random needs --dim\n")]


def test_cli_corpus_export_errors(capsys):
    code, _, err = run(capsys, "corpus", "export", "so8")
    assert code == 1
    assert "unknown builtin" in err
    code, _, err = run(capsys, "corpus", "export", "random", "--field", "2")
    assert code == 1
    assert "--dim" in err
    code, _, err = run(capsys, "corpus", "export", "sl2", "--field", "2")
    assert code == 1
    assert ">= 5" in err


def test_cli_bad_usage_is_input_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    code, _, err = run(capsys, "analyze", "corpus:heisenberg",
                       "--format", "yaml")
    assert code == 1


def test_cli_corpus_rejects_unsupported_fields(capsys):
    """A corpus target over GF(0), GF(1) or GF(4) is an input error that
    prints nothing to stdout, as an algebra file over one is."""
    for field in ("0", "1", "4"):
        for argv in (["validate", "corpus:heisenberg"],
                     ["analyze", "corpus:heisenberg"],
                     ["validate", "corpus:random", "--dim", "3"]):
            code, out, err = run(capsys, *argv, "--field", field)
            assert (code, out) == (1, ""), (argv, field)
            assert err.splitlines() == [
                f"error: unsupported prime {field}; supported: "
                f"(2, 3, 5, 7, 11, 13)"], (argv, field)


def test_cli_analyze_refuses_a_simple_algebra_past_the_enumeration(
        capsys, tmp_path):
    """The Witt algebra W(1;1) over GF(7) (witt_text) is simple of
    dimension 7: its maximal subalgebras need a subspace enumeration, which
    refuses, so nothing reaches stdout."""
    path = tmp_path / "witt7.alg"
    path.write_text(witt_text(7))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == ("error: budget exceeded: subspace enumeration limited to "
                   "n <= 6, p <= 7; got n=7, p=7 (computed count: "
                   "33736398032)\n")


def test_cli_input_error_leaves_next_command_unchanged(capsys):
    """main keeps one parser for the process: a command that fails inside
    parsing, then one that fails in the command, must leave the next
    command's output byte-identical to a fresh interpreter's."""
    argv = ["analyze", "corpus:heisenberg", "--field", "3"]
    code, _, err = run(capsys, *argv, "--format", "xml")
    assert code == 1 and "invalid choice" in err
    code, _, err = run(capsys, "analyze", "corpus:random", "--field", "2")
    assert code == 1 and "needs --dim" in err
    code, out, err = run(capsys, *argv)
    src = str(Path(chieflie.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    fresh = subprocess.run([sys.executable, "-m", "chieflie.cli", *argv],
                           capture_output=True, text=True, env=env,
                           check=False)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and out


def test_cli_refuses_negative_caps(capsys):
    """Every --cap refuses a negative value before any work: exit 1, one
    error line and nothing on stdout."""
    for argv in (["chief-series", "corpus:heisenberg", "--cap", "-1"],
                 ["jh", "corpus:heisenberg", "--all-pairs", "--cap", "-1"],
                 ["analyze", "corpus:heisenberg", "--oracle", "on",
                  "--cap", "-5"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.splitlines() == [
            f"error: --cap must be non-negative, got {argv[-1]}"], argv


def test_cli_abelian_refuses_non_positive_dims(capsys):
    for dim in ("0", "-1"):
        for argv in (["corpus", "export", "abelian"],
                     ["validate", "corpus:abelian"],
                     ["analyze", "corpus:abelian"]):
            code, out, err = run(capsys, *argv, "--dim", dim)
            assert (code, out) == (1, ""), (argv, dim)
            assert err.splitlines() == [
                "error: dimension must be positive"], (argv, dim)
