"""End-to-end checks of the command-line interface through `cli.main`."""
import json
from pathlib import Path

import pytest

from coalgex import cli, parse_expr, parse_spec, read_coalgebra, write_coalgebra
from coalgex.instances import PresetError
from coalgex.instances.guarded import GsSyntaxError
from coalgex.instances.lts import LtsSyntaxError
from coalgex.instances.regex import RegexSyntaxError

SPECS = Path(__file__).resolve().parent.parent / "specs"
TWO_STATE = str(SPECS / "dfa_two_state.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "spec, e1, e2, code",
    [
        ("dfa_ab", "Es1", "Es2", 1),
        ("nfa_a", "E1", "E2", 0),
        ("nfa_ab", "E1", "E3", 0),
        ("partial_ab", "Eq1", "Eq2", 1),
    ],
)
def test_worked_pairs(capsys, spec, e1, e2, code):
    got, out, err = run(capsys, "equiv", "--spec", str(SPECS / f"{spec}.spec"), "--e1", e1, "--e2", e2)
    assert (got, err) == (code, "")
    assert out.startswith("bisimilar" if code == 0 else "distinguished")


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.spec")))
def test_every_bundled_expression_typechecks(capsys, spec):
    path = str(SPECS / spec)
    names = parse_spec((SPECS / spec).read_text()).exprs
    assert names
    for name in names:
        code, out, err = run(capsys, "check", "--spec", path, "--expr", name)
        assert (code, err) == (0, ""), name
        assert out.startswith("ok: ")


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    doc = parse_spec(
        "# leading comment\n"
        "preset: dfa alphabet {a}   # trailing comment\n"
        "  # indented comment\n"
        "expr E = l<#1> + r<a(l<#0>)>\t# tab before the comment\n"
    )
    assert list(doc.exprs) == ["E"]
    assert doc.exprs["E"] == parse_expr("l<#1> + r<a(l<#0>)>")


def test_bisim_on_the_bundled_machine(capsys):
    assert run(capsys, "bisim", "--c1", TWO_STATE, "--c2", TWO_STATE) == (
        0, "bisimilar; witness {(s1,s1), (s2,s2)}\n", "")
    assert run(capsys, "bisim", "--c1", TWO_STATE, "--c2", TWO_STATE, "--s2", "s2") == (
        1, "distinguished at [(L.s1,R.s2) -> l<>]: constant 0 vs 1\n", "")


def test_commands_without_a_state_need_a_point(capsys, tmp_path):
    doc = json.loads(Path(TWO_STATE).read_text())
    del doc["point"]
    path = write(tmp_path, "no_point.json", json.dumps(doc))
    message = "error: no state given and the document has no point\n"
    for argv in (
        ["bisim", "--c1", path, "--c2", path],
        ["bisim", "--c1", TWO_STATE, "--c2", path],
        ["extract", "--coalgebra", path],
    ):
        assert run(capsys, *argv) == (2, "", message)
    assert run(capsys, "bisim", "--c1", path, "--c2", TWO_STATE, "--s1", "s1")[0] == 0


def test_minimize_json_of_the_bundled_machine_round_trips(capsys):
    code, out, err = run(capsys, "minimize", "--coalgebra", TWO_STATE, "--format", "json")
    machine = read_coalgebra(TWO_STATE)
    assert (code, err) == (0, "")
    assert out == write_coalgebra(machine) + "\n"
    assert json.loads(out)["states"] == ["s1", "s2"]


def test_delta_prints_set_members_in_text_order(capsys):
    code, out, err = run(
        capsys, "delta", "--spec", str(SPECS / "nfa_ab.spec"), "--expr", "r<a({r<a({empty})>} + {l<#0> + l<#1>})>")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"pair": [
        {"const": ["bool2", "0"]},
        {"fun": {"a": {"set": [{"id": "l<#0> + l<#1>"}, {"id": "r<a({empty})>"}]}, "b": {"set": []}}},
    ]}


def test_delta_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exit:
        cli.main(["delta", "--spec", str(SPECS / "dfa_ab.spec"), "--expr", "E1", "--format", "dot"])
    assert exit.value.code == 2
    assert "unrecognized arguments: --format dot" in capsys.readouterr().err


def test_accepts(capsys):
    spec = str(SPECS / "dfa_ab.spec")
    assert run(capsys, "accepts", "--spec", spec, "--expr", "Es2", "--word", "ab") == (0, "accepted\n", "")
    assert run(capsys, "accepts", "--spec", spec, "--expr", "Es1", "--word", "b") == (1, "rejected\n", "")


@pytest.mark.parametrize(
    "spec, word, message",
    [
        ("dfa_ab.spec", "c", "letter 'c' is not in the alphabet {a, b}"),
        ("nfa_a.spec", "a", "acceptor type 2 x Id^A expected"),
    ],
)
def test_accepts_rejects_bad_input_with_exit_2(capsys, spec, word, message):
    code, out, err = run(capsys, "accepts", "--spec", str(SPECS / spec), "--expr", "E1", "--word", word)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "spec_text, mode, text, error",
    [
        ("preset: dfa alphabet {a}\n", "regex2d", "(a", RegexSyntaxError),
        ("preset: lts alphabet {a}\n", "lts2core", "a.(", LtsSyntaxError),
        ("preset: guarded atoms {t, nt} actions {p}\n", "gs2core", "(((", GsSyntaxError),
        ("preset: bogus alphabet {a}\n", "regex2d", "a", PresetError),
    ],
)
def test_library_errors_exit_2(capsys, monkeypatch, tmp_path, spec_text, mode, text, error):
    argv = ["translate", "--spec", write(tmp_path, "x.spec", spec_text), "--mode", mode, "--input", text]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    # it is this error class that the CLI reports
    monkeypatch.setattr(cli, "USAGE_ERRORS", tuple(e for e in cli.USAGE_ERRORS if e is not error))
    with pytest.raises(error):
        cli.main(argv)


@pytest.mark.parametrize("text", ['{"functor": ', "5", "\xff"])
def test_malformed_machine_documents_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("latin-1"))
    code, out, err = run(capsys, "bisim", "--c1", str(path), "--c2", TWO_STATE)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_internal_value_errors_are_not_usage_errors(capsys, monkeypatch):
    assert ValueError not in cli.USAGE_ERRORS

    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "equiv", broken)
    with pytest.raises(ValueError, match="internal"):
        cli.main(["equiv", "--spec", str(SPECS / "dfa_ab.spec"), "--e1", "E0", "--e2", "E1"])
