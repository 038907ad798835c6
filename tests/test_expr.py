import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import coalgex

from coalgex import (
    Act,
    Empty,
    ExprSyntaxError,
    LatElem,
    Mu,
    Plus,
    ProdL,
    ProdR,
    Single,
    SumL,
    SumR,
    Var,
    alpha_rename,
    free_vars,
    measure_N,
    parse_expr,
    pretty,
    replace,
    replace_subterm,
    substitute,
)
from coalgex.instances import preset

from helpers import gen_expr


def test_parse_regex_translation_shape():
    e = parse_expr("mu x. r<a(x)> + l<#1>")
    assert e == Mu("x", Plus(ProdR(Act("a", Var("x"))), ProdL(LatElem("1"))))


def test_parse_empty():
    assert parse_expr("empty") == Empty()


def test_parse_singleton_of_mu():
    e = parse_expr("{mu x. r<a({x})>}")
    assert e == Single(Mu("x", ProdR(Act("a", Single(Var("x"))))))


def test_parse_injections_and_literals():
    assert parse_expr("l[#*]") == SumL(LatElem("*"))
    assert parse_expr("r[empty]") == SumR(Empty())
    assert parse_expr("l<#0>") == ProdL(LatElem("0"))
    assert parse_expr("#1") == LatElem("1")


def test_parse_dotted_action_letter():
    assert parse_expr("t.p(empty)") == Act("t.p", Empty())


def test_mu_extends_right_and_plus_right_associates():
    e = parse_expr("mu x. a(x) + b(x)")
    assert e == Mu("x", Plus(Act("a", Var("x")), Act("b", Var("x"))))
    e = parse_expr("a(empty) + b(empty) + empty")
    assert e == Plus(Act("a", Empty()), Plus(Act("b", Empty()), Empty()))


def test_parenthesized_mu_as_left_summand():
    e = parse_expr("(mu x. a(x)) + empty")
    assert e == Plus(Mu("x", Act("a", Var("x"))), Empty())


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expr("mu x r<a(x)>")  # missing dot
    with pytest.raises(ExprSyntaxError):
        parse_expr("l<empty")
    with pytest.raises(ExprSyntaxError):
        parse_expr("empty +")
    with pytest.raises(ExprSyntaxError):
        parse_expr("#")
    with pytest.raises(ExprSyntaxError):
        parse_expr("a(empty) b")


@pytest.mark.parametrize(
    "text",
    [
        "empty",
        "mu x. r<a(x)> + l<#1>",
        "(empty + empty) + empty",
        "{mu x. r<a({x})>}",
        "l[#*] + r[a({empty})]",
        "(mu x. a(x)) + b(empty)",
        "t.p(l<#0>)",
        "mu x. r<a(x + mu y. r<a(y)>)>",
    ],
)
def test_pretty_parse_round_trip_fixed(text):
    e = parse_expr(text)
    assert parse_expr(pretty(e)) == e


def test_pretty_parse_round_trip_random():
    rng = random.Random(7)
    presets = [
        preset("dfa", ["a", "b"]),
        preset("partial", ["a", "b"]),
        preset("nfa", ["a"]),
        preset("lts", ["a", "b"]),
    ]
    for _ in range(300):
        g, _ = rng.choice(presets)
        e = gen_expr(rng, g, depth=5)
        assert parse_expr(pretty(e)) == e


def test_free_vars_and_closedness():
    e = parse_expr("mu x. r<a(x + y)>")
    assert free_vars(e) == {"y"}
    assert free_vars(parse_expr("mu x. r<a(x)>")) == frozenset()


def test_substitute_simple():
    e = Plus(Var("x"), Act("a", Var("x")))
    out = substitute(e, "x", Empty())
    assert out == Plus(Empty(), Act("a", Empty()))


def test_substitute_avoids_capture():
    # substituting a term with free y under a binder for y forces a rename
    e = Mu("y", Act("a", Var("x")))
    r = Act("b", Var("y"))
    out = substitute(e, "x", r)
    assert isinstance(out, Mu)
    assert out.binder != "y"
    assert out.body == Act("a", Act("b", Var("y")))
    # the free y of r is not captured
    assert "y" in free_vars(out)


def test_replace_is_textual():
    # syntactic replacement happily captures
    e = Mu("y", Act("a", Var("x")))
    r = Act("b", Var("y"))
    out = replace(e, "x", r)
    assert out == Mu("y", Act("a", Act("b", Var("y"))))
    assert free_vars(out) == frozenset()


def test_replace_leaves_bound_occurrences():
    e = Mu("x", Act("a", Var("x")))
    assert replace(e, "x", Empty()) == e
    assert substitute(e, "x", Empty()) == e


def test_replacement_composition_identity():
    # A{B{C/y}/x}{C/y} = A{B/x}{C/y} when y is not free in C
    rng = random.Random(11)
    g, _ = preset("dfa", ["a", "b"])
    for _ in range(100):
        c = gen_expr(rng, g, depth=3)  # closed, so y not free in it
        b_open = Plus(ProdR(Act("a", Var("y"))), gen_expr(rng, g, depth=2))
        a_open = Plus(ProdR(Act("b", Var("x"))), ProdR(Act("a", Var("y"))))
        lhs = replace(replace(a_open, "x", replace(b_open, "y", c)), "y", c)
        rhs = replace(replace(a_open, "x", b_open), "y", c)
        assert lhs == rhs


def test_measure_N_clauses():
    assert measure_N(parse_expr("a(empty + empty)")) == 0
    assert measure_N(parse_expr("mu x. a(x)")) == 1
    assert measure_N(parse_expr("mu x. a(x) + b(x)")) == 2
    assert measure_N(parse_expr("l<#1>")) == 0


def test_measure_N_invariant_under_unfolding():
    rng = random.Random(3)
    for preset_args in (("dfa", ["a", "b"]), ("nfa", ["a"]), ("partial", ["a", "b"])):
        g, _ = preset(*preset_args)
        found = 0
        for _ in range(300):
            e = gen_expr(rng, g, depth=4)
            if not isinstance(e, Mu):
                continue
            found += 1
            unfolded = substitute(e.body, e.binder, e)
            assert measure_N(unfolded) == measure_N(e.body)
            assert measure_N(unfolded) < measure_N(e)
        assert found > 10


def test_replace_subterm_every_occurrence():
    one = ProdL(LatElem("1"))
    e = Plus(one, ProdR(Act("a", one)))
    out = replace_subterm(e, one, Empty())
    assert out == Plus(Empty(), ProdR(Act("a", Empty())))


def test_alpha_rename_preorder():
    e = parse_expr("mu x. r<a(x + mu y. r<b(y + x)>)>")
    out = alpha_rename(e)
    assert out == parse_expr("mu v1. r<a(v1 + mu v2. r<b(v2 + v1)>)>")


def test_copies_and_pickles_hash_like_freshly_built_terms():
    text = "mu x. l<#1> + r<a(x + {empty})>"
    e = parse_expr(text)
    assert copy.deepcopy(e) == e and hash(copy.deepcopy(e)) == hash(e)
    # string hashes differ between processes, so a stored hash would go stale
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    code = (
        "import pickle, sys; from coalgex import parse_expr; "
        f"print(pickle.loads(sys.stdin.buffer.read()) in {{parse_expr({text!r})}})"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": str(Path(coalgex.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(e), env=env,
                          capture_output=True, check=True, timeout=60)
    assert done.stdout.strip() == b"True"
