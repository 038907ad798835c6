import itertools
import random

import pytest

from coalgex import parse_expr, pretty, typecheck, equiv
from coalgex.functor import BiasedSum, Const, Exponent, FinPowerset, Id, Product
from coalgex.instances import (
    RCat,
    RLetter,
    ROne,
    RStar,
    RSum,
    RZero,
    core_to_lts,
    det_accepts,
    det_to_regex,
    gs_to_core,
    guarded_functor,
    lts_functor,
    lts_to_core,
    parse_gs,
    parse_lts,
    parse_regex,
    preset,
    pretty_lts,
    pretty_regex,
    regex_accepts,
    regex_to_det,
)
from coalgex.instances.lts import LDead, LNil, LPrefix, LSum, LTick, LMu, LVar
from coalgex.instances.guarded import GGuard, GMu, GNil, GOut, GSum, GVar
from coalgex.lattice import bool2, powerset, unit
from coalgex.typecheck import TypecheckError

from helpers import gen_lts_term, gen_regex

D2, _ = preset("dfa", ["a", "b"])
WORDS2 = ["".join(w) for n in range(7) for w in itertools.product("ab", repeat=n)]


# --- presets -------------------------------------------------------------------


def test_preset_shapes():
    d, lats = preset("dfa", ["a", "b"])
    assert d == Product(Const(bool2()), Exponent(Id(), ("a", "b")))
    assert "bool2" in lats

    pa, _ = preset("partial", ["a", "b"])
    assert pa == Exponent(BiasedSum(Const(unit()), Id()), ("a", "b"))

    n, _ = preset("nfa", ["a"])
    assert n == Product(Const(bool2()), Exponent(FinPowerset(Id()), ("a",)))

    m, _ = preset("mealy", ["a"], lattice=powerset(["p"]))
    assert m == Exponent(Product(Const(powerset(["p"])), Id()), ("a",))

    # biased sum at the outside, sets inside the exponent
    lts, _ = preset("lts", ["a"])
    assert lts == BiasedSum(Const(unit()), Exponent(FinPowerset(Id()), ("a",)))

    g, lats = preset("guarded", atoms=["t", "nt"], actions=["p"])
    assert isinstance(g, Product)
    assert g.right == Exponent(Id(), ("t.p", "nt.p"))
    assert set(g.left.lattice.elements) == {"0", "t", "nt", "t_nt"}

    with pytest.raises(Exception):
        preset("moore", ["a"])
    with pytest.raises(Exception):
        preset("dfa")


# --- regex parsing ----------------------------------------------------------------


def test_parse_regex_forms():
    assert parse_regex("0") == RZero()
    assert parse_regex("1") == ROne()
    assert parse_regex("ab*") == RCat(RLetter("a"), RStar(RLetter("b")))
    assert parse_regex("a.b") == RCat(RLetter("a"), RLetter("b"))
    assert parse_regex("a+b*") == RSum(RLetter("a"), RStar(RLetter("b")))
    assert parse_regex("(a+b)*") == RStar(RSum(RLetter("a"), RLetter("b")))
    r = parse_regex("(aa)* + b")
    assert parse_regex(pretty_regex(r)) == r


# --- forward translation -----------------------------------------------------------


def test_forward_translation_table():
    assert regex_to_det(RZero()) == parse_expr("empty")
    assert regex_to_det(ROne()) == parse_expr("l<#1>")
    assert regex_to_det(RLetter("a")) == parse_expr("r<a(l<#1>)>")


def test_forward_translation_of_a_astar():
    got = regex_to_det(parse_regex("aa*"))
    assert got == parse_expr("r<a(mu x1. r<a(x1)> + l<#1>)>")
    typecheck(got, D2, D2)


def test_forward_translation_star_substitutes_every_unit():
    got = regex_to_det(parse_regex("(a+1)*"))
    typecheck(got, D2, D2)
    for w in WORDS2:
        assert det_accepts(got, w, D2) == (set(w) <= {"a"})


# --- backward translation ------------------------------------------------------------


def test_backward_translation_table():
    assert det_to_regex(parse_expr("l<#1>")) == ROne()
    assert det_to_regex(parse_expr("l<#0>")) == RZero()
    assert det_to_regex(parse_expr("empty")) == RZero()


def test_backward_translation_solves_even_length_loop():
    e = parse_expr("mu x. r<a(r<a(x)>)> + l<#1>")
    r = det_to_regex(e)
    assert r == RStar(RCat(RLetter("a"), RLetter("a")))
    for w in WORDS2:
        assert regex_accepts(r, w) == (set(w) <= {"a"} and len(w) % 2 == 0)


def test_backward_translation_mutual_recursion():
    # two mutually recursive fixed points: even number of b's
    e = parse_expr(
        "mu x. l<#1> + r<a(x)> + r<b(mu y. r<a(y)> + r<b(x)>)>"
    )
    typecheck(e, D2, D2)
    r = det_to_regex(e)
    for w in WORDS2:
        assert regex_accepts(r, w) == (w.count("b") % 2 == 0)


# --- oracles ---------------------------------------------------------------------------


def test_regex_accepts_basics():
    assert regex_accepts(parse_regex("aa*"), "a")
    assert not regex_accepts(parse_regex("aa*"), "")
    assert not regex_accepts(RZero(), "")
    assert regex_accepts(ROne(), "") and not regex_accepts(ROne(), "a")


def test_det_accepts_basics():
    assert det_accepts(parse_expr("mu x. r<a(l<#0> + l<#1> + x)>"), "aa", D2)
    assert not det_accepts(parse_expr("empty"), "ab", D2)
    assert det_accepts(parse_expr("l<#1>"), "", D2)
    assert not det_accepts(parse_expr("l<#1>"), "a", D2)


def test_det_accepts_rejects_other_letters_and_types():
    with pytest.raises(TypecheckError, match="not in the alphabet"):
        det_accepts(parse_expr("l<#1>"), "ac", D2)
    guarded, _ = preset("guarded", atoms=["t"], actions=["p"])
    for g in [preset(name, ["a"])[0] for name in ("nfa", "partial", "lts")] + [guarded]:
        with pytest.raises(TypecheckError, match="acceptor type"):
            det_accepts(parse_expr("empty"), "a", g)


def test_regex_adequacy_sample():
    rng = random.Random(113)
    for _ in range(30):
        r = gen_regex(rng, ("a", "b"), depth=3)
        e = regex_to_det(r)
        typecheck(e, D2, D2)
        for w in WORDS2:
            assert regex_accepts(r, w) == det_accepts(e, w, D2), (pretty_regex(r), w)


def test_round_trip_sample():
    rng = random.Random(127)
    for _ in range(20):
        r = gen_regex(rng, ("a", "b"), depth=3)
        back = det_to_regex(regex_to_det(r))
        for w in WORDS2:
            assert regex_accepts(back, w) == regex_accepts(r, w)


# --- transition systems -------------------------------------------------------------


LTS_A, _ = lts_functor(("a", "b"))


def test_lts_parse_and_print():
    p = parse_lts("mu x. a.x + b.tick + dead")
    assert pretty_lts(p) == "mu x. a.x + b.tick + dead"
    assert parse_lts(pretty_lts(p)) == p
    assert parse_lts("a.b.nil") == LPrefix("a", LPrefix("b", LNil()))


def test_lts_translation_table():
    assert lts_to_core(LDead()) == parse_expr("r[empty]")
    assert lts_to_core(LTick()) == parse_expr("l[#*]")
    assert lts_to_core(LPrefix("a", LTick())) == parse_expr("r[a({l[#*]})]")
    assert lts_to_core(LNil()) == parse_expr("empty")


def test_lts_translated_terms_typecheck():
    rng = random.Random(131)
    for _ in range(60):
        p = gen_lts_term(rng, ("a", "b"), depth=4)
        e = lts_to_core(p)
        typecheck(e, LTS_A, LTS_A)


def test_lts_round_trip_identity():
    assert core_to_lts(lts_to_core(LPrefix("a", LNil()))) == LPrefix("a", LNil())
    rng = random.Random(137)
    for _ in range(80):
        p = gen_lts_term(rng, ("a", "b"), depth=4)
        assert core_to_lts(lts_to_core(p)) == p


def test_backward_lts_clauses():
    assert core_to_lts(parse_expr("r[empty]")) == LDead()
    assert core_to_lts(parse_expr("l[#*]")) == LTick()
    assert core_to_lts(parse_expr("l[empty]")) == LTick()
    assert core_to_lts(parse_expr("r[a(empty)]")) == LDead()
    assert core_to_lts(parse_expr("r[a({empty} + {l[#*]})]")) == LSum(
        LPrefix("a", LNil()), LPrefix("a", LTick())
    )


def test_lts_rejects_unguarded_or_open_terms():
    with pytest.raises(TypecheckError):
        lts_to_core(parse_lts("mu x. x + a.nil"))
    with pytest.raises(TypecheckError):
        lts_to_core(parse_lts("a.y"))


def lts_equiv(p, q) -> bool:
    return equiv(LTS_A, lts_to_core(p), lts_to_core(q)).bisimilar


def test_lts_axioms_randomized():
    rng = random.Random(139)
    zero, tick, dead = LNil(), LTick(), LDead()
    for _ in range(40):
        p = gen_lts_term(rng, ("a", "b"), depth=3)
        q = gen_lts_term(rng, ("a", "b"), depth=3)
        r = gen_lts_term(rng, ("a", "b"), depth=2)
        assert lts_equiv(LSum(p, q), LSum(q, p))
        assert lts_equiv(LSum(p, LSum(q, r)), LSum(LSum(p, q), r))
        assert lts_equiv(LSum(p, p), p)
        assert lts_equiv(LSum(p, zero), p)
        # the side-conditioned laws
        p_is_zero = lts_equiv(p, zero)
        p_is_tick = lts_equiv(p, tick)
        if not p_is_zero and not p_is_tick:
            assert lts_equiv(LSum(p, dead), p)
            assert lts_equiv(LSum(tick, dead), LSum(tick, p))
        if p_is_zero:
            assert not lts_equiv(LSum(p, dead), p)
        if p_is_tick:
            assert not lts_equiv(LSum(p, dead), p)
            assert not lts_equiv(LSum(tick, dead), LSum(tick, p))


def test_lts_fixed_point_axiom():
    p = parse_lts("mu x. a.x + b.tick")
    unfolded = parse_lts("a.(mu x. a.x + b.tick) + b.tick")
    assert lts_equiv(p, unfolded)


def test_prefix_does_not_distribute_over_sum():
    # a.(P+Q) and a.P + a.Q must be distinguishable
    p = LPrefix("a", LTick())
    q = LDead()
    lhs = LPrefix("a", LSum(p, q))
    rhs = LSum(LPrefix("a", p), LPrefix("a", q))
    assert not lts_equiv(lhs, rhs)
    # and with an action-guarded branch as the second summand
    q2 = LPrefix("a", LDead())
    lhs2 = LPrefix("a", LSum(p, q2))
    rhs2 = LSum(LPrefix("a", p), LPrefix("a", q2))
    assert not lts_equiv(lhs2, rhs2)


# --- guarded strings ---------------------------------------------------------------


GS_F, GS_LATS = guarded_functor(["t", "nt"], ["p", "q"])
GS_LAT = GS_F.left.lattice
ATOMS = ("t", "nt")
ACTIONS = ("p", "q")


def gs2core(p):
    return gs_to_core(p, GS_LAT, ATOMS, ACTIONS)


def gs_equiv(p, q) -> bool:
    return equiv(GS_F, gs2core(p), gs2core(q)).bisimilar


def test_gs_parsing():
    p = parse_gs("t -> p.(<t_nt> + nil) + mu x. nt -> q.x")
    assert p == GSum(
        GGuard("t", "p", GSum(GOut("t_nt"), GNil())),
        GMu("x", GGuard("nt", "q", GVar("x"))),
    )


def test_gs_translation_shapes():
    assert gs2core(GOut("0")) == parse_expr("l<#0>")
    assert gs2core(GNil()) == parse_expr("empty")
    got = gs2core(GGuard("t_nt", "p", GNil()))
    assert got == parse_expr("r<t.p(empty)> + r<nt.p(empty)>")
    assert gs2core(GGuard("0", "p", GOut("t"))) == parse_expr("empty")


def test_gs_translated_terms_typecheck():
    samples = [
        GOut("t"),
        GGuard("t_nt", "q", GMu("x", GGuard("t", "p", GVar("x")))),
        GSum(GOut("nt"), GGuard("nt", "p", GNil())),
    ]
    for p in samples:
        typecheck(gs2core(p), GS_F, GS_F)


def gen_gs(rng, depth=3, safe=(), unsafe=(), binders=None):
    binders = binders if binders is not None else [0]
    choices = [lambda: GNil()]
    for el in GS_LAT.elements:
        choices.append(lambda el=el: GOut(el))
    for x in safe:
        choices.append(lambda x=x: GVar(x))
    if depth > 0:
        choices.append(
            lambda: GSum(
                gen_gs(rng, depth - 1, safe, unsafe, binders),
                gen_gs(rng, depth - 1, safe, unsafe, binders),
            )
        )
        for el in GS_LAT.elements:
            for act in ACTIONS:
                choices.append(
                    lambda el=el, act=act: GGuard(
                        el, act, gen_gs(rng, depth - 1, safe + unsafe, (), binders)
                    )
                )

        def mk_mu():
            binders[0] += 1
            x = f"g{binders[0]}"
            return GMu(x, gen_gs(rng, depth - 1, tuple(s for s in safe if s != x), unsafe + (x,), binders))

        choices.append(mk_mu)
    return rng.choice(choices)()


def test_gs_axioms():
    rng = random.Random(149)
    zero = GNil()
    # 0 = <bottom>
    assert gs_equiv(zero, GOut("0"))
    for _ in range(25):
        p = gen_gs(rng, 2)
        q = gen_gs(rng, 2)
        b1 = rng.choice(GS_LAT.elements)
        b2 = rng.choice(GS_LAT.elements)
        a = rng.choice(ACTIONS)
        assert gs_equiv(GSum(p, q), GSum(q, p))
        assert gs_equiv(GSum(p, zero), p)
        assert gs_equiv(GSum(p, p), p)
        # tests join pointwise
        assert gs_equiv(GSum(GOut(b1), GOut(b2)), GOut(GS_LAT.join(b1, b2)))
        # guards
        assert gs_equiv(GGuard(b1, a, zero), zero)
        assert gs_equiv(GGuard("0", a, p), zero)
        assert gs_equiv(
            GSum(GGuard(b1, a, p), GGuard(b1, a, q)), GGuard(b1, a, GSum(p, q))
        )
        assert gs_equiv(
            GSum(GGuard(b1, a, p), GGuard(b2, a, p)),
            GGuard(GS_LAT.join(b1, b2), a, p),
        )


def test_gs_fixed_point_axiom():
    p = GMu("x", GGuard("t", "p", GVar("x")))
    unfolded = GGuard("t", "p", p)
    assert gs_equiv(p, unfolded)
