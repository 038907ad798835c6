import itertools
import random

import pytest

from coalgex import (
    Coalgebra,
    CoalgebraError,
    FCarrier,
    FConst,
    FFun,
    FPair,
    bisimilar,
    canonical_form,
    canonical_order,
    equiv,
    greatest_bisimulation,
    lifted_related,
    minimize,
    parse_expr,
    pretty,
    reachable,
    synthesize,
    typecheck,
    write_coalgebra,
)
from coalgex.coalgebra import renamed
from coalgex.fvalue import make_fset
from coalgex.instances import preset

from helpers import acie_variant, brute_lifted, gen_coalgebra, gen_expr

D, _ = preset("dfa", ["a", "b"])
D1, _ = preset("dfa", ["a"])
N1, _ = preset("nfa", ["a"])
N2, _ = preset("nfa", ["a", "b"])
PA, _ = preset("partial", ["a", "b"])
L1, _ = preset("lts", ["a"])
L2, _ = preset("lts", ["a", "b"])


def dfa_machine(outs: str, nexts: list[int]) -> Coalgebra:
    """Single-letter acceptor from output bits and successor indices."""
    states = tuple(f"q{i + 1}" for i in range(len(outs)))
    t = {
        states[i]: FPair(
            FConst("bool2", outs[i]), FFun((("a", FCarrier(states[nexts[i]])),))
        )
        for i in range(len(outs))
    }
    return Coalgebra(D1, states, t, states[0])


def test_reachable_examples():
    loop = dfa_machine("1", [0])
    assert reachable(loop, "q1").states == ("q1",)
    chain = dfa_machine("010", [1, 2, 2])
    sub = reachable(chain, "q2")
    assert sub.states == ("q2", "q3")
    assert sub.point == "q2"
    with pytest.raises(CoalgebraError):
        reachable(chain, "zz")


def test_reachable_nfa_cycle():
    def step(*targets):
        return FFun((("a", make_fset(FCarrier(t) for t in targets)),))

    t = {
        "s1": FPair(FConst("bool2", "0"), step("s1", "s2", "s3")),
        "s2": FPair(FConst("bool2", "0"), step("s2", "s3")),
        "s3": FPair(FConst("bool2", "1"), step("s1", "s3")),
    }
    c = Coalgebra(N1, ("s1", "s2", "s3"), t, "s1")
    assert set(reachable(c, "s2").states) == {"s1", "s2", "s3"}


def test_bisimilar_empty_vs_l0():
    m1 = synthesize(D, parse_expr("empty"))
    m2 = synthesize(D, parse_expr("l<#0>"))
    cert = bisimilar(m1, m1.point, m2, m2.point)
    assert cert.bisimilar
    assert cert.witness  # closed relation reported


def test_distinguished_at_output():
    m1 = synthesize(D, parse_expr("l<#1>"))
    m2 = synthesize(D, parse_expr("l<#0>"))
    cert = bisimilar(m1, m1.point, m2, m2.point)
    assert not cert.bisimilar
    assert cert.trace is not None and cert.reason is not None
    assert "0" in cert.reason and "1" in cert.reason


def test_functor_mismatch_rejected():
    m1 = synthesize(D, parse_expr("empty"))
    m2 = synthesize(D1, parse_expr("empty"))
    with pytest.raises(CoalgebraError, match="functor mismatch"):
        bisimilar(m1, m1.point, m2, m2.point)


def brute_greatest(c: Coalgebra) -> set[tuple[str, str]]:
    """Union of all relations closed under the single-letter acceptor step."""
    n = len(c.states)
    pairs = [(s, t) for s in c.states for t in c.states]

    def out(s):
        return c.value(s).left.element

    def nxt(s):
        return c.value(s).right("a").item

    ok = [p for p in pairs if out(p[0]) == out(p[1])]
    union: set[tuple[str, str]] = set()
    for bits in range(1 << len(ok)):
        rel = {ok[i] for i in range(len(ok)) if bits >> i & 1}
        if all((nxt(s), nxt(t)) in rel for (s, t) in rel):
            union |= rel
    return union


def test_refinement_matches_brute_force_on_small_acceptors():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 3)
        outs = "".join(rng.choice("01") for _ in range(n))
        nexts = [rng.randrange(n) for _ in range(n)]
        c = dfa_machine(outs, nexts)
        assert greatest_bisimulation(c) == brute_greatest(c)


def all_pairs_fixpoint(c: Coalgebra, lifted) -> set[tuple[str, str]]:
    """Greatest bisimulation by definition: start from all pairs and drop those
    outside the lifting of the current relation until nothing changes."""
    rel = {(s, t) for s in c.states for t in c.states}
    while True:
        keep = {(s, t) for (s, t) in rel if lifted(c.functor, rel, c.value(s), c.value(t))}
        if keep == rel:
            return rel
        rel = keep


def test_refinement_matches_brute_lifting_fixpoint_on_random_machines():
    rng = random.Random(109)
    # one-letter nfa/lts keep the brute-force lifting's value enumeration small
    for g in (D, N1, L1, PA):
        for _ in range(30):
            c = gen_coalgebra(rng, g, rng.randint(1, 3))
            assert greatest_bisimulation(c) == all_pairs_fixpoint(c, brute_lifted)


def test_set_signatures_ignore_duplicate_bisimilar_members():
    def state(out, *targets):
        return FPair(FConst("bool2", out), FFun((("a", make_fset(FCarrier(t) for t in targets)),)))

    # t1 and t2 are bisimilar; s steps to both of them, u to t1 alone
    c = Coalgebra(
        N1,
        ("s", "u", "t1", "t2"),
        {"s": state("0", "t1", "t2"), "u": state("0", "t1"), "t1": state("1"), "t2": state("1")},
        "s",
    )
    assert ("s", "u") in greatest_bisimulation(c)
    assert minimize(c).states == ("s", "t1")


def test_canonical_order_ignores_state_names_and_order():
    rng = random.Random(113)
    for g in (D, N2, L2, PA):
        for _ in range(10):
            m = minimize(gen_coalgebra(rng, g, rng.randint(1, 8)))
            order = list(m.states)
            rng.shuffle(order)
            names = {s: f"x{i}" for i, s in enumerate(order)}
            copy = renamed(m, names)
            copy.states = tuple(names[s] for s in order)
            assert write_coalgebra(canonical_order(copy)) == write_coalgebra(canonical_order(m))


def test_minimize_keeps_one_bisimilar_representative_per_class():
    rng = random.Random(127)
    for g in (D, N2, L2, PA):
        for _ in range(10):
            c = gen_coalgebra(rng, g, rng.randint(1, 8))
            rel = all_pairs_fixpoint(c, lifted_related)
            q = minimize(c)
            for s in c.states:
                # the first declared state of the class represents it
                rep = next(r for r in c.states if (r, s) in rel)
                assert rep in q.states
                assert bisimilar(c, s, q, rep).bisimilar
            for r1, r2 in itertools.combinations(q.states, 2):
                assert (r1, r2) not in rel
                assert not bisimilar(q, r1, q, r2).bisimilar


def test_minimize_collapses_l0_machine():
    m = synthesize(D, parse_expr("l<#0>"))
    assert len(m.states) == 2
    q = minimize(m)
    assert len(q.states) == 1


def test_minimize_keeps_minimal_machine():
    c = dfa_machine("10", [1, 1])  # final state then sink
    assert len(minimize(c).states) == 2


def test_minimize_idempotent():
    rng = random.Random(73)
    for g, _ in (preset("dfa", ["a", "b"]), preset("nfa", ["a"]), preset("partial", ["a"])):
        for _ in range(15):
            c = gen_coalgebra(rng, g, rng.randint(1, 5))
            q1 = minimize(c)
            q2 = minimize(q1)
            assert len(q1.states) == len(q2.states)
            assert bisimilar(q1, q1.point, q2, q2.point).bisimilar


# --- the two worked equivalence examples --------------------------------------

E1_LOOP = "mu x1. l<#0> + r<a({x1})>"
E2_CYCLE = (
    "mu y1. l<#0> + r<a({mu y2. l<#0> + r<a({mu y1. l<#0> + r<a({y2})>})>})>"
)


def test_self_loop_equals_two_cycle():
    e1 = parse_expr(E1_LOOP)
    e2 = parse_expr(E2_CYCLE)
    typecheck(e2, N1, N1)
    assert equiv(N1, e1, e2).bisimilar


def test_dead_branch_does_not_matter():
    e2 = "mu x2. l<#0> + empty"
    e4 = "mu x4. l<#0> + empty"
    e1 = parse_expr(f"mu x1. l<#0> + r<a({{{e2}}}) + b({{{e2}}})>")
    e3 = parse_expr(f"mu x3. l<#0> + r<a({{{e2}}}) + b({{{e2}}} + {{{e4}}})>")
    assert equiv(N2, e1, e3).bisimilar


def test_empty_padding_is_equivalent():
    rng = random.Random(79)
    for g in (D, PA, N1):
        for _ in range(25):
            e = gen_expr(rng, g, depth=4)
            assert equiv(g, parse_expr(f"empty + ({pretty(e)})"), e).bisimilar


# --- canonical forms ------------------------------------------------------------


def test_canonical_form_identifies_acie_variants():
    rng = random.Random(83)
    for g in (D, N1, PA):
        for _ in range(20):
            e = gen_expr(rng, g, depth=4)
            v = acie_variant(rng, e)
            assert canonical_form(g, e) == canonical_form(g, v)


def test_canonical_form_empty_padding():
    rng = random.Random(89)
    for g in (D, N1):
        for _ in range(10):
            e = gen_expr(rng, g, depth=3)
            padded = parse_expr(f"empty + ({pretty(e)})")
            assert canonical_form(g, e) == canonical_form(g, padded)


def test_canonical_form_idempotent():
    rng = random.Random(97)
    for g in (D, N1, PA):
        for _ in range(15):
            e = gen_expr(rng, g, depth=4)
            c1 = canonical_form(g, e)
            assert canonical_form(g, c1) == c1


def test_canonical_form_of_worked_example_pair():
    e1 = parse_expr(E1_LOOP)
    e2 = parse_expr(E2_CYCLE)
    assert equiv(N1, e1, e2).bisimilar
    assert canonical_form(N1, e1) == canonical_form(N1, e2)


def test_canonical_form_biconditional_random():
    rng = random.Random(101)
    for g in (D, N1, PA):
        for _ in range(40):
            e1 = gen_expr(rng, g, depth=3)
            e2 = acie_variant(rng, e1) if rng.random() < 0.4 else gen_expr(rng, g, depth=3)
            same_class = equiv(g, e1, e2).bisimilar
            same_canon = canonical_form(g, e1) == canonical_form(g, e2)
            assert same_class == same_canon, (pretty(e1), pretty(e2))


# --- congruence -----------------------------------------------------------------


def embedder(g):
    """A one-hole context reaching the identity ingredient of g."""
    from coalgex.functor import BiasedSum, Exponent, FinPowerset, Id, Product
    from coalgex import Act, ProdL, ProdR, Single, SumL, SumR

    def find(f):
        match f:
            case Id():
                return lambda e: e
            case Product(f1, f2):
                for side, wrap in ((f1, ProdL), (f2, ProdR)):
                    inner = find(side)
                    if inner:
                        return lambda e, inner=inner, wrap=wrap: wrap(inner(e))
            case BiasedSum(f1, f2):
                for side, wrap in ((f1, SumL), (f2, SumR)):
                    inner = find(side)
                    if inner:
                        return lambda e, inner=inner, wrap=wrap: wrap(inner(e))
            case Exponent(base, alphabet):
                inner = find(base)
                if inner:
                    return lambda e, inner=inner: Act(alphabet[0], inner(e))
            case FinPowerset(base):
                inner = find(base)
                if inner:
                    return lambda e, inner=inner: Single(inner(e))
        return None

    return find(g)


def gen_context(rng, g):
    from coalgex import Mu, Plus

    wrappers = [embedder(g)]
    ctx = lambda e: e
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        prev = ctx
        if kind == 0:
            filler = gen_expr(rng, g, depth=2)
            ctx = lambda e, prev=prev, filler=filler: Plus(prev(e), filler)
        elif kind == 1:
            filler = gen_expr(rng, g, depth=2)
            ctx = lambda e, prev=prev, filler=filler: Plus(filler, prev(e))
        elif kind == 2:
            name = f"c{rng.randrange(1000)}"
            ctx = lambda e, prev=prev, name=name: Mu(name, prev(e))
        else:
            wrap = wrappers[0]
            ctx = lambda e, prev=prev, wrap=wrap: wrap(prev(e))
    return ctx


def test_congruence_under_random_contexts():
    rng = random.Random(103)
    for g in (D, N1, PA):
        for _ in range(20):
            e1 = gen_expr(rng, g, depth=3)
            e2 = acie_variant(rng, e1)
            ctx = gen_context(rng, g)
            c1, c2 = ctx(e1), ctx(e2)
            typecheck(c1, g, g)
            typecheck(c2, g, g)
            assert equiv(g, c1, c2).bisimilar


def test_bisimilar_agrees_with_language_to_length_six():
    from helpers import machine_accepts

    rng = random.Random(107)
    words = ["".join(w) for n in range(7) for w in itertools.product("ab", repeat=n)]
    for _ in range(25):
        e1 = gen_expr(rng, D, depth=3)
        e2 = gen_expr(rng, D, depth=3)
        m1 = synthesize(D, e1)
        m2 = synthesize(D, e2)
        same = equiv(D, e1, e2).bisimilar
        lang_agree = all(
            machine_accepts(m1, m1.point, w) == machine_accepts(m2, m2.point, w)
            for w in words
        )
        if same:
            assert lang_agree
        if not lang_agree:
            assert not same
