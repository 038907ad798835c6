import gc
import hashlib
import random
import weakref
from pathlib import Path

import pytest

from coalgex import (
    Empty,
    FFun,
    FPair,
    FTop,
    acie_normal_form,
    closure_cl,
    equiv,
    extract,
    load_spec,
    order_context_for,
    parse_expr,
    pretty,
    synthesize,
    typechecks,
    validate_coalgebra,
    write_coalgebra,
)
from coalgex.expr import subterms
from coalgex.instances import parse_regex, preset, regex_to_det

from helpers import acie_variant, bounded_bisim, gen_expr, machine_accepts

D2, _ = preset("dfa", ["a", "b"])
D1, _ = preset("dfa", ["a"])
PA, _ = preset("partial", ["a", "b"])
N, _ = preset("nfa", ["a"])


def nf(text_or_expr, g=D2):
    e = parse_expr(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    return acie_normal_form(e, order_context_for(g))


def test_nf_flatten_dedup_sort():
    assert nf("(l<#0> + l<#1>) + l<#1>") == parse_expr("l<#0> + l<#1>")
    assert nf("empty + l<#1>") == parse_expr("l<#1>")
    assert nf("empty + empty") == Empty()
    assert nf("l<#1> + l<#0>") == parse_expr("l<#0> + l<#1>")


def test_nf_drops_duplicate_fixed_points():
    e = parse_expr("l<#1> + (mu y. r<a(y)>) + (mu y. r<a(y)>)")
    assert nf(e) == parse_expr("l<#1> + mu y. r<a(y)>")


def test_nf_idempotent_and_variant_invariant():
    rng = random.Random(41)
    for g in (D2, PA, N):
        ctx = order_context_for(g)
        for _ in range(150):
            e = gen_expr(rng, g, depth=4)
            n1 = acie_normal_form(e, ctx)
            assert acie_normal_form(n1, ctx) == n1
            assert acie_normal_form(acie_variant(rng, e), ctx) == n1


def test_nf_normalizes_under_binders():
    e = parse_expr("mu x. r<a(x + x + empty)>")
    assert nf(e) == parse_expr("mu x. r<a(x)>")


def test_synthesis_of_trivial_acceptors():
    m_empty = synthesize(D2, parse_expr("empty"))
    assert len(m_empty.states) == 1
    m0 = synthesize(D2, parse_expr("l<#0>"))
    assert len(m0.states) == 2
    m1 = synthesize(D2, parse_expr("l<#1>"))
    assert len(m1.states) == 2
    for m in (m_empty, m0, m1):
        validate_coalgebra(m)
    for w in ("", "a", "b", "ab", "ba", "aa"):
        assert not machine_accepts(m_empty, m_empty.point, w)
        assert not machine_accepts(m0, m0.point, w)
        assert machine_accepts(m1, m1.point, w) == (w == "")


def test_synthesis_single_letter_language():
    m = synthesize(D2, parse_expr("r<a(l<#1>)>"))
    assert len(m.states) == 3
    words = [""] + [x + y for x in "ab" for y in [""]] + [
        x + y for x in "ab" for y in "ab"
    ]
    for w in set(words) | {"aa", "ab", "ba", "bb", "aaa"}:
        assert machine_accepts(m, m.point, w) == (w == "a")


def test_synthesis_resolves_output_conflict_by_join():
    e = parse_expr("mu x. r<a(l<#0> + l<#1> + x)>")
    m = synthesize(D2, e)
    assert len(m.states) == 3
    # the looping state is final because the join of 0 and 1 is 1
    for w in ("", "a", "aa", "aaa", "ab", "ba", "aab"):
        assert machine_accepts(m, m.point, w) == (len(w) > 0 and set(w) == {"a"})


def test_synthesis_nested_fixed_point_stays_finite():
    e = parse_expr("mu x. r<a(x + mu y. r<a(y)>)>")
    m = synthesize(D2, e)
    assert len(m.states) == 3
    point_label = m.labels[m.point]
    successor = [s for s in m.states if s != m.point and m.labels[s] != "empty"]
    assert len(successor) == 1


def test_synthesis_top_for_inconsistent_partial_spec():
    e = parse_expr("a(l[#*]) + b(l[#*]) + a(r[a(l[#*]) + b(l[#*])])")
    m = synthesize(PA, e)
    v = m.value(m.point)
    assert isinstance(v, FFun)
    assert v("a") == FTop()


def test_state_count_bound_and_termination():
    rng = random.Random(43)
    for g in (D2, PA, N):
        for _ in range(40):
            e = gen_expr(rng, g, depth=5)
            m = synthesize(g, e)
            validate_coalgebra(m)
            in_expg = {t for t in closure_cl(e) if typechecks(t, g, g)}
            assert len(m.states) <= 2 ** len(in_expg)


def test_point_matches_raw_unfolding_to_depth():
    rng = random.Random(47)
    for g in (D2, PA, N):
        for _ in range(25):
            e = gen_expr(rng, g, depth=4)
            m = synthesize(g, e)
            assert bounded_bisim(m, m.point, g, e, 4)


# --- golden machines ------------------------------------------------------------

SPECS = Path(__file__).resolve().parent.parent / "specs"


def r_k(k: int):
    """R_k = (a+b)*a(a+b)^k: its minimal DFA has 2^(k+1) states."""
    return regex_to_det(parse_regex("(a+b)*a" + "(a+b)" * k))


def r_k_variant(seed: int, k: int):
    """R_k with every sum shuffled, re-associated, and given a duplicate and a
    `0` summand."""
    rng = random.Random(seed)

    def sum_text(atoms: list[str]) -> str:
        parts = atoms + [rng.choice(atoms), "0"]
        rng.shuffle(parts)

        def assoc(ps: list[str]) -> str:
            if len(ps) == 1:
                return ps[0]
            cut = rng.randint(1, len(ps) - 1)
            return f"({assoc(ps[:cut])}+{assoc(ps[cut:])})"

        return assoc(parts)

    text = f"{sum_text(['a', 'b'])}*{sum_text(['a'])}"
    text += "".join(sum_text(["a", "b"]) for _ in range(k))
    return regex_to_det(parse_regex(text))


def golden_inputs() -> dict:
    cases = {f"R_{k}": (D2, r_k(k)) for k in range(2, 6)}
    for seed, k in ((1, 3), (2, 4)):
        cases[f"R_{k} variant {seed}"] = (D2, r_k_variant(seed, k))
    for path in sorted(SPECS.glob("*.spec")):
        spec = load_spec(str(path))
        for name in spec.exprs:
            cases[f"{path.stem}.{name}"] = (spec.functor, spec.resolve_expr(name))
    return cases


# sha256 of write_coalgebra(synthesize(g, e)): caching must not change a byte
# of a machine, and an ACIE variant of R_k gives R_k's machine byte for byte
GOLDEN = {
    "R_2": "927d186bab3ce37368ab36e5f2573d7840a73d67548f4e0f4b2d142017ea68af",
    "R_3": "64a50e97e7033d1e2173ba0e264c985afc71e30e6c9c8534c1b4a9f6b8e080c5",
    "R_4": "660d302dfe4924f4dc0f1ae2460dc8016814a945f00aac4fde7ea0420b0abcbb",
    "R_5": "f1f33e13b2a84aad36b6d0d84cf2b01944d010c478edcfd81178bb8edbf789a7",
    "R_3 variant 1": "64a50e97e7033d1e2173ba0e264c985afc71e30e6c9c8534c1b4a9f6b8e080c5",
    "R_4 variant 2": "660d302dfe4924f4dc0f1ae2460dc8016814a945f00aac4fde7ea0420b0abcbb",
    "dfa_ab.Eempty": "f5a756324710bf0b04ebc88585ca4e2ff594a13ca2c57f02f37623342aded325",
    "dfa_ab.E0": "f0c7759c8e6a2e3d78227eb9f4518b6a537f58b5846b3143ab43a65c86494108",
    "dfa_ab.E1": "520165b9392d56df7a17e057e11a38e76608b67ac99d0f76f6061c36d3bd3159",
    "dfa_ab.Ea": "efe55c426e1cab0f7051e6bf05f9da83feea101de93e345d10502053dd3d88a9",
    "dfa_ab.Eaa": "db78202fc28fbae0a58334c11a639135c48aeb629bac59af02e48f38fbeb4b0f",
    "dfa_ab.Enest": "e96d29b983f22f8ed87e4348b8318f3feaa1031d0623c300784559ffb360d4ec",
    "dfa_ab.Es1": "b347e82e72f6ac275e5ec3d57015c6d1bebbc285358fe069c411c7f03578ccc3",
    "dfa_ab.Es2": "8c9cf857d81a0ca2a17f293fcf4bcd4a6b63f67c257d83fc04829c182613b21f",
    "nfa_a.E1": "2a3b86393734a51887017f698426ccec484fa18830f6f7394633466f57c7e0f9",
    "nfa_a.E2": "9e27e5330c0458b0ce86c287a797666e26fdb605941e9ae193a8c13d1680e086",
    "nfa_ab.E1": "1409901542486b944eeb3ff0dede4859d10039fb602fe1781ef34ca1e3815bdc",
    "nfa_ab.E3": "4e3cf94c488f295be70e910ecb4bf08512ce777a6bc4e7072a90f67fc1378d53",
    "partial_ab.Etick": "7e5f372f020416f5873b136385596ab7072730ac6b62cabf6f0a358d0f853a99",
    "partial_ab.Estep": "8672b79a31f9abf5e0a43bf7ed0da8af63b09773c6b21e976675c527b337853d",
    "partial_ab.Etotal": "f7b1a456c0e4d6b64a902544b2152719a2a6201cc2b82a518620d33d581014b0",
    "partial_ab.Etop": "80fbc46aafcc5295128408504c078b0107d369bac8ae336aacc26bb78ec16c0f",
    "partial_ab.Eq1": "61aae5cd53bd4a6d26a6332c024cad17af6aadcef142996fdb2ea28939612227",
    "partial_ab.Eq2": "a1104e02a241cd36c78a44b5ee18da85c3d52393349891095bf7ce0857a802a3",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_synthesized_machines_are_byte_identical_to_the_recorded_ones(name):
    g, e = golden_inputs()[name]
    text = write_coalgebra(synthesize(g, e))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


def test_golden_inputs_cover_every_bundled_expression():
    assert set(golden_inputs()) == set(GOLDEN)


@pytest.mark.parametrize("k", range(2, 7))
def test_r_k_synthesizes_to_its_minimal_state_count(k):
    assert len(synthesize(D2, r_k(k)).states) == 2 ** (k + 1)


# n = 260 needs node hashes that do not recurse and memos that add no frame
# per term level
@pytest.mark.parametrize("n", [200, 260])
def test_deep_regex_synthesizes_within_the_recursion_limit(n):
    e = regex_to_det(parse_regex("a" * n))
    assert len(synthesize(D2, e).states) == n + 2


def test_no_input_node_outlives_the_calls():
    def run() -> list:
        # re-parsed, so no node is a module-level constant of the regex front end
        e1, e2 = (parse_expr(pretty(e)) for e in (r_k(2), r_k_variant(3, 2)))
        refs = [weakref.ref(t) for e in (e1, e2) for t in subterms(e)]
        machine = synthesize(D2, e1)
        assert equiv(D2, e1, e2).bisimilar
        back = synthesize(D2, extract(machine, machine.point))
        assert len(back.states) == len(machine.states)
        return refs

    refs = run()
    gc.collect()
    assert [r for r in refs if r() is not None] == []
