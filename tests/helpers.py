"""Shared test machinery: seeded random generators and independent oracles."""
from __future__ import annotations

import functools
import itertools
import random

from coalgex import (
    Act,
    BiasedSum,
    Coalgebra,
    Const,
    Empty,
    Exponent,
    Expr,
    FBot,
    FCarrier,
    FConst,
    FFun,
    FInl,
    FInr,
    FPair,
    FSet,
    FTop,
    FValue,
    FinPowerset,
    FunctorExpr,
    Id,
    LatElem,
    Mu,
    Plus,
    ProdL,
    ProdR,
    Product,
    Single,
    SumL,
    SumR,
    Var,
    acie_normal_form,
    alpha_rename,
    delta,
    fmap,
    make_ffun,
    make_fset,
    order_context_for,
    lifted_related,
)
from coalgex.instances import RCat, RLetter, ROne, RStar, RSum, RZero, Regex
from coalgex.instances.lts import LDead, LMu, LNil, LPrefix, LSum, LTick, LtsTerm, LVar


# --- random well-typed expressions -------------------------------------------


def gen_expr(
    rng: random.Random,
    g: FunctorExpr,
    depth: int = 4,
    f: FunctorExpr | None = None,
    _safe: tuple[str, ...] = (),
    _unsafe: tuple[str, ...] = (),
    _binders: list[int] | None = None,
) -> Expr:
    """Random closed guarded expression typed at f (default g) within g."""
    if f is None:
        f = g
    binders = _binders if _binders is not None else [0]

    def sub(f2: FunctorExpr, crossing_guard: bool, d: int) -> Expr:
        if crossing_guard:
            return gen_expr(rng, g, d, f2, _safe + _unsafe, (), binders)
        return gen_expr(rng, g, d, f2, _safe, _unsafe, binders)

    choices = []
    choices.append(lambda: Empty())
    if depth > 0:
        choices.append(lambda: Plus(sub(f, False, depth - 1), sub(f, False, depth - 1)))
        choices.append(lambda: Plus(sub(f, False, depth - 1), sub(f, False, depth - 1)))
    if f == g:
        for x in _safe:
            choices.append(lambda x=x: Var(x))
        if depth > 0:
            def mk_mu() -> Expr:
                binders[0] += 1
                x = f"m{binders[0]}"
                body = gen_expr(
                    rng, g, depth - 1, g, tuple(s for s in _safe if s != x),
                    _unsafe + (x,), binders,
                )
                return Mu(x, body)

            choices.append(mk_mu)
    match f:
        case Const(lat):
            for el in lat.elements:
                choices.append(lambda el=el: LatElem(el))
        case Product(f1, f2):
            if depth > 0:
                choices.append(lambda: ProdL(sub(f1, True, depth - 1)))
                choices.append(lambda: ProdL(sub(f1, True, depth - 1)))
                choices.append(lambda: ProdR(sub(f2, True, depth - 1)))
                choices.append(lambda: ProdR(sub(f2, True, depth - 1)))
        case BiasedSum(f1, f2):
            if depth > 0:
                choices.append(lambda: SumL(sub(f1, True, depth - 1)))
                choices.append(lambda: SumR(sub(f2, True, depth - 1)))
                choices.append(lambda: SumR(sub(f2, True, depth - 1)))
        case Exponent(base, alphabet):
            if depth > 0:
                for a in alphabet:
                    choices.append(lambda a=a: Act(a, sub(base, True, depth - 1)))
        case FinPowerset(base):
            if depth > 0:
                choices.append(lambda: Single(sub(base, True, depth - 1)))
                choices.append(lambda: Single(sub(base, True, depth - 1)))
        case Id() if g != Id() and depth > 0:
            choices.append(lambda: sub(g, False, depth - 1))
            choices.append(lambda: sub(g, False, depth - 1))
    return rng.choice(choices)()


# --- random machines ----------------------------------------------------------


def gen_coalgebra(
    rng: random.Random,
    g: FunctorExpr,
    n_states: int,
    max_set: int = 2,
    top_weight: float = 0.05,
) -> Coalgebra:
    states = tuple(f"q{i + 1}" for i in range(n_states))

    def gen_value(f: FunctorExpr) -> FValue:
        match f:
            case Id():
                return FCarrier(rng.choice(states))
            case Const(lat):
                return FConst(lat.name, rng.choice(lat.elements))
            case Product(f1, f2):
                return FPair(gen_value(f1), gen_value(f2))
            case BiasedSum(f1, f2):
                roll = rng.random()
                if roll < top_weight:
                    return FTop()
                if roll < 2 * top_weight:
                    return FBot()
                if rng.random() < 0.5:
                    return FInl(gen_value(f1))
                return FInr(gen_value(f2))
            case Exponent(base, _):
                return make_ffun(f, lambda _a: gen_value(base))
            case FinPowerset(base):
                return make_fset(
                    gen_value(base) for _ in range(rng.randint(0, max_set))
                )
        raise TypeError(f"not a functor: {f!r}")

    transition = {s: gen_value(g) for s in states}
    return Coalgebra(g, states, transition, point=states[0])


# --- regexes and process terms -------------------------------------------------


def gen_regex(rng: random.Random, alphabet: tuple[str, ...], depth: int = 4) -> Regex:
    if depth <= 0:
        return rng.choice(
            [RZero(), ROne()] + [RLetter(a) for a in alphabet]
        )
    kind = rng.randrange(6)
    if kind == 0:
        return RSum(gen_regex(rng, alphabet, depth - 1), gen_regex(rng, alphabet, depth - 1))
    if kind in (1, 2):
        return RCat(gen_regex(rng, alphabet, depth - 1), gen_regex(rng, alphabet, depth - 1))
    if kind == 3:
        return RStar(gen_regex(rng, alphabet, depth - 1))
    return rng.choice([RZero(), ROne()] + [RLetter(a) for a in alphabet])


def gen_lts_term(
    rng: random.Random,
    alphabet: tuple[str, ...],
    depth: int = 4,
    safe: tuple[str, ...] = (),
    unsafe: tuple[str, ...] = (),
    _binders: list[int] | None = None,
) -> LtsTerm:
    binders = _binders if _binders is not None else [0]
    choices = [lambda: LNil(), lambda: LDead(), lambda: LTick()]
    for x in safe:
        choices.append(lambda x=x: LVar(x))
    if depth > 0:
        for a in alphabet:
            choices.append(
                lambda a=a: LPrefix(
                    a, gen_lts_term(rng, alphabet, depth - 1, safe + unsafe, (), binders)
                )
            )
            choices.append(
                lambda a=a: LPrefix(
                    a, gen_lts_term(rng, alphabet, depth - 1, safe + unsafe, (), binders)
                )
            )
        choices.append(
            lambda: LSum(
                gen_lts_term(rng, alphabet, depth - 1, safe, unsafe, binders),
                gen_lts_term(rng, alphabet, depth - 1, safe, unsafe, binders),
            )
        )

        def mk_mu() -> LtsTerm:
            binders[0] += 1
            x = f"m{binders[0]}"
            return LMu(
                x,
                gen_lts_term(
                    rng, alphabet, depth - 1,
                    tuple(s for s in safe if s != x), unsafe + (x,), binders,
                ),
            )

        choices.append(mk_mu)
    return rng.choice(choices)()


# --- shufflers and canonicalizers ----------------------------------------------


def acie_variant(rng: random.Random, e: Expr) -> Expr:
    """A term provably equal to e by the sum laws alone."""

    def shuffle_sum(e: Expr) -> Expr:
        parts: list[Expr] = []
        stack = [e]
        while stack:
            t = stack.pop()
            if isinstance(t, Plus):
                stack.append(t.left)
                stack.append(t.right)
            else:
                parts.append(go(t))
        if rng.random() < 0.5:
            parts.append(rng.choice(parts))  # duplicate
        if rng.random() < 0.5:
            parts.append(Empty())  # pad
        rng.shuffle(parts)
        out = parts[0]
        for p in parts[1:]:
            out = Plus(out, p) if rng.random() < 0.5 else Plus(p, out)
        return out

    def go(e: Expr) -> Expr:
        match e:
            case Plus(_, _):
                return shuffle_sum(e)
            case Mu(x, body):
                return Mu(x, go(body))
            case ProdL(i):
                return ProdL(go(i))
            case ProdR(i):
                return ProdR(go(i))
            case SumL(i):
                return SumL(go(i))
            case SumR(i):
                return SumR(go(i))
            case Act(a, i):
                return Act(a, go(i))
            case Single(i):
                return Single(go(i))
            case _:
                return e

    return go(e)


def alpha_acie(e: Expr, g: FunctorExpr | None = None) -> Expr:
    """Canonical form modulo the sum laws and binder renaming."""
    ctx = order_context_for(g) if g is not None else None
    prev = None
    for _ in range(10):
        if e == prev:
            return e
        prev = e
        e = acie_normal_form(alpha_rename(e), ctx)
    raise AssertionError("alpha/sum canonicalization did not stabilize")


# --- machine-side oracles -------------------------------------------------------


def machine_accepts(c: Coalgebra, s: str, word: str) -> bool:
    """Word acceptance for machines of the deterministic acceptor type."""
    for a in word:
        v = c.value(s)
        assert isinstance(v, FPair) and isinstance(v.right, FFun)
        s = v.right(a).item  # type: ignore[union-attr]
    v = c.value(s)
    assert isinstance(v, FPair) and isinstance(v.left, FConst)
    return v.left.element == "1"


def bounded_bisim(c: Coalgebra, s: str, g: FunctorExpr, e: Expr, k: int) -> bool:
    """Machine state vs raw expression unfolding, to observation depth k."""
    if k <= 0:
        return True

    def rel(state, expr) -> bool:
        return bounded_bisim(c, state, g, expr, k - 1)

    return lifted_related(g, rel, c.value(s), delta(g, g, e, _checked=True))


def enumerate_values(f: FunctorExpr, carrier: list) -> list[FValue]:
    """Every value of f over a small carrier (exponential; keep inputs tiny)."""
    match f:
        case Id():
            return [FCarrier(x) for x in carrier]
        case Const(lat):
            return [FConst(lat.name, el) for el in lat.elements]
        case Product(f1, f2):
            return [
                FPair(l, r)
                for l in enumerate_values(f1, carrier)
                for r in enumerate_values(f2, carrier)
            ]
        case BiasedSum(f1, f2):
            out: list[FValue] = [FBot(), FTop()]
            out.extend(FInl(v) for v in enumerate_values(f1, carrier))
            out.extend(FInr(v) for v in enumerate_values(f2, carrier))
            return out
        case Exponent(base, alphabet):
            base_vals = enumerate_values(base, carrier)
            return [
                FFun(tuple(zip(alphabet, combo)))
                for combo in itertools.product(base_vals, repeat=len(alphabet))
            ]
        case FinPowerset(base):
            base_vals = enumerate_values(base, carrier)
            out = []
            for n in range(len(base_vals) + 1):
                for combo in itertools.combinations(base_vals, n):
                    out.append(make_fset(combo))
            return list(dict.fromkeys(out))
    raise TypeError(f"not a functor: {f!r}")


def brute_lifted(f: FunctorExpr, rel_pairs: set[tuple], u: FValue, v: FValue) -> bool:
    """Membership in the relation lifting computed by definition: enumerate
    values over the relation-as-carrier and project both ways."""
    return (u, v) in _projections(f, frozenset(rel_pairs))


@functools.lru_cache(maxsize=8)
def _projections(f: FunctorExpr, rel_pairs: frozenset) -> frozenset:
    pairs = sorted(rel_pairs, key=repr)
    return frozenset(
        (fmap(f, lambda p: p[0], x), fmap(f, lambda p: p[1], x))
        for x in enumerate_values(f, pairs)
    )
