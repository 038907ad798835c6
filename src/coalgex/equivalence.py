"""Bisimilarity checking, minimization, and the expression decision procedure.

One partition-refinement engine numbers the bisimilarity classes of a
machine's states (signature refinement over blocks, generic in the functor);
`bisimilar`, `minimize`, `canonical_order` and `greatest_bisimulation` all
read their results from it.  The axiomatization of expression equivalence is
sound and complete for bisimilarity, so deciding bisimilarity of synthesized
machines decides provable equivalence.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coalgebra import Coalgebra, CoalgebraError, renamed
from .expr import Expr
from .extraction import extract
from .functor import (
    BiasedSum,
    Const,
    Exponent,
    FinPowerset,
    FunctorExpr,
    Id,
    Product,
    pretty_functor,
)
from .fvalue import (
    FCarrier,
    FConst,
    FFun,
    FInl,
    FInr,
    FPair,
    FSet,
    FValue,
    fmap,
    lifted_related,
    value_key,
)
from .synthesis import acie_normal_form, synthesize


@dataclass(frozen=True)
class Certificate:
    """Outcome of a bisimilarity query.

    For a positive verdict the witness is a bisimulation containing the query
    pair; for a negative one the trace walks to the first observable mismatch.
    """

    bisimilar: bool
    witness: tuple[tuple[str, str], ...] | None = None
    trace: tuple[str, ...] | None = None
    reason: str | None = None

    @property
    def verdict(self) -> str:
        return "bisimilar" if self.bisimilar else "distinguished"

    def __str__(self) -> str:
        if self.bisimilar:
            pairs = ", ".join(f"({a},{b})" for a, b in self.witness or ())
            return f"bisimilar; witness {{{pairs}}}"
        path = " -> ".join(self.trace or ())
        return f"distinguished at [{path}]: {self.reason}"


def _disjoint_union(c1: Coalgebra, c2: Coalgebra) -> tuple[Coalgebra, dict, dict]:
    m1 = {s: f"L.{s}" for s in c1.states}
    m2 = {s: f"R.{s}" for s in c2.states}
    r1 = renamed(c1, m1)
    r2 = renamed(c2, m2)
    union = Coalgebra(
        functor=c1.functor,
        states=r1.states + r2.states,
        transition={**r1.transition, **r2.transition},
    )
    return union, m1, m2


def _blocks(c: Coalgebra) -> dict[str, int]:
    """Number of each state's bisimilarity class (partition refinement).

    A state's signature is its value with every successor replaced by that
    successor's block; each round numbers the (old block, signature) classes
    in sorted order, starting from one block.  Refinement stops when the
    number of blocks stops growing, so the numbers depend only on the
    machine's structure, not on state names or declared order.
    """
    block = dict.fromkeys(c.states, 0)
    count = 1
    while True:
        # block ids enter as strings, which value_key orders without the term order
        keys = {
            s: (block[s], value_key(fmap(c.functor, lambda t: str(block[t]), c.value(s))))
            for s in c.states
        }
        number = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        block = {s: number[keys[s]] for s in c.states}
        if len(number) <= count:
            return block
        count = len(number)


def greatest_bisimulation(c: Coalgebra) -> set[tuple[str, str]]:
    """Largest relation on the state set closed under the relation lifting."""
    block = _blocks(c)
    return {(s, t) for s in c.states for t in c.states if block[s] == block[t]}


def _explain(
    c: Coalgebra, s: str, t: str, related: Callable[[str, str], bool]
) -> tuple[tuple[str, ...], str]:
    """Path to the first mismatch for a pair outside the greatest bisimulation."""
    visited: set[tuple[str, str]] = set()
    trace: list[str] = [f"({s},{t})"]

    def descend(f: FunctorExpr, u: FValue, v: FValue) -> str:
        match f, u, v:
            case Id(), FCarrier(a), FCarrier(b):
                if related(a, b):
                    return ""
                if (a, b) in visited:
                    return f"states {a!r}, {b!r} already under inspection"
                visited.add((a, b))
                trace.append(f"({a},{b})")
                return descend(c.functor, c.value(a), c.value(b))
            case Const(_), FConst(_, b1), FConst(_, b2):
                if b1 != b2:
                    return f"constant {b1} vs {b2}"
                return ""
            case Product(f1, f2), FPair(l1, r1), FPair(l2, r2):
                trace.append("l<>")
                why = descend(f1, l1, l2)
                if why:
                    return why
                trace.pop()
                trace.append("r<>")
                why = descend(f2, r1, r2)
                if why:
                    return why
                trace.pop()
                return ""
            case BiasedSum(f1, _), FInl(a), FInl(b):
                trace.append("l[]")
                why = descend(f1, a, b)
                if why:
                    return why
                trace.pop()
                return ""
            case BiasedSum(_, f2), FInr(a), FInr(b):
                trace.append("r[]")
                why = descend(f2, a, b)
                if why:
                    return why
                trace.pop()
                return ""
            case BiasedSum(_, _), _, _:
                if type(u) is not type(v):
                    return f"injection {type(u).__name__} vs {type(v).__name__}"
                return ""
            case Exponent(base, alphabet), FFun(_), FFun(_):
                for a in alphabet:
                    trace.append(f"{a}(-)")
                    why = descend(base, u(a), v(a))
                    if why:
                        return why
                    trace.pop()
                return ""
            case FinPowerset(base), FSet(m1), FSet(m2):
                for i, a in enumerate(m1):
                    if not any(lifted_related(base, related, a, b) for b in m2):
                        trace.append(f"set-member#{i} (left)")
                        if m2:
                            return descend(base, a, m2[0]) or "unmatched set member"
                        return "unmatched set member (other side empty)"
                for i, b in enumerate(m2):
                    if not any(lifted_related(base, related, a, b) for a in m1):
                        trace.append(f"set-member#{i} (right)")
                        if m1:
                            return descend(base, m1[0], b) or "unmatched set member"
                        return "unmatched set member (other side empty)"
                return ""
        return "shape mismatch"

    reason = descend(c.functor, c.value(s), c.value(t)) or "no bisimulation contains the pair"
    return tuple(trace), reason


def bisimilar(c1: Coalgebra, s1: str, c2: Coalgebra, s2: str) -> Certificate:
    """Decide whether two states of same-type machines are bisimilar."""
    if c1.functor != c2.functor:
        raise CoalgebraError(
            f"functor mismatch: {pretty_functor(c1.functor)} vs "
            f"{pretty_functor(c2.functor)}"
        )
    if s1 not in c1.transition:
        raise CoalgebraError(f"unknown state {s1!r}")
    if s2 not in c2.transition:
        raise CoalgebraError(f"unknown state {s2!r}")
    union, m1, m2 = _disjoint_union(c1, c2)
    block = _blocks(union)
    a, b = m1[s1], m2[s2]
    if block[a] == block[b]:
        witness = tuple(
            sorted((p, q) for p in c1.states for q in c2.states if block[m1[p]] == block[m2[q]])
        )
        return Certificate(True, witness=witness)
    trace, reason = _explain(union, a, b, lambda p, q: block[p] == block[q])
    return Certificate(False, trace=trace, reason=reason)


def minimize(c: Coalgebra) -> Coalgebra:
    """Quotient by the bisimilarity partition; the first declared state of each
    class represents it and keeps its name."""
    block = _blocks(c)
    first: dict[int, str] = {}
    for s in c.states:
        first.setdefault(block[s], s)
    reps = tuple(first.values())
    transition = {
        r: fmap(c.functor, lambda t: first[block[t]], c.transition[r]) for r in reps
    }
    return Coalgebra(
        functor=c.functor,
        states=reps,
        transition=transition,
        point=first[block[c.point]] if c.point is not None else None,
        labels={r: c.labels[r] for r in reps if r in c.labels},
    )


def equiv(g: FunctorExpr, e1: Expr, e2: Expr) -> Certificate:
    """Decide provable equivalence of two expressions of ambient type g.

    Soundness and completeness of the axiomatization make this coincide with
    bisimilarity of the synthesized machines' points.
    """
    m1 = synthesize(g, e1)
    m2 = synthesize(g, e2)
    return bisimilar(m1, m1.point, m2, m2.point)


def canonical_order(c: Coalgebra) -> Coalgebra:
    """Relabel states s1..sn in an order depending only on machine structure.

    States are ordered by their bisimilarity class number, which is
    isomorphism-invariant; on a minimal machine every class is one state, so
    isomorphic machines relabel to the identical machine.  Ties keep the
    incoming order.  Set values are re-sorted into the new naming.
    """
    block = _blocks(c)
    by_block = sorted(c.states, key=block.__getitem__)
    mapping = {s: f"s{i + 1}" for i, s in enumerate(by_block)}
    out = renamed(c, mapping)
    out.states = tuple(mapping[s] for s in by_block)
    return out


def canonical_form(g: FunctorExpr, e: Expr) -> Expr:
    """Canonical representative of the expression's equivalence class.

    Built by synthesizing, minimizing, canonically ordering the machine,
    extracting (breadth-first variable naming) and normalizing; two
    expressions get the identical representative exactly when they are
    provably equivalent.
    """
    from .expr import order_context_for

    machine = canonical_order(minimize(synthesize(g, e)))
    return acie_normal_form(extract(machine, machine.point), order_context_for(g))
