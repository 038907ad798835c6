"""Finite machine synthesis from an expression, via canonical sum normal forms.

Deriving an expression repeatedly generates syntactically fresh states without
bound; normalizing each state modulo associativity, commutativity, idempotency
and the empty summand keeps the state space finite.  The normal form flattens
sums to a duplicate-free list sorted by the global term order, drops empty
summands, and re-associates to the right; it is computed under binders too,
so syntactic identity detects more duplicates than top-level normalization
would (the machines come out smaller, the finiteness bound is unaffected).

Caching: an expression node carries its own hash (see `expr`).  Everything
else is memoized on the `OrderContext` a call works under, per distinct node,
and dies with it: `synthesize` builds one context for the whole closure, so
the term keys and normal forms of the subterms that its states share are
computed once, and it prints the state labels through one `printer`.
"""
from __future__ import annotations

from collections import deque
from functools import reduce

from .coalgebra import Coalgebra
from .derivative import delta
from .expr import (
    Act,
    Empty,
    Expr,
    Mu,
    OrderContext,
    Plus,
    ProdL,
    ProdR,
    Single,
    SumL,
    SumR,
    order_context_for,
    printer,
    term_key,
)
from .functor import FunctorExpr
from .fvalue import fmap
from .typecheck import typecheck


def acie_normal_form(e: Expr, order: OrderContext | None = None) -> Expr:
    """Canonical representative of the expression modulo sum laws.

    Idempotent; the result is provably equivalent to the input (each rewrite
    is an instance of associativity, commutativity, idempotency or unit).
    A normal subterm is not rebuilt: it comes back as itself, or as an equal
    term already normalized under the same context.  Each distinct compound
    node is normalized once per context and kept in `order.normal_forms`;
    without a context that memo lives for this call.
    """
    order = order or OrderContext()
    memo = order.normal_forms

    def nf(e: Expr) -> Expr:
        done = memo.get(e)
        if done is not None:
            return done
        match e:
            case Plus(_, _):
                summands: dict[Expr, None] = {}
                stack = [e]
                while stack:
                    t = stack.pop()
                    if isinstance(t, Plus):
                        stack.append(t.right)
                        stack.append(t.left)
                    else:
                        t = nf(t)
                        if not isinstance(t, Empty):
                            summands[t] = None
                parts = sorted(summands, key=lambda t: term_key(t, order))
                if not parts:
                    done = Empty()
                elif _spells(e, parts):
                    done = e
                else:
                    done = reduce(lambda a, b: Plus(b, a), reversed(parts))
            case ProdL(i) | ProdR(i) | SumL(i) | SumR(i) | Single(i):
                n = nf(i)
                done = e if n is i else type(e)(n)
            case Act(a, i):
                n = nf(i)
                done = e if n is i else Act(a, n)
            case Mu(binder, body):
                n = nf(body)
                done = e if n is body else Mu(binder, n)
            case _:
                return e
        memo[e] = done
        return done

    return nf(e)


def _spells(e: Expr, parts: list[Expr]) -> bool:
    """Whether e is the right-nested sum of exactly these node objects."""
    for p in parts[:-1]:
        if not isinstance(e, Plus) or e.left is not p:
            return False
        e = e.right
    return e is parts[-1]


def synthesize(g: FunctorExpr, e: Expr) -> Coalgebra:
    """Finite pointed machine whose point is bisimilar to the expression.

    Worklist closure: each pending state is derived, the resulting value is
    normalized carrier-wise, and every carrier leaf becomes a state.  States
    are named s1, s2, ... in discovery order and labelled with their
    expression text.
    """
    typecheck(e, g, g)
    order = order_context_for(g)
    memo: dict = {}

    def nf(t: Expr) -> Expr:
        return acie_normal_form(t, order)

    start = nf(e)
    index: dict[Expr, str] = {start: "s1"}
    exprs: list[Expr] = [start]
    transition: dict[str, object] = {}
    pending = deque([start])
    while pending:
        state = pending.popleft()
        value = fmap(g, nf, delta(g, g, state, memo, _checked=True))

        def intern(t: Expr) -> str:
            name = index.get(t)
            if name is None:
                name = f"s{len(exprs) + 1}"
                index[t] = name
                exprs.append(t)
                pending.append(t)
            return name

        transition[index[state]] = fmap(g, intern, value)

    states = tuple(f"s{i + 1}" for i in range(len(exprs)))
    label = printer()
    return Coalgebra(
        functor=g,
        states=states,
        transition=transition,  # type: ignore[arg-type]
        point="s1",
        labels={name: label(t) for t, name in index.items()},
    )
