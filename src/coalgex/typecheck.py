"""Typing of expressions against an ingredient of a system type.

An expression is accepted at F within ambient type G when a typing derivation
exists, the expression is closed, and every fixed-point body is guarded in its
binder.  The identity-ingredient rule (anything of the ambient type also types
at the identity) is applied structurally at most once per path, which keeps
checking terminating; when the ambient type is the identity itself, only
empty, variables, sums and fixed points type.
"""
from __future__ import annotations

from .expr import (
    Act,
    Empty,
    Expr,
    LatElem,
    Mu,
    Plus,
    ProdL,
    ProdR,
    Single,
    SumL,
    SumR,
    Var,
    free_vars,
    pretty,
    substitute,
    unguarded_vars,
)
from .functor import (
    BiasedSum,
    Const,
    Exponent,
    FinPowerset,
    FunctorExpr,
    Id,
    Product,
    ingredient_check,
    pretty_functor,
)


class TypecheckError(ValueError):
    def __init__(self, message: str, subterm: Expr | None = None):
        if subterm is not None:
            message = f"{message} in {pretty(subterm)!r}"
        super().__init__(message)
        self.subterm = subterm


def typecheck(e: Expr, f: FunctorExpr, g: FunctorExpr) -> None:
    """Accept e at ingredient f of g; raise TypecheckError otherwise."""
    if not ingredient_check(f, g):
        raise TypecheckError(
            f"{pretty_functor(f)} is not an ingredient of {pretty_functor(g)}"
        )
    fv = free_vars(e)
    if fv:
        raise TypecheckError(f"free variable {sorted(fv)[0]!r}", e)
    _check_guards(e)
    _derive(e, f, g)


def typechecks(e: Expr, f: FunctorExpr, g: FunctorExpr) -> bool:
    try:
        typecheck(e, f, g)
    except TypecheckError:
        return False
    return True


def _check_guards(e: Expr) -> None:
    match e:
        case Mu(binder, body):
            if binder in unguarded_vars(body):
                raise TypecheckError(f"variable {binder!r} occurs unguarded", e)
            _check_guards(body)
        case Plus(l, r):
            _check_guards(l)
            _check_guards(r)
        case ProdL(i) | ProdR(i) | SumL(i) | SumR(i) | Act(_, i) | Single(i):
            _check_guards(i)
        case _:
            pass


def _derive(e: Expr, f: FunctorExpr, g: FunctorExpr) -> None:
    """Typing derivation; variables always carry the ambient type."""
    match e:
        case Empty():
            return
        case Plus(l, r):
            _derive(l, f, g)
            _derive(r, f, g)
            return
        case Var(_) if f == g:
            return
        case Mu(_, body) if f == g:
            _derive(body, g, g)
            return

    match f:
        case Const(lat):
            if isinstance(e, LatElem):
                if e.element not in lat.elements:
                    raise TypecheckError(
                        f"element {e.element!r} not in lattice {lat.name}", e
                    )
                return
        case Product(f1, f2):
            if isinstance(e, ProdL):
                _derive(e.inner, f1, g)
                return
            if isinstance(e, ProdR):
                _derive(e.inner, f2, g)
                return
        case BiasedSum(f1, f2):
            if isinstance(e, SumL):
                _derive(e.inner, f1, g)
                return
            if isinstance(e, SumR):
                _derive(e.inner, f2, g)
                return
        case Exponent(base, alphabet):
            if isinstance(e, Act):
                if e.letter not in alphabet:
                    raise TypecheckError(
                        f"letter {e.letter!r} not in alphabet {{{','.join(alphabet)}}}",
                        e,
                    )
                _derive(e.inner, base, g)
                return
        case FinPowerset(base):
            if isinstance(e, Single):
                _derive(e.inner, base, g)
                return
        case Id():
            if g != Id():
                # the identity-ingredient rule: fall back to the ambient type
                _derive(e, g, g)
                return

    if isinstance(e, Mu):
        raise TypecheckError(
            f"fixed point at non-outermost type {pretty_functor(f)}", e
        )
    raise TypecheckError(f"ill-typed at ingredient {pretty_functor(f)}", e)


def closure_cl(e: Expr) -> frozenset[Expr]:
    """Least set containing e, closed under subformulas and fixed-point unfolding.

    Finite for well-typed guarded expressions; memoized on syntactic identity.
    """
    seen: set[Expr] = set()
    stack = [e]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        match t:
            case Plus(l, r):
                stack.append(l)
                stack.append(r)
            case Mu(binder, body):
                stack.append(substitute(body, binder, t))
            case ProdL(i) | ProdR(i) | SumL(i) | SumR(i) | Act(_, i) | Single(i):
                stack.append(i)
            case _:
                pass
    return frozenset(seen)
