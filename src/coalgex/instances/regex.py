"""Classical regular expressions and their two-way translation to acceptor
expressions for the deterministic-automaton type 2 x Id^A.

The forward map implements concatenation and star by literal-subterm
substitution for l<#1>; the backward map turns fixed points into a linear
equation system over regular expressions, eliminated last-variable-first with
the standard rule that x = r.x + t solves to r*t.

Word acceptance for regular expressions uses the classical nullable/derivative
recursion and shares nothing with the acceptor-expression code path, so the
two sides can serve as independent oracles for one another.
"""
from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import Union

from ..expr import (
    Act,
    Empty,
    Expr,
    LatElem,
    Mu,
    Plus,
    ProdL,
    ProdR,
    Var,
    pretty,
    replace_subterm,
    subterms,
)
from ..functor import Const, Exponent, FunctorExpr, Id, Product, pretty_functor
from ..derivative import delta
from ..typecheck import TypecheckError


@dataclass(frozen=True)
class RZero:
    pass


@dataclass(frozen=True)
class ROne:
    pass


@dataclass(frozen=True)
class RLetter:
    letter: str


@dataclass(frozen=True)
class RSum:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class RCat:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class RStar:
    inner: "Regex"


@dataclass(frozen=True)
class RVar:
    # internal, only inside the equation solver
    name: str


Regex = Union[RZero, ROne, RLetter, RSum, RCat, RStar, RVar]


class RegexSyntaxError(ValueError):
    pass


def pretty_regex(r: Regex) -> str:
    def pp(r: Regex, level: int) -> str:
        # levels: 0 sum, 1 cat, 2 atom/star
        match r:
            case RZero():
                return "0"
            case ROne():
                return "1"
            case RLetter(a):
                return a
            case RVar(x):
                return f"<{x}>"
            case RStar(i):
                return f"{pp(i, 2)}*"
            case RCat(l, rr):
                s = f"{pp(l, 2)}{pp(rr, 1)}"
                return f"({s})" if level > 1 else s
            case RSum(l, rr):
                s = f"{pp(l, 1)} + {pp(rr, 0)}"
                return f"({s})" if level > 0 else s
        raise TypeError(f"not a regex: {r!r}")

    return pp(r, 0)


class _RegexParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Regex:
        r = self.sum()
        if self.peek():
            raise RegexSyntaxError(
                f"trailing input {self.text[self.pos:]!r} (at position {self.pos})"
            )
        return r

    def sum(self) -> Regex:
        left = self.cat()
        while self.peek() == "+":
            self.pos += 1
            left = RSum(left, self.cat())
        return left

    def cat(self) -> Regex:
        left = self.star()
        while True:
            ch = self.peek()
            if ch == ".":
                self.pos += 1
                left = RCat(left, self.star())
            elif ch and (ch.isalnum() or ch == "("):
                left = RCat(left, self.star())
            else:
                return left

    def star(self) -> Regex:
        r = self.atom()
        while self.peek() == "*":
            self.pos += 1
            r = RStar(r)
        return r

    def atom(self) -> Regex:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            r = self.sum()
            if self.peek() != ")":
                raise RegexSyntaxError(f"expected ')' at position {self.pos}")
            self.pos += 1
            return r
        if ch == "0":
            self.pos += 1
            return RZero()
        if ch == "1":
            self.pos += 1
            return ROne()
        m = _re.match(r"[a-zA-Z]", self.text[self.pos:] if ch else "")
        if m:
            self.pos += 1
            return RLetter(ch)
        raise RegexSyntaxError(f"expected regex atom at position {self.pos}")


def parse_regex(text: str) -> Regex:
    """`0`, `1`, single letters, `+`, juxtaposition or `.`, postfix `*`, parens."""
    return _RegexParser(text).parse()


_ONE = ProdL(LatElem("1"))


def _strip_empty_word(r: Regex) -> Regex:
    """A regex for the same language minus the empty word."""
    match r:
        case RZero() | ROne():
            return RZero()
        case RLetter(_):
            return r
        case RSum(a, b):
            return _rsum(_strip_empty_word(a), _strip_empty_word(b))
        case RCat(a, b):
            if _nullable(a) and _nullable(b):
                return _rsum(
                    _rcat(_strip_empty_word(a), b), _strip_empty_word(b)
                )
            return r
        case RStar(a):
            return _rcat(_strip_empty_word(a), r)
    raise TypeError(f"not a regex: {r!r}")


def regex_to_det(r: Regex) -> Expr:
    """Acceptor expression denoting the same language (the forward translation).

    A star whose body accepts the empty word would put the bound variable at an
    unguarded position; since the star ignores its body's empty word, such
    bodies are first stripped of it (the language is unchanged).
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"x{counter[0]}"

    def go(r: Regex) -> Expr:
        match r:
            case RZero():
                return Empty()
            case ROne():
                return _ONE
            case RLetter(a):
                return ProdR(Act(a, _ONE))
            case RSum(r1, r2):
                return Plus(go(r1), go(r2))
            case RCat(r1, r2):
                return replace_subterm(go(r1), _ONE, go(r2))
            case RStar(r1):
                if _nullable(r1):
                    r1 = _strip_empty_word(r1)
                x = fresh()
                return Mu(x, Plus(replace_subterm(go(r1), _ONE, Var(x)), _ONE))
        raise TypeError(f"not a regex: {r!r}")

    return go(r)


# --- backward translation ---------------------------------------------------


def _rsum(a: Regex, b: Regex) -> Regex:
    if isinstance(a, RZero):
        return b
    if isinstance(b, RZero):
        return a
    return RSum(a, b)


def _rcat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, RZero) or isinstance(b, RZero):
        return RZero()
    if isinstance(a, ROne):
        return b
    if isinstance(b, ROne):
        return a
    return RCat(a, b)


def _rstar(a: Regex) -> Regex:
    if isinstance(a, (RZero, ROne)):
        return ROne()
    return RStar(a)


class _Linear:
    """r = sum of coeff[x].x + const, coefficients variable-free."""

    def __init__(self, coeff: dict[str, Regex], const: Regex):
        self.coeff = coeff
        self.const = const


def _linearize(r: Regex) -> _Linear:
    match r:
        case RVar(x):
            return _Linear({x: ROne()}, RZero())
        case RSum(a, b):
            la, lb = _linearize(a), _linearize(b)
            coeff = dict(la.coeff)
            for x, c in lb.coeff.items():
                coeff[x] = _rsum(coeff[x], c) if x in coeff else c
            return _Linear(coeff, _rsum(la.const, lb.const))
        case RCat(a, b):
            la = _linearize(a)
            if la.coeff:
                raise TypecheckError("variable left of concatenation in equation")
            lb = _linearize(b)
            return _Linear(
                {x: _rcat(a, c) for x, c in lb.coeff.items()}, _rcat(a, lb.const)
            )
        case RStar(a):
            if _linearize(a).coeff:
                raise TypecheckError("variable under star in equation")
            return _Linear({}, r)
        case _:
            return _Linear({}, r)


def _solve_system(equations: dict[str, Regex], order: list[str]) -> dict[str, Regex]:
    """Gaussian elimination with the star rule, last variable first."""
    linear = {x: _linearize(r) for x, r in equations.items()}
    solved: dict[str, Regex] = {}
    for x in reversed(order):
        lin = linear[x]
        self_coeff = lin.coeff.pop(x, RZero())
        star = _rstar(self_coeff)
        lin.coeff = {y: _rcat(star, c) for y, c in lin.coeff.items()}
        lin.const = _rcat(star, lin.const)
        solved[x] = lin
        for y in order:
            if y == x or y not in linear or y in solved:
                continue
            ey = linear[y]
            cx = ey.coeff.pop(x, None)
            if cx is None:
                continue
            for z, c in lin.coeff.items():
                add = _rcat(cx, c)
                ey.coeff[z] = _rsum(ey.coeff[z], add) if z in ey.coeff else add
            ey.const = _rsum(ey.const, _rcat(cx, lin.const))
    # back-substitute into the solved right-hand sides (earlier vars may remain)
    results: dict[str, Regex] = {}
    for x in order:
        lin = solved[x]
        r = lin.const
        for y, c in sorted(lin.coeff.items(), key=lambda kv: order.index(kv[0])):
            r = _rsum(r, _rcat(c, results[y]))
        results[x] = r
    return results


def _strip_mu(e: Expr, mu_vars: dict[Expr, str]) -> Expr:
    """Replace every maximal fixed-point subterm by its assigned variable."""
    if e in mu_vars:
        return Var(mu_vars[e])
    match e:
        case Plus(l, r):
            return Plus(_strip_mu(l, mu_vars), _strip_mu(r, mu_vars))
        case ProdL(i):
            return ProdL(_strip_mu(i, mu_vars))
        case ProdR(i):
            return ProdR(_strip_mu(i, mu_vars))
        case Act(a, i):
            return Act(a, _strip_mu(i, mu_vars))
        case _:
            return e


def det_to_regex(e: Expr) -> Regex:
    """Regular expression for an acceptor expression (the backward translation).

    Fixed points become an equation system: one equation per fixed-point
    subterm, bodies taken with every inner fixed point replaced by its
    variable; missing self-loops and constants default to 0.
    """
    from ..expr import alpha_rename

    e = alpha_rename(e, "q")  # distinct binders so equations are well-keyed

    def trans(e: Expr) -> Regex:
        match e:
            case Empty():
                return RZero()
            case Var(x):
                return RVar(x)
            case ProdL(Empty()) | ProdR(Empty()):
                return RZero()
            case ProdL(LatElem("0")):
                return RZero()
            case ProdL(LatElem("1")):
                return ROne()
            case ProdL(Plus(e1, e2)):
                return _rsum(trans(ProdL(e1)), trans(ProdL(e2)))
            case ProdR(Act(a, inner)):
                return _rcat(RLetter(a), trans(inner))
            case ProdR(Plus(e1, e2)):
                return _rsum(trans(ProdR(e1)), trans(ProdR(e2)))
            case Plus(e1, e2):
                return _rsum(trans(e1), trans(e2))
            case Mu(_, _):
                return solve_mu(e)
        raise TypecheckError("no translation clause applies", e)

    def solve_mu(root: Expr) -> Regex:
        mus = [t for t in subterms(root) if isinstance(t, Mu)]
        order = [t.binder for t in mus]
        mu_vars = {t: t.binder for t in mus}
        equations = {}
        for t in mus:
            body = _strip_mu(t.body, {u: v for u, v in mu_vars.items() if u != t})
            equations[t.binder] = trans(body)
        return _solve_system(equations, order)[root.binder]  # type: ignore[union-attr]

    return trans(e)


# --- independent word oracles ------------------------------------------------


def _nullable(r: Regex) -> bool:
    match r:
        case ROne() | RStar(_):
            return True
        case RSum(a, b):
            return _nullable(a) or _nullable(b)
        case RCat(a, b):
            return _nullable(a) and _nullable(b)
        case _:
            return False


def _deriv(r: Regex, a: str) -> Regex:
    match r:
        case RLetter(b):
            return ROne() if a == b else RZero()
        case RSum(r1, r2):
            return _rsum(_deriv(r1, a), _deriv(r2, a))
        case RCat(r1, r2):
            first = _rcat(_deriv(r1, a), r2)
            if _nullable(r1):
                return _rsum(first, _deriv(r2, a))
            return first
        case RStar(r1):
            return _rcat(_deriv(r1, a), r)
        case _:
            return RZero()


def regex_accepts(r: Regex, word: str) -> bool:
    """Classical derivative-based acceptance."""
    for a in word:
        r = _deriv(r, a)
    return _nullable(r)


def det_accepts(e: Expr, word: str, d: FunctorExpr | None = None) -> bool:
    """Acceptance of a word by an acceptor expression, one derivative per letter.

    The ambient type defaults to 2 x Id^A with the word's letters joined with
    {a, b}; pass the type explicitly to control the alphabet.  Raises
    TypecheckError for any other type and for letters outside the alphabet.
    """
    if d is None:
        from .presets import preset

        letters = sorted(set(word) | {"a", "b"})
        d, _ = preset("dfa", letters)
    match d:
        case Product(Const(lat), Exponent(Id(), alphabet)) if lat.name == "bool2":
            pass
        case _:
            raise TypecheckError(f"acceptor type 2 x Id^A expected, got {pretty_functor(d)}")
    for a in word:
        if a not in alphabet:
            raise TypecheckError(f"letter {a!r} is not in the alphabet {{{', '.join(alphabet)}}}")
        e = delta(d, d, e).right(a).item
    return delta(d, d, e).left.element == "1"
