"""Behaviour expressions: AST, concrete syntax, substitution and term order.

Grammar (lowest precedence first):

    e ::= 'mu' x '.' e          least fixed point, extends as far right as possible
        | e '+' e               right-associative sum
        | 'empty' | x | '#'elem
        | 'l<'e'>' | 'r<'e'>'   product components
        | 'l['e']' | 'r['e']'   biased-sum injections
        | a '(' e ')'           function application (a may be dotted: 'at.sig')
        | '{' e '}'             singleton set
        | '(' e ')'

Identifiers are ``[a-zA-Z][a-zA-Z0-9_]*``; lattice-element names after '#' may
also be digits or '*'.  Lattice literals are resolved against a lattice during
type checking, not at parse time.

What is cached, where, and for how long: each node computes its structural
hash once, when it is built, and keeps it for its lifetime.  Term keys (and
normal forms, see `synthesis`) are memoized per distinct node on the
`OrderContext` they are computed under and live as long as that context;
`term_key` without a context keeps nothing.  A `printer` keeps the texts it
printed as long as it is referenced, and `pretty` uses a fresh one per call.
No module-level table keeps a node alive.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Union


def _node(cls):
    """A frozen dataclass whose hash is computed once, when the node is built.

    The hash combines the node's fields, and a child's hash is already cached,
    so building a node costs one flat tuple hash and hashing it later costs
    nothing, however deep the term.  Equality stays structural.  Copies and
    pickles are rebuilt through the constructor, because string hashes, and
    so the cached ones, differ between processes.
    """
    names = tuple(cls.__annotations__)
    fields = attrgetter(*names) if names else lambda self: ()

    def cache_hash(self) -> None:
        object.__setattr__(self, "_hash", hash((cls, fields(self))))

    cls.__post_init__ = cache_hash
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _cached_hash
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, n) for n in names))
    return cls


def _cached_hash(self) -> int:
    return self._hash


@_node
class Empty:
    pass


@_node
class Var:
    name: str


@_node
class Plus:
    left: "Expr"
    right: "Expr"


@_node
class Mu:
    binder: str
    body: "Expr"


@_node
class LatElem:
    element: str


@_node
class ProdL:
    inner: "Expr"


@_node
class ProdR:
    inner: "Expr"


@_node
class SumL:
    inner: "Expr"


@_node
class SumR:
    inner: "Expr"


@_node
class Act:
    letter: str
    inner: "Expr"


@_node
class Single:
    inner: "Expr"


Expr = Union[Empty, Var, Plus, Mu, LatElem, ProdL, ProdR, SumL, SumR, Act, Single]

KEYWORDS = frozenset({"empty", "mu"})


# ---------------------------------------------------------------------------
# concrete syntax


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_IDENT = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_ELEM = re.compile(r"[a-zA-Z0-9_*]+")
_WS = re.compile(r"\s*")


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        self.pos = _WS.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek_char(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            raise self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            raise self.error("expected identifier")
        self.pos = m.end()
        return m.group()

    def parse(self) -> Expr:
        e = self.sum()
        if not self.at_end():
            raise self.error(f"trailing input {self.text[self.pos:]!r}")
        return e

    def sum(self) -> Expr:
        left = self.item()
        if self.peek_char() == "+":
            self.eat("+")
            return Plus(left, self.sum())
        return left

    def item(self) -> Expr:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if m and m.group() == "mu":
            self.pos = m.end()
            binder = self.ident()
            if binder in KEYWORDS:
                raise self.error(f"{binder!r} cannot be a variable")
            self.eat(".")
            return Mu(binder, self.sum())
        return self.primary()

    def primary(self) -> Expr:
        ch = self.peek_char()
        if ch == "":
            raise self.error("unexpected end of input")
        if ch == "(":
            self.eat("(")
            e = self.sum()
            self.eat(")")
            return e
        if ch == "{":
            self.eat("{")
            e = self.sum()
            self.eat("}")
            return Single(e)
        if ch == "#":
            self.eat("#")
            m = _ELEM.match(self.text, self.pos)
            if m is None:
                raise self.error("expected lattice element after '#'")
            self.pos = m.end()
            return LatElem(m.group())
        name = self.ident()
        if name == "empty":
            return Empty()
        if name == "mu":
            raise self.error("'mu' needs a binder and '.'")
        self.skip_ws()
        nxt = self.text[self.pos] if self.pos < len(self.text) else ""
        if name in ("l", "r") and nxt == "<":
            self.eat("<")
            e = self.sum()
            self.eat(">")
            return ProdL(e) if name == "l" else ProdR(e)
        if name in ("l", "r") and nxt == "[":
            self.eat("[")
            e = self.sum()
            self.eat("]")
            return SumL(e) if name == "l" else SumR(e)
        if nxt == "(":
            self.eat("(")
            e = self.sum()
            self.eat(")")
            return Act(name, e)
        if nxt == ".":
            # dotted action letter, e.g. guarded-string pairs "atom.sigma"
            save = self.pos
            self.pos += 1
            m = _IDENT.match(self.text, self.pos)
            if m and m.group() not in KEYWORDS:
                self.pos = m.end()
                self.skip_ws()
                if self.pos < len(self.text) and self.text[self.pos] == "(":
                    self.eat("(")
                    e = self.sum()
                    self.eat(")")
                    return Act(f"{name}.{m.group()}", e)
            self.pos = save
        return Var(name)


def parse_expr(text: str) -> Expr:
    """Parse the expression surface syntax into an AST."""
    return _ExprParser(text).parse()


def pretty(e: Expr) -> str:
    """Print an expression; `parse_expr(pretty(e)) == e` for every AST."""
    return printer()(e)


def printer() -> Callable[[Expr], str]:
    """A `pretty` that prints each distinct (subterm, position) once.

    The texts are kept as long as the returned function is, so one printer
    labels all the states of a machine, which share most of their subterms.
    """
    texts: dict[tuple[Expr, bool], str] = {}

    def pp(e: Expr, left_of_plus: bool) -> str:
        text = texts.get((e, left_of_plus))
        if text is not None:
            return text
        match e:
            case Empty():
                text = "empty"
            case Var(name):
                text = name
            case LatElem(elem):
                text = f"#{elem}"
            case ProdL(inner):
                text = f"l<{pp(inner, False)}>"
            case ProdR(inner):
                text = f"r<{pp(inner, False)}>"
            case SumL(inner):
                text = f"l[{pp(inner, False)}]"
            case SumR(inner):
                text = f"r[{pp(inner, False)}]"
            case Act(letter, inner):
                text = f"{letter}({pp(inner, False)})"
            case Single(inner):
                text = f"{{{pp(inner, False)}}}"
            case Plus(l, r):
                text = f"{pp(l, True)} + {pp(r, False)}"
                text = f"({text})" if left_of_plus else text
            case Mu(binder, body):
                text = f"mu {binder}. {pp(body, False)}"
                text = f"({text})" if left_of_plus else text
            case _:
                raise TypeError(f"not an expression: {e!r}")
        texts[e, left_of_plus] = text
        return text

    return lambda e: pp(e, False)


# ---------------------------------------------------------------------------
# variables and substitution


def free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Var(name):
            return frozenset({name})
        case Plus(l, r):
            return free_vars(l) | free_vars(r)
        case Mu(binder, body):
            return free_vars(body) - {binder}
        case ProdL(i) | ProdR(i) | SumL(i) | SumR(i) | Act(_, i) | Single(i):
            return free_vars(i)
        case _:
            return frozenset()


def unguarded_vars(e: Expr) -> frozenset[str]:
    """Variables with a free occurrence not under any guarding constructor."""
    match e:
        case Var(name):
            return frozenset({name})
        case Plus(l, r):
            return unguarded_vars(l) | unguarded_vars(r)
        case Mu(binder, body):
            return unguarded_vars(body) - {binder}
        case _:
            return frozenset()


class _FreshNames:
    """Reserved namespace `_v0, _v1, ...`; the parser can never produce these."""

    def __init__(self) -> None:
        self.counter = 0

    def fresh(self) -> str:
        name = f"_v{self.counter}"
        self.counter += 1
        return name


def substitute(e: Expr, x: str, r: Expr, _fresh: _FreshNames | None = None) -> Expr:
    """Capture-avoiding substitution of r for free occurrences of x in e."""
    fresh = _fresh or _FreshNames()
    fv_r = free_vars(r)

    def go(e: Expr) -> Expr:
        match e:
            case Var(name):
                return r if name == x else e
            case Plus(l, rr):
                return Plus(go(l), go(rr))
            case Mu(binder, body):
                if binder == x or x not in free_vars(body):
                    return e
                if binder in fv_r:
                    new = fresh.fresh()
                    body = rename(body, binder, new)
                    return Mu(new, go(body))
                return Mu(binder, go(body))
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


def rename(e: Expr, old: str, new: str) -> Expr:
    """Rename free occurrences of a variable (no capture checks)."""
    return replace(e, old, Var(new))


def replace(e: Expr, x: str, r: Expr) -> Expr:
    """Syntactic replacement {r/x}: substitute without renaming binders of e."""
    match e:
        case Var(name):
            return r if name == x else e
        case Plus(l, rr):
            return Plus(replace(l, x, r), replace(rr, x, r))
        case Mu(binder, body):
            if binder == x:
                return e
            return Mu(binder, replace(body, x, r))
        case ProdL(i):
            return ProdL(replace(i, x, r))
        case ProdR(i):
            return ProdR(replace(i, x, r))
        case SumL(i):
            return SumL(replace(i, x, r))
        case SumR(i):
            return SumR(replace(i, x, r))
        case Act(a, i):
            return Act(a, replace(i, x, r))
        case Single(i):
            return Single(replace(i, x, r))
        case _:
            return e


def replace_subterm(e: Expr, target: Expr, r: Expr) -> Expr:
    """Replace every occurrence of a literal subterm (used by regex translation)."""
    if e == target:
        return r
    match e:
        case Plus(l, rr):
            return Plus(replace_subterm(l, target, r), replace_subterm(rr, target, r))
        case Mu(binder, body):
            return Mu(binder, replace_subterm(body, target, r))
        case ProdL(i):
            return ProdL(replace_subterm(i, target, r))
        case ProdR(i):
            return ProdR(replace_subterm(i, target, r))
        case SumL(i):
            return SumL(replace_subterm(i, target, r))
        case SumR(i):
            return SumR(replace_subterm(i, target, r))
        case Act(a, i):
            return Act(a, replace_subterm(i, target, r))
        case Single(i):
            return Single(replace_subterm(i, target, r))
        case _:
            return e


# ---------------------------------------------------------------------------
# the termination measure


def measure_N(e: Expr) -> int:
    """Nesting of unguarded sums and fixed points; 0 on all guarded heads."""
    match e:
        case Plus(l, r):
            return 1 + max(measure_N(l), measure_N(r))
        case Mu(_, body):
            return 1 + measure_N(body)
        case _:
            return 0


# ---------------------------------------------------------------------------
# the global term order


class OrderContext:
    """Declared-order ranks for lattice elements and alphabet letters.

    Built from a system type; any element or letter not covered falls back to
    name order, so the order is total on all expressions.

    A context also memoizes, per distinct node, the `term_key` and the
    `acie_normal_form` computed under it; the memos live as long as it does.
    """

    def __init__(
        self,
        elem_ranks: dict[str, int] | None = None,
        letter_ranks: dict[str, int] | None = None,
    ):
        self.elem_ranks = elem_ranks or {}
        self.letter_ranks = letter_ranks or {}
        self.term_keys: dict[Expr, tuple] = {}
        self.normal_forms: dict[Expr, Expr] = {}

    def elem_key(self, element: str) -> tuple[int, int, str]:
        if element in self.elem_ranks:
            return (0, self.elem_ranks[element], "")
        return (1, 0, element)

    def letter_key(self, letter: str) -> tuple[int, int, str]:
        if letter in self.letter_ranks:
            return (0, self.letter_ranks[letter], "")
        return (1, 0, letter)


# ranks for `term_key` without a context; its memos stay unused
_DEFAULT_ORDER = OrderContext()


def order_context_for(g) -> OrderContext:
    """Order context from a functor AST: first-declaration ranks win."""
    from .functor import Const, Exponent, ingredients

    elem_ranks: dict[str, int] = {}
    letter_ranks: dict[str, int] = {}
    for f in ingredients(g):
        if isinstance(f, Const):
            for i, el in enumerate(f.lattice.elements):
                elem_ranks.setdefault(el, i)
        elif isinstance(f, Exponent):
            for i, a in enumerate(f.alphabet):
                letter_ranks.setdefault(a, i)
    return OrderContext(elem_ranks, letter_ranks)


# Constructor ranks: Empty < LatElem < Var < ProdL < ProdR < SumL < SumR
#                    < Act < Single < Plus < Mu
def term_key(e: Expr, order: OrderContext | None = None):
    """Sort key of the global term order.

    Under a context, each distinct compound node's key is computed once and
    kept in `order.term_keys`; without one, nothing is kept.
    """
    keys = None if order is None else order.term_keys
    ranks = order or _DEFAULT_ORDER
    match e:
        case Empty():
            return (0,)
        case LatElem(elem):
            return (1, ranks.elem_key(elem))
        case Var(name):
            return (2, name)
    if keys is not None:
        key = keys.get(e)
        if key is not None:
            return key
    match e:
        case ProdL(i):
            key = (3, term_key(i, order))
        case ProdR(i):
            key = (4, term_key(i, order))
        case SumL(i):
            key = (5, term_key(i, order))
        case SumR(i):
            key = (6, term_key(i, order))
        case Act(a, i):
            key = (7, ranks.letter_key(a), term_key(i, order))
        case Single(i):
            key = (8, term_key(i, order))
        case Plus(l, r):
            key = (9, term_key(l, order), term_key(r, order))
        case Mu(binder, body):
            key = (10, binder, term_key(body, order))
        case _:
            raise TypeError(f"not an expression: {e!r}")
    if keys is not None:
        keys[e] = key
    return key


def subterms(e: Expr) -> Iterator[Expr]:
    """All subterms, preorder (binders not unfolded)."""
    yield e
    match e:
        case Plus(l, r):
            yield from subterms(l)
            yield from subterms(r)
        case Mu(_, body):
            yield from subterms(body)
        case ProdL(i) | ProdR(i) | SumL(i) | SumR(i) | Act(_, i) | Single(i):
            yield from subterms(i)
        case _:
            pass


def alpha_rename(e: Expr, prefix: str = "v") -> Expr:
    """Rename binders to `prefix`1, `prefix`2, ... in preorder."""
    counter = [0]

    def go(e: Expr, env: dict[str, str]) -> Expr:
        match e:
            case Var(name):
                return Var(env.get(name, name))
            case Plus(l, r):
                return Plus(go(l, env), go(r, env))
            case Mu(binder, body):
                counter[0] += 1
                new = f"{prefix}{counter[0]}"
                return Mu(new, go(body, {**env, binder: new}))
            case ProdL(i):
                return ProdL(go(i, env))
            case ProdR(i):
                return ProdR(go(i, env))
            case SumL(i):
                return SumL(go(i, env))
            case SumR(i):
                return SumR(go(i, env))
            case Act(a, i):
                return Act(a, go(i, env))
            case Single(i):
                return Single(go(i, env))
            case _:
                return e

    return go(e, {})
