"""File formats: the spec document (lattices + type + named expressions) and
the machine document (JSON).

Spec document, line oriented.  A `#` at the start of a line or after
whitespace starts a comment that runs to the end of the line; any other `#`
is text, as in the lattice literals `l<#1>` and `l[#*]`:

    lattice four {
      elements: 0, p, q, p_q
      bottom: 0
      join 0: 0, p, q, p_q
      join p: p, p, p_q, p_q
      ...
    }
    functor: const(bool2) * Id^{a,b}        # or a preset line:
    preset: dfa alphabet {a, b}
    preset: mealy alphabet {a} lattice four
    preset: guarded atoms {t, nt} actions {p}
    expr E1 = r<a(l<#1>)>

Machine document (JSON): functor text, lattice tables, state list, transition
values in the standard value encoding, optional point.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

from .coalgebra import Coalgebra, CoalgebraError, validate_coalgebra
from .expr import Expr, parse_expr
from .functor import Const, FunctorExpr, ingredients, parse_functor, pretty_functor
from .lattice import JoinSemilattice, LatticeError, builtin_lattices, make_lattice
from .fvalue import decode_value, encode_value
from .instances import preset


class SpecError(ValueError):
    pass


@dataclass
class SpecDocument:
    lattices: dict[str, JoinSemilattice]
    functor: FunctorExpr
    exprs: dict[str, Expr] = field(default_factory=dict)

    def resolve_expr(self, text_or_name: str) -> Expr:
        """A named expression from the document, or inline expression text."""
        if text_or_name in self.exprs:
            return self.exprs[text_or_name]
        return parse_expr(text_or_name)


_LAT_HEAD = re.compile(r"lattice\s+([a-zA-Z][a-zA-Z0-9_]*)\s*\{\s*$")
_SET = re.compile(r"\{([^}]*)\}")
_COMMENT = re.compile(r"(?:^|\s)#")


def _split_names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_spec(text: str) -> SpecDocument:
    lattices = builtin_lattices()
    functor: FunctorExpr | None = None
    exprs: dict[str, Expr] = {}

    lines = text.splitlines()
    i = 0

    def strip_comment(line: str) -> str:
        return _COMMENT.split(line, 1)[0].rstrip()

    while i < len(lines):
        line = strip_comment(lines[i]).strip()
        i += 1
        if not line:
            continue
        m = _LAT_HEAD.match(line)
        if m:
            name = m.group(1)
            if name in lattices and name not in builtin_lattices():
                raise SpecError(f"line {i}: duplicate lattice {name!r}")
            elements: list[str] | None = None
            bottom: str | None = None
            rows: dict[str, list[str]] = {}
            while i < len(lines):
                body = strip_comment(lines[i]).strip()
                i += 1
                if not body:
                    continue
                if body == "}":
                    break
                if body.startswith("elements:"):
                    elements = _split_names(body[len("elements:"):])
                elif body.startswith("bottom:"):
                    bottom = body[len("bottom:"):].strip()
                elif body.startswith("join"):
                    head, _, rest = body.partition(":")
                    row_elem = head[len("join"):].strip()
                    rows[row_elem] = _split_names(rest)
                else:
                    raise SpecError(f"line {i}: unexpected lattice field {body!r}")
            else:
                raise SpecError(f"unterminated lattice block {name!r}")
            if elements is None or bottom is None:
                raise SpecError(f"lattice {name!r} needs elements and bottom")
            try:
                table = [rows[e] for e in elements]
            except KeyError as err:
                raise SpecError(f"lattice {name!r}: missing join row for {err.args[0]!r}")
            try:
                lattices[name] = make_lattice(name, elements, bottom, table)
            except LatticeError as err:
                raise SpecError(f"lattice {name!r}: {err}") from None
            continue
        if line.startswith("functor:"):
            if functor is not None:
                raise SpecError(f"line {i}: functor already declared")
            functor = parse_functor(line[len("functor:"):].strip(), lattices)
            continue
        if line.startswith("preset:"):
            if functor is not None:
                raise SpecError(f"line {i}: functor already declared")
            functor = _parse_preset_line(line[len("preset:"):].strip(), i, lattices)
            continue
        if line.startswith("expr "):
            head, eq, rest = line[len("expr "):].partition("=")
            if not eq:
                raise SpecError(f"line {i}: expected 'expr NAME = ...'")
            name = head.strip()
            if name in exprs:
                raise SpecError(f"line {i}: duplicate expression name {name!r}")
            exprs[name] = parse_expr(rest.strip())
            continue
        raise SpecError(f"line {i}: cannot parse {line!r}")

    if functor is None:
        raise SpecError("spec declares no functor or preset")
    return SpecDocument(lattices=lattices, functor=functor, exprs=exprs)


def _parse_preset_line(
    rest: str, lineno: int, lattices: dict[str, JoinSemilattice]
) -> FunctorExpr:
    parts = rest.split(None, 1)
    if not parts:
        raise SpecError(f"line {lineno}: empty preset")
    name, args = parts[0], parts[1] if len(parts) > 1 else ""

    def named_set(key: str) -> list[str] | None:
        m = re.search(rf"{key}\s*(\{{[^}}]*\}})", args)
        return _split_names(m.group(1)[1:-1]) if m else None

    if name == "guarded":
        atoms = named_set("atoms")
        actions = named_set("actions")
        functor, lats = preset("guarded", atoms=atoms, actions=actions)
        lattices.update(lats)
        return functor
    alphabet = named_set("alphabet")
    if alphabet is None:
        m = _SET.search(args)
        alphabet = _split_names(m.group(1)) if m else None
    lattice = None
    m = re.search(r"lattice\s+([a-zA-Z][a-zA-Z0-9_]*)", args)
    if m:
        try:
            lattice = lattices[m.group(1)]
        except KeyError:
            raise SpecError(f"line {lineno}: unknown lattice {m.group(1)!r}") from None
    functor, lats = preset(name, alphabet=alphabet, lattice=lattice)
    lattices.update(lats)
    return functor


def load_spec(path: str) -> SpecDocument:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise SpecError(f"{path}: {err}") from None
    return parse_spec(text)


# --- machine documents -------------------------------------------------------


def _lattice_doc(lat: JoinSemilattice) -> dict[str, Any]:
    return {
        "elements": list(lat.elements),
        "bottom": lat.bottom,
        "join": [list(row) for row in lat.table],
    }


def coalgebra_to_doc(c: Coalgebra) -> dict[str, Any]:
    lattices = {
        f.lattice.name: _lattice_doc(f.lattice)
        for f in ingredients(c.functor)
        if isinstance(f, Const)
    }
    doc: dict[str, Any] = {
        "functor": pretty_functor(c.functor),
        "lattices": lattices,
        "states": list(c.states),
        "transition": {s: encode_value(c.transition[s]) for s in c.states},
    }
    if c.point is not None:
        doc["point"] = c.point
    if c.labels:
        doc["labels"] = {s: c.labels[s] for s in c.states if s in c.labels}
    return doc


def coalgebra_from_doc(doc: dict[str, Any]) -> Coalgebra:
    if not isinstance(doc, dict):
        raise CoalgebraError("document: expected a JSON object")
    for key in ("functor", "states", "transition"):
        if key not in doc:
            raise CoalgebraError(f"document missing field {key!r}")
    lattices = builtin_lattices()
    for name, lat in (doc.get("lattices") or {}).items():
        try:
            lattices[name] = make_lattice(
                name, lat["elements"], lat["bottom"], lat["join"]
            )
        except (KeyError, LatticeError) as err:
            raise CoalgebraError(f"lattices.{name}: {err}") from None
    functor = parse_functor(doc["functor"], lattices)
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise CoalgebraError("states: expected a list of names")
    transition = {}
    for s in states:
        if s not in doc["transition"]:
            raise CoalgebraError(f"transition missing for state {s!r}")
        try:
            transition[s] = decode_value(functor, doc["transition"][s], f"transition.{s}")
        except Exception as err:
            raise CoalgebraError(str(err)) from None
    c = Coalgebra(
        functor=functor,
        states=tuple(states),
        transition=transition,
        point=doc.get("point"),
        labels=doc.get("labels") or {},
    )
    validate_coalgebra(c)
    return c


def read_coalgebra(path: str) -> Coalgebra:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise CoalgebraError(f"{path}: {err}") from None
    return coalgebra_from_doc(doc)


def write_coalgebra(c: Coalgebra) -> str:
    return json.dumps(coalgebra_to_doc(c), indent=2)
