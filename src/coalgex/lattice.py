"""Finite bounded join-semilattices, declared by explicit join tables.

A lattice here is a finite set of named elements with a total binary join
table, a designated bottom element, and the usual laws (commutativity,
associativity, idempotency, bottom neutral).  Lattices serve as the payload
of constant functors; the derived order is ``b1 <= b2 iff b1 v b2 = b2``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


class LatticeError(ValueError):
    """Structural problem in a lattice declaration."""


@dataclass(frozen=True)
class Violation:
    """First failing lattice law, with the witnessing elements."""

    law: str
    witnesses: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.law} violated at ({', '.join(self.witnesses)})"


@dataclass(frozen=True)
class JoinSemilattice:
    name: str
    elements: tuple[str, ...]
    bottom: str
    # table[i][j] = join(elements[i], elements[j])
    table: tuple[tuple[str, ...], ...]

    def index(self, b: str) -> int:
        try:
            return self.elements.index(b)
        except ValueError:
            raise LatticeError(f"unknown element {b!r} of lattice {self.name}") from None

    def join(self, b1: str, b2: str) -> str:
        return self.table[self.index(b1)][self.index(b2)]

    def leq(self, b1: str, b2: str) -> bool:
        return self.join(b1, b2) == b2


def validate_lattice(lat: JoinSemilattice) -> Violation | None:
    """Check all semilattice laws; None means ok.

    Structural defects (duplicate names, missing bottom, table entries outside
    the element set, wrong table dimensions) raise LatticeError; law failures
    are reported as a Violation naming the first failing law.
    """
    elems = lat.elements
    if not elems:
        raise LatticeError(f"lattice {lat.name} has no elements")
    if len(set(elems)) != len(elems):
        raise LatticeError(f"duplicate element names in lattice {lat.name}")
    if lat.bottom not in elems:
        raise LatticeError(f"bottom {lat.bottom!r} not among elements of {lat.name}")
    if len(lat.table) != len(elems) or any(len(row) != len(elems) for row in lat.table):
        raise LatticeError(f"join table of {lat.name} is not {len(elems)}x{len(elems)}")
    known = set(elems)
    for row in lat.table:
        for entry in row:
            if entry not in known:
                raise LatticeError(f"table entry {entry!r} outside elements of {lat.name}")

    for b1, b2 in combinations(elems, 2):
        if lat.join(b1, b2) != lat.join(b2, b1):
            return Violation("commutativity", (b1, b2))
    for b in elems:
        if lat.join(b, b) != b:
            return Violation("idempotency", (b,))
        if lat.join(lat.bottom, b) != b:
            return Violation("bottom-neutral", (lat.bottom, b))
    for b1 in elems:
        for b2 in elems:
            for b3 in elems:
                if lat.join(b1, lat.join(b2, b3)) != lat.join(lat.join(b1, b2), b3):
                    return Violation("associativity", (b1, b2, b3))
    return None


def make_lattice(
    name: str,
    elements: list[str] | tuple[str, ...],
    bottom: str,
    table: list[list[str]] | tuple[tuple[str, ...], ...],
) -> JoinSemilattice:
    """Build and fully validate a lattice; raises on any defect."""
    lat = JoinSemilattice(name, tuple(elements), bottom, tuple(tuple(r) for r in table))
    bad = validate_lattice(lat)
    if bad is not None:
        raise LatticeError(f"lattice {name}: {bad}")
    return lat


def bool2() -> JoinSemilattice:
    """The two-element lattice {0,1} with 0 as bottom (1 v 0 = 1)."""
    return JoinSemilattice("bool2", ("0", "1"), "0", (("0", "1"), ("1", "1")))


def unit() -> JoinSemilattice:
    """The one-element lattice {*}."""
    return JoinSemilattice("unit", ("*",), "*", (("*",),))


def _subset_name(atoms: tuple[str, ...], mask: int) -> str:
    members = [a for i, a in enumerate(atoms) if mask >> i & 1]
    return "_".join(members) if members else "0"


def powerset(atoms: list[str] | tuple[str, ...], name: str | None = None) -> JoinSemilattice:
    """Powerset of up to four named atoms, with union as join and {} ("0") as bottom.

    Element names are underscore-joined atom names in declared order; used as
    the Boolean-algebra reduct for guarded-string automata.
    """
    atoms = tuple(atoms)
    if not 1 <= len(atoms) <= 4:
        raise LatticeError("powerset lattice supports 1 to 4 atoms")
    if len(set(atoms)) != len(atoms):
        raise LatticeError("duplicate atom names")
    n = len(atoms)
    names = [_subset_name(atoms, m) for m in range(1 << n)]
    table = tuple(
        tuple(names[m1 | m2] for m2 in range(1 << n)) for m1 in range(1 << n)
    )
    return JoinSemilattice(name or f"pow_{'_'.join(atoms)}", tuple(names), "0", table)


def builtin_lattices() -> dict[str, JoinSemilattice]:
    """Lattices available without declaration in spec files."""
    return {"bool2": bool2(), "unit": unit()}
