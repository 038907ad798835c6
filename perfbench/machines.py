"""Benchmark-side machines: seeded generators and an independent bisimulation oracle.

Machines are kept in the coalgex machine-document encoding (plain JSON data:
`{"id": s}`, `{"const": [lat, el]}`, `{"pair": [l, r]}`, `{"inl": v}`,
`{"inr": v}`, `{"bot": true}`, `{"top": true}`, `{"fun": {a: v}}`,
`{"set": [v, ...]}`), so the oracle below shares no code with the library it
checks.  Every machine here is over the alphabet {a, b}.
"""
from __future__ import annotations

import random

ALPHABET = ("a", "b")

FUNCTOR_TEXT = {
    "dfa": "const(bool2) * Id ^ {a,b}",
    "nfa": "const(bool2) * Pow(Id) ^ {a,b}",
    "lts": "const(unit) (+) Pow(Id) ^ {a,b}",
    "partial": "(const(unit) (+) Id) ^ {a,b}",
}


class Machine:
    """A pointed machine: state names, one encoded value per state, a point."""

    def __init__(self, kind: str, values: dict[str, object], point: str):
        self.kind = kind
        self.values = values
        self.point = point

    @property
    def states(self) -> list[str]:
        return list(self.values)

    def doc(self) -> dict:
        return {
            "functor": FUNCTOR_TEXT[self.kind],
            "states": self.states,
            "transition": self.values,
            "point": self.point,
        }


# --- generation -----------------------------------------------------------------


def random_machine(rng: random.Random, kind: str, n: int) -> Machine:
    names = [f"q{i + 1}" for i in range(n)]

    def target() -> dict:
        return {"id": rng.choice(names)}

    def succ_set() -> dict:
        picks = {rng.choice(names) for _ in range(rng.randint(0, 2))}
        return {"set": [{"id": t} for t in sorted(picks)]}

    def bit() -> dict:
        return {"const": ["bool2", rng.choice("01")]}

    def value() -> dict:
        if kind == "dfa":
            return {"pair": [bit(), {"fun": {a: target() for a in ALPHABET}}]}
        if kind == "nfa":
            return {"pair": [bit(), {"fun": {a: succ_set() for a in ALPHABET}}]}
        if kind == "lts":
            roll = rng.random()
            if roll < 0.05:
                return {"top": True}
            if roll < 0.1:
                return {"bot": True}
            if roll < 0.3:
                return {"inl": {"const": ["unit", "*"]}}
            return {"inr": {"fun": {a: succ_set() for a in ALPHABET}}}
        if kind == "partial":
            return {"fun": {a: partial_entry() for a in ALPHABET}}
        raise ValueError(f"unknown machine kind {kind!r}")

    def partial_entry() -> dict:
        roll = rng.random()
        if roll < 0.05:
            return {"top": True}
        if roll < 0.1:
            return {"bot": True}
        if roll < 0.3:
            return {"inl": {"const": ["unit", "*"]}}
        return {"inr": target()}

    return Machine(kind, {s: value() for s in names}, names[0])


def _map_ids(v, f):
    """Copy of an encoded value with every state id passed through f."""
    (key, payload), = v.items()
    if key == "id":
        return {"id": f(payload)}
    if key == "pair":
        return {"pair": [_map_ids(payload[0], f), _map_ids(payload[1], f)]}
    if key in ("inl", "inr"):
        return {key: _map_ids(payload, f)}
    if key == "fun":
        return {"fun": {a: _map_ids(x, f) for a, x in payload.items()}}
    if key == "set":
        members = {}
        for m in payload:
            m2 = _map_ids(m, f)
            members[repr(m2)] = m2
        return {"set": [members[k] for k in sorted(members)]}
    return v


def state_ids(v) -> list[str]:
    """State ids inside an encoded value, in traversal order."""
    out: list[str] = []
    _map_ids(v, lambda s: out.append(s) or s)
    return out


def duplicated(rng: random.Random, m: Machine) -> Machine:
    """Two copies of every state, each transition redirected to a random copy.

    Each state and its copy are bisimilar to the original state.
    """
    def pick(s: str) -> str:
        return s if rng.random() < 0.5 else f"{s}c"

    values = {}
    for s in m.states:
        values[s] = _map_ids(m.values[s], pick)
    for s in m.states:
        values[f"{s}c"] = _map_ids(m.values[s], pick)
    return Machine(m.kind, values, m.point)


def flip_point(m: Machine) -> Machine:
    """The machine with the point's own observation changed.

    The changed observation is compared before any successor, so the new point
    is distinguished from the old one.
    """
    v = m.values[m.point]
    (key, payload), = v.items()
    if key == "pair":
        lat, el = payload[0]["const"]
        new = {"pair": [{"const": [lat, "1" if el == "0" else "0"]}, payload[1]]}
    elif key == "inl":
        new = {"inr": {"fun": {a: {"set": []} for a in ALPHABET}}}
    elif key in ("inr", "bot", "top"):
        new = {"inl": {"const": ["unit", "*"]}}
    else:
        raise ValueError(f"cannot flip value {v!r}")
    return Machine(m.kind, {**m.values, m.point: new}, m.point)


# --- the oracle -------------------------------------------------------------------


def _signature(v, block: dict[str, int]):
    (key, payload), = v.items()
    if key == "id":
        return block[payload]
    if key == "const":
        return ("k", payload[0], payload[1])
    if key == "pair":
        return ("p", _signature(payload[0], block), _signature(payload[1], block))
    if key in ("inl", "inr"):
        return (key, _signature(payload, block))
    if key == "fun":
        return ("f",) + tuple(_signature(payload[a], block) for a in sorted(payload))
    if key == "set":
        return ("s", frozenset(_signature(x, block) for x in payload))
    return (key,)


def bisimilarity_classes(values: dict[str, object]) -> dict[str, int]:
    """Block number per state of the coarsest bisimulation (Moore refinement)."""
    block = {s: 0 for s in values}
    count = 1
    while True:
        ids: dict = {}
        new = {
            s: ids.setdefault((block[s], _signature(v, block)), len(ids))
            for s, v in values.items()
        }
        if len(ids) == count:
            return new
        block, count = new, len(ids)


def oracle_bisimilar(m1: Machine, s1: str, m2: Machine, s2: str) -> bool:
    union = {f"L{s}": _map_ids(v, lambda t: f"L{t}") for s, v in m1.values.items()}
    union.update({f"R{s}": _map_ids(v, lambda t: f"R{t}") for s, v in m2.values.items()})
    block = bisimilarity_classes(union)
    return block[f"L{s1}"] == block[f"R{s2}"]


def minimal(m: Machine) -> Machine:
    """The quotient of the part reachable from the point, states renamed q1..qn."""
    order = [m.point]
    for s in order:
        for t in state_ids(m.values[s]):
            if t not in order:
                order.append(t)
    reach = {s: m.values[s] for s in order}
    block = bisimilarity_classes(reach)
    rep: dict[int, str] = {}
    for s in order:
        rep.setdefault(block[s], f"q{len(rep) + 1}")
    values = {}
    for s in order:
        name = rep[block[s]]
        if name not in values:
            values[name] = _map_ids(reach[s], lambda t: rep[block[t]])
    return Machine(m.kind, values, rep[block[m.point]])


def from_fvalue(v) -> dict:
    """Encode a coalgex transition value by reading its fields (no library calls)."""
    name = type(v).__name__
    if name == "FCarrier":
        return {"id": v.item}
    if name == "FConst":
        return {"const": [v.lattice, v.element]}
    if name == "FPair":
        return {"pair": [from_fvalue(v.left), from_fvalue(v.right)]}
    if name == "FInl":
        return {"inl": from_fvalue(v.inner)}
    if name == "FInr":
        return {"inr": from_fvalue(v.inner)}
    if name == "FBot":
        return {"bot": True}
    if name == "FTop":
        return {"top": True}
    if name == "FFun":
        return {"fun": {a: from_fvalue(x) for a, x in v.entries}}
    if name == "FSet":
        return {"set": [from_fvalue(x) for x in v.members]}
    raise TypeError(f"not a transition value: {v!r}")
