"""The three query workloads: seeded inputs, the timed query, and its oracle.

Each workload yields rounds of queries.  A round has a fixed mix of query
kinds and sizes, so every run measures the same proportions whatever its
seed; the seed decides the concrete inputs (sum shuffles, random machines).
A query's `run` is the only code that is timed; `check` is the oracle and
never trusts the library: expected verdicts are known by construction and
cross-checked by code in this package.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from . import machines


def load_library() -> SimpleNamespace:
    """Import coalgex and collect the entry points the workloads call."""
    import coalgex
    import coalgex.cli
    import coalgex.instances

    return SimpleNamespace(
        main=coalgex.cli.main,
        parse_regex=coalgex.instances.parse_regex,
        regex_to_det=coalgex.instances.regex_to_det,
        regex_accepts=coalgex.instances.regex_accepts,
        preset=coalgex.instances.preset,
        equiv=coalgex.equiv,
        extract=coalgex.extract,
        synthesize=coalgex.synthesize,
        bisimilar=coalgex.bisimilar,
        coalgebra_from_doc=coalgex.coalgebra_from_doc,
    )


@dataclass
class Query:
    label: str
    inputs: dict
    expected: object
    data: dict = field(default_factory=dict)


class Mismatch(Exception):
    """A verdict or output that disagrees with the oracle."""


def _round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# --- regex_equiv ------------------------------------------------------------------


def _sum_text(rng: random.Random, atoms: list[str]) -> str:
    """A seeded ACIE variant of the sum of atoms: shuffled, re-associated,
    possibly with a duplicated summand and a `0` summand."""
    parts = list(atoms)
    if rng.random() < 0.5:
        parts.append(rng.choice(parts))
    if rng.random() < 0.5:
        parts.append("0")
    rng.shuffle(parts)

    def assoc(ps: list[str]) -> str:
        if len(ps) == 1:
            return ps[0]
        cut = rng.randint(1, len(ps) - 1)
        return f"({assoc(ps[:cut])}+{assoc(ps[cut:])})"

    return assoc(parts)


def family_text(letter: str, k: int, rng: random.Random | None = None) -> str:
    """`(a+b)*` `letter` `(a+b)^k`; with rng, an ACIE variant of it."""
    if rng is None:
        return "(a+b)*" + letter + "(a+b)" * k
    star = _sum_text(rng, ["a", "b"])
    mark = _sum_text(rng, [letter]) if rng.random() < 0.5 else letter
    tail = "".join(_sum_text(rng, ["a", "b"]) for _ in range(k))
    return f"{star}*{mark}{tail}"


def family_accepts(letter: str, k: int, word: str) -> bool:
    """Membership in the language of `family_text(letter, k)`: the (k+1)-th
    letter from the end is `letter`."""
    return len(word) > k and word[-(k + 1)] == letter


class RegexEquiv:
    """`equiv(dfa{a,b}, e1, e2)` on R_k = (a+b)*a(a+b)^k, both sides going
    through parse_regex and regex_to_det inside the timed query."""

    name = "regex_equiv"

    def __init__(self, design: dict):
        # per round: (k, pair kind, copies)
        self.mix = [tuple(row) for row in design["mix"]]

    def setup(self, lib: SimpleNamespace) -> dict:
        g, _ = lib.preset("dfa", ["a", "b"])
        return {"functor": g}

    def rounds(self, seed: int):
        for index in itertools.count():
            rng = _round_rng(seed, self.name, index)
            queries = []
            for k, kind, copies in self.mix:
                for _ in range(copies):
                    right = {"pos": ("a", k), "neg_b": ("b", k), "neg_prev": ("a", k - 1)}[kind]
                    queries.append(
                        Query(
                            f"{kind}/k={k}",
                            {"left": family_text("a", k), "right": family_text(*right, rng)},
                            kind == "pos",
                            {"left_lang": ("a", k), "right_lang": right},
                        )
                    )
            rng.shuffle(queries)
            yield queries

    def run(self, q: Query, lib: SimpleNamespace, ctx: dict):
        e1 = lib.regex_to_det(lib.parse_regex(q.inputs["left"]))
        e2 = lib.regex_to_det(lib.parse_regex(q.inputs["right"]))
        return lib.equiv(ctx["functor"], e1, e2).bisimilar

    def verdict(self, outcome) -> object:
        return outcome

    def check(self, q: Query, outcome, lib: SimpleNamespace, cache: dict) -> None:
        if outcome != q.expected:
            raise Mismatch(f"{q.label}: equiv said {outcome}, expected {q.expected}")
        k = q.data["left_lang"][1]
        for side in ("left", "right"):
            key = (q.inputs[side], k)
            if key not in cache:
                cache[key] = _language_agrees(lib, q.inputs[side], q.data[f"{side}_lang"], k + 2)
            if not cache[key]:
                raise Mismatch(f"{q.label}: {q.inputs[side]!r} is not the intended language")
        distinct = any(
            family_accepts(*q.data["left_lang"], w) != family_accepts(*q.data["right_lang"], w)
            for w in _words(k + 2)
        )
        if distinct == q.expected:
            raise Mismatch(f"{q.label}: expected verdict contradicts the word check")


def _words(max_len: int):
    for n in range(max_len + 1):
        for letters in itertools.product("ab", repeat=n):
            yield "".join(letters)


def _language_agrees(lib, text: str, lang: tuple[str, int], max_len: int) -> bool:
    r = lib.parse_regex(text)
    return all(lib.regex_accepts(r, w) == family_accepts(*lang, w) for w in _words(max_len))


# --- machine_bisim ----------------------------------------------------------------


class MachineBisim:
    """`coalgex bisim` and `coalgex minimize --format json` through cli.main on
    seeded random dfa/nfa/lts machine documents."""

    name = "machine_bisim"

    def __init__(self, design: dict, workdir: str):
        # per round: (machine kind, operation, states, copies)
        self.mix = [tuple(row) for row in design["mix"]]
        self.workdir = workdir

    def setup(self, lib: SimpleNamespace) -> dict:
        return {}

    def _write(self, name: str, m: machines.Machine) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(m.doc(), handle)
        return path

    def rounds(self, seed: int):
        for index in itertools.count():
            rng = _round_rng(seed, self.name, index)
            queries = []
            for kind, op, n, copies in self.mix:
                for c in range(copies):
                    m = machines.random_machine(rng, kind, n)
                    stem = f"r{index}-{kind}-{op}-{n}-{c}"
                    if op == "minimize":
                        path = self._write(f"{stem}.json", m)
                        argv = ["minimize", "--coalgebra", path, "--format", "json"]
                        expected = len(set(machines.bisimilarity_classes(m.values).values()))
                        queries.append(Query(f"minimize/{kind}/n={n}", {"argv": argv}, expected))
                        continue
                    other = machines.duplicated(rng, m)
                    if op == "neg":
                        other = machines.flip_point(other)
                    argv = [
                        "bisim",
                        "--c1", self._write(f"{stem}-1.json", m),
                        "--c2", self._write(f"{stem}-2.json", other),
                    ]
                    queries.append(
                        Query(f"bisim_{op}/{kind}/n={n}", {"argv": argv}, op == "pos",
                              {"pair": (m, other)})
                    )
            rng.shuffle(queries)
            yield queries

    def run(self, q: Query, lib: SimpleNamespace, ctx: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.main(q.inputs["argv"])
        return code, out.getvalue()

    def verdict(self, outcome) -> object:
        code, text = outcome
        if code not in (0, 1):
            return ("exit", code)
        if text.startswith("{"):
            return len(json.loads(text)["states"])
        return code == 0

    def check(self, q: Query, outcome, lib: SimpleNamespace, cache: dict) -> None:
        got = self.verdict(outcome)
        if got != q.expected:
            raise Mismatch(f"{q.label}: got {got!r}, expected {q.expected!r}")
        if "pair" in q.data:
            m, other = q.data["pair"]
            if machines.oracle_bisimilar(m, m.point, other, other.point) != q.expected:
                raise Mismatch(f"{q.label}: construction disagrees with the refinement oracle")
            first = outcome[1].split(None, 1)[0].rstrip(";")
            if first != ("bisimilar" if q.expected else "distinguished"):
                raise Mismatch(f"{q.label}: printed verdict {first!r} disagrees with exit code")


# --- kleene_roundtrip -------------------------------------------------------------


class KleeneRoundtrip:
    """extract -> synthesize -> bisimilar against the source machine, on seeded
    random minimal machines."""

    name = "kleene_roundtrip"

    def __init__(self, design: dict):
        # per round: (machine kind, minimal states, copies)
        self.mix = [tuple(row) for row in design["mix"]]

    def setup(self, lib: SimpleNamespace) -> dict:
        kinds = {kind for kind, _, _ in self.mix}
        return {"functors": {kind: lib.preset(kind, ["a", "b"])[0] for kind in kinds}}

    def rounds(self, seed: int):
        for index in itertools.count():
            rng = _round_rng(seed, self.name, index)
            queries = []
            for kind, size, copies in self.mix:
                for _ in range(copies):
                    # draw until the minimal machine has the wanted size; the
                    # draw never looks at what the library does with it
                    while True:
                        m = machines.minimal(machines.random_machine(rng, kind, size + 2))
                        if len(m.values) == size:
                            break
                    queries.append(Query(f"{kind}/states={size}", {"doc": m.doc(), "kind": kind}, True,
                                         {"machine": m}))
            rng.shuffle(queries)
            yield queries

    def run(self, q: Query, lib: SimpleNamespace, ctx: dict):
        source = lib.coalgebra_from_doc(q.inputs["doc"])
        term = lib.extract(source, source.point)
        back = lib.synthesize(ctx["functors"][q.inputs["kind"]], term)
        cert = lib.bisimilar(back, back.point, source, source.point)
        return cert.bisimilar, back

    def verdict(self, outcome) -> object:
        return outcome[0]

    def check(self, q: Query, outcome, lib: SimpleNamespace, cache: dict) -> None:
        verdict, back = outcome
        if verdict is not True:
            raise Mismatch(f"{q.label}: round trip judged not bisimilar to its source")
        values = {s: machines.from_fvalue(v) for s, v in back.transition.items()}
        synthesized = machines.Machine(q.inputs["kind"], values, back.point)
        source = q.data["machine"]
        if not machines.oracle_bisimilar(synthesized, back.point, source, source.point):
            raise Mismatch(f"{q.label}: synthesized machine differs from its source")


def make(name: str, design: dict, workdir: str):
    spec = design["workloads"][name]
    if name == "regex_equiv":
        return RegexEquiv(spec)
    if name == "machine_bisim":
        return MachineBisim(spec, workdir)
    if name == "kleene_roundtrip":
        return KleeneRoundtrip(spec)
    raise KeyError(name)
