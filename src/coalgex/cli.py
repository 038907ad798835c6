"""Command-line interface.

Exit codes: 0 success or positive verdict; 1 negative domain verdict (not
equivalent, word rejected); 2 usage, parse or type errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from .coalgebra import CoalgebraError
from .documents import (
    SpecError,
    coalgebra_to_doc,
    load_spec,
    read_coalgebra,
    write_coalgebra,
)
from .dot import write_dot
from .equivalence import bisimilar, canonical_form, equiv, minimize
from .expr import ExprSyntaxError, order_context_for, pretty
from .extraction import extract
from .functor import FunctorSyntaxError, pretty_functor
from .fvalue import ShapeError, encode_value, fmap
from .instances import (
    PresetError,
    core_to_lts,
    det_to_regex,
    gs_to_core,
    lts_to_core,
    parse_gs,
    parse_lts,
    parse_regex,
    pretty_lts,
    pretty_regex,
    regex_to_det,
    det_accepts,
)
from .instances.guarded import GsSyntaxError
from .instances.lts import LtsSyntaxError
from .instances.regex import RegexSyntaxError
from .derivative import delta
from .lattice import LatticeError
from .synthesis import acie_normal_form, synthesize
from .typecheck import TypecheckError, typecheck

USAGE_ERRORS = (
    SpecError,
    TypecheckError,
    ExprSyntaxError,
    FunctorSyntaxError,
    LatticeError,
    CoalgebraError,
    ShapeError,
    PresetError,
    RegexSyntaxError,
    LtsSyntaxError,
    GsSyntaxError,
    OSError,
)


def _emit_machine(machine, fmt: str) -> None:
    if fmt == "dot":
        sys.stdout.write(write_dot(machine))
    elif fmt == "json":
        print(write_coalgebra(machine))
    else:
        doc = coalgebra_to_doc(machine)
        print(f"functor: {doc['functor']}")
        print(f"states: {', '.join(doc['states'])}" )
        if machine.point:
            print(f"point: {machine.point}")
        for s in machine.states:
            label = machine.labels.get(s)
            suffix = f"  # {label}" if label and label != s else ""
            print(f"  {s} -> {json.dumps(encode_value(machine.transition[s]))}{suffix}")


def _cmd_check(args, spec) -> int:
    e = spec.resolve_expr(args.expr)
    typecheck(e, spec.functor, spec.functor)
    print(f"ok: {pretty(e)} : {pretty_functor(spec.functor)}")
    return 0


def _cmd_delta(args, spec) -> int:
    e = spec.resolve_expr(args.expr)
    value = delta(spec.functor, spec.functor, e)
    print(json.dumps(encode_value(fmap(spec.functor, pretty, value))))
    return 0


def _cmd_synthesize(args, spec) -> int:
    machine = synthesize(spec.functor, spec.resolve_expr(args.expr))
    _emit_machine(machine, args.format)
    return 0


def _cmd_equiv(args, spec) -> int:
    cert = equiv(spec.functor, spec.resolve_expr(args.e1), spec.resolve_expr(args.e2))
    print(str(cert))
    return 0 if cert.bisimilar else 1


def _cmd_normalize(args, spec) -> int:
    e = spec.resolve_expr(args.expr)
    typecheck(e, spec.functor, spec.functor)
    print(pretty(acie_normal_form(e, order_context_for(spec.functor))))
    return 0


def _cmd_canon(args, spec) -> int:
    print(pretty(canonical_form(spec.functor, spec.resolve_expr(args.expr))))
    return 0


def _cmd_accepts(args, spec) -> int:
    e = spec.resolve_expr(args.expr)
    accepted = det_accepts(e, args.word, spec.functor)
    print("accepted" if accepted else "rejected")
    return 0 if accepted else 1


def _state_or_point(state: str | None, machine) -> str:
    state = state or machine.point
    if state is None:
        raise CoalgebraError("no state given and the document has no point")
    return state


def _cmd_extract(args) -> int:
    machine = read_coalgebra(args.coalgebra)
    print(pretty(extract(machine, _state_or_point(args.state, machine))))
    return 0


def _cmd_minimize(args) -> int:
    machine = minimize(read_coalgebra(args.coalgebra))
    _emit_machine(machine, args.format)
    return 0


def _cmd_bisim(args) -> int:
    c1 = read_coalgebra(args.c1)
    c2 = read_coalgebra(args.c2)
    cert = bisimilar(c1, _state_or_point(args.s1, c1), c2, _state_or_point(args.s2, c2))
    print(str(cert))
    return 0 if cert.bisimilar else 1


def _cmd_translate(args, spec) -> int:
    mode = args.mode
    if mode == "regex2d":
        print(pretty(regex_to_det(parse_regex(args.input))))
    elif mode == "d2regex":
        e = spec.resolve_expr(args.input)
        typecheck(e, spec.functor, spec.functor)
        print(pretty_regex(det_to_regex(e)))
    elif mode == "lts2core":
        print(pretty(lts_to_core(parse_lts(args.input))))
    elif mode == "core2lts":
        print(pretty_lts(core_to_lts(spec.resolve_expr(args.input))))
    elif mode == "gs2core":
        from .functor import Const, Exponent, Product

        f = spec.functor
        if not (
            isinstance(f, Product)
            and isinstance(f.left, Const)
            and isinstance(f.right, Exponent)
        ):
            raise SpecError("gs2core needs a guarded-string spec (preset guarded)")
        lattice = f.left.lattice
        letters = f.right.alphabet
        atoms = list(dict.fromkeys(l.split(".", 1)[0] for l in letters))
        actions = list(dict.fromkeys(l.split(".", 1)[1] for l in letters))
        print(pretty(gs_to_core(parse_gs(args.input), lattice, atoms, actions)))
    else:
        raise SpecError(f"unknown translate mode {mode!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalgex",
        description="Generalized regular expressions over coalgebra types: "
        "type checking, synthesis, extraction, equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def with_spec(p):
        p.add_argument("--spec", required=True, help="spec document path")
        return p

    def with_format(p):
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        return p

    p = with_spec(command("check", _cmd_check, "type check an expression"))
    p.add_argument("--expr", required=True)

    p = with_spec(command("delta", _cmd_delta, "one derivative step"))
    p.add_argument("--expr", required=True)

    p = with_format(with_spec(command("synthesize", _cmd_synthesize, "expression to machine")))
    p.add_argument("--expr", required=True)

    p = with_spec(command("equiv", _cmd_equiv, "decide expression equivalence"))
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)

    p = with_spec(command("normalize", _cmd_normalize, "canonical sum normal form"))
    p.add_argument("--expr", required=True)

    p = with_spec(command("canon", _cmd_canon, "canonical class representative"))
    p.add_argument("--expr", required=True)

    p = with_spec(command("accepts", _cmd_accepts, "word acceptance (acceptor types)"))
    p.add_argument("--expr", required=True)
    p.add_argument("--word", required=True)

    p = command("extract", _cmd_extract, "expression from a machine state")
    p.add_argument("--coalgebra", required=True, help="machine document (JSON)")
    p.add_argument("--state")

    p = with_format(command("minimize", _cmd_minimize, "quotient by bisimilarity"))
    p.add_argument("--coalgebra", required=True)

    p = command("bisim", _cmd_bisim, "bisimilarity of two machine states")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument("--s1")
    p.add_argument("--s2")

    p = with_spec(command("translate", _cmd_translate, "surface-syntax translations"))
    p.add_argument(
        "--mode",
        required=True,
        choices=("regex2d", "d2regex", "lts2core", "core2lts", "gs2core"),
    )
    p.add_argument("--input", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "spec" in vars(args):
            return args.func(args, load_spec(args.spec))
        return args.func(args)
    except USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
