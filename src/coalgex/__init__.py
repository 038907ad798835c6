"""Generalized regular expressions for coalgebras of non-deterministic functors.

Declare a system type (a functor built from identity, finite join-semilattice
constants, products, biased sums, finite exponents and finite powerset) and
get: a typed expression language for its behaviours, derivative-based
synthesis of finite machines, expression extraction from machine states, and
a bisimulation-based decision procedure for the sound and complete equational
theory.
"""
from .lattice import (
    JoinSemilattice,
    LatticeError,
    Violation,
    bool2,
    builtin_lattices,
    make_lattice,
    powerset,
    unit,
    validate_lattice,
)
from .functor import (
    BiasedSum,
    Const,
    Exponent,
    FinPowerset,
    FunctorExpr,
    FunctorSyntaxError,
    Id,
    Product,
    ingredient_check,
    ingredients,
    parse_functor,
    pretty_functor,
)
from .expr import (
    Act,
    Empty,
    Expr,
    ExprSyntaxError,
    LatElem,
    Mu,
    OrderContext,
    Plus,
    ProdL,
    ProdR,
    Single,
    SumL,
    SumR,
    Var,
    alpha_rename,
    free_vars,
    measure_N,
    order_context_for,
    parse_expr,
    pretty,
    replace,
    replace_subterm,
    substitute,
    term_key,
)
from .typecheck import TypecheckError, closure_cl, typecheck, typechecks
from .fvalue import (
    FBot,
    FCarrier,
    FConst,
    FFun,
    FInl,
    FInr,
    FPair,
    FSet,
    FTop,
    FValue,
    ShapeError,
    carrier_leaves,
    decode_value,
    empty_lift,
    encode_value,
    fmap,
    lifted_related,
    make_ffun,
    make_fset,
    plus_lift,
)
from .derivative import delta
from .coalgebra import Coalgebra, CoalgebraError, reachable, validate_coalgebra
from .synthesis import acie_normal_form, synthesize
from .extraction import extract, extract_all, gamma_of
from .equivalence import (
    Certificate,
    bisimilar,
    canonical_form,
    canonical_order,
    equiv,
    greatest_bisimulation,
    minimize,
)
from .documents import (
    SpecDocument,
    SpecError,
    coalgebra_from_doc,
    coalgebra_to_doc,
    load_spec,
    parse_spec,
    read_coalgebra,
    write_coalgebra,
)
from .dot import write_dot

__version__ = "0.1.0"
