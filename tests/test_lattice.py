import itertools

import pytest

from coalgex import (
    JoinSemilattice,
    LatticeError,
    bool2,
    make_lattice,
    powerset,
    unit,
    validate_lattice,
)


def test_bool2_is_valid_and_joins():
    lat = bool2()
    assert validate_lattice(lat) is None
    assert lat.join("1", "0") == "1"
    assert lat.join("0", "1") == "1"
    assert lat.bottom == "0"


def test_singleton_lattice():
    lat = unit()
    assert validate_lattice(lat) is None
    assert lat.join("*", "*") == "*"


def test_commutativity_violation_reported_with_witnesses():
    bad = JoinSemilattice("bad", ("0", "1"), "0", (("0", "0"), ("1", "1")))
    v = validate_lattice(bad)
    assert v is not None
    assert v.law == "commutativity"
    assert set(v.witnesses) == {"0", "1"}


def test_structural_errors_raise():
    with pytest.raises(LatticeError):
        validate_lattice(JoinSemilattice("d", ("0", "0"), "0", (("0", "0"), ("0", "0"))))
    with pytest.raises(LatticeError):
        validate_lattice(JoinSemilattice("b", ("0", "1"), "2", (("0", "1"), ("1", "1"))))
    with pytest.raises(LatticeError):
        validate_lattice(JoinSemilattice("t", ("0", "1"), "0", (("0", "x"), ("1", "1"))))
    with pytest.raises(LatticeError):
        validate_lattice(JoinSemilattice("dim", ("0", "1"), "0", (("0", "1"),)))


def test_neutral_and_idempotent_on_every_element():
    for lat in (bool2(), unit(), powerset(["p", "q"])):
        for b in lat.elements:
            assert lat.join(lat.bottom, b) == b
            assert lat.join(b, b) == b


@pytest.mark.parametrize("lat", [bool2(), powerset(["p", "q"]), powerset(["x", "y", "z"])])
def test_join_laws_exhaustively(lat):
    assert validate_lattice(lat) is None
    for b1, b2 in itertools.product(lat.elements, repeat=2):
        assert lat.join(b1, b2) == lat.join(b2, b1)
    for b1, b2, b3 in itertools.product(lat.elements, repeat=3):
        assert lat.join(b1, lat.join(b2, b3)) == lat.join(lat.join(b1, b2), b3)


@pytest.mark.parametrize("lat", [bool2(), powerset(["p", "q"])])
def test_leq_is_a_partial_order(lat):
    elems = lat.elements
    for a in elems:
        assert lat.leq(a, a)
    for a, b in itertools.product(elems, repeat=2):
        if lat.leq(a, b) and lat.leq(b, a):
            assert a == b
    for a, b, c in itertools.product(elems, repeat=3):
        if lat.leq(a, b) and lat.leq(b, c):
            assert lat.leq(a, c)


def test_powerset_structure():
    lat = powerset(["t", "nt"])
    assert set(lat.elements) == {"0", "t", "nt", "t_nt"}
    assert lat.bottom == "0"
    assert lat.join("t", "nt") == "t_nt"
    assert lat.leq("t", "t_nt")
    assert not lat.leq("t_nt", "t")
    with pytest.raises(LatticeError):
        powerset([])
    with pytest.raises(LatticeError):
        powerset(["a", "b", "c", "d", "e"])


def test_make_lattice_rejects_broken_table():
    with pytest.raises(LatticeError):
        make_lattice("m", ["0", "1"], "0", [["0", "0"], ["1", "1"]])
