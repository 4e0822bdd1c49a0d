"""Polynomial algebra: group action, Reynolds averaging, apolarity pairing.

The differential-operator application is cross-checked against sympy, which
serves as the independent oracle for every frozen value used elsewhere.
"""

import gc
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from refleig.cyclotomic import E, cyc
from refleig.groups import builtin
from refleig.parsing import format_poly, parse_poly
from refleig.polynomials import (
    Poly,
    act,
    diff_apply,
    invariant_subspace,
    jacobian_independent,
    monomials_of_degree,
    reynolds,
)


def P(text, nvars=2):
    return parse_poly(text, nvars)


def test_graded_lex_monomial_order():
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    sq = P("(x1 + x2)^2")
    assert sq.ordered_monomials() == [(2, 0), (1, 1), (0, 2)]
    assert P("x1*x2 + x2^3").leading_monomial() == (0, 3)


def test_poly_format_round_trip():
    for text in ("x1^2 + x2^2", "(1/2)*x1 - x2^3", "0", "E(3)*x1*x2"):
        p = P(text)
        assert parse_poly(format_poly(p), 2) == p


def test_evaluate_and_substitute():
    p = P("x1^2 - 3*x1*x2^2")
    assert p.evaluate((cyc(2), cyc(1))) == -2
    doubled = p.substitute([Poly.variable(2, 0) * cyc(2), Poly.variable(2, 1)])
    assert doubled == P("4*x1^2 - 6*x1*x2^2")


def test_evaluate_leaves_no_reference_cycle():
    # the power table must be freed by reference counting, not left for the
    # cyclic collector
    p = P("x1^5 - 3*x1*x2^4 + E(4)*x2^3")
    gc.collect()
    gc.disable()
    try:
        for k in range(20):
            p.evaluate((cyc(k), E(4) * k))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_action_on_coordinates_is_contragredient():
    group = builtin("dihedral:6")
    rot = group.elements[group.generator_indices[0]]
    x1 = Poly.variable(2, 0)
    moved = act(rot, x1)
    # coordinate functions pick up the matrix row-wise
    expected = Poly.variable(2, 0) * rot.rows[0][0] + Poly.variable(2, 1) * rot.rows[1][0]
    assert moved == expected


_D5 = builtin("dihedral:5")


@st.composite
def small_polys(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            st.integers(min_value=-4, max_value=4),
            max_size=4,
        )
    )
    acc = Poly.zero(2)
    for exps, c in terms.items():
        acc = acc + Poly.monomial(2, exps, cyc(c))
    return acc


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    small_polys(),
)
def test_action_composition(i, j, p):
    k1 = _D5.elements[i]
    k2 = _D5.elements[j]
    assert act(k1 * k2, p) == act(k1, act(k2, p))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=9), small_polys(), small_polys())
def test_action_is_multiplicative(i, p, q):
    k = _D5.elements[i]
    assert act(k, p * q) == act(k, p) * act(k, q)


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_sums_are_exact_and_store_no_zero(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert not (p - p).terms
    for total in (p + q, p * q, diff_apply(p, q)):
        assert all(total.terms.values())
    point = (E(5), cyc(-2))
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert Poly.zero(2).evaluate(point) == 0


def _substituted(k, p):
    """p(k^T x) by `Poly.substitute`, a reference sharing no code with `act`."""
    n = k.dimension
    images = [
        sum((Poly.variable(n, j) * k.rows[j][i] for j in range(n)), Poly.zero(n))
        for i in range(n)
    ]
    return p.substitute(images)


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_reynolds_is_the_mean_of_the_images(p):
    total = Poly.zero(2)
    for k in _D5.elements:
        image = act(k, p)
        assert image == _substituted(k, p)
        total = total + image
    mean = reynolds(_D5, p)
    assert mean == total * Fraction(1, _D5.order)
    assert all(mean.terms.values())


def test_reynolds_projects_onto_invariants():
    group = builtin("dihedral:6")
    r = reynolds(group, P("x1^2"))
    assert r == P("(1/2)*x1^2 + (1/2)*x2^2")
    for k in group.elements:
        assert act(k, r) == r
    assert reynolds(group, r) == r


def test_reynolds_kills_odd_degrees():
    group = builtin("dihedral:4")
    assert reynolds(group, P("x1^3")) == Poly.zero(2)


# -- differential operator application vs sympy ---------------------------------


def _to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.to_fraction())
        for s, e in zip(symbols, exps):
            term *= s**e
        expr += term
    return sympy.expand(expr)


def _sympy_diff_apply(op, f, symbols):
    out = sympy.Integer(0)
    fe = _to_sympy(f, symbols)
    for exps, c in op.terms.items():
        d = fe
        for s, e in zip(symbols, exps):
            d = sympy.diff(d, s, e)
        out += sympy.Rational(c.to_fraction()) * d
    return sympy.expand(out)


def test_diff_apply_frozen_value():
    # the quadratic invariant paired with itself
    p = P("x1^2 + x2^2")
    result = diff_apply(p, p)
    assert result == Poly.constant(2, cyc(4))
    symbols = sympy.symbols("x1 x2")
    assert _sympy_diff_apply(p, p, symbols) == 4


def test_diff_apply_random_against_sympy():
    rng = random.Random(42)
    symbols = sympy.symbols("x1 x2")
    for _ in range(25):
        op = Poly.zero(2)
        f = Poly.zero(2)
        for _ in range(3):
            op = op + Poly.monomial(
                2,
                (rng.randint(0, 2), rng.randint(0, 2)),
                cyc(Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
            )
            f = f + Poly.monomial(
                2,
                (rng.randint(0, 4), rng.randint(0, 4)),
                cyc(rng.randint(-5, 5)),
            )
        ours = _to_sympy(diff_apply(op, f), symbols)
        assert ours == _sympy_diff_apply(op, f, symbols)


def test_diff_apply_grading():
    op = P("x1*x2")
    f = P("x1^3*x2 + x1*x2^3")
    out = diff_apply(op, f)
    assert {sum(e) for e in out.terms} == {2}
    assert diff_apply(P("x1^4"), f) == Poly.zero(2)


# -- invariant subspaces and independence ----------------------------------------


def test_invariant_subspace_dimensions_match_series():
    group = builtin("dihedral:4")
    dims = [len(invariant_subspace(group, k)) for k in range(9)]
    assert dims == [1, 0, 1, 0, 2, 0, 2, 0, 3]


def test_invariant_subspace_basis_is_invariant():
    group = builtin("symmetric:3")
    for k in (1, 2, 3):
        for p in invariant_subspace(group, k):
            for m in group.elements:
                assert act(m, p) == p


def test_jacobian_independence():
    assert jacobian_independent([P("x1^2 + x2^2"), P("x1^3 - 3*x1*x2^2")])
    assert not jacobian_independent([P("x1^2"), P("x1^4")])
    assert not jacobian_independent([P("x1 + x2"), P("x1 + x2")])
