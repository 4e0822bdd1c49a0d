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

from conftest import in_order_invariant_subspace
from refleig import polynomials
from refleig.cyclotomic import E, cyc
from refleig.groups import builtin, parse_group_json
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
from refleig.series import molien


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


# -- Reynolds projections that can add rank ---------------------------------------

SUBSPACE_REFERENCE_SPECS = (
    "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5",
    "hyperoctahedral:2", "hyperoctahedral:3", "hyperoctahedral:4",
    "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:7",
    "dihedral:8", "dihedral:12", "cyclic:3", "cyclic:5", "trivial:2",
)


@pytest.mark.parametrize("spec", SUBSPACE_REFERENCE_SPECS)
def test_invariant_subspace_matches_the_in_order_reference(spec, monkeypatch):
    group = builtin(spec)
    dims = molien(group, 8).coeffs
    calls = []
    original = polynomials.reynolds

    def counted(g, p):
        calls.append(p)
        return original(g, p)

    for d in range(9):
        expected, projected = in_order_invariant_subspace(group, d, int(dims[d]))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(polynomials, "reynolds", counted)
            basis = invariant_subspace(group, d, int(dims[d]))
        assert basis == expected, d
        assert len(calls) <= projected, d


def test_projection_counts_at_the_largest_builtins(monkeypatch):
    calls = []
    original = polynomials.reynolds
    monkeypatch.setattr(
        polynomials, "reynolds", lambda g, p: calls.append(p) or original(g, p)
    )
    for spec, d, dim, most in (
        ("symmetric:5", 5, 7, 7),  # 50 projected in monomial order
        ("hyperoctahedral:4", 8, 5, 5),  # 69 in monomial order
    ):
        calls.clear()
        assert len(invariant_subspace(builtin(spec), d, dim)) == dim
        assert len(calls) <= most, spec


@pytest.mark.parametrize("spec", ["hyperoctahedral:3", "dihedral:6"])
def test_monomials_scaled_by_a_diagonal_element_have_zero_image(spec):
    group = builtin(spec)
    characters = group.diagonal_characters
    assert characters
    skipped = 0
    for d in range(7):
        for e in monomials_of_degree(group.dimension, d):
            if any(sum(a * b for a, b in zip(e, w)) % L for L, w in characters):
                skipped += 1
                assert not reynolds(group, Poly.monomial(group.dimension, e)), e
    assert skipped


def test_diagonal_characters_read_roots_of_unity():
    # diag(E(5), 1) and diag(1, -E(3)) generate 30 diagonal elements;
    # -E(3) has conductor 3 and is zeta_6^5
    group = parse_group_json(
        {"dimension": 2, "generators": [
            [["E(5)", "0"], ["0", "1"]], [["1", "0"], ["0", "-E(3)"]],
        ]}
    )
    characters = group.diagonal_characters
    assert group.order == 30
    assert len(characters) == group.order - 1
    for (L, w), k in zip(characters, group.elements[1:]):
        for i in range(2):
            assert E(L, w[i]) == k.rows[i][i]
    assert builtin("cyclic:5").diagonal_characters == ()
