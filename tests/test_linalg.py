"""Row-sparse exact products against the dense dot-product formulation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_mat_mul, dense_mat_vec
from refleig import linalg
from refleig.cyclotomic import E, ZERO, Cyclotomic, cyc
from refleig.groups import RMatrix, builtin

# mostly zeros, so that zero rows, zero columns and cancellations all occur
_FRACTIONS = st.sampled_from(
    [Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 7)]
)
_CYCLOTOMICS = st.sampled_from(
    [ZERO] * 6
    + [cyc(1), cyc(-1), cyc(Fraction(1, 2)), E(4), -E(4), E(3), E(5) ** 2, E(8) + E(8) ** 3]
)


def _matrices(entries):
    # (rows, inner, cols) from 1 to 4, so 1 x 1 matrices are drawn too
    return st.tuples(*[st.integers(1, 4)] * 3).flatmap(
        lambda s: st.tuples(
            st.lists(st.lists(entries, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]),
            st.lists(st.lists(entries, min_size=s[2], max_size=s[2]), min_size=s[1], max_size=s[1]),
        )
    )


def _check(a, b, kind):
    product = linalg.mat_mul(a, b)
    assert product == dense_mat_mul(a, b)
    # an entry with no nonzero term is still the field's zero
    assert all(type(x) is kind for row in product for x in row)


@settings(max_examples=150, deadline=None)
@given(_matrices(_FRACTIONS))
def test_sparse_products_match_the_dense_reference_over_q(ab):
    _check(*ab, Fraction)


@settings(max_examples=150, deadline=None)
@given(_matrices(_CYCLOTOMICS))
def test_sparse_products_match_the_dense_reference_over_cyclotomics(ab):
    _check(*ab, Cyclotomic)


def test_zero_matrix_product_is_the_zero_matrix():
    zero = [[ZERO, ZERO], [ZERO, ZERO]]
    ones = [[cyc(1), cyc(2)], [cyc(3), cyc(4)]]
    assert linalg.mat_mul(zero, ones) == zero
    assert linalg.mat_mul(ones, zero) == zero
    assert RMatrix(ones).apply([ZERO, ZERO]) == (ZERO, ZERO)
    assert linalg.mat_mul([[Fraction(0)]], [[Fraction(5)]]) == [[Fraction(0)]]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_CYCLOTOMICS, min_size=n + 1, max_size=n + 1), min_size=n, max_size=n)
))
def test_apply_matches_the_dense_reference(rows):
    # the last entry of each drawn row is the vector's coordinate
    a = [row[:-1] for row in rows]
    v = [row[-1] for row in rows]
    image = RMatrix(a).apply(v)
    assert list(image) == dense_mat_vec(a, v)
    assert all(type(x) is Cyclotomic for x in image)


def _q28_vector(rng, n):
    return [
        Cyclotomic(28, {rng.randrange(28): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(3)})
        for _ in range(n)
    ]


@pytest.mark.parametrize("spec", ["symmetric:4", "hyperoctahedral:3", "dihedral:7"])
def test_apply_matches_the_dense_reference_on_every_element(spec):
    rng = random.Random(28)
    group = builtin(spec)
    for k in group.elements:
        for _ in range(2):
            v = _q28_vector(rng, group.dimension)
            # twice: the second call reads the rows' cached sparsity
            assert list(k.apply(v)) == dense_mat_vec(k.rows, v)
            assert list(k.apply(v)) == dense_mat_vec(k.rows, v)


def test_dot_refuses_vectors_of_unequal_lengths():
    with pytest.raises(ValueError):
        linalg.dot([cyc(1), cyc(2)], [cyc(3)])
    with pytest.raises(ValueError):
        linalg.dot([cyc(1)], [cyc(3), E(4)])
    with pytest.raises(ValueError):
        linalg.dot([Fraction(1)], [Fraction(3), Fraction(4)])
