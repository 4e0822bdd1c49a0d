"""Row-sparse exact products against the dense dot-product formulation."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import dense_mat_mul, dense_mat_vec
from refleig import linalg
from refleig.cyclotomic import E, ZERO, Cyclotomic, cyc

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
    image = linalg.mat_vec(a, [row[0] for row in b])
    assert image == dense_mat_vec(a, [row[0] for row in b])
    assert all(type(x) is kind for x in image)


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
    assert linalg.mat_vec(ones, [ZERO, ZERO]) == [ZERO, ZERO]
    assert linalg.mat_mul([[Fraction(0)]], [[Fraction(5)]]) == [[Fraction(0)]]
