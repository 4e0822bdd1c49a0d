"""Exact scalar arithmetic: structural identities, field axioms, embeddings.

Numeric reference values were frozen from mpmath evaluations at 60 digits;
structural identities are classical root-of-unity facts checked by hand.
"""

import functools
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import embed_complex, mp_embed
from refleig.cyclotomic import (
    Cyclotomic,
    E,
    I_UNIT,
    ONE,
    ORDER_CAP,
    Reduction,
    ZERO,
    cyc,
    _int_poly_div_exact,
    _poly_modinv,
    _pi_fixed,
    _reduce,
    cis_fixed,
    cyclotomic_polynomial,
    euler_phi,
    prime_factors,
    sum_of_products,
)
from refleig.errors import InternalConsistencyError, OrderLimitError
from refleig.parsing import format_scalar, parse_scalar
from refleig.polynomials import Poly


def test_basic_roots_of_unity():
    assert E(4) ** 2 == -1
    assert E(8) ** 4 == -1
    assert E(5) ** 5 == 1
    assert E(3) ** 3 == 1
    assert I_UNIT == E(4)


def test_canonicalization_across_orders():
    # zeta_6 = 1 + zeta_3, a conductor drop from 6 to 3
    assert E(6) == 1 + E(3)
    assert hash(E(6)) == hash(1 + E(3))
    # zeta_12^3 = i lives in Q(zeta_4)
    assert E(12) ** 3 == E(4)
    assert (E(12) ** 3).order == 4
    # sqrt(2) from order 8, real detection
    sqrt2 = E(8) + E(8) ** 7
    assert sqrt2.is_real()
    assert sqrt2 * sqrt2 == 2


def test_rational_collapse():
    s = E(3) + E(3) ** 2
    assert s.is_rational()
    assert s.to_fraction() == Fraction(-1)
    assert s.order == 1
    assert sum((E(5) ** k for k in range(1, 5)), ZERO) == -1


def test_zero_and_one():
    assert not ZERO
    assert ONE
    assert ZERO.order == 1
    assert E(7) - E(7) == 0
    assert cyc(0) == ZERO


def test_inverse_and_division():
    a = Fraction(3, 7) + E(7)
    assert a * a.inverse() == 1
    assert (E(9) / E(9)) == 1
    assert E(7) ** -3 == E(7) ** 4
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugation():
    assert E(5).conj() == E(5) ** 4
    a = 2 * E(8) + Fraction(1, 3)
    assert a.conj().conj() == a
    assert (a * a.conj()).is_real()
    assert I_UNIT.conj() == -I_UNIT


def test_embedding_frozen_value():
    # cos(2 pi / 5) = (sqrt(5) - 1) / 4
    c = (E(5) + E(5) ** 4) / 2
    re, im = embed_complex(c)
    assert abs(re - mpmath.mpf("0.309016994374947")) < 1e-14
    assert abs(im) < 1e-15


def test_embedding_high_precision():
    with mpmath.workprec(300):
        re, im = embed_complex(E(7), precision=280)
        target = mpmath.cos(2 * mpmath.pi / 7)
        assert abs(re - target) < mpmath.mpf(2) ** -270


def test_order_cap():
    with pytest.raises(OrderLimitError):
        E(ORDER_CAP * 2)
    with pytest.raises(OrderLimitError):
        E(6553) * E(65521)  # lcm far beyond the cap
    with pytest.raises(OrderLimitError):
        E(64) * E(63)  # each order within the cap, their lcm 4032 past it


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert len(cyclotomic_polynomial(12)) == euler_phi(12) + 1


def test_inexact_polynomial_division_raises():
    # x^2 + 1 is not divisible by x + 1; must fail even under python -O
    with pytest.raises(InternalConsistencyError):
        _int_poly_div_exact([1, 0, 1], [1, 1])


def test_scalar_format_round_trip():
    for text in ("1/2", "-3", "E(3)", "-2*E(8)^3 + 1/2", "E(4)", "0"):
        value = parse_scalar(text)
        assert parse_scalar(format_scalar(value)) == value


_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def scalars(draw):
    order = draw(_orders)
    terms = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=euler_phi(order) - 1),
            _fractions,
            max_size=3,
        )
    )
    acc = ZERO
    for e, c in terms.items():
        acc = acc + E(order) ** e * c
    return acc


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_multiplicative_inverse(a):
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_conj_is_a_ring_map(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_embedding_is_additive(a, b):
    with mpmath.workprec(120):
        re_a, im_a = embed_complex(a, precision=80)
        re_b, im_b = embed_complex(b, precision=80)
        re_s, im_s = embed_complex(a + b, precision=80)
        assert abs((re_a + re_b) - re_s) < mpmath.mpf(2) ** -60
        assert abs((im_a + im_b) - im_s) < mpmath.mpf(2) ** -60


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_structural_equality_implies_equal_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


# -- conductor oracle ---------------------------------------------------------
#
# An independent reference for canonical descent: Q(zeta_d) inside Q(zeta_m)
# is the field fixed by the Galois maps z -> z^j with j = 1 (mod d), so the
# conductor of a value is the smallest d | m whose maps all fix its reduced
# coordinate vector at order m.  Orders cover both descent steps (p^2 | m and
# p || m, also with cofactor above 4).

_ORACLE_ORDERS = (6, 10, 12, 18, 20, 28, 36, 45, 60, 84)


def _fixing_maps(m, d):
    return [j for j in range(1, m) if j % d == 1 % d and math.gcd(j, m) == 1]


def _galois_image(m, terms, j):
    out = {}
    for e, c in terms.items():
        out[e * j % m] = out.get(e * j % m, Fraction(0)) + c
    return out


def _oracle_conductor(m, terms):
    vec = _reduce(m, terms)
    for d in range(1, m + 1):
        if m % d == 0 and all(
            _reduce(m, _galois_image(m, terms, j)) == vec
            for j in _fixing_maps(m, d)
        ):
            return d
    raise AssertionError("d = m always qualifies")


@st.composite
def values_at_order(draw):
    m = draw(st.sampled_from(_ORACLE_ORDERS))
    terms = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=m - 1),
            _fractions.filter(bool),
            min_size=1,
            max_size=4,
        )
    )
    # a trace down to Q(zeta_d) hides the subfield from the exponents; d = 1
    # and d = 2 would only give rationals, which other traces reach anyway
    d = draw(st.sampled_from([d for d in range(3, m + 1) if m % d == 0]))
    traced = {}
    for j in _fixing_maps(m, d):
        for e, c in _galois_image(m, terms, j).items():
            traced[e] = traced.get(e, Fraction(0)) + c
    return m, traced


@settings(max_examples=80, deadline=None)
@given(values_at_order())
def test_conductor_matches_galois_oracle(case):
    m, terms = case
    value = Cyclotomic(m, terms)
    assert value.order == _oracle_conductor(m, terms)
    # promoted back to order m, the canonical coordinates are the value's own
    step = m // value.order
    promoted = {i * step: c for i, c in value.coeffs.items()}
    assert _reduce(m, promoted) == _reduce(m, terms)


# -- reduction modulo a split prime -------------------------------------------

_REDUCTION_ORDERS = (1, 4, 20, 28, 60)
_denominated = st.builds(
    Fraction, st.integers(min_value=-60, max_value=60), st.integers(2, 99)
)


@st.composite
def reducible_values(draw):
    m = draw(st.sampled_from(_REDUCTION_ORDERS))
    terms = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=m - 1), _denominated, max_size=4
        )
    )
    return Cyclotomic(m, terms)


@settings(max_examples=80, deadline=None)
@given(reducible_values(), reducible_values())
def test_reduction_is_a_ring_map(a, b):
    red = Reduction([a, b])
    p = red.p
    ra, rb = red.scalar(a), red.scalar(b)
    assert red.scalar(a + b) == (ra + rb) % p
    assert red.scalar(a * b) == ra * rb % p
    assert red.scalar(-a) == -ra % p
    assert red.scalar(ONE) == 1
    assert red.scalar(ZERO) == 0


def test_reduction_prime_avoids_the_denominators():
    # the first four primes >= 2^20 that are 1 mod 4
    skipped = (1048589, 1048601, 1048609, 1048613)
    x = E(4) * Fraction(1, math.prod(skipped))
    red = Reduction([x])
    assert red.order == 4
    assert red.p % 4 == 1
    assert red.p > max(skipped)
    assert red.scalar(x) * math.prod(skipped) % red.p == red.scalar(E(4))
    f = Poly(2, {(1, 0): x, (0, 1): cyc(red.p)})
    assert red.poly(f) == {(1, 0): red.scalar(x)}
    with pytest.raises(InternalConsistencyError):
        red.scalar(E(3))
    with pytest.raises(InternalConsistencyError):
        red.scalar(cyc(Fraction(1, red.p)))


# -- rational values hash like the numbers they equal --------------------------


def test_rational_values_hash_like_the_numbers_they_equal():
    table = {ONE: "one", cyc(Fraction(1, 2)): "half", Fraction(-3, 7): "q", 5: "five"}
    assert table.get(1) == "one"
    assert table.get(Fraction(1)) == "one"
    assert table.get(Fraction(1, 2)) == "half"
    assert table.get(cyc(Fraction(-3, 7))) == "q"
    assert table.get(cyc(5)) == "five"
    assert table.get(E(3) + E(3) ** 2 + 6) == "five"
    assert {ZERO: "zero"}.get(0) == "zero"
    for q in (0, 1, -1, 7, Fraction(1, 2), Fraction(-22, 7), 2**80):
        assert hash(cyc(q)) == hash(q) == hash(Fraction(q))


def ramanujan_trace(a):
    """The trace of a over Q from Ramanujan sums: the coordinate of z^i
    contributes c_m(i) = mu(d) phi(m) / phi(d), d = m / gcd(m, i)."""
    m = a.order
    total = Fraction(0)
    for i, c in a.coeffs.items():
        d = m // math.gcd(m, i)
        ps = prime_factors(d)
        if math.prod(ps) == d:  # squarefree, so mu(d) = (-1)^len(ps)
            total += c * (-1) ** len(ps) * (euler_phi(m) // euler_phi(d))
    return total


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_trace_is_the_sum_of_the_galois_conjugates(a):
    # `Cyclotomic.galois` gives each conjugate in canonical form, and the
    # conjugates sum to the trace
    m = a.order
    units = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    conjugates = [a.galois(k) for k in units]
    for k, x in zip(units, conjugates):
        # == compares order, denominator and coordinates, so it also holds
        # the image canonical
        assert x == Cyclotomic(m, {i * k: c for i, c in a.coeffs.items()})
    assert a.galois(-1) == a.conj()
    assert len(conjugates) == euler_phi(m)
    total = sum(conjugates, ZERO)
    assert total.is_rational()
    assert ramanujan_trace(a) == total.to_fraction()


@pytest.mark.parametrize("bad", [0.5, 1.0, complex(0.5, 0), "1", Decimal("0.5"), None])
def test_constructor_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        Cyclotomic(4, {0: bad, 1: 1})


# -- reference kernel -----------------------------------------------------------
#
# The Fraction kernel that the integer one replaced, kept as the reference: the
# same closed-form descent, with every coordinate a Fraction.  A reference
# value is (order, {exponent: Fraction}) in canonical form.


@functools.lru_cache(maxsize=None)
def _ref_power(m, e):
    """x^e mod Phi_m as a dense tuple of length phi(m)."""
    phi = euler_phi(m)
    if e < phi:
        return tuple(1 if i == e else 0 for i in range(phi))
    prev = _ref_power(m, e - 1)
    top = prev[-1]
    shifted = (0,) + prev[:-1]
    phi_m = cyclotomic_polynomial(m)
    return tuple(s - top * c for s, c in zip(shifted, phi_m))


def _ref_reduce(m, terms):
    vec = [Fraction(0)] * euler_phi(m)
    for e, c in terms.items():
        if c:
            for i, r in enumerate(_ref_power(m, e % m)):
                if r:
                    vec[i] += c * r
    return vec


def _ref_descend(m, p, vec):
    sub = m // p
    if sub % p == 0:
        if any(c for j, c in enumerate(vec) if j % p):
            return None
        return vec[::p]
    inv_p = pow(p, -1, sub)
    inv_sub = pow(sub, -1, p)
    parts = [{} for _ in range(p)]
    for j, c in enumerate(vec):
        if c:
            parts[j * inv_sub % p][j * inv_p % sub] = c
    cs = [_ref_reduce(sub, t) for t in parts]
    last = cs[-1]
    if any(c != last for c in cs[1:-1]):
        return None
    return [a - b for a, b in zip(cs[0], last)]


def _ref_canonicalize(m, vec):
    while m > 1:
        primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
        for p in primes:
            sub = _ref_descend(m, p, vec)
            if sub is not None:
                m //= p
                vec = sub
                break
        else:
            break
    return m, vec


def _ref_value(m, terms):
    m, vec = _ref_canonicalize(m, _ref_reduce(m, terms))
    return m, {i: c for i, c in enumerate(vec) if c}


def _ref_promoted(a, m):
    step = m // a[0]
    return {i * step: c for i, c in a[1].items()}


def _ref_add(a, b):
    m = math.lcm(a[0], b[0])
    out = _ref_promoted(a, m)
    for e, c in _ref_promoted(b, m).items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_value(m, out)


def _ref_neg(a):
    return a[0], {i: -c for i, c in a[1].items()}


def _ref_mul(a, b):
    m = math.lcm(a[0], b[0])
    prod = {}
    for ea, ca in _ref_promoted(a, m).items():
        for eb, cb in _ref_promoted(b, m).items():
            e = (ea + eb) % m
            prod[e] = prod.get(e, Fraction(0)) + ca * cb
    return _ref_value(m, prod)


def _ref_conj(a):
    return _ref_value(a[0], {-i: c for i, c in a[1].items()})


def _ref_inverse(a):
    m, coeffs = a
    if m == 1:
        return 1, {0: 1 / coeffs[0]}
    phi = euler_phi(m)
    inv = _poly_modinv(
        [coeffs.get(i, Fraction(0)) for i in range(phi)],
        [Fraction(c) for c in cyclotomic_polynomial(m)],
    )
    return _ref_value(m, dict(enumerate(inv)))


def _ref_hash(a):
    m, coeffs = a
    if m == 1:
        return hash(coeffs.get(0, Fraction(0)))
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return hash((m, den, frozenset((i, int(c * den)) for i, c in coeffs.items())))


def _ref_embed(a, precision):
    m, coeffs = a
    with mpmath.workprec(precision + 10):
        acc = mpmath.mpc(0)
        for i, c in coeffs.items():
            root = mpmath.expjpi(mpmath.mpf(2 * i) / m)
            acc += root * mpmath.mpf(c.numerator) / c.denominator
        return +acc


def _canonical(x):
    return x.order, x.coeffs


_KERNEL_ORDERS = (1, 4, 7, 20, 28, 60, 84)
_kernel_fractions = st.builds(
    Fraction, st.integers(min_value=-60, max_value=60), st.integers(1, 99)
)


@st.composite
def kernel_terms(draw):
    m = draw(st.sampled_from(_KERNEL_ORDERS))
    terms = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=m - 1), _kernel_fractions, max_size=4
        )
    )
    return m, terms


@settings(max_examples=120, deadline=None)
@given(kernel_terms(), kernel_terms())
def test_integer_kernel_matches_the_fraction_reference(ta, tb):
    a, b = Cyclotomic(*ta), Cyclotomic(*tb)
    ra, rb = _ref_value(*ta), _ref_value(*tb)
    assert _canonical(a) == ra
    assert _canonical(b) == rb
    for x, rx in ((a, ra), (b, rb)):
        assert math.gcd(x.den, *x.nums.values()) == 1 and x.den > 0
        assert 0 not in x.nums.values()
        assert hash(x) == _ref_hash(rx)
        assert _canonical(-x) == _ref_neg(rx)
        assert _canonical(x.conj()) == _ref_conj(rx)
        assert mp_embed(x, 128) == _ref_embed(rx, 128)
        if x:
            assert _canonical(x.inverse()) == _ref_inverse(rx)
    for value, ref in (
        (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, _ref_neg(rb))),
        (a * b, _ref_mul(ra, rb)),
    ):
        assert _canonical(value) == ref
        assert hash(value) == _ref_hash(ref)
        assert mp_embed(value, 128) == _ref_embed(ref, 128)


_FUSED_ORDERS = (1, 4, 20, 28, 60)


@st.composite
def fused_factors(draw):
    # zero factors come from empty term dicts and from cancellation
    m = draw(st.sampled_from(_FUSED_ORDERS))
    terms = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=m - 1), _kernel_fractions, max_size=3
        )
    )
    return Cyclotomic(m, terms)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(fused_factors(), fused_factors()), max_size=6))
def test_fused_sum_matches_the_chained_reference(pairs):
    reference = ZERO
    for a, b in pairs:
        reference = reference + a * b
    fused = sum_of_products(pairs)
    assert _canonical(fused) == _canonical(reference)
    assert (fused.den, fused.nums) == (reference.den, reference.nums)
    assert hash(fused) == hash(reference)


def test_fused_sum_edge_cases():
    half = cyc(Fraction(1, 2))
    assert sum_of_products([]) is ZERO
    assert sum_of_products([(ZERO, E(28)), (E(20), ZERO)]) is ZERO
    assert sum_of_products([(E(20), E(28) * half)]) == E(20) * E(28) / 2
    # rational factors only scale; the sum may cancel to a rational
    assert sum_of_products([(half, E(4)), (E(4), -half), (cyc(3), half)]) == Fraction(3, 2)
    assert sum_of_products([(E(3), E(3)), (E(3), ONE), (ONE, ONE)]) == ZERO
    with pytest.raises(OrderLimitError):
        sum_of_products([(E(64), ONE), (ONE, E(63))])
    with pytest.raises(OrderLimitError):
        sum_of_products([(E(64), E(63))])


# -- integer fixed-point embedding -------------------------------------------------


def _units(v, q):
    """An mpmath real at scale 2^q."""
    return mpmath.ldexp(v, q)


@pytest.mark.parametrize("q", [1, 64, 138, 500, 1034, 4100])
def test_fixed_pi_is_within_one_unit(q):
    with mpmath.workprec(q + 40):
        assert abs(_pi_fixed(q) - _units(mpmath.pi, q)) <= 1


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([64, 138, 266, 1034, 5000]),
    st.integers(-(1 << 40), 1 << 40),
    st.integers(0, (1 << 64) - 1),
    st.integers(-12, 12),
)
def test_fixed_cis_is_within_one_unit(q, whole, frac, quarter):
    # any angle, and the angles k pi/2 exactly as fixed point holds them,
    # where the reduction mod pi/2 changes its quotient
    for theta in ((whole << q) + (frac << (q - 64)), quarter * _pi_fixed(q - 1)):
        c, s = cis_fixed(theta, q)
        with mpmath.workprec(q + 120):
            t = mpmath.ldexp(theta, -q)
            assert abs(c - _units(mpmath.cos(t), q)) <= 1
            assert abs(s - _units(mpmath.sin(t), q)) <= 1


@settings(max_examples=120, deadline=None)
@given(kernel_terms(), st.sampled_from([64, 138, 1034]))
def test_fixed_embedding_is_within_one_unit(terms, q):
    x = Cyclotomic(*terms)
    re, im = x.embed(q)
    z = mp_embed(x, q + 40)
    with mpmath.workprec(q + 40):
        assert abs(re - _units(z.real, q)) <= 1
        assert abs(im - _units(z.imag, q)) <= 1


@pytest.mark.parametrize(
    "x, re, im",
    [
        (E(4) * 8, 0, 8),
        (-E(4) / 2**80, 0, Fraction(-1, 2**80)),
        (cyc(Fraction(-3, 4)), Fraction(-3, 4), 0),
        (E(4) ** 3 * 5, 0, -5),
    ],
)
def test_fixed_embedding_is_exact_at_the_quarter_turns(x, re, im):
    assert x.embed(100) == (re * 2**100, im * 2**100)
