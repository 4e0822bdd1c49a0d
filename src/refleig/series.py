"""Molien series and exponent-degree extraction.

The Molien series (1/|K|) sum_k det(I - t k)^(-1) is computed exactly: each
characteristic polynomial is found by Faddeev-LeVerrier over the cyclotomic
field.  The summand is a class function, so each distinct polynomial is
inverted once as a truncated power series, weighted by how many elements
share it, and averaged.  det(I - t k) has constant term 1 and coefficients
in Z[zeta_M], M the lcm of their conductors, so its reciprocal comes from
the recurrence b_0 = 1, b_k = -sum a_i b_(k-i) on integer coordinate vectors
with no inverse; for a rational group M = 1 and the vectors are ints.
Coefficients of the result must be nonnegative integers (they are
dimensions); both facts are asserted rather than trusted.

For a pseudo-reflection group the reciprocal series is the finite product
prod (1 - t^d_i); `extract_degrees` recovers the d_i greedily and raises
NotReflectionSeriesError for any series without such a factorization.
`SeriesQ.reciprocal` runs its recurrence on integer numerators over one
common denominator, so a Molien series (integer coefficients, constant term
1) is inverted with integer operations only.
"""

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclotomic import ONE, _common_order, _fold, euler_phi
from .errors import InternalConsistencyError, NotReflectionSeriesError

_QZERO = Fraction(0)
_QONE = Fraction(1)


def _seq_mul(a, b, trunc):
    out = [None] * (trunc + 1)
    for k in range(trunc + 1):
        acc = None
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            term = a[i] * b[k - i]
            acc = term if acc is None else acc + term
        out[k] = acc if acc is not None else a[0] - a[0]
    return out


@dataclass(frozen=True)
class SeriesQ:
    """Power series with exact rational coefficients, truncated inclusively."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k]

    def mul(self, other, trunc=None):
        if trunc is None:
            trunc = min(self.truncation, other.truncation)
        return SeriesQ(_seq_mul(self.coeffs, other.coeffs, trunc))

    def reciprocal(self, trunc=None):
        if trunc is None:
            trunc = self.truncation
        if not self.coeffs[0]:
            raise ZeroDivisionError("series has no reciprocal: zero constant term")
        # self = A / den with integer A; 1/A has coefficients N_k / A_0^(k+1)
        # with N_0 = 1, N_k = -sum_{i>=1} A_i A_0^(i-1) N_(k-i)
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        a0 = nums[0]
        scaled = []
        power = 1
        for a in nums[1 : trunc + 1]:
            scaled.append(a * power)
            power *= a0
        out = [1]
        for _ in range(trunc):
            out.append(-sum(map(operator.mul, scaled, reversed(out))))
        power = 1
        for k, n_k in enumerate(out):
            power *= a0
            out[k] = Fraction(den * n_k, power)
        return SeriesQ(out)

    def truncated(self, trunc):
        if trunc <= self.truncation:
            return SeriesQ(self.coeffs[: trunc + 1])
        return SeriesQ(self.coeffs + (_QZERO,) * (trunc - self.truncation))


@dataclass(frozen=True)
class DegreeVector:
    """Exponent degrees of a reflection group, ascending, product = order."""

    degrees: tuple
    dimension: int
    group_order: int

    def __post_init__(self):
        degs = tuple(sorted(int(d) for d in self.degrees))
        object.__setattr__(self, "degrees", degs)
        if len(degs) != self.dimension:
            raise InternalConsistencyError(
                f"{len(degs)} degrees for dimension {self.dimension}"
            )
        prod = 1
        for d in degs:
            prod *= d
        if prod != self.group_order:
            raise InternalConsistencyError(
                f"degree product {prod} != group order {self.group_order}"
            )

    def product(self):
        return self.group_order

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)


def default_truncation(group) -> int:
    # enough to see the full reciprocal polynomial (degree <= order + n - 1)
    # plus the whole harmonic range
    return max(2 * group.order, group.order + group.dimension + 1, 16)


def _det_one_minus_t(k):
    """Coefficients of det(I - t k) in t, exact, constant term first."""
    n = k.dimension
    cp = linalg.charpoly([list(r) for r in k.rows], ONE)
    # det(sI - k) = sum cp[j] s^j  =>  det(I - t k) = sum cp[n - j] t^j
    return tuple(cp[n - j] for j in range(n + 1))


def _integral_terms(x, order):
    """x in Z[zeta_order] as (exponent, coefficient) pairs, exponents mod order."""
    if x.den != 1:
        raise InternalConsistencyError(
            f"det(I - t k) coefficient {x!r} is not an algebraic integer"
        )
    step = order // x.order
    return tuple((i * step, c) for i, c in x.nums.items())


def _reciprocal_coordinates(det_poly, order, truncation):
    """Coordinates of 1/det(I - t k) in Z[zeta_order], degree by degree.

    b_0 = 1 and b_k = -sum_{i >= 1} a_i b_(k-i), since a_0 = 1; for
    order 1 each b_k is a plain int, else a list of phi(order) ints.
    """
    a = [_integral_terms(c, order) for c in det_poly[1:]]
    if order == 1:
        a = [terms[0][1] if terms else 0 for terms in a]
        b = [1]
        n = len(a)
        for k in range(1, truncation + 1):
            # a_1 b_(k-1) + ... + a_n b_(k-n), fewer terms while k < n
            b.append(-sum(map(operator.mul, a, reversed(b[max(0, k - n) :]))))
        return b
    b = [[1] + [0] * (euler_phi(order) - 1)]
    for k in range(1, truncation + 1):
        full = [0] * order
        for i in range(1, min(k, len(a)) + 1):
            prev = b[k - i]
            for e, c in a[i - 1]:
                for j, v in enumerate(prev, e):
                    if v:
                        full[j % order] -= c * v
        b.append(_fold(order, full))
    return b


def molien(group, truncation=None) -> SeriesQ:
    """Exact Molien series of the group, truncated inclusively."""
    if truncation is None:
        truncation = default_truncation(group)
    multiplicity = Counter(_det_one_minus_t(k) for k in group.elements)
    order = 1
    for det_poly in multiplicity:
        for c in det_poly:
            order = _common_order(order, c.order)
    total = [0 if order == 1 else [0] * euler_phi(order) for _ in range(truncation + 1)]
    for det_poly, count in multiplicity.items():
        if det_poly[0] != 1:
            raise InternalConsistencyError("det(I - t k) must have constant term 1")
        recip = _reciprocal_coordinates(det_poly, order, truncation)
        if order == 1:
            total = [t + count * b for t, b in zip(total, recip)]
        else:
            for t, b in zip(total, recip):
                for j, v in enumerate(b):
                    t[j] += count * v
    out = []
    for idx, c in enumerate(total):
        if order != 1:
            if any(c[1:]):
                raise InternalConsistencyError(
                    f"Molien coefficient {idx} is not rational"
                )
            c = c[0]
        q, r = divmod(c, group.order)
        if r or q < 0:
            raise InternalConsistencyError(
                f"Molien coefficient {idx} = {Fraction(c, group.order)} "
                "is not a nonnegative integer"
            )
        out.append(q)
    return SeriesQ(out)


def molien_truncated(group, truncation, series=None) -> SeriesQ:
    """`series` cut to `truncation` when it reaches that far, else a fresh Molien series."""
    if series is None or series.truncation < truncation:
        return molien(group, truncation)
    return series.truncated(truncation)


def _poly_divide_linear_factor(p, d):
    """Divide polynomial p (coef list) by (1 - t^d); None when inexact."""
    deg = len(p) - 1
    if deg < d:
        return None
    q = [_QZERO] * (deg - d + 1)
    for i in range(len(q)):
        q[i] = p[i] + (q[i - d] if i - d >= 0 else _QZERO)
    # remainder check: (1 - t^d) q must reproduce p exactly
    check = [_QZERO] * (deg + 1)
    for i, c in enumerate(q):
        check[i] += c
        if i + d <= deg:
            check[i + d] -= c
    if check != list(p):
        return None
    return q


def extract_degrees(series: SeriesQ, dimension: int, group_order: int) -> DegreeVector:
    """Recover exponent degrees from an invariant Hilbert series.

    The reciprocal must terminate as a polynomial that factors completely as
    prod (1 - t^d_i) with exactly `dimension` factors whose degrees multiply
    to `group_order`; otherwise NotReflectionSeriesError is raised.
    """
    bound = group_order + dimension - 1  # max possible degree of the product
    if series.truncation < bound:
        raise ValueError(
            f"series truncated at {series.truncation}; need at least {bound}"
        )
    recip = series.reciprocal().coeffs
    last = 0
    for idx, c in enumerate(recip):
        if c:
            last = idx
    if last > bound:
        raise NotReflectionSeriesError(
            "not a reflection-group invariant series: reciprocal has a "
            f"nonzero coefficient at degree {last} > bound {bound}"
        )
    p = list(recip[: last + 1])
    if p[0] != 1:
        raise NotReflectionSeriesError(
            "not a reflection-group invariant series: reciprocal constant "
            f"term is {p[0]}"
        )
    factors = []
    while len(p) > 1:
        d = next((k for k in range(1, len(p)) if p[k]), None)
        if d is None:
            break
        q = _poly_divide_linear_factor(p, d)
        if q is None:
            raise NotReflectionSeriesError(
                "not a reflection-group invariant series: nonzero remainder "
                f"dividing by (1 - t^{d})"
            )
        factors.append(d)
        p = q
        if len(factors) > dimension:
            raise NotReflectionSeriesError(
                "not a reflection-group invariant series: more than "
                f"{dimension} factors"
            )
    prod = 1
    for d in factors:
        prod *= d
    if len(factors) != dimension or prod != group_order:
        raise NotReflectionSeriesError(
            "not a reflection-group invariant series: "
            f"{len(factors)} factors with product {prod}, expected "
            f"{dimension} factors with product {group_order}"
        )
    return DegreeVector(tuple(factors), dimension, group_order)


def harmonic_hilbert(degrees: DegreeVector, truncation=None) -> SeriesQ:
    """Hilbert series prod (1 + t + ... + t^(d_i - 1)) of the harmonics.

    Always computed as the full polynomial; its coefficient sum equals the
    group order (asserted), then truncated/padded as requested.
    """
    poly = [_QONE]
    for d in degrees:
        # multiply by 1 + t + ... + t^(d-1)
        out = [_QZERO] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            if c:
                for j in range(d):
                    out[i + j] += c
        poly = out
    total = sum(poly)
    if total != degrees.group_order:
        raise InternalConsistencyError(
            f"harmonic Hilbert coefficients sum to {total}, "
            f"expected {degrees.group_order}"
        )
    full = SeriesQ(poly)
    if truncation is None:
        return full
    return full.truncated(truncation)


def binomial_series(dimension: int, truncation: int) -> SeriesQ:
    """(1 - t)^(-n): coefficients C(k + n - 1, n - 1)."""
    from math import comb

    return SeriesQ(
        [Fraction(comb(k + dimension - 1, dimension - 1)) for k in range(truncation + 1)]
    )


def series_identity_check(group, truncation=None, degrees=None, series=None) -> bool:
    """Check molien * harmonic_hilbert = (1 - t)^(-n) up to the truncation.

    Passing an explicit (possibly wrong) degree vector exercises the identity
    as a genuine test rather than a tautology.  A Molien series already at
    hand may be passed as `series` to skip recomputing it.
    """
    if truncation is None:
        truncation = default_truncation(group)
    work_trunc = max(truncation, group.order + group.dimension - 1)
    mol = molien_truncated(group, work_trunc, series)
    if degrees is None:
        degrees = extract_degrees(mol, group.dimension, group.order)
    hh = harmonic_hilbert(degrees, truncation)
    lhs = mol.truncated(truncation).mul(hh, truncation)
    rhs = binomial_series(group.dimension, truncation)
    return lhs.coeffs == rhs.coeffs
