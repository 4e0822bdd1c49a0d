"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is a finite sum of rational multiples of powers of a primitive m-th
root of unity, stored on the power basis 1, z, ..., z^(phi(m)-1) after
reduction modulo the m-th cyclotomic polynomial.  Canonical forms additionally
descend to the smallest cyclotomic field containing the value (the conductor),
so equality and hashing are structural even across mixed constructions:
E(6)**3 == -1 holds with both sides stored identically.

Descent goes one prime at a time, trying the primes of m in ascending order
and restarting after each successful step.  A step from Q(zeta_m) to
Q(zeta_{m/p}) is closed form, with no linear solve:

- when p^2 | m, z^p generates the subfield and 1, z, ..., z^(p-1) is a basis
  over it, so the value descends exactly when every coordinate at an index
  not divisible by p is zero, and the subfield coordinates are vec[::p];
- otherwise m = p m' with gcd(p, m') = 1 and Q(zeta_m) = Q(zeta_m') (x)
  Q(zeta_p).  Regrouping the value as sum_b c_b zeta_p^b with c_b in
  Q(zeta_m'), it descends exactly when c_1 = ... = c_(p-1), and then equals
  c_0 - c_(p-1).  For p = 2 this always holds: Q(zeta_2m') = Q(zeta_m').

Rational coefficients are `fractions.Fraction` throughout; nothing here is
floating point except the explicit high-precision embedding at the bottom.
`Reduction`, last in the module, maps values into a prime field F_p; it is
the one modular reduction behind every rank certified mod p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import InternalConsistencyError, OrderLimitError

Rational = Fraction

# Mixed-order arithmetic promotes to the lcm of the operand orders; refuse
# promotions past this cap rather than looping on degenerate input.
ORDER_CAP = 1 << 16

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    out = m
    for p in prime_factors(m):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def prime_factors(m: int) -> tuple[int, ...]:
    out = []
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return tuple(out)


def _int_poly_div_exact(num, den):
    # exact division of integer polynomials, low degree first
    num = list(num)
    dlead = den[-1]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], dlead)
        if r:
            raise InternalConsistencyError("inexact integer polynomial division")
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise InternalConsistencyError("integer polynomial division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _int_poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(m: int):
    """x^j mod Phi_m for j in [phi(m), m), as integer coefficient tuples."""
    phi = euler_phi(m)
    p = cyclotomic_polynomial(m)
    rows = {}
    cur = [-c for c in p[:phi]]  # x^phi, since Phi_m is monic
    rows[phi] = tuple(cur)
    for j in range(phi + 1, m):
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            red = rows[phi]
            cur = [a + top * b for a, b in zip(cur, red)]
        rows[j] = tuple(cur)
    return rows


def _reduce(m, terms):
    """Map {exponent: Fraction} with arbitrary int exponents to a dense
    coefficient vector on the basis 1, z, ..., z^(phi(m)-1)."""
    phi = euler_phi(m)
    vec = [_ZERO] * phi
    rows = None
    for e, c in terms.items():
        if not c:
            continue
        e %= m
        if e < phi:
            vec[e] += c
        else:
            if rows is None:
                rows = _reduction_rows(m)
            for i, r in enumerate(rows[e]):
                if r:
                    vec[i] += c * r
    return vec


def _descend(m, p, vec):
    """Coordinates of (m, vec) in Q(zeta_{m/p}), or None when outside it.

    One closed-form step in O(phi(m)) for a prime p | m; the module
    docstring gives both cases.
    """
    sub = m // p
    if sub % p == 0:
        if any(c for j, c in enumerate(vec) if j % p):
            return None
        return vec[::p]
    # z^j = zeta_sub^a zeta_p^b with a = j/p mod sub, b = j/sub mod p (CRT)
    inv_p = pow(p, -1, sub)
    inv_sub = pow(sub, -1, p)
    parts = [{} for _ in range(p)]
    for j, c in enumerate(vec):
        if c:
            parts[j * inv_sub % p][j * inv_p % sub] = c
    cs = [_reduce(sub, t) for t in parts]
    last = cs[-1]
    if any(c != last for c in cs[1:-1]):
        return None
    return [a - b for a, b in zip(cs[0], last)]


def _canonicalize(m, vec):
    """Descend (m, vec) to the conductor of the value it represents."""
    while m > 1:
        for p in prime_factors(m):
            sub = _descend(m, p, vec)
            if sub is not None:
                m //= p
                vec = sub
                break
        else:
            break
    return m, vec


class Cyclotomic:
    """An element of some Q(zeta_m), always held in canonical form."""

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order, terms, _canonical=False):
        if _canonical:
            self.order = order
            self.coeffs = terms
        else:
            if order < 1:
                raise ValueError("cyclotomic order must be >= 1")
            if order > ORDER_CAP:
                raise OrderLimitError(
                    f"order {order} exceeds cap {ORDER_CAP}"
                )
            vec = _reduce(order, terms)
            order, vec = _canonicalize(order, vec)
            self.order = order
            self.coeffs = {i: c for i, c in enumerate(vec) if c}
        self._hash = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        q = Fraction(q)
        return Cyclotomic(1, {0: q} if q else {}, _canonical=True)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyclotomic":
        if m < 1:
            raise ValueError("cyclotomic order must be >= 1")
        return Cyclotomic(m, {k: _ONE})

    # -- canonical data ------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, frozenset(self.coeffs.items())))
        return self._hash

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        from .parsing import format_scalar

        return f"Cyclotomic({format_scalar(self)!r})"

    # -- predicates ----------------------------------------------------------

    def is_rational(self) -> bool:
        return self.order == 1

    def is_real(self) -> bool:
        return self.conj() == self

    def to_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError("value is not rational")
        return self.coeffs.get(0, _ZERO)

    # -- field operations ----------------------------------------------------

    def _promoted(self, order):
        if order == self.order:
            return {i: c for i, c in self.coeffs.items()}
        step = order // self.order
        return {i * step: c for i, c in self.coeffs.items()}

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = _common_order(self.order, other.order)
        a = self._promoted(m)
        for e, c in other._promoted(m).items():
            a[e] = a.get(e, _ZERO) + c
        return Cyclotomic(m, a)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(
            self.order, {i: -c for i, c in self.coeffs.items()}, _canonical=True
        )

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.order == 1:
            q = other.coeffs.get(0, _ZERO)
            if not q:
                return ZERO
            return Cyclotomic(
                self.order,
                {i: c * q for i, c in self.coeffs.items()},
                _canonical=True,
            )
        if self.order == 1:
            return other.__mul__(self)
        m = _common_order(self.order, other.order)
        a = self._promoted(m)
        b = other._promoted(m)
        prod = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = (ea + eb) % m
                prod[e] = prod.get(e, _ZERO) + ca * cb
        return Cyclotomic(m, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self.coeffs:
            raise ZeroDivisionError("division by cyclotomic zero")
        m = self.order
        if m == 1:
            return Cyclotomic.from_rational(1 / self.coeffs[0])
        phi = euler_phi(m)
        a = [self.coeffs.get(i, _ZERO) for i in range(phi)]
        mod = [Fraction(c) for c in cyclotomic_polynomial(m)]
        inv = _poly_modinv(a, mod)
        return Cyclotomic(m, {i: c for i, c in enumerate(inv) if c})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__mul__(self.inverse())

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugation: the Galois map zeta -> zeta^(-1)."""
        if self.order == 1:
            return self
        vec = _reduce(self.order, {-i: c for i, c in self.coeffs.items()})
        return Cyclotomic(
            self.order, {i: c for i, c in enumerate(vec) if c}, _canonical=True
        )

    # -- numeric embedding ---------------------------------------------------

    def embed(self, precision: int = 53):
        """Value as an mpmath complex number at `precision` bits."""
        with mpmath.workprec(precision + 10):
            acc = mpmath.mpc(0)
            for i, c in self.coeffs.items():
                root = mpmath.expjpi(mpmath.mpf(2 * i) / self.order)
                acc += root * mpmath.mpf(c.numerator) / c.denominator
            return +acc


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x)
    return NotImplemented


def _common_order(a, b):
    if a == b:
        return a
    m = a * b // math.gcd(a, b)
    if m > ORDER_CAP:
        raise OrderLimitError(
            f"order promotion to {m} exceeds cap {ORDER_CAP}"
        )
    return m


def _poly_modinv(a, mod):
    """Inverse of polynomial a modulo `mod` over Q (dense, low-first)."""

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def polydivmod(num, den):
        num = list(num)
        q = [_ZERO] * max(0, len(num) - len(den) + 1)
        for i in range(len(q) - 1, -1, -1):
            f = num[i + len(den) - 1] / den[-1]
            q[i] = f
            if f:
                for j, d in enumerate(den):
                    num[i + j] -= f * d
        return q, trim(num)

    # extended Euclid on (a, mod); gcd is a nonzero constant since Phi_m
    # is irreducible over Q and a != 0 has degree < deg Phi_m
    r0, r1 = trim([Fraction(c) for c in mod]), trim(list(a))
    s0, s1 = [], [_ONE]  # coefficients multiplying a
    while len(r1) > 1:
        q, r = polydivmod(r0, r1)
        # s_next = s0 - q * s1
        prod = [_ZERO] * (len(q) + len(s1) - 1) if s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_next = [
            (s0[i] if i < len(s0) else _ZERO) - (prod[i] if i < len(prod) else _ZERO)
            for i in range(max(len(s0), len(prod)))
        ]
        r0, r1 = r1, trim(r)
        s0, s1 = s1, trim(s_next)
    if not r1:
        raise InternalConsistencyError("gcd with irreducible modulus must be a unit")
    g = r1[0]
    inv = [c / g for c in s1]
    # reduce modulo mod once more for safety
    if len(inv) >= len(mod):
        _, inv = polydivmod(inv, [Fraction(c) for c in mod])
    phi = len(mod) - 1
    inv += [_ZERO] * (phi - len(inv))
    return inv[:phi]


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)


def E(m: int, k: int = 1) -> Cyclotomic:
    """The root of unity e^(2 pi i k / m) as an exact value."""
    return Cyclotomic.zeta(m, k)


I_UNIT = E(4)


def cyc(x) -> Cyclotomic:
    """Coerce an int, Fraction, or Cyclotomic to Cyclotomic."""
    out = _coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a cyclotomic value")
    return out


def embed_complex(a: Cyclotomic, precision: int = 53):
    """High-precision complex embedding, returned as an (re, im) mpf pair.

    The absolute error is below 2^(-precision + 4).
    """
    z = a.embed(precision)
    return (z.real, z.imag)


# -- reduction modulo a split prime ----------------------------------------------

_SPLIT_PRIME_MINIMUM = 1 << 20


def _split_prime(m: int, avoid: int) -> int:
    """Smallest prime p >= 2^20 with p = 1 mod m and p not dividing `avoid`.

    p = 1 mod m is exactly the condition for F_p to contain a primitive m-th
    root of unity.
    """
    k = max(1, (_SPLIT_PRIME_MINIMUM - 2) // m + 1)
    while True:
        p = m * k + 1
        if avoid % p and prime_factors(p) == (p,):
            return p
        k += 1


def _root_of_unity_mod(p: int, m: int) -> int:
    """A primitive m-th root of unity in F_p, for a prime p = 1 mod m."""
    factors = prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return pow(g, (p - 1) // m, p)


class Reduction:
    """The ring map Z[zeta_m][1/S] -> F_p fixed by one batch of values.

    m is the lcm of the conductors of the batch and S the primes dividing
    its denominators; p is the smallest prime >= 2^20 with p = 1 mod m
    outside S, and zeta_m goes to a fixed primitive m-th root of unity in
    F_p.  Every value built from the batch by +, - and * lies in the domain,
    so reducing first and computing in F_p gives the reduction of the exact
    result.  A matrix over the domain has reduced rank at most its exact
    rank, since a minor that is nonzero mod p is nonzero.
    """

    __slots__ = ("order", "p", "zeta", "_powers")

    def __init__(self, values):
        m = 1
        den = 1
        for x in values:
            m = math.lcm(m, x.order)
            for c in x.coeffs.values():
                den = math.lcm(den, c.denominator)
        p = _split_prime(m, den)
        zeta = _root_of_unity_mod(p, m)
        powers = [1]
        for _ in range(m - 1):
            powers.append(powers[-1] * zeta % p)
        self.order = m
        self.p = p
        self.zeta = zeta
        self._powers = powers

    def scalar(self, x: Cyclotomic) -> int:
        """The image of x in F_p, as an integer in [0, p)."""
        if self.order % x.order:
            raise InternalConsistencyError(
                f"conductor {x.order} does not divide the reduction order "
                f"{self.order}"
            )
        p = self.p
        step = self.order // x.order
        acc = 0
        for e, c in x.coeffs.items():
            den = c.denominator
            if den % p == 0:
                raise InternalConsistencyError(
                    f"denominator {den} is not invertible mod {p}"
                )
            term = c.numerator * self._powers[e * step]
            acc += term if den == 1 else term * pow(den, -1, p)
        return acc % p

    def poly(self, f) -> dict:
        """A polynomial's terms reduced coefficientwise, zeros dropped."""
        out = {}
        for e, c in f.terms.items():
            r = self.scalar(c)
            if r:
                out[e] = r
        return out
