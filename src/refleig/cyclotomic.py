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

Before either case, a nonzero coordinate at an index where no value of the
subfield has one rules the step out, which settles most failed attempts.

Coordinates are integer numerators over one denominator den > 0 with
gcd(den, *nums) = 1 (H. Cohen, GTM 138, section 4.2), so the arithmetic runs
on ints; `Fraction` appears only at the boundary.  Each operator result is
canonicalized; `sum_of_products` canonicalizes a whole sum of products once.
Nothing here is floating point: `Cyclotomic.embed` and `cis_fixed` give
values and phases as integers at a scale 2^q.  `Reduction`, last in the
module, maps values into a prime field F_p; it is the one modular reduction
behind every rank certified mod p.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import InternalConsistencyError, OrderLimitError

Rational = Fraction

# Mixed-order arithmetic promotes to the lcm of the operand orders; refuse
# orders and promotions past this cap, above every builtin conductor (396).
# The reduction tables are quadratic in m: 0.48 s at m = 2040, 1.6 s at 4095.
ORDER_CAP = 1 << 11

_gcd = math.gcd


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
    """x^j mod Phi_m for j in [phi(m), m), as sparse ((i, coeff), ...) rows."""
    phi = euler_phi(m)
    p = cyclotomic_polynomial(m)
    dense = {}
    cur = [-c for c in p[:phi]]  # x^phi, since Phi_m is monic
    dense[phi] = cur
    for j in range(phi + 1, m):
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            cur = [a + top * b for a, b in zip(cur, dense[phi])]
        dense[j] = cur
    return {
        j: tuple((i, r) for i, r in enumerate(row) if r)
        for j, row in dense.items()
    }


def _reduce(m, terms):
    """Map {exponent: coefficient} with arbitrary int exponents to a dense
    coefficient vector on the basis 1, z, ..., z^(phi(m)-1)."""
    phi = euler_phi(m)
    vec = [0] * phi
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
            for i, r in rows[e]:
                vec[i] += c * r
    return vec


def _fold(m, full):
    """Reduce a dense vector indexed by exponents mod m to phi(m) coordinates."""
    phi = euler_phi(m)
    vec = full[:phi]
    if phi < m:
        rows = _reduction_rows(m)
        for e in range(phi, m):
            c = full[e]
            if c:
                for i, r in rows[e]:
                    vec[i] += c * r
    return vec


@lru_cache(maxsize=None)
def _regrouping(m, p):
    """For m = p * sub with gcd(p, sub) = 1: for each basis index j of
    Q(zeta_m), the part b with z^j = zeta_sub^a zeta_p^b and the reduced
    coordinates of zeta_sub^a in Q(zeta_sub) (CRT: a = j/p mod sub,
    b = j/sub mod p)."""
    sub = m // p
    inv_p = pow(p, -1, sub)
    inv_sub = pow(sub, -1, p)
    phi_sub = euler_phi(sub)
    out = []
    for j in range(euler_phi(m)):
        a = j * inv_p % sub
        if a < phi_sub:
            row = ((a, 1),)
        else:
            row = _reduction_rows(sub)[a]
        out.append((j * inv_sub % p, row))
    return tuple(out)


@lru_cache(maxsize=None)
def _off_subfield(m, p):
    """The basis indices of Q(zeta_m) at which no value of Q(zeta_{m/p})
    has a nonzero coordinate: outside the union of the supports of the
    reduced powers z^(p a), a < phi(m/p)."""
    sub = m // p
    support = set()
    for a in range(euler_phi(sub)):
        vec = _reduce(m, {p * a: 1})
        support.update(j for j, c in enumerate(vec) if c)
    return tuple(j for j in range(euler_phi(m)) if j not in support)


def _descend(m, p, vec):
    """Coordinates of (m, vec) in Q(zeta_{m/p}), or None when outside it.

    One closed-form step in O(phi(m)) for a prime p | m; the module
    docstring gives both cases.  A nonzero coordinate off the subfield's
    support (`_off_subfield`) rules the step out first.
    """
    for j in _off_subfield(m, p):
        if vec[j]:
            return None
    sub = m // p
    if sub % p == 0:
        return vec[::p]
    phi_sub = euler_phi(sub)
    cs = [[0] * phi_sub for _ in range(p)]
    for (b, row), c in zip(_regrouping(m, p), vec):
        if c:
            part = cs[b]
            for i, r in row:
                part[i] += c * r
    last = cs[-1]
    for k in range(1, p - 1):
        if cs[k] != last:
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


def _new(order, nums, den):
    """A value from parts already in canonical form."""
    x = object.__new__(Cyclotomic)
    x.order = order
    x.nums = nums
    x.den = den
    x._hash = None
    return x


def _finish(m, vec, den):
    """The canonical value of (m, vec / den) for an integer vector vec."""
    m, vec = _canonicalize(m, vec)
    nums = {i: c for i, c in enumerate(vec) if c}
    if den != 1:
        g = _gcd(den, *nums.values())
        if g != 1:
            nums = {i: c // g for i, c in nums.items()}
            den //= g
    return _new(m, nums, den)


def _rational(n, d):
    """The value n / d for coprime ints n and d > 0."""
    return _new(1, {0: n} if n else {}, d if n else 1)


class Cyclotomic:
    """An element of some Q(zeta_m), always held in canonical form:
    `nums[i] / den` is the coordinate of z^i."""

    __slots__ = ("order", "nums", "den", "_hash")

    def __init__(self, order, terms):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if order > ORDER_CAP:
            # Decimal prints an order of any length (a parsed E(m) may
            # have more digits than str() of an int allows)
            raise OrderLimitError(
                f"order {Decimal(order)} exceeds cap {ORDER_CAP}"
            )
        den = 1
        for c in terms.values():
            if isinstance(c, Fraction):
                den = math.lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(
                    f"cyclotomic coefficients must be int or Fraction, "
                    f"not {type(c).__name__}"
                )
        ints = {
            e: c * den if isinstance(c, int) else c.numerator * (den // c.denominator)
            for e, c in terms.items()
        }
        x = _finish(order, _reduce(order, ints), den)
        self.order = x.order
        self.nums = x.nums
        self.den = x.den
        self._hash = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        q = Fraction(q)
        return _rational(q.numerator, q.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyclotomic":
        if m < 1:
            raise ValueError("cyclotomic order must be >= 1")
        return Cyclotomic(m, {k: 1})

    # -- canonical data ------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The coordinates as {exponent: Fraction}, a fresh dict per call."""
        den = self.den
        return {i: Fraction(c, den) for i, c in self.nums.items()}

    def __bool__(self):
        return bool(self.nums)

    def __hash__(self):
        if self._hash is None:
            if self.order == 1:
                # equal to an int or Fraction, so it must hash like one;
                # hash(Fraction(n, 1)) is hash(n), so an integer needs none
                n = self.nums.get(0, 0)
                self._hash = hash(n) if self.den == 1 else hash(Fraction(n, self.den))
            else:
                self._hash = hash((self.order, self.den, frozenset(self.nums.items())))
        return self._hash

    def __eq__(self, other):
        if type(other) is int:
            if self.order != 1 or self.den != 1:
                return False
            return self.nums.get(0, 0) == other
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.order == other.order
            and self.den == other.den
            and self.nums == other.nums
        )

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
        return Fraction(self.nums.get(0, 0), self.den)

    # -- field operations ----------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other for sign in (1, -1)."""
        if not other.nums:
            return self
        if not self.nums:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        if da == db:
            den, sa, sb = da, 1, sign
        else:
            g = _gcd(da, db)
            sa, sb = db // g, da // g
            den = da * sa
            sb *= sign
        ma, mb = self.order, other.order
        if ma == 1 and mb == 1:
            n = self.nums[0] * sa + other.nums[0] * sb
            g = _gcd(n, den)
            return _rational(n // g, den // g)
        if ma == mb:
            vec = [0] * euler_phi(ma)
            for i, c in self.nums.items():
                vec[i] = c * sa
            for i, c in other.nums.items():
                vec[i] += c * sb
            return _finish(ma, vec, den)
        m = _common_order(ma, mb)
        full = [0] * m
        step = m // ma
        for i, c in self.nums.items():
            full[i * step] = c * sa
        step = m // mb
        for i, c in other.nums.items():
            full[i * step] += c * sb
        return _finish(m, _fold(m, full), den)

    def __add__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, {i: -c for i, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = (other, self) if self.order == 1 else (self, other)
        if b.order == 1:
            if not a.nums or not b.nums:
                return ZERO
            # a canonical value N / D times a rational n / d stays canonical
            # once gcd(n N, D d) = gcd(n, D) gcd(N, d) is divided out, with N
            # the gcd of the numerators
            n, d = b.nums[0], b.den
            g = _gcd(n, a.den)
            if d != 1:
                g *= _gcd(d, *a.nums.values())
            if g == 1:
                nums = {i: c * n for i, c in a.nums.items()}
            else:
                nums = {i: c * n // g for i, c in a.nums.items()}
            return _new(a.order, nums, a.den * d // g)
        m = _common_order(a.order, b.order)
        full = [0] * m
        sa, sb = m // a.order, m // b.order
        terms_b = [(j * sb, cb) for j, cb in b.nums.items()]
        for i, ca in a.nums.items():
            i *= sa
            for j, cb in terms_b:
                e = i + j
                if e >= m:
                    e -= m
                full[e] += ca * cb
        return _finish(m, _fold(m, full), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self.nums:
            raise ZeroDivisionError("division by cyclotomic zero")
        m = self.order
        if m == 1:
            n = self.nums[0]
            return _rational(self.den, n) if n > 0 else _rational(-self.den, -n)
        phi = euler_phi(m)
        a = [Fraction(self.nums.get(i, 0)) for i in range(phi)]
        mod = [Fraction(c) for c in cyclotomic_polynomial(m)]
        # (N / D)^(-1) = D * N^(-1)
        inv = _poly_modinv(a, mod)
        return Cyclotomic(m, {i: c * self.den for i, c in enumerate(inv) if c})

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

    def galois(self, a: int) -> "Cyclotomic":
        """The Galois map zeta -> zeta^a of Q(zeta_m), m the order, for a
        prime to m; it keeps the conductor and the content, so the image is
        canonical as it stands."""
        if self.order == 1:
            return self
        vec = _reduce(self.order, {a * i: c for i, c in self.nums.items()})
        return _new(
            self.order, {i: c for i, c in enumerate(vec) if c}, self.den
        )

    def conj(self) -> "Cyclotomic":
        """Complex conjugation: the Galois map zeta -> zeta^(-1)."""
        return self.galois(-1)

    # -- numeric embedding ---------------------------------------------------

    def embed(self, q: int):
        """The value at scale 2^q as a Gaussian integer (re, im), each part
        within one unit of 2^(-q) and exact when the value is a rational
        multiple of a power of i with an integer value at that scale.

        The roots are read at sum |c_i| / den times more precision, so their
        errors weighted by the coordinates stay below 1/4 unit.
        """
        den = self.den
        nums = self.nums
        total = sum(map(abs, nums.values()))
        table = _table_scale(q + (total // den).bit_length() + 2)
        roots = _root_table(self.order, table)
        re = im = 0
        for i, c in nums.items():
            a, b = roots[i]
            re += c * a
            im += c * b
        d = den << (table - q)
        return (2 * re + d) // (2 * d), (2 * im + d) // (2 * d)


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if type(x) is int:
        return _rational(x, 1)
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


def sum_of_products(pairs) -> Cyclotomic:
    """The sum of a * b over (a, b) pairs of Cyclotomic values, canonicalized
    once rather than once per product and partial sum.

    Every product is accumulated on exponents mod the common order of the
    live pairs, over the lcm of their denominators, as one integer vector;
    it is folded and canonicalized once.  A pair with a rational factor only
    scales the other one, and a pair with a zero factor is skipped.
    """
    live = []
    m = den = 1
    for a, b in pairs:
        if a.nums and b.nums:
            live.append((a, b))
            m = _common_order(_common_order(m, a.order), b.order)
            den = math.lcm(den, a.den * b.den)
    if len(live) < 2:
        return live[0][0] * live[0][1] if live else ZERO
    full = [0] * m
    for a, b in live:
        scale = den // (a.den * b.den)
        if b.order == 1:
            a, b = b, a
        if a.order == 1:
            scale *= a.nums[0]
            step = m // b.order
            for j, c in b.nums.items():
                full[j * step] += c * scale
            continue
        sa, sb = m // a.order, m // b.order
        terms_b = [(j * sb, c * scale) for j, c in b.nums.items()]
        for i, ca in a.nums.items():
            i *= sa
            for j, cb in terms_b:
                e = i + j
                if e >= m:
                    e -= m
                full[e] += ca * cb
    return _finish(m, _fold(m, full), den)


def _poly_modinv(a, mod):
    """Inverse of polynomial a modulo `mod` over Q (dense, low-first)."""
    zero = Fraction(0)

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def polydivmod(num, den):
        num = list(num)
        q = [zero] * max(0, len(num) - len(den) + 1)
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
    s0, s1 = [], [Fraction(1)]  # coefficients multiplying a
    while len(r1) > 1:
        q, r = polydivmod(r0, r1)
        # s_next = s0 - q * s1
        prod = [zero] * (len(q) + len(s1) - 1) if s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_next = [
            (s0[i] if i < len(s0) else zero) - (prod[i] if i < len(prod) else zero)
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
    inv += [zero] * (phi - len(inv))
    return inv[:phi]


ZERO = _rational(0, 1)
ONE = _rational(1, 1)


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


# -- integer fixed-point embedding ----------------------------------------------
#
# A real number v at scale 2^q is an integer within a unit or so of v 2^q, and
# a complex number is a pair of them, a Gaussian integer.  pi comes from
# Machin's formula, and cos and sin from argument reduction mod pi/2, halving
# and a Taylor series (R. P. Brent, J. ACM 23, 1976).  The tables of pi and
# of the roots of unity are cached by scale, and nearby scales share one:
# each is built at a multiple of 64 bits, or of q/16 to q/8 bits past 1024.


def _table_scale(q: int) -> int:
    """The scale a table serves q from: q rounded up to a multiple of
    2^max(6, bit_length(q) - 4)."""
    step = 1 << max(6, q.bit_length() - 4)
    return -(-q // step) * step


def _round_shift(v: int, k: int) -> int:
    """v / 2^k rounded to the nearest integer, for k >= 0."""
    return (v + (1 << (k - 1))) >> k if k else v


def _arctan_inv(x: int, w: int) -> int:
    """arctan(1/x) at scale 2^w for an integer x >= 2, within 2 units a term.

    Each power floor(2^w / x^(2k+1)) is exact, and the division by 2k + 1
    truncates once.
    """
    power = total = (1 << w) // x
    x2 = x * x
    k = 1
    while power:
        power //= x2
        k += 2
        term = power // k
        total += -term if k & 2 else term
    return total


@lru_cache(maxsize=None)
def _pi_table(q: int) -> int:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) at scale 2^q, within one unit.

    At the working scale w = q + guard the two series have about w / 4.6
    and w / 16 terms, each off by under 2 units, so the sum is off by under
    8 w units, below half of 2^guard.
    """
    guard = q.bit_length() + 8
    w = q + guard
    return _round_shift(16 * _arctan_inv(5, w) - 4 * _arctan_inv(239, w), guard)


def _pi_fixed(q: int) -> int:
    """pi at scale 2^q, within one unit."""
    table = _table_scale(q)
    return _round_shift(_pi_table(table), table - q)


def _cis_reduced(r: int, w: int):
    """(cos t, sin t) at scale 2^w for t = r / 2^w with |t| <= pi/4 + 2^-w,
    each within 3/4 unit: 1/4 before the final rounding.

    t is halved h = sqrt(w) / 4 times and h complex squarings undo that.
    The Taylor series of e^(i x) at x = t / 2^h runs as one chain of
    x^(4 floor(k/4)) / k!, one product by x^4 every four terms, summed by
    k mod 4 and put together with x, x^2 and x^3 at the end.  The working
    scale has g = bit_length(w) + 4 guard bits: the chain has at most w
    steps, each off by under 2 units, and the squarings double that error
    h times.
    """
    if not r:
        return 1 << w, 0
    h = max(1, math.isqrt(w) // 4)
    g = w.bit_length() + 4
    big = w + h + g
    x = abs(r) << g  # t / 2^h at scale 2^big
    x2 = x * x >> big
    x3 = x2 * x >> big
    x4 = x2 * x2 >> big
    sums = [1 << big, 0, 0, 0]
    a = 1 << big
    k = 0
    while a:
        k += 1
        if not k & 3:
            a = a * x4 >> big
        a //= k
        sums[k & 3] += a
    # i^k is 1, i, -1, -i for k = 0, 1, 2, 3 mod 4
    c = sums[0] - (x2 * sums[2] >> big)
    s = (x * sums[1] - x3 * sums[3]) >> big
    for _ in range(h):
        c, s = (c + s) * (c - s) >> big, (c * s) >> (big - 1)
    if r < 0:
        s = -s
    return _round_shift(c, h + g), _round_shift(s, h + g)


def _quarter_turns(c: int, s: int, k: int):
    """i^k (c + i s) as a pair, exactly."""
    k &= 3
    if k == 0:
        return c, s
    if k == 1:
        return -s, c
    if k == 2:
        return -c, -s
    return s, -c


def cis_fixed(theta: int, q: int):
    """(cos t, sin t) at scale 2^q for the angle t = theta / 2^q, each within
    one unit however large |t| is.

    t is reduced to |r| <= pi/4 by the nearest multiple k pi/2, at a scale
    with as many more bits as k has, plus three, so that k times the error
    of pi/2 stays below 1/8 unit of 2^(-q).
    """
    n = max(abs(theta).bit_length() - q, 0) + 3
    w = q + n
    half_pi = _pi_fixed(w - 1)  # pi/2 at scale 2^w
    t = theta << n
    k = (2 * t + half_pi) // (2 * half_pi)
    c, s = _cis_reduced(t - k * half_pi, w)
    c, s = _quarter_turns(c, s, k)
    return _round_shift(c, n), _round_shift(s, n)


@lru_cache(maxsize=None)
def _root_table(m: int, q: int):
    """zeta_m^i = e^(2 pi i i / m) for i < phi(m) as Gaussian integers at
    scale 2^q, each part within one unit; exact at the quarter turns.

    The angle is (a + b / m) pi/2 with 4 i = a m + b and |b| <= m/2, so
    only (b / m) pi/2 goes through the series.
    """
    w = q + 4
    half_pi = _pi_fixed(w - 1)  # pi/2 at scale 2^w
    out = []
    for i in range(euler_phi(m)):
        a, b = divmod(4 * i, m)
        if 2 * b > m:
            a, b = a + 1, b - m
        c, s = _cis_reduced((2 * half_pi * b + m) // (2 * m), w)
        c, s = _quarter_turns(c, s, a)
        out.append((_round_shift(c, 4), _round_shift(s, 4)))
    return tuple(out)


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
            den = math.lcm(den, x.den)
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
        den = x.den
        if den % p == 0:
            raise InternalConsistencyError(
                f"denominator {den} is not invertible mod {p}"
            )
        step = self.order // x.order
        powers = self._powers
        acc = 0
        for e, c in x.nums.items():
            acc += c * powers[e * step]
        if den != 1:
            acc *= pow(den, -1, p)
        return acc % p

    def poly(self, f) -> dict:
        """A polynomial's terms reduced coefficientwise, zeros dropped."""
        out = {}
        for e, c in f.terms.items():
            r = self.scalar(c)
            if r:
                out[e] = r
        return out
