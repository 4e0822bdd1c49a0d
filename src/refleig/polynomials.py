"""Exact multivariate polynomials and the reflection-group machinery on them.

Polynomials have cyclotomic coefficients and are kept as sparse mappings from
exponent tuples to coefficients.  Monomial order everywhere is graded lex:
higher total degree first, ties broken by lexicographically larger exponent
tuple (x1^2 > x1*x2 > x2^2), which fixes every basis this module produces.

A group element k acts by substituting variables with k^T x, so on the span
of the variables the action matrix is k^T; averaging this action over the
group is the Reynolds projection onto invariants.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .cyclotomic import Cyclotomic, ONE, ZERO, cyc
from .errors import InternalConsistencyError


class Poly:
    """Sparse exact polynomial in `nvars` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms, _clean=False):
        self.nvars = nvars
        if _clean:
            self.terms = terms
        else:
            self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def zero(nvars):
        return Poly(nvars, {}, _clean=True)

    @staticmethod
    def constant(nvars, c):
        c = cyc(c)
        return Poly(nvars, {(0,) * nvars: c} if c else {}, _clean=True)

    @staticmethod
    def variable(nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return Poly(nvars, {tuple(exps): ONE}, _clean=True)

    @staticmethod
    def monomial(nvars, exps, c=ONE):
        c = cyc(c)
        return Poly(nvars, {tuple(exps): c} if c else {}, _clean=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        from .parsing import format_poly

        return f"Poly({format_poly(self)!r})"

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            linalg.add_term(out, e, c)
        return Poly(self.nvars, out, _clean=True)

    def __neg__(self):
        return Poly(
            self.nvars, {e: -c for e, c in self.terms.items()}, _clean=True
        )

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            c = cyc(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly(
                self.nvars,
                {e: x * c for e, x in self.terms.items()},
                _clean=True,
            )
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                linalg.add_term(out, e, ca * cb)
        return Poly(self.nvars, out, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.constant(self.nvars, ONE)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, ZERO)

    def ordered_monomials(self):
        """Exponent tuples in descending graded-lex order."""
        return sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=lambda e: (sum(e), e))

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return Poly(self.nvars, out, _clean=True)

    def evaluate(self, point):
        """Exact value at a vector of cyclotomic scalars."""
        point = [cyc(x) for x in point]
        acc = None
        # powers[i][k] = point[i]^k, extended as the terms need them; a
        # self-recursive closure here would leave a reference cycle holding
        # the whole table until the cyclic collector ran
        powers = [[ONE] for _ in range(self.nvars)]
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(pw[-1] * point[i])
                    term = term * pw[k]
            acc = term if acc is None else acc + term
        return ZERO if acc is None else acc

    def substitute(self, images):
        """Substitute variable i by the polynomial images[i]."""
        nvars = images[0].nvars if images else self.nvars
        acc = Poly.zero(nvars)
        for e, c in self.terms.items():
            term = Poly.constant(nvars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * images[i] ** k
            acc = acc + term
        return acc


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, graded-lex descending."""
    if nvars == 0:
        return ((),) if degree == 0 else ()

    def gen(rem, slots):
        if slots == 1:
            yield (rem,)
            return
        for first in range(rem, -1, -1):
            for rest in gen(rem - first, slots - 1):
                yield (first,) + rest

    return tuple(gen(degree, nvars))


def coeff_vector(p, monos):
    return [p.terms.get(e, ZERO) for e in monos]


def poly_from_vector(nvars, monos, vec):
    return Poly(nvars, {e: c for e, c in zip(monos, vec) if c})


def _variable_images(k):
    """Images of the variables under the action of k: x_i -> (k^T x)_i."""
    n = k.dimension
    images = []
    for i in range(n):
        terms = {}
        for j in range(n):
            c = k.rows[j][i]
            if c:
                exps = [0] * n
                exps[j] = 1
                terms[tuple(exps)] = c
        images.append(Poly(n, terms, _clean=True))
    return images


def _image_power(k, i, e, powers):
    # powers memoizes (variable, exponent) -> image power for this one k
    key = (i, e)
    got = powers.get(key)
    if got is None:
        if e == 1:
            got = _variable_images(k)[i]
        else:
            got = _image_power(k, i, e - 1, powers) * _image_power(k, i, 1, powers)
        powers[key] = got
    return got


def _images(p, pairs):
    """The sum of the images of p under each (k, powers) pair, as one sparse
    dict of terms: each monomial's images are summed first and then scaled
    by its coefficient once, all in place."""
    out = {}
    for e, c in p.terms.items():
        acc = {}
        for k, powers in pairs:
            image = None
            for i, exp in enumerate(e):
                if exp:
                    f = _image_power(k, i, exp, powers)
                    image = f if image is None else image * f
            if image is None:  # the constant monomial is fixed
                linalg.add_term(acc, e, ONE)
            else:
                for te, tc in image.terms.items():
                    linalg.add_term(acc, te, tc)
        for te, tc in acc.items():
            linalg.add_term(out, te, tc * c)
    return out


def act(k, p: Poly) -> Poly:
    """Action of the group element k on a polynomial (substitute k^T x)."""
    return Poly(p.nvars, _images(p, [(k, {})]), _clean=True)


def reynolds(group, p: Poly) -> Poly:
    """Average of the group action: the projection onto invariants.

    Powers of substituted variables are memoized per group element in
    `group.action_powers`, so the memo lives exactly as long as the group.
    """
    pairs = list(zip(group.elements, group.action_powers))
    return Poly(p.nvars, _images(p * Fraction(1, group.order), pairs), _clean=True)


def diff_apply(op: Poly, f: Poly) -> Poly:
    """Apply the constant-coefficient operator op(d/dx1, ..., d/dxn) to f.

    The polynomial op is read as a symbol through the standard pairing
    B(x, y) = sum x_i y_i, so the monomial x^a becomes d^a.
    """
    out = {}
    for a, c in op.terms.items():
        for b, d in f.terms.items():
            if all(bi >= ai for ai, bi in zip(a, b)):
                factor = 1
                for ai, bi in zip(a, b):
                    if ai:
                        factor *= math.perm(bi, ai)
                e = tuple(bi - ai for ai, bi in zip(a, b))
                linalg.add_term(out, e, c * d * factor)
    return Poly(f.nvars, out, _clean=True)


def invariant_subspace(group, degree: int, dimension=None):
    """Deterministic basis of the degree-k invariants via Reynolds images.

    `dimension`, when given, is the dimension of the degree-k invariants,
    read from the Molien series, and only monomials whose image can add
    rank are projected.  R(x^e) = R(k x^e) for every k in K (Sturmfels,
    Algorithms in Invariant Theory, 2.1), so a monomial that a diagonal
    element scales by c != 1 has image 0 and is skipped
    (`group.diagonal_characters`).  The other monomials that appear in no
    earlier image of the degree go first, since their images are new
    directions for a monomial group; then the deferred ones, in monomial
    order.  Projection stops once the images span `dimension`, and running
    out of monomials below it raises InternalConsistencyError.  Without a
    dimension every monomial is projected in order, which makes the rank an
    independent check of the series.
    """
    n = group.dimension
    monos = monomials_of_degree(n, degree)
    span = linalg.RowSpan(len(monos))

    def project(e):
        img = reynolds(group, Poly.monomial(n, e))
        span.add(coeff_vector(img, monos))
        return img.terms

    if dimension is None:
        for e in monos:
            project(e)
    else:
        characters = group.diagonal_characters
        seen = set()
        deferred = []
        for e in monos:
            if span.rank == dimension:
                break
            if any(sum(map(operator.mul, e, w)) % order for order, w in characters):
                continue
            if e in seen:
                deferred.append(e)
            else:
                seen.update(project(e))
        for e in deferred:
            if span.rank == dimension:
                break
            project(e)
        if span.rank != dimension:
            raise InternalConsistencyError(
                f"Reynolds images of degree {degree} span {span.rank} "
                f"dimensions, the Molien series says {dimension}"
            )
    # RowSpan keeps its rows in reduced echelon form sorted by pivot, which
    # makes the returned basis canonical for the monomial order.
    return [poly_from_vector(n, monos, row) for row in span.rows]


def jacobian(polys) -> Poly:
    """The Jacobian determinant det(d p_i / d x_j) of n polynomials in n variables."""
    n = polys[0].nvars
    if len(polys) != n:
        raise ValueError("need exactly as many polynomials as variables")
    return _poly_det([[p.partial(j) for j in range(n)] for p in polys])


def jacobian_independent(polys) -> bool:
    """Exact test that the Jacobian determinant is not the zero polynomial."""
    return bool(jacobian(polys))


def _poly_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly.zero(rows[0][0].nvars)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _poly_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
