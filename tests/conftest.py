"""Shared fixtures, and the references that tests compare the library with.

The mpmath references here are the embedding the library used before it
embedded in integer fixed point; mpmath is a test dependency only.
"""

import math
from functools import lru_cache

import mpmath
import pytest

from refleig import linalg
from refleig.cyclotomic import E, ONE, ZERO, cyc
from refleig.eigenspace import Weight, eigenspace_action, intertwiner, is_generic
from refleig.errors import InternalConsistencyError
from refleig.groups import builtin
from refleig.harmonics import compute_harmonics, find_fundamental_invariants

REFLECTION_BATTERY = (
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "dihedral:7",
    "dihedral:8",
    "symmetric:2",
    "symmetric:3",
    "symmetric:4",
    "hyperoctahedral:2",
    "hyperoctahedral:3",
)


@pytest.fixture(scope="session")
def pipeline():
    """Memoized (group, invariants, harmonics) per builtin spec string."""
    cache = {}

    def load(spec):
        if spec not in cache:
            group = builtin(spec)
            invariants = find_fundamental_invariants(group)
            harmonics = compute_harmonics(group, invariants)
            cache[spec] = (group, invariants, harmonics)
        return cache[spec]

    return load


# -- mpmath references -----------------------------------------------------------


@lru_cache(maxsize=None)
def _root(i, m, prec):
    """zeta_m^i = e^(2 pi i i / m) at `prec` bits."""
    with mpmath.workprec(prec):
        return mpmath.expjpi(mpmath.mpf(2 * i) / m)


def mp_embed(x, precision: int = 53):
    """A cyclotomic value as an mpmath complex number at `precision` bits."""
    den = x.den
    prec = precision + 10
    with mpmath.workprec(prec):
        acc = mpmath.mpc(0)
        for i, c in x.nums.items():
            # each coordinate in lowest terms, so that every term rounds
            # exactly as the coordinate's own fraction would
            g = math.gcd(c, den)
            acc += _root(i, x.order, prec) * mpmath.mpf(c // g) / (den // g)
        return +acc


def embed_complex(x, precision: int = 53):
    """`mp_embed` as an (re, im) mpf pair; the absolute error is below
    2^(-precision + 4)."""
    z = mp_embed(x, precision)
    return (z.real, z.imag)


def mp_embed_formal(f, precision: int = 53):
    """A `FormalExp` sum of c exp(s) as an mpmath complex number."""
    with mpmath.workprec(precision + 10):
        acc = mpmath.mpc(0)
        for s, c in f.terms.items():
            acc += mp_embed(c, precision) * mpmath.exp(mp_embed(s, precision))
        return +acc


# -- dense and naive references ----------------------------------------------------


def _chained_dot(u, v):
    """u . v as a chain of `+` and `*`, zeros included, one canonical value
    per product and partial sum: no fused kernel involved."""
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def dense_mat_mul(a, b, sparse_b=None):
    """The product a b with every entry a chained dot of a row and a column,
    zeros included: the formulation `linalg.mat_mul` replaced.  `sparse_b`,
    the cached nonzero entries `linalg.mat_mul` may be given, is ignored."""
    cols = list(zip(*b))
    return [[_chained_dot(arow, col) for col in cols] for arow in a]


def dense_mat_vec(a, v):
    return [_chained_dot(row, v) for row in a]


def naive_generator_products(generators, degrees, target, nvars):
    """Every power product of total degree `target`, each built from scratch
    from the powers g ** e: what `harmonics._generator_products` memoizes."""
    from refleig.harmonics import _exponent_solutions
    from refleig.polynomials import Poly

    out = []
    for exps in _exponent_solutions(degrees, target):
        prod = Poly.constant(nvars, ONE)
        for gen, e in zip(generators, exps):
            if e:
                prod = prod * gen ** e
        out.append(prod)
    return out


def seq_recip(a, trunc):
    """The reciprocal of a power series with cyclotomic coefficients and
    a[0] invertible, by b_k = -(1/a_0) sum a_i b_(k-i) with generic field
    operations: the inverse `series.molien` ran before its integer
    recurrence."""
    a0 = a[0]
    inv0 = a0.inverse()
    zero = a0 - a0
    out = [inv0]
    for k in range(1, trunc + 1):
        acc = None
        for i in range(1, min(k, len(a) - 1) + 1):
            if a[i]:
                term = a[i] * out[k - i]
                acc = term if acc is None else acc + term
        out.append(zero if acc is None else -(inv0 * acc))
    return out


def det_one_minus_t(k):
    """Coefficients of det(I - t k) in t, exact, constant term first, from
    one Faddeev-LeVerrier characteristic polynomial: what `series.molien`
    computed for every element before it read power traces."""
    n = k.dimension
    cp = linalg.charpoly([list(r) for r in k.rows], ONE)
    # det(sI - k) = sum cp[j] s^j  =>  det(I - t k) = sum cp[n - j] t^j
    return tuple(cp[n - j] for j in range(n + 1))


def reference_det_polys(group):
    """det(I - t k) -> the number of elements k sharing it."""
    from collections import Counter

    return Counter(det_one_minus_t(k) for k in group.elements)


def reference_molien(group, truncation):
    """The Molien series as a list of Fractions, each class's reciprocal
    from `seq_recip`."""
    from fractions import Fraction

    multiplicity = reference_det_polys(group)
    total = [ZERO] * (truncation + 1)
    for det_poly, count in multiplicity.items():
        recip = seq_recip(det_poly, truncation)
        total = [t + b * count for t, b in zip(total, recip)]
    return [(t * Fraction(1, group.order)).to_fraction() for t in total]


def in_order_invariant_subspace(group, degree, dimension=None):
    """Reynolds images of every monomial in graded-lex order, stopping once
    they span `dimension`: the loop `invariant_subspace` ran before it
    skipped images that cannot add rank.  Returns the basis and the number
    of monomials projected."""
    from refleig.polynomials import (
        Poly,
        coeff_vector,
        monomials_of_degree,
        poly_from_vector,
        reynolds,
    )

    n = group.dimension
    monos = monomials_of_degree(n, degree)
    span = linalg.RowSpan(len(monos))
    projected = 0
    for e in monos:
        if span.rank == dimension:
            break
        projected += 1
        span.add(coeff_vector(reynolds(group, Poly.monomial(n, e)), monos))
    return [poly_from_vector(n, monos, row) for row in span.rows], projected


def base_commutant_translations(m):
    """One translation 2^(-k) e_i per axis, 2^k the least power of two at
    least 2 max_h |mu_h[i]|: the list `eigenspace._commutant_translations`
    gave before it added translations for coordinates far apart in scale."""
    from fractions import Fraction

    from refleig.eigenspace import _twice_abs_exponent

    n = m.group.dimension
    out = []
    for i in range(n):
        k = max(
            (_twice_abs_exponent(x) for x in {pt[i] for pt in m.orbit.points} if x),
            default=0,
        )
        out.append(tuple(Fraction(2) ** -k if j == i else 0 for j in range(n)))
    return out


def reference_rref(rows, ncols):
    """Reduced row echelon form by Gauss-Jordan elimination over the whole
    matrix, first nonzero pivot per column: the loop `linalg.rref` ran
    before it fed its rows to a `RowSpan`.  Returns (rows, pivot_columns)."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        scale = 1 / work[r][c]
        work[r] = [x * scale for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def gram_positive_definite(xs, ys, shift: int, frac_bits: int) -> bool:
    """Whether C^H C - shift * I is positive definite, in integer fixed point:
    the LDL^H the dual-orbit check ran before its rows were designed.

    C = X + iY is the Gaussian-integer matrix whose columns have real parts
    `xs` and imaginary parts `ys`.  Its Hermitian Gram matrix is formed
    exactly, `shift` is on its scale and `frac_bits` is its binary point.
    The LDL^H factorization runs in fixed point at that scale and returns
    False at the first pivot <= 0: by Sylvester's law of inertia the matrix
    is positive definite exactly when every pivot is positive.
    """
    import operator

    n = len(xs)

    def ip(u, v):
        return sum(map(operator.mul, u, v))

    # conj(c_i) . c_k = x_i.x_k + y_i.y_k + i (x_i.y_k - y_i.x_k), and the
    # imaginary part is (x_i - y_i).(x_k + y_k) - x_i.x_k + y_i.y_k: three
    # dot products per entry instead of four
    diffs = [list(map(operator.sub, x, y)) for x, y in zip(xs, ys)]
    sums = [list(map(operator.add, x, y)) for x, y in zip(xs, ys)]
    gr, gi = [], []
    for i in range(n):
        xx = [ip(xs[i], xs[k]) for k in range(i + 1)]
        yy = [ip(ys[i], ys[k]) for k in range(i + 1)]
        gr.append(list(map(operator.add, xx, yy)))
        gi.append([ip(diffs[i], sums[k]) - a + b for k, (a, b) in enumerate(zip(xx, yy))])
    # right-looking elimination on the lower triangle; the shift moves only
    # the diagonal, so it is applied as each pivot is read
    for j in range(n):
        d = gr[j][j] - shift
        if d <= 0:
            return False
        cr = [gr[k][j] for k in range(j + 1, n)]
        ci = [gi[k][j] for k in range(j + 1, n)]
        for i in range(j + 1, n):
            lr = (gr[i][j] << frac_bits) // d
            li = (gi[i][j] << frac_bits) // d
            # entry (i, k) loses l_i conj(G[k][j]) for j < k <= i
            row = gr[i]
            row[j + 1:i + 1] = [
                v - ((lr * a + li * b) >> frac_bits)
                for v, a, b in zip(row[j + 1:i + 1], cr, ci)
            ]
            row = gi[i]
            row[j + 1:i + 1] = [
                v - ((li * a - lr * b) >> frac_bits)
                for v, a, b in zip(row[j + 1:i + 1], cr, ci)
            ]
    return True


def evaluation_matrix(m, harmonics):
    """Matrix M[i][k] = H_i(mu_k) of exact cyclotomic scalars, harmonics
    along rows, every orbit point (duplicates included) along columns: the
    exact matrix whose rank `eigenspace.evaluation_rank` certifies mod p."""
    cols = m.orbit.points
    return [[h.evaluate(mu) for mu in cols] for h in harmonics.flat_basis()]


def reference_equivariance(m, g, v):
    """F(pi(g) v) = T(g) F(v) as one identity of plane-wave sums, with every
    phase exp(-<mu, x>) the exact pairing of its point with g's translation:
    the check `eigenspace.equivariance_check` ran before it compared orbit
    classes under formal phases.  pi is applied here entry by entry, and T
    by `eigenspace_action`, which applies k to every exponent."""
    group = m.group
    x = g.translation
    row = group.mult_table[group.inverse_table[g.rotation]]
    acted = []
    for h, r in enumerate(row):
        entry = v[r]
        if entry:
            entry = entry.shift(-linalg.dot(m.orbit.points[h], x))
        acted.append(entry)
    return intertwiner(m, acted) == eigenspace_action(group, g, intertwiner(m, v))


# -- weights ---------------------------------------------------------------------


def degenerate_weight(group, rng, bound: int = 9, max_tries: int = 1000) -> Weight:
    """Nonzero weight fixed by some pseudo-reflection (hence non-generic)."""
    reflections = group.reflections()
    if not reflections:
        raise ValueError("group has no pseudo-reflections")
    i_unit = E(4)
    for _ in range(max_tries):
        s = reflections[rng.randrange(len(reflections))]
        n = group.dimension
        diff = [
            [s.rows[i][j] - ONE if i == j else s.rows[i][j] for j in range(n)]
            for i in range(n)
        ]
        fixed = linalg.nullspace(diff, n, ONE)
        entries = [ZERO] * n
        for vec in fixed:
            c = rng.randint(-bound, bound)
            if c:
                entries = [e + cyc(c) * x for e, x in zip(entries, vec)]
        w = Weight(group, tuple(i_unit * e for e in entries))
        if not w.is_zero():
            if is_generic(w):
                raise InternalConsistencyError(
                    "reflection-fixed weight cannot be generic"
                )
            return w
    raise InternalConsistencyError("could not sample a degenerate weight")
