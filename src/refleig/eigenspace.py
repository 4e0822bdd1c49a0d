"""Eigenspace representations of the motion group and their certificates.

A weight is a purely imaginary exact vector; its orbit under the point group
collects the exponent vectors mu_k appearing in the plane waves e^<mu_k, x>.
The induced model is the |K|-dimensional space of functions on the group,
acted on by (pi(x, k) v)(h) = exp(-<mu_h, x>) v(k^-1 h); the intertwiner
sends v to the plane-wave sum F(v) = sum_h v(h) e^<mu_h, x>.

Everything transcendental stays formal: FormalExp is the ring of finite sums
sum c_j exp(s_j) with exact cyclotomic c_j, s_j, and identities checked here
are term-by-term equalities in that ring.  Distinct exponentials of algebraic
numbers are linearly independent, so a formal identity is exactly as strong
as the functional one.

Irreducibility certification is the pair of computations from the rank
criterion: the evaluation matrix H_i(mu_k) must have full rank |K|, and the
commutant of the sampled representation must be one-dimensional.  The
commutant is computed twice, numerically at high precision and exactly from
the orbit block structure, and both must agree.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import linalg
from .cyclotomic import Cyclotomic, ONE, ZERO, cyc, prime_factors
from .errors import (
    InsufficientSamplesError,
    InternalConsistencyError,
    SampleSpanError,
)
from .groups import GroupElement, ReflectionGroup
from .harmonics import HarmonicSpace


@dataclass(frozen=True)
class Weight:
    """Purely imaginary exact vector: the spectral parameter of an eigenspace."""

    group: ReflectionGroup
    entries: tuple

    def __post_init__(self):
        entries = tuple(cyc(x) for x in self.entries)
        if len(entries) != self.group.dimension:
            raise ValueError("weight length must match the group dimension")
        for x in entries:
            if x.conj() != -x:
                raise ValueError(
                    "weight entries must be purely imaginary (conj = negation)"
                )
        object.__setattr__(self, "entries", entries)

    def is_zero(self):
        return all(not x for x in self.entries)


@dataclass(frozen=True)
class Orbit:
    """Exponent vectors k . lambda indexed like the group elements."""

    weight: Weight
    points: tuple  # tuple of n-tuples of Cyclotomic, one per element
    classes: tuple  # tuple of tuples of element indices with equal points
    point_class: tuple  # element index -> class id

    @property
    def distinct_count(self):
        return len(self.classes)


def orbit(w: Weight) -> Orbit:
    group = w.group
    points = tuple(m.apply(w.entries) for m in group.elements)
    class_of = {}
    classes = []
    point_class = []
    for idx, pt in enumerate(points):
        cid = class_of.get(pt)
        if cid is None:
            cid = len(classes)
            class_of[pt] = cid
            classes.append([idx])
        else:
            classes[cid].append(idx)
        point_class.append(cid)
    if group.order % len(classes):
        raise InternalConsistencyError(
            "distinct orbit size must divide the group order"
        )
    return Orbit(
        w,
        points,
        tuple(tuple(c) for c in classes),
        tuple(point_class),
    )


def is_generic(w: Weight) -> bool:
    """No element besides the identity fixes the weight (orbit-stabilizer)."""
    return orbit(w).distinct_count == w.group.order


def stabilizer_order(w: Weight) -> int:
    return w.group.order // orbit(w).distinct_count


# -- formal exponential ring ---------------------------------------------------


class FormalExp:
    """Finite sum of c * exp(s) terms with exact cyclotomic c and s."""

    __slots__ = ("terms",)

    def __init__(self, terms, _clean=False):
        if _clean:
            self.terms = terms
        else:
            clean = {}
            for s, c in terms.items():
                s = cyc(s)
                c = cyc(c)
                if c:
                    linalg.add_term(clean, s, c)
            self.terms = clean

    @staticmethod
    def constant(c) -> "FormalExp":
        c = cyc(c)
        return FormalExp({ZERO: c} if c else {}, _clean=True)

    @staticmethod
    def exp(s) -> "FormalExp":
        return FormalExp({cyc(s): ONE}, _clean=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = FormalExp.constant(other)
        if not isinstance(other, FormalExp):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, FormalExp):
            other = FormalExp.constant(other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            linalg.add_term(out, s, c)
        return FormalExp(out, _clean=True)

    def __neg__(self):
        return FormalExp({s: -c for s, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, FormalExp):
            other = FormalExp.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = FormalExp.constant(other)
        out = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                linalg.add_term(out, s1 + s2, c1 * c2)
        return FormalExp(out, _clean=True)

    __rmul__ = __mul__

    def conj(self) -> "FormalExp":
        return FormalExp(
            {s.conj(): c.conj() for s, c in self.terms.items()}
        )

    def embed(self, precision: int = 53):
        with mpmath.workprec(precision + 10):
            acc = mpmath.mpc(0)
            for s, c in self.terms.items():
                acc += c.embed(precision) * mpmath.exp(s.embed(precision))
            return +acc

    def __repr__(self):
        from .parsing import format_scalar

        if not self.terms:
            return "FormalExp(0)"
        bits = [
            f"({format_scalar(c)})*exp({format_scalar(s)})"
            for s, c in self.terms.items()
        ]
        return "FormalExp(" + " + ".join(bits) + ")"


_FE_ONE = FormalExp.constant(1)


# -- induced model --------------------------------------------------------------


@dataclass(frozen=True)
class InducedModel:
    """Functions on the point group: the finite model of the induced rep."""

    group: ReflectionGroup
    weight: Weight
    orbit: Orbit

    @staticmethod
    def build(w: Weight) -> "InducedModel":
        return InducedModel(w.group, w, orbit(w))

    @property
    def dimension(self):
        return self.group.order

    def delta(self, idx: int):
        vec = [FormalExp.constant(0)] * self.dimension
        vec[idx] = _FE_ONE
        return vec

    def fixed_vector(self):
        """The all-ones vector: the K-fixed vector of the model."""
        return [_FE_ONE] * self.dimension


def model_act(m: InducedModel, g: GroupElement, v):
    """Action (pi(x, k) v)(h) = exp(-<mu_h, x>) v(k^-1 h)."""
    if g.group is not m.group:
        raise ValueError("element belongs to a different group")
    table = m.group.mult_table
    k_inv = m.group.inverse_table[g.rotation]
    x = [cyc(t) for t in g.translation]
    out = []
    for h in range(m.dimension):
        src = table[k_inv][h]
        entry = v[src]
        if entry:
            phase = FormalExp.exp(-linalg.dot(m.orbit.points[h], x))
            entry = phase * entry
        out.append(entry)
    return out


# -- plane-wave sums -------------------------------------------------------------


class PlaneWaveSum:
    """Finite formal sum of coeff * e^<mu, x> terms, keyed by exponent."""

    __slots__ = ("dimension", "waves")

    def __init__(self, dimension, waves, _clean=False):
        self.dimension = dimension
        if _clean:
            self.waves = waves
        else:
            clean = {}
            for mu, c in waves.items():
                mu = tuple(cyc(x) for x in mu)
                if not isinstance(c, FormalExp):
                    c = FormalExp.constant(c)
                if c:
                    linalg.add_term(clean, mu, c)
            self.waves = clean

    def __bool__(self):
        return bool(self.waves)

    def __eq__(self, other):
        if not isinstance(other, PlaneWaveSum):
            return NotImplemented
        return self.dimension == other.dimension and self.waves == other.waves

    def __add__(self, other):
        out = dict(self.waves)
        for mu, c in other.waves.items():
            linalg.add_term(out, mu, c)
        return PlaneWaveSum(self.dimension, out, _clean=True)

    def __repr__(self):
        from .parsing import format_scalar

        bits = []
        for mu, c in self.waves.items():
            mu_text = ", ".join(format_scalar(x) for x in mu)
            bits.append(f"{c!r} * wave({mu_text})")
        return "PlaneWaveSum(" + (" + ".join(bits) or "0") + ")"


def intertwiner(m: InducedModel, v) -> PlaneWaveSum:
    """F(v) = sum_h v(h) e^<mu_h, x>, merging duplicate orbit exponents."""
    waves = {}
    for h in range(m.dimension):
        c = v[h]
        if c:
            linalg.add_term(waves, m.orbit.points[h], c)
    return PlaneWaveSum(m.group.dimension, waves, _clean=True)


def eigenspace_action(group: ReflectionGroup, g: GroupElement, p: PlaneWaveSum) -> PlaneWaveSum:
    """Action of the motion group on plane waves:
    e^<mu, .> -> exp(-<k mu, y>) e^<k mu, .> for g = (y, k)."""
    k = group.elements[g.rotation]
    y = [cyc(t) for t in g.translation]
    out = {}
    for mu, c in p.waves.items():
        new_mu = k.apply(mu)
        phase = FormalExp.exp(-linalg.dot(new_mu, y))
        linalg.add_term(out, new_mu, phase * c)
    return PlaneWaveSum(p.dimension, out, _clean=True)


def equivariance_check(m: InducedModel, g: GroupElement, v) -> bool:
    """Exact formal identity F(pi(g) v) = T(g) F(v)."""
    lhs = intertwiner(m, model_act(m, g, v))
    rhs = eigenspace_action(m.group, g, intertwiner(m, v))
    return lhs == rhs


def eigen_check(p: PlaneWaveSum, invariants, w: Weight) -> bool:
    """Every exponent of p gives the same invariant values as the weight.

    This is the exact statement that p lies in the joint eigenspace cut out
    by the invariant differential operators at the weight's eigenvalues.
    """
    lam_values = invariant_eigenvalues(invariants, w)
    for mu in p.waves:
        for gen, target in zip(invariants.generators, lam_values):
            if gen.evaluate(mu) != target:
                return False
    return True


def invariant_eigenvalues(invariants, w: Weight):
    """The eigenvalue j_i(lambda) of each invariant operator at the weight."""
    return [gen.evaluate(w.entries) for gen in invariants.generators]


# -- numeric helpers -------------------------------------------------------------


def _numeric_rank(rows, precision):
    """Rank via singular values above 2^(-precision/2) at `precision` bits."""
    threshold = mpmath.mpf(2) ** (-(precision // 2))
    with mpmath.workprec(precision + 10):
        mat = mpmath.matrix(len(rows), len(rows[0]))
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                mat[i, j] = x
        sing = mpmath.svd(mat, compute_uv=False)
        return sum(1 for k in range(sing.rows) if sing[k] > threshold)


_SEPARATION_DOUBLINGS = 4


def dual_sample_elements(m: InducedModel, rng=None, bound: int = 9, max_tries: int = 1000):
    """Spanning sample set for the dual-orbit test: powers of one translation.

    The translation y is drawn until the pairings <mu, y> over distinct orbit
    points are pairwise different (checked exactly), so the sample rows form
    a Vandermonde matrix in the distinct values e^-<mu, y>.  Exponentials of
    distinct purely imaginary algebraic numbers never coincide, so for a
    generic weight the rows provably span.

    Translations are drawn from the box [-bound, bound]^n; after `max_tries`
    failed draws the box doubles, up to `_SEPARATION_DOUBLINGS` times, since a
    large orbit need not be separated by any point of a small box.
    """
    import random as _random

    if rng is None:
        rng = _random.Random(0)
    group = m.group
    reps = [m.orbit.points[cls[0]] for cls in m.orbit.classes]
    for _ in range(_SEPARATION_DOUBLINGS + 1):
        for _ in range(max_tries):
            y = tuple(rng.randint(-bound, bound) for _ in range(group.dimension))
            pairings = [linalg.dot(mu, [cyc(t) for t in y]) for mu in reps]
            if len(set(pairings)) == len(pairings):
                return [
                    GroupElement(group, tuple(j * t for t in y), 0)
                    for j in range(group.order)
                ]
        bound *= 2
    raise InternalConsistencyError("could not find a separating translation")


def dual_cyclic_check(m: InducedModel, samples, precision: int = 128) -> bool:
    """Numeric test that the dual orbit of the fixed functional spans.

    Each sample g contributes the coordinate row of the dual vector
    pi^c(g) u* in the dual basis; the check passes when the row space has
    full rank |K| at the working precision.
    """
    if len(samples) < m.dimension:
        raise InsufficientSamplesError(
            f"need at least {m.dimension} samples, got {len(samples)}"
        )
    u = m.fixed_vector()
    with mpmath.workprec(precision + 10):
        rows = []
        for g in samples:
            moved = model_act(m, g, u)
            rows.append([mpmath.conj(entry.embed(precision)) for entry in moved])
        return _numeric_rank(rows, precision) == m.dimension


# -- modular rank certificate ------------------------------------------------------

def _split_prime(m: int, minimum: int) -> int:
    """Smallest prime p >= minimum with p = 1 mod m, so F_p contains zeta_m."""
    k = max(1, (minimum - 2) // m + 1)
    while True:
        p = m * k + 1
        if p >= minimum and prime_factors(p) == (p,):
            return p
        k += 1


def _root_of_unity_mod(p: int, m: int) -> int:
    factors = prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return pow(g, (p - 1) // m, p)


def _rank_mod(rows, ncols: int, p: int) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(mat)) if mat[r][col] % p), None
        )
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] * inv % p
            if factor:
                mat[r] = [
                    (a - factor * b) % p for a, b in zip(mat[r], mat[rank])
                ]
        rank += 1
    return rank


def _rank_lower_bound(rows, ncols: int) -> int:
    """Rank of the reduction mod a split prime: never exceeds the true rank."""
    import math

    m = 1
    for row in rows:
        for x in row:
            m = math.lcm(m, x.order)
    minimum = 1 << 20
    for _ in range(4):
        p = _split_prime(m, minimum)
        zeta = _root_of_unity_mod(p, m)
        try:
            reduced = []
            for row in rows:
                out = []
                for x in row:
                    acc = 0
                    step = pow(zeta, m // x.order, p)
                    for e, c in x.coeffs.items():
                        num = c.numerator % p
                        den = pow(c.denominator % p, -1, p)
                        acc = (acc + num * den * pow(step, e, p)) % p
                    out.append(acc)
                reduced.append(out)
            return _rank_mod(reduced, ncols, p)
        except ValueError:
            minimum = p + 1
    raise InternalConsistencyError("no usable split prime found")


# -- evaluation matrix ------------------------------------------------------------


def evaluation_matrix(w: Weight, harmonics: HarmonicSpace, base_point=None):
    """Matrix M[i][k] = H_i(mu_k), harmonics along rows, orbit along columns.

    With the default base point 0 the entries are exact cyclotomic scalars.
    A nonzero exact base point x0 multiplies column k by the formal unit
    exp(<mu_k, x0>), so entries become FormalExp; either way the matrix is
    exact.
    """
    orb = orbit(w)
    basis = harmonics.flat_basis()
    cols = orb.points
    plain = [[h.evaluate(mu) for mu in cols] for h in basis]
    if base_point is None or all(not cyc(x) for x in base_point):
        return plain
    x0 = [cyc(x) for x in base_point]
    for x in x0:
        if not x.is_real():
            raise ValueError("base point entries must be real")
    factors = [FormalExp.exp(linalg.dot(mu, x0)) for mu in cols]
    return [
        [factors[k] * FormalExp.constant(entry) for k, entry in enumerate(row)]
        for row in plain
    ]


def evaluation_rank(w: Weight, harmonics: HarmonicSpace) -> int:
    """Exact rank of the evaluation matrix at base point 0.

    Duplicate orbit columns are collapsed first (they are exactly equal).
    A reduction mod a split prime bounds the rank from below; when that
    bound hits min(rows, cols) the rank is settled exactly and the expensive
    elimination over the cyclotomic field is skipped.  Otherwise exact
    elimination decides.
    """
    orb = orbit(w)
    basis = harmonics.flat_basis()
    reps = [cls[0] for cls in orb.classes]
    cols = [orb.points[r] for r in reps]
    rows = [[h.evaluate(mu) for mu in cols] for h in basis]
    if rows and cols:
        lower = _rank_lower_bound(rows, len(cols))
        if lower == min(len(rows), len(cols)):
            return lower
    return linalg.rank(rows, len(cols))


# -- commutant --------------------------------------------------------------------


def _check_spanning(group, translations):
    if not translations:
        raise SampleSpanError("no sample translations given")
    rows = [[cyc(x) for x in t] for t in translations]
    for row in rows:
        for x in row:
            if not x.is_real():
                raise ValueError("sample translations must be real")
    if linalg.rank(rows, group.dimension) != group.dimension:
        raise SampleSpanError(
            "sample translations do not span the ambient space"
        )


def commutant_dimension(m: InducedModel, sample_translations, precision: int = 128) -> int:
    """Dimension of the commutant of the sampled representation.

    Two independent routes must agree:

    * numeric: solve A pi(g) = pi(g) A over all rotations and the sample
      translations.  The rotation actions are permutation matrices, so their
      exact commutant is the convolution algebra A[h, h'] = a(h^-1 h');
      imposing the translation constraints on a gives a linear system with
      one nonzero coefficient per row, whose columns are orthogonal.  Its
      numeric nullspace (singular values = column norms, thresholded at
      2^(-precision/2)) is computed at `precision` bits.

    * exact: the translation action is diagonal over the orbit exponents, so
      the commutant is supported on orbit-duplicate blocks; intersecting with
      the convolution algebra leaves exactly the a supported on the orbit
      stabilizer.  The dimension is counted with exact comparisons.
    """
    group = m.group
    _check_spanning(group, sample_translations)
    table = m.group.mult_table

    # exact block-structure path
    pclass = m.orbit.point_class
    exact_dim = sum(
        all(pclass[table[h][g]] == pclass[h] for h in range(group.order))
        for g in range(group.order)
    )

    # numeric path at the requested precision
    threshold = mpmath.mpf(2) ** (-(precision // 2))
    with mpmath.workprec(precision + 10):
        diag = []
        for t in sample_translations:
            x = [cyc(v) for v in t]
            diag.append(
                [
                    mpmath.exp(-(linalg.dot(mu, x).embed(precision)))
                    for mu in m.orbit.points
                ]
            )
        numeric_dim = 0
        for g in range(group.order):
            norm_sq = mpmath.mpf(0)
            for drow in diag:
                for h in range(group.order):
                    d = drow[h] - drow[table[h][g]]
                    norm_sq += (d.real * d.real + d.imag * d.imag)
            if mpmath.sqrt(norm_sq) < threshold:
                numeric_dim += 1

    if numeric_dim != exact_dim:
        raise InternalConsistencyError(
            f"commutant dimension disagreement: numeric {numeric_dim}, "
            f"exact {exact_dim}"
        )
    return exact_dim


# -- weight generation -------------------------------------------------------------


def zero_weight(group) -> Weight:
    return Weight(group, (ZERO,) * group.dimension)


def random_generic_weight(group, rng, bound: int = 9, max_tries: int = 1000) -> Weight:
    """Random purely imaginary weight with trivial stabilizer."""
    from .cyclotomic import E

    i_unit = E(4)
    for _ in range(max_tries):
        entries = tuple(
            i_unit * rng.randint(-bound, bound) for _ in range(group.dimension)
        )
        w = Weight(group, entries)
        if not w.is_zero() and is_generic(w):
            return w
    raise InternalConsistencyError("could not sample a generic weight")


def degenerate_weight(group, rng, bound: int = 9, max_tries: int = 1000) -> Weight:
    """Nonzero weight fixed by some pseudo-reflection (hence non-generic)."""
    from .cyclotomic import E

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
