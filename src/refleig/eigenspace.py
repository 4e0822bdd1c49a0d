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

`equivariance_check` checks F(pi(g) v) = T(g) F(v) with one exact pairing
per orbit point: `model_act` and `eigenspace_action` read each phase
exponent -<mu, x> from one table keyed by the exponent vector mu, computed
on a miss by one fused sum (`linalg.dot`), and multiply by e^s as a shift of
exponents (`FormalExp.shift`).  The phase is a function of its key alone, so
sharing it cannot hide a misread index or a wrong k mu: either still gives
different exponents or coefficients on the two sides.

Irreducibility certification is the pair of computations from the rank
criterion: the evaluation matrix H_i(mu_k) must have full rank |K|, and the
commutant of the sampled representation must be one-dimensional.  The rank
is taken in F_p: the orbit points and the harmonic coefficients are reduced
mod a split prime first (`cyclotomic.Reduction`), then evaluated and
eliminated there.  Reduction is a ring homomorphism, so a full rank mod p is
a full exact rank; a lower one falls back to exact evaluation and
elimination over the cyclotomic field.  The commutant is computed twice,
numerically at high precision and exactly from the orbit block structure,
and both must agree.

Both numeric routes work in integer fixed point at scale 2^(p + 10) for the
working precision p, and both threshold at t = 2^(-(p // 2)).  One helper,
`_phases`, embeds each e^s they need once, through the integer embedding of
`cyclotomic` (`Cyclotomic.embed`, `cis_fixed`), within 5/8 of a unit.  Rows
built from those phases by `_dual_rows` stay within (2r + 1) units for r
samples, far below t / 2^8, the tolerance of their cross-check against
`model_act`.

The dual-orbit test of Theorem 3.10 is the independent numeric route: the
rows pi^c(g) u* of the K-fixed functional over the samples (j y, k),
j = 0, 1, ..., form a Vandermonde matrix A, each row the row before times
the phase row read from `model_act`.  A passes when every singular value
exceeds t, that is, when A^H A - t^2 I is positive definite; this is
decided by an LDL^H factorization of the exact Gaussian-integer Gram
matrix, with no SVD.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .cyclotomic import (
    Cyclotomic,
    I_UNIT,
    ONE,
    Reduction,
    ZERO,
    cis_fixed,
    cyc,
)
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

    @cached_property
    def orbit(self) -> "Orbit":
        """The orbit, built once by `orbit(w)` and shared by every later caller."""
        return orbit(self)


@dataclass(frozen=True)
class Orbit:
    """Exponent vectors k . lambda indexed like the group elements.

    It holds no reference back to its weight, which caches it: a cycle would
    keep every weight drawn and rejected alive until the cyclic collector ran.
    """

    points: tuple  # tuple of n-tuples of Cyclotomic, one per element
    classes: tuple  # tuple of tuples of element indices with equal points
    point_class: tuple  # element index -> class id

    @property
    def distinct_count(self):
        return len(self.classes)


def orbit(w: Weight) -> Orbit:
    group = w.group
    # equal coordinates share one object: the weight keeps its orbit, and the
    # orbit of a permutation group has no more distinct coordinates than it
    coords = {}
    points = tuple(
        tuple(coords.setdefault(x, x) for x in m.apply(w.entries))
        for m in group.elements
    )
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
        points,
        tuple(tuple(c) for c in classes),
        tuple(point_class),
    )


def is_generic(w: Weight) -> bool:
    """No element besides the identity fixes the weight (orbit-stabilizer)."""
    return w.orbit.distinct_count == w.group.order


def stabilizer_order(w: Weight) -> int:
    return w.group.order // w.orbit.distinct_count


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

    def shift(self, s) -> "FormalExp":
        """e^s times this sum: every exponent moves by s, no coefficient
        changes, and distinct exponents stay distinct."""
        return FormalExp({s + t: c for t, c in self.terms.items()}, _clean=True)

    def conj(self) -> "FormalExp":
        return FormalExp(
            {s.conj(): c.conj() for s, c in self.terms.items()}
        )

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
        return InducedModel(w.group, w, w.orbit)

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


def _phase(phases, mu, x):
    """The exponent -<mu, x> of a phase, read from `phases` (exponent vector
    -> exponent) and kept there when computed on the spot."""
    s = phases.get(mu)
    if s is None:
        s = phases[mu] = -linalg.dot(mu, x)
    return s


def model_act(m: InducedModel, g: GroupElement, v, phases=None):
    """Action (pi(x, k) v)(h) = exp(-<mu_h, x>) v(k^-1 h).

    `phases` is a table of the exponents -<mu, x> for this g, shared with
    `eigenspace_action` by `equivariance_check`; by default a fresh one.
    """
    if g.group is not m.group:
        raise ValueError("element belongs to a different group")
    if phases is None:
        phases = {}
    row = m.group.mult_table[m.group.inverse_table[g.rotation]]
    points = m.orbit.points
    x = g.translation
    out = []
    for h in range(m.dimension):
        entry = v[row[h]]
        if entry:
            entry = entry.shift(_phase(phases, points[h], x))
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


def eigenspace_action(group: ReflectionGroup, g: GroupElement, p: PlaneWaveSum, phases=None) -> PlaneWaveSum:
    """Action of the motion group on plane waves:
    e^<mu, .> -> exp(-<k mu, y>) e^<k mu, .> for g = (y, k).

    Each k mu is computed by `RMatrix.apply`, once per rotation and
    exponent for the life of the group (`ReflectionGroup.rotated_points`).
    The phases are read from `phases` as in `model_act`.
    """
    if g.group is not group:
        raise ValueError("element belongs to a different group")
    if phases is None:
        phases = {}
    k = group.elements[g.rotation]
    memo = group.rotated_points[g.rotation]
    y = g.translation
    out = {}
    for mu, c in p.waves.items():
        new_mu = memo.get(mu)
        if new_mu is None:
            new_mu = memo[mu] = k.apply(mu)
        linalg.add_term(out, new_mu, c.shift(_phase(phases, new_mu, y)))
    return PlaneWaveSum(p.dimension, out, _clean=True)


def equivariance_check(m: InducedModel, g: GroupElement, v) -> bool:
    """Exact formal identity F(pi(g) v) = T(g) F(v).

    Both sides read their phases from one table, so each distinct orbit
    point is paired with the translation once (see the module docstring
    for why sharing it hides no defect).
    """
    phases = {}
    lhs = intertwiner(m, model_act(m, g, v, phases))
    rhs = eigenspace_action(m.group, g, intertwiner(m, v), phases)
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


def _phases(exponents, precision: int):
    """e^s for exact purely imaginary s, as integer pairs (re, im) at scale 2^P.

    P = precision + 10.  Each distinct exponent is embedded once: its angle
    Im s by `Cyclotomic.embed` at scale 2^(P+4), within one unit there, and
    e^s by `cis_fixed` at that scale, within one more unit.  Rounded to
    2^P, each part is within 5/8 of a unit however large |s| is.
    """
    bits = precision + 10
    seen = {}
    out = []
    for s in exponents:
        z = seen.get(s)
        if z is None:
            c, si = cis_fixed(s.embed(bits + 4)[1], bits + 4)
            z = seen[s] = ((c + 8) >> 4, (si + 8) >> 4)
        out.append(z)
    return out


def _action_phases(m: InducedModel, g: GroupElement, precision: int):
    """The entries e^s of pi(g) u*, read from `model_act`, through `_phases`."""
    entries = model_act(m, g, m.fixed_vector())
    if any(len(e.terms) != 1 or ONE not in e.terms.values() for e in entries):
        raise InternalConsistencyError("pi(g) u* must have one unit phase per entry")
    return _phases([next(iter(e.terms)) for e in entries], precision)


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

    The samples must be g_j = (j y, k_j) for j = 0, 1, ..., r - 1 with
    r >= |K|, the powers of one translation that `dual_sample_elements`
    draws.  Each sample contributes the coordinate row of the dual vector
    pi^c(g_j) u* in the dual basis (`_dual_rows`).  The check passes when
    every singular value of the row matrix A exceeds t = 2^(-(precision // 2)),
    that is, when A^H A - t^2 I is positive definite; this is decided by an
    LDL^H factorization of the exact Gaussian-integer Gram matrix of the
    fixed-point rows, with no SVD.
    """
    if len(samples) < m.dimension:
        raise InsufficientSamplesError(
            f"need at least {m.dimension} samples, got {len(samples)}"
        )
    y = samples[min(1, len(samples) - 1)].translation
    if any(g.translation != tuple(j * t for t in y) for j, g in enumerate(samples)):
        raise ValueError("dual samples must be (j y, k) for j = 0, 1, ..., r - 1")
    bits = precision + 10
    xs, ys = _dual_rows(m, samples, precision)
    t_sq = 1 << (2 * (bits - precision // 2))
    return linalg.gram_positive_definite(xs, ys, t_sq, 2 * bits)


def _dual_rows(m: InducedModel, samples, precision: int):
    """The rows pi^c(g_j) u* at scale 2^P, P = precision + 10, by columns.

    Returns the real and the imaginary integer parts of each column of A.
    Entry h of row j is conj(z_h)^j, where z_h = e^(-<mu_h, y>) is read from
    `model_act` at g_1 and embedded once by `_phases`.  Row j is the row
    before times that phase row, one Gaussian-integer product per entry.

    Error budget: z_h is within one unit of 2^(-P) (`_phases`), and each
    product carries the error before it and adds a rounding of at most 2
    units, so every entry of r rows is within about (2r + 1) * 2^(-P).  At
    |K| = 384 and precision 128 that is below 2^(-110), far below
    t = 2^(-64).  The
    last row is compared with `model_act` at g_(r-1), embedded directly;
    a difference above t / 2^8 is an internal error.
    """
    bits = precision + 10
    r = len(samples)
    xs, ys = [], []
    for a, b in _action_phases(m, samples[min(1, r - 1)], precision):
        # multiply by conj(z) = a - ib
        x, y = 1 << bits, 0
        col_x, col_y = [x], [y]
        for _ in range(r - 1):
            x, y = (x * a + y * b) >> bits, (y * a - x * b) >> bits
            col_x.append(x)
            col_y.append(y)
        xs.append(col_x)
        ys.append(col_y)
    tol = 1 << (bits - precision // 2 - 8)
    last = _action_phases(m, samples[-1], precision)
    for (a, b), x, y in zip(last, xs, ys):
        if abs(a - x[-1]) > tol or abs(b + y[-1]) > tol:
            raise InternalConsistencyError(
                "dual row powers disagree with model_act"
            )
    return xs, ys


# -- evaluation matrix ------------------------------------------------------------


def evaluation_matrix(m: InducedModel, harmonics: HarmonicSpace):
    """Matrix M[i][k] = H_i(mu_k) of exact cyclotomic scalars, harmonics
    along rows, orbit along columns (base point 0)."""
    cols = m.orbit.points
    return [[h.evaluate(mu) for mu in cols] for h in harmonics.flat_basis()]


def _evaluate_mod(terms, powers, p):
    """Value mod p of reduced polynomial terms; powers[i][k] = x_i^k mod p."""
    acc = 0
    for e, c in terms.items():
        for i, k in enumerate(e):
            if k:
                c *= powers[i][k]
        acc += c
    return acc % p


def evaluation_rank(m: InducedModel, harmonics: HarmonicSpace) -> int:
    """Exact rank of the evaluation matrix at base point 0.

    Duplicate orbit columns are collapsed first (they are exactly equal).
    The orbit points and the harmonic coefficients are reduced mod a split
    prime before anything is evaluated, and the matrix is built and
    eliminated in F_p.  Reduction is a ring homomorphism, so this is the
    reduction of the exact matrix and its rank bounds the exact rank from
    below; when it reaches min(rows, cols) the rank is settled exactly.
    Otherwise the exact matrix is built and eliminated over the cyclotomic
    field.
    """
    orb = m.orbit
    basis = harmonics.flat_basis()
    cols = [orb.points[cls[0]] for cls in orb.classes]
    if basis and cols:
        red = Reduction(
            [x for mu in cols for x in mu]
            + [c for h in basis for c in h.terms.values()]
        )
        p = red.p
        top = max(h.degree() for h in basis)
        powers = [
            [[pow(red.scalar(x), k, p) for k in range(top + 1)] for x in mu]
            for mu in cols
        ]
        rows = [
            [_evaluate_mod(terms, pw, p) for pw in powers]
            for terms in (red.poly(h) for h in basis)
        ]
        lower = linalg.rank_mod(rows, len(cols), p)
        if lower == min(len(rows), len(cols)):
            return lower
    rows = [[h.evaluate(mu) for mu in cols] for h in basis]
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
      numeric nullspace counts the columns whose norm is below
      2^(-precision/2), each squared norm an exact integer sum of the
      fixed-point phase differences from `_phases`.

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

    # numeric path at the requested precision: per orbit element h, the
    # phases e^(-<mu_h, x>) of every sample translation x in fixed point
    bits = precision + 10
    t_sq = 1 << (2 * (bits - precision // 2))
    per_x = []
    for t in sample_translations:
        x = [cyc(v) for v in t]
        per_x.append(_phases([-linalg.dot(mu, x) for mu in m.orbit.points], precision))
    phase = [[v for z in zs for v in z] for zs in zip(*per_x)]
    numeric_dim = 0
    for g in range(group.order):
        # an exact integer that only grows: it stops once it reaches t^2
        norm_sq = 0
        for h in range(group.order):
            norm_sq += sum((a - b) ** 2 for a, b in zip(phase[h], phase[table[h][g]]))
            if norm_sq >= t_sq:
                break
        else:
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


_WEIGHT_BOUND = 9
_WEIGHT_TRIES = 1000


def random_generic_weight(group, rng) -> Weight:
    """Random purely imaginary weight with trivial stabilizer: i times an
    integer vector in [-_WEIGHT_BOUND, _WEIGHT_BOUND]^n, drawn at most
    _WEIGHT_TRIES times."""
    for _ in range(_WEIGHT_TRIES):
        entries = tuple(
            I_UNIT * rng.randint(-_WEIGHT_BOUND, _WEIGHT_BOUND)
            for _ in range(group.dimension)
        )
        w = Weight(group, entries)
        if not w.is_zero() and is_generic(w):
            return w
    raise InternalConsistencyError("could not sample a generic weight")
