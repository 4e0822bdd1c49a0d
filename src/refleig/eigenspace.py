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
different exponents or coefficients on the two sides.  For an integer
translation, `InducedModel.phase_table` fills the table for every distinct
orbit point in one pass, from the orbit lifted once to one order and one
denominator; a k mu off the orbit still misses it.

`eigen_check` evaluates every invariant at every orbit point from one table
of powers per distinct coordinate value, keyed by the value.

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

Both numeric routes work in integer fixed point and threshold at
t = 2^(-(p // 2)) for the working precision p.  Each is sound only on a
sample designed from the orbit for that t, so each certificate takes the
model and p and designs its own: `_commutant_translations` for the
commutant, `dual_sample_elements` for the dual-orbit test.  No caller
supplies a sample.  One helper, `_phases`, embeds each e^s they need once,
through the integer embedding of `cyclotomic` (`Cyclotomic.embed`,
`cis_fixed`), within 5/8 of a unit at scale 2^(p + 10); the dual-orbit test
asks it for more bits than p.

The dual-orbit test of Theorem 3.10 is the independent numeric route.  Its
sample is designed from the orbit (`dual_sample_elements`): the powers
(j x, 0), j < r, of one translation x that gives the distinct orbit points
exactly distinct angles in [-1.5, 1.5], at least 2^(-gap_bits) apart.  The
rows pi^c(g_j) u* then form a Vandermonde matrix A in the nodes
z_h = e^(-<mu_h, x>) read from `model_act`.  A passes when every singular
value exceeds t; `dual_cyclic_check` decides it with no Gram matrix and no
factorization: a Dirichlet-kernel bound on each off-diagonal entry of A^H A
and Gershgorin's theorem turn certified gaps |z_h - z_h'| into
lambda_min(A^H A) >= r / 2 for an r read from those gaps (A. Moitra,
Super-resolution, extremal functions and the condition number of Vandermonde
matrices, STOC 2015, for why separated nodes give a controlled sigma_min).
The r-th power of the nodes is checked against `model_act` embedded
directly.
"""

import math
import operator
from fractions import Fraction
from functools import cached_property

from . import linalg
from .cyclotomic import (
    Cyclotomic,
    I_UNIT,
    ONE,
    Reduction,
    ZERO,
    _finish,
    cis_fixed,
    common_lift,
    cyc,
    euler_phi,
    sum_of_products,
)
from .errors import InternalConsistencyError
from .groups import GroupElement, ReflectionGroup
from .harmonics import HarmonicSpace


class Weight:
    """Purely imaginary exact vector: the spectral parameter of an eigenspace."""

    def __init__(self, group: ReflectionGroup, entries):
        entries = tuple(cyc(x) for x in entries)
        if len(entries) != group.dimension:
            raise ValueError("weight length must match the group dimension")
        for x in entries:
            if x.conj() != -x:
                raise ValueError(
                    "weight entries must be purely imaginary (conj = negation)"
                )
        self.group = group
        self.entries = entries

    def is_zero(self):
        return all(not x for x in self.entries)

    @cached_property
    def orbit(self) -> "Orbit":
        """The orbit, built once by `orbit(w)` and shared by every later caller."""
        return orbit(self)


class Orbit:
    """Exponent vectors k . lambda indexed like the group elements.

    It holds no reference back to its weight, which caches it: a cycle would
    keep every weight drawn and rejected alive until the cyclic collector ran.
    """

    __slots__ = ("points", "classes", "point_class", "reps")

    def __init__(self, points, classes, point_class, reps):
        self.points = points  # tuple of n-tuples of Cyclotomic, one per element
        self.classes = classes  # tuple of tuples of element indices with equal points
        self.point_class = point_class  # element index -> class id
        self.reps = reps  # the distinct points, one per class, in class order

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
        tuple(class_of),
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


class InducedModel:
    """Functions on the point group: the finite model of the induced rep."""

    def __init__(self, group: ReflectionGroup, weight: Weight, orbit: Orbit):
        self.group = group
        self.weight = weight
        self.orbit = orbit

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

    @cached_property
    def _lifted_points(self):
        """The distinct orbit points over one order and denominator
        (`cyclotomic.common_lift`), each with the integer vector of each
        coordinate."""
        reps = self.orbit.reps
        coords = list({x for mu in reps for x in mu})
        order, den, vecs = common_lift(coords)
        lifted = dict(zip(coords, vecs))
        return order, den, [(mu, [lifted[x] for x in mu]) for mu in reps]

    def phase_table(self, shift) -> dict:
        """The exponent -<mu, x> of every distinct orbit point mu, keyed by
        mu as `model_act` reads it, for a translation x of ints: one integer
        combination of the lifted coordinates and one canonicalization a
        point."""
        order, den, lifted = self._lifted_points
        out = {}
        for mu, vecs in lifted:
            acc = [0] * len(vecs[0])
            for t, v in zip(shift, vecs):
                if t:
                    acc = [a - t * b for a, b in zip(acc, v)]
            out[mu] = _finish(order, acc, den)
        return out


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


def equivariance_check(m: InducedModel, g: GroupElement, v, phases=None) -> bool:
    """Exact formal identity F(pi(g) v) = T(g) F(v).

    Both sides read their phases from one table, so each distinct orbit
    point is paired with the translation once (see the module docstring
    for why sharing it hides no defect).  `phases` may hold the exponents
    `InducedModel.phase_table` gives for g's translation; by default the
    table starts empty.
    """
    if phases is None:
        phases = {}
    lhs = intertwiner(m, model_act(m, g, v, phases))
    rhs = eigenspace_action(m.group, g, intertwiner(m, v), phases)
    return lhs == rhs


def eigen_check(p: PlaneWaveSum, invariants, eigenvalues) -> bool:
    """Every exponent of p gives the invariant values `eigenvalues`.

    This is the exact statement that p lies in the joint eigenspace cut out
    by the invariant differential operators at those eigenvalues, the
    weight's from `invariant_eigenvalues`.  The generators are evaluated
    at every exponent from one table of powers per distinct coordinate
    value, keyed by the value, each value of a generator one fused sum
    (`cyclotomic.sum_of_products`).
    """
    gens = invariants.generators
    top = max((gen.degree() for gen in gens), default=0)
    powers = {}
    for mu in p.waves:
        for x in mu:
            if x not in powers:
                pw = powers[x] = [ONE]
                for _ in range(top):
                    pw.append(pw[-1] * x)
    # each generator as (coefficient, ((variable, exponent), ...)) terms
    sparse = [
        [(c, tuple((i, k) for i, k in enumerate(e) if k)) for e, c in gen.terms.items()]
        for gen in gens
    ]
    for mu in p.waves:
        table = [powers[x] for x in mu]
        for terms, target in zip(sparse, eigenvalues):
            pairs = []
            for c, factors in terms:
                mono = None
                for i, k in factors:
                    mono = table[i][k] if mono is None else mono * table[i][k]
                pairs.append((c, ONE if mono is None else mono))
            if sum_of_products(pairs) != target:
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


class DualSample:
    """The designed sample of the dual-orbit test: the powers (j x, 0),
    j = 0, 1, ..., r - 1, of one translation x, with r read from the phases
    by `dual_cyclic_check`.

    Each distinct orbit point pairs with x to an angle Im <mu_h, x> in
    [-1.5, 1.5], and the angles of two distinct points differ by more than
    2^(-gap_bits).  Two samples are equal when both fields are.
    """

    __slots__ = ("translation", "gap_bits")

    def __init__(self, translation, gap_bits):
        self.translation = translation
        self.gap_bits = gap_bits

    def __eq__(self, other):
        if type(other) is not DualSample:
            return NotImplemented
        return (self.translation, self.gap_bits) == (other.translation, other.gap_bits)

    def __hash__(self):
        return hash((self.translation, self.gap_bits))


def dual_sample_elements(m: InducedModel) -> DualSample:
    """The translation x = c y of the dual-orbit test, designed from the
    orbit; nothing is drawn.

    Let D be the lcm of the denominators of the coordinates of the distinct
    orbit points and M the largest sum of absolute coordinates of D times a
    coordinate, so every Galois conjugate of D mu_h[i] is at most M in
    modulus.  y = (1, B, ..., B^(n-1)), with B the least integer from
    2M + 1 on that makes the exact pairings <mu_h, y> pairwise distinct.
    When every coordinate is a rational multiple of i the first B does: the
    D mu_h / i are then integer vectors, written in base B with digits below
    B / 2.

    Every conjugate of D <mu_h, y> is at most Q = M (1 + B + ... + B^(n-1)),
    so c = 3 D / (2 Q) puts every angle Im <mu_h, x> in [-1.5, 1.5].  The
    difference of two distinct angles is 3 / (2 Q) times a nonzero real
    algebraic integer a of Q(zeta_N), N = lcm(4, conductors), whose
    conjugates are at most 2Q and come in equal pairs; its norm is a
    nonzero integer, so |a| >= (2Q)^(1 - e) with e = phi(N) / 2, and the
    angles differ by more than 2^(-gap_bits), gap_bits = e bit_length(2Q).
    """
    reps = m.orbit.reps
    n = m.group.dimension
    coords = {x for mu in reps for x in mu}
    den = math.lcm(*(x.den for x in coords))
    bound = max(sum(map(abs, x.nums.values())) * (den // x.den) for x in coords)
    base = 2 * bound + 1
    while True:
        y = [cyc(base**j) for j in range(n)]
        if len({linalg.dot(mu, y) for mu in reps}) == len(reps):
            break
        base += 1
    total = bound * sum(base**j for j in range(n))
    scale = Fraction(3 * den, 2 * total) if total else 1
    e = euler_phi(math.lcm(4, *(x.order for x in coords))) // 2
    return DualSample(
        tuple(t * scale for t in y), e * (2 * total).bit_length()
    )


def dual_cyclic_check(m: InducedModel, precision: int = 128) -> bool:
    """Numeric test that the dual orbit of the fixed functional spans.

    The rows pi^c(g_j) u* over the samples g_j = (j x, 0), j < r, of the
    sample `dual_sample_elements(m)` designs form the Vandermonde matrix A
    with entries conj(z_h)^j, z_h = e^(-<mu_h, x>) read from `model_act`
    at (x, 0).  The check passes when every singular value of A exceeds
    t = 2^(-(precision // 2)), that is, when A^H A - t^2 I is positive
    definite.

    A duplicate orbit point gives two equal columns, so sigma_min = 0
    exactly and the check fails with no numeric work.  Otherwise
    G = A^H A has r on its diagonal and |G_hh'| = |1 - w^r| / |1 - w|
    <= 2 / |z_h - z_h'| off it (w = z_h conj(z_h'), a Dirichlet kernel).
    `_gershgorin_rows` bounds every gap |z_h - z_h'| from below and takes r
    at least twice the largest row sum of 2 / |z_h - z_h'| plus |K|, so
    by Gershgorin lambda_min(G) >= r / 2 > t^2: the check passes exactly
    when every gap is certified positive, and no Gram entry is formed.

    The phases are embedded at `precision` plus gap_bits + bit_length(|K|)
    + 11 bits, enough that the designed gap 2^(-gap_bits) always shows and
    that z_h^(r-1), by repeated squaring, carries bit_length(r) + 8 guard
    bits.  It is compared with `model_act` at ((r-1) x, 0), embedded
    directly; a difference above t / 2^8 is an internal error.
    """
    if m.orbit.distinct_count < m.dimension:
        return False
    sample = dual_sample_elements(m)
    group = m.group
    work = precision + sample.gap_bits + m.dimension.bit_length() + 11
    bits = work + 10
    x = sample.translation
    z = _action_phases(m, GroupElement(group, x, 0), work)
    r = _gershgorin_rows(z, bits, sample.gap_bits)
    last = _action_phases(m, GroupElement(group, tuple((r - 1) * t for t in x), 0), work)
    tol = 1 << (bits - precision // 2 - 8)
    for (a, b), (c, d) in zip(last, (_power(zh, r - 1, bits) for zh in z)):
        if abs(a - c) > tol or abs(b - d) > tol:
            raise InternalConsistencyError("dual row powers disagree with model_act")
    return True


def _gershgorin_rows(z, bits: int, gap_bits: int) -> int:
    """The row count r = 2 max_h sum_h' 2 / |z_h - z_h'| + |K|, each term
    bounded above from the phases z at scale 2^bits.

    Each part of each phase is within 5/8 unit (`_phases`), so a gap is at
    least isqrt(|z_h - z_h'|^2) - 2 units.  The design keeps every gap
    above 0.66 * 2^(-gap_bits), which puts r below 8 |K| 2^gap_bits; a gap
    that is not certified positive, or a larger r, contradicts it and is an
    internal error.
    """
    k = len(z)
    xs = [a for a, _ in z]
    ys = [b for _, b in z]
    num = 1 << (bits + 1)
    sums = [0] * k
    for h in range(k - 1):
        a, b = xs[h], ys[h]
        gaps = [
            math.isqrt((a - c) ** 2 + (b - d) ** 2) - 2
            for c, d in zip(xs[h + 1:], ys[h + 1:])
        ]
        if min(gaps) <= 0:
            raise InternalConsistencyError("dual phases closer than the designed gap")
        terms = [num // g + 1 for g in gaps]
        sums[h] += sum(terms)
        sums[h + 1:] = map(operator.add, sums[h + 1:], terms)
    r = 2 * max(sums) + k
    if r > (8 * k) << gap_bits:
        raise InternalConsistencyError("dual phases closer than the designed gap")
    return r


def _power(z, n: int, bits: int):
    """z^n by repeated squaring for a Gaussian integer z at scale 2^bits;
    each product adds at most two units of rounding."""
    a, b = z
    pa, pb = 1 << bits, 0
    while n:
        if n & 1:
            pa, pb = (pa * a - pb * b) >> bits, (pa * b + pb * a) >> bits
        n >>= 1
        if n:
            a, b = (a * a - b * b) >> bits, (a * b) >> (bits - 1)
    return pa, pb


# -- evaluation matrix ------------------------------------------------------------


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
    basis = harmonics.flat_basis()
    cols = m.orbit.reps
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


def _commutant_translations(m: InducedModel, precision: int = 128):
    """The translations 2^(-k) e_i, with 2^k the least power of two at least
    2 max_h |mu_h[i]|, and further ones on an axis whose coordinates differ
    by more than that scale can show.

    Every nonzero difference d of the coordinates on axis i pairs to
    |d| 2^(-k) in (0, 1], where the phases it compares stay far apart
    compared with the numeric threshold t = 2^(-precision/2) as long as
    |d| 2^(-k) >= 2t.  A difference below 2t there gets 2^(-k_d) e_i with
    |d| 2^(-k_d) in (1/4, 1/2], largest d first, unless a translation the
    axis already has puts it in [2t, 1]: one at 2^(-k) with
    k_d - 1 <= k <= k_d + precision/2 - 3.
    """
    n = m.group.dimension
    half = precision // 2
    out = []
    for i in range(n):
        values = list({pt[i] for pt in m.orbit.points})
        k = max((_twice_abs_exponent(x) for x in values if x), default=0)
        scales = [k]
        # each value at 2^(-k), embedded at scale 2^(half + 4) within one
        # unit a part, so a difference is within 3 units of its pairing;
        # 2t is 2^5 units there
        scale = Fraction(2) ** -k
        scaled = [(x * scale).embed(half + 4) for x in values]
        limit = (2**5 + 3) ** 2
        small = set()
        for j, (ra, ia) in enumerate(scaled):
            for jb in range(j + 1, len(values)):
                rb, ib = scaled[jb]
                if (ra - rb) ** 2 + (ia - ib) ** 2 < limit:
                    small.add(_twice_abs_exponent(values[j] - values[jb]))
        for kd in sorted(small, reverse=True):
            if not any(kd - 1 <= s <= kd + half - 3 for s in scales[1:]):
                scales.append(kd)
        for k in scales:
            out.append(tuple(Fraction(2) ** -k if j == i else 0 for j in range(n)))
    return out


def _twice_abs_exponent(x) -> int:
    """The least k with 2^k >= 2 |x| for a nonzero cyclotomic x.

    |x|^2 is read as re^2 + im^2 from `Cyclotomic.embed`, at a scale where
    |x| is at least 2^62 units.  The scale starts 64 bits past the
    denominator's, so a rational multiple of a power of i, such as a
    coordinate of a weight in Q(i)^n, embeds exactly, and a modulus that is
    a power of two is found exactly.
    """
    q = 64 + x.den.bit_length()
    while True:
        re, im = x.embed(q)
        norm = re * re + im * im
        if norm >> 124:
            # 4 |x|^2 <= 4^(k+q) holds first at 2(k + q) = bit_length(4 norm - 1)
            return ((4 * norm - 1).bit_length() + 1) // 2 - q
        q += 64


def commutant_dimension(m: InducedModel, precision: int = 128) -> int:
    """Dimension of the commutant of the sampled representation.

    Two independent routes must agree:

    * numeric: solve A pi(g) = pi(g) A over all rotations and the
      translations `_commutant_translations` designs from the orbit for
      this precision.  The rotation actions are permutation matrices, so
      their exact commutant is the convolution algebra A[h, h'] = a(h^-1 h');
      imposing the translation constraints on a gives a linear system with
      one nonzero coefficient per row, whose columns are orthogonal.  Its
      numeric nullspace counts the columns whose norm is below
      2^(-precision/2), each squared norm an exact integer sum of the
      fixed-point phase differences from `_phases`.  Each translation is
      paired with the distinct orbit points only, and every element reads
      the phases of its point's class.

    * exact: the translation action is diagonal over the orbit exponents, so
      the commutant is supported on orbit-duplicate blocks; intersecting with
      the convolution algebra leaves exactly the a supported on the orbit
      stabilizer.  The dimension is counted with exact comparisons.
    """
    group = m.group
    table = m.group.mult_table

    # exact block-structure path
    pclass = m.orbit.point_class
    exact_dim = sum(
        all(pclass[table[h][g]] == pclass[h] for h in range(group.order))
        for g in range(group.order)
    )

    # numeric path at the requested precision: per orbit class, the phases
    # e^(-<mu, x>) of every designed translation x in fixed point
    bits = precision + 10
    t_sq = 1 << (2 * (bits - precision // 2))
    per_x = []
    for t in _commutant_translations(m, precision):
        x = [cyc(v) for v in t]
        per_x.append(_phases([-linalg.dot(mu, x) for mu in m.orbit.reps], precision))
    per_class = [[v for z in zs for v in z] for zs in zip(*per_x)]
    phase = [per_class[c] for c in pclass]
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
