"""Fundamental invariants and harmonic polynomials.

Generators are found degree by degree: at each exponent degree the Reynolds
image basis is scanned in graded-lex order for the first invariant outside
the subalgebra generated so far, which makes the output deterministic.  The
harmonics are the joint kernel of the generator differential operators; their
graded dimensions must match the harmonic Hilbert series and their total the
group order, both asserted.
"""

from dataclasses import dataclass

from . import linalg
from .cyclotomic import ONE, ZERO
from .errors import GeneratorSearchError, InternalConsistencyError
from .polynomials import (
    Poly,
    coeff_vector,
    diff_apply,
    invariant_subspace,
    jacobian_independent,
    monomials_of_degree,
    poly_from_vector,
    reynolds,
)
from .series import (
    DegreeVector,
    default_truncation,
    extract_degrees,
    harmonic_hilbert,
    molien_truncated,
)


@dataclass(frozen=True)
class FundamentalInvariants:
    """Algebraically independent invariant generators, ascending degree."""

    generators: tuple
    degrees: DegreeVector

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


@dataclass(frozen=True)
class HarmonicSpace:
    """Graded basis of the harmonic polynomials of a reflection group."""

    basis_by_degree: tuple  # tuple of (degree, tuple-of-Poly) pairs
    total_dimension: int

    def flat_basis(self):
        out = []
        for _, basis in self.basis_by_degree:
            out.extend(basis)
        return out


def _exponent_solutions(degrees, target):
    """All e >= 0 with sum e_i * degrees_i = target, deterministic order."""
    out = []

    def rec(idx, rem, acc):
        if idx == len(degrees):
            if rem == 0:
                out.append(tuple(acc))
            return
        d = degrees[idx]
        top = rem // d
        for k in range(top, -1, -1):
            rec(idx + 1, rem - k * d, acc + [k])

    rec(0, target, [])
    return out


def _generator_products(generators, degrees, target, nvars):
    """Every power product of the generators of total degree `target`."""
    out = []
    for exps in _exponent_solutions(degrees, target):
        prod = Poly.constant(nvars, ONE)
        for gen, e in zip(generators, exps):
            if e:
                prod = prod * gen ** e
        out.append(prod)
    return out


def _normalize_leading(p: Poly) -> Poly:
    lead = p.leading_monomial()
    c = p.terms[lead]
    if c == ONE:
        return p
    return p * c.inverse()


def find_fundamental_invariants(group, series=None) -> FundamentalInvariants:
    """Search for generators at the exponent degrees from the Molien series.

    A Molien series already at hand may be passed as `series` to skip
    recomputing it; degrees are always read at the default truncation.
    """
    mol = molien_truncated(group, default_truncation(group), series)
    degrees = extract_degrees(mol, group.dimension, group.order)
    chosen = []
    chosen_degs = []
    for d in degrees:
        monos = monomials_of_degree(group.dimension, d)
        span = linalg.RowSpan(len(monos))
        for prod in _generator_products(chosen, chosen_degs, d, group.dimension):
            span.add(coeff_vector(prod, monos))
        picked = None
        for candidate in invariant_subspace(group, d):
            if span.add(coeff_vector(candidate, monos)):
                picked = _normalize_leading(candidate)
                break
        if picked is None:
            raise GeneratorSearchError(
                f"no new invariant generator exists at degree {d}"
            )
        chosen.append(picked)
        chosen_degs.append(d)
    if not jacobian_independent(chosen):
        raise InternalConsistencyError(
            "chosen generators have vanishing Jacobian"
        )
    return FundamentalInvariants(tuple(chosen), degrees)


def compute_harmonics(group, invariants: FundamentalInvariants) -> HarmonicSpace:
    """Joint kernel of the invariant differential operators, degree by degree."""
    n = group.dimension
    hh = harmonic_hilbert(invariants.degrees)
    expected = [int(c) for c in hh.coeffs]
    spaces = []
    total = 0
    for k, want in enumerate(expected):
        monos = monomials_of_degree(n, k)
        rows = []
        for gen, d in zip(invariants.generators, invariants.degrees):
            if d > k:
                continue
            target = monomials_of_degree(n, k - d)
            target_index = {e: i for i, e in enumerate(target)}
            # one constraint row per target monomial: rows of the map
            # p -> diff_apply(gen, p) restricted to degree k
            block = [[None] * len(monos) for _ in target]
            for col, e in enumerate(monos):
                img = diff_apply(gen, Poly.monomial(n, e))
                for te, c in img.terms.items():
                    block[target_index[te]][col] = c
            for row in block:
                rows.append([ZERO if x is None else x for x in row])
        if rows:
            kernel = linalg.nullspace(rows, len(monos), ONE)
        else:
            kernel = [
                [ONE if i == j else ZERO for j in range(len(monos))]
                for i in range(len(monos))
            ]
        if len(kernel) != want:
            raise InternalConsistencyError(
                f"harmonic dimension {len(kernel)} at degree {k}, "
                f"expected {want}"
            )
        basis = []
        for vec in kernel:
            p = poly_from_vector(n, monos, vec)
            basis.append(_normalize_leading(p))
        spaces.append((k, tuple(basis)))
        total += len(basis)
    if total != group.order:
        raise InternalConsistencyError(
            f"harmonic total {total} != group order {group.order}"
        )
    return HarmonicSpace(tuple(spaces), total)


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the invariant-times-harmonic spanning check."""

    ok: bool
    failed_degree: int | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def verify_product_decomposition(
    group, invariants: FundamentalInvariants, harmonics: HarmonicSpace, max_degree: int
) -> DecompositionReport:
    """Check S^k = (invariants of degree k-l) x (harmonics of degree l).

    Verifies both the dimension count and the actual span, degree by degree
    up to max_degree.
    """
    n = group.dimension
    degs = list(invariants.degrees)
    harm = dict(harmonics.basis_by_degree)
    for k in range(max_degree + 1):
        monos = monomials_of_degree(n, k)
        dim_sk = len(monos)
        count = 0
        span = linalg.RowSpan(len(monos))
        for l in sorted(harm):
            if l > k:
                continue
            factors = _generator_products(invariants.generators, degs, k - l, n)
            count += len(factors) * len(harm[l])
            for factor in factors:
                for h in harm[l]:
                    span.add(coeff_vector(factor * h, monos))
        if count != dim_sk:
            return DecompositionReport(
                False,
                k,
                f"dimension count {count} != dim S^{k} = {dim_sk}",
            )
        if span.rank != dim_sk:
            return DecompositionReport(
                False,
                k,
                f"products span rank {span.rank} < dim S^{k} = {dim_sk}",
            )
    return DecompositionReport(True)


def noether_invariant_candidates(group, max_degree=None):
    """Exhaustive Reynolds images of all monomials up to the group order.

    The classical degree bound: invariants of a finite group are generated
    in degree <= |K|.  This is exponentially wasteful next to the default
    degree-by-degree search and exists as an optional cross-check mode.
    """
    if max_degree is None:
        max_degree = group.order
    n = group.dimension
    out = []
    for k in range(max_degree + 1):
        for e in monomials_of_degree(n, k):
            img = reynolds(group, Poly.monomial(n, e))
            if img:
                out.append(img)
    return out


def graded_subalgebra_dims(generators, up_to: int):
    """Dimensions of the graded pieces of the algebra the generators span.

    Works for any homogeneous generating set (no independence assumed): at
    each degree the span of all products of generators is ranked exactly.
    """
    if not generators:
        return {k: (1 if k == 0 else 0) for k in range(up_to + 1)}
    n = generators[0].nvars
    degs = [g.degree() for g in generators]
    dims = {}
    spans = {}
    for k in range(up_to + 1):
        monos = monomials_of_degree(n, k)
        span = linalg.RowSpan(len(monos))
        for prod in _generator_products(generators, degs, k, n):
            span.add(coeff_vector(prod, monos))
        dims[k] = span.rank
        spans[k] = span
    return dims, spans


def generate_same_subalgebra(gens_a, gens_b, up_to: int) -> bool:
    """Exact equality of graded subalgebras up to a degree bound.

    Checks identical graded dimensions plus membership of each generator of
    one family in the span of the other at its own degree.
    """
    dims_a, spans_a = graded_subalgebra_dims(gens_a, up_to)
    dims_b, spans_b = graded_subalgebra_dims(gens_b, up_to)
    if dims_a != dims_b:
        return False
    n = gens_a[0].nvars

    def members(gens, spans):
        for gen in gens:
            k = gen.degree()
            if k <= up_to:
                monos = monomials_of_degree(n, k)
                if not spans[k].contains(coeff_vector(gen, monos)):
                    return False
        return True

    return members(gens_a, spans_b) and members(gens_b, spans_a)
