"""Fundamental invariants and harmonic polynomials.

Generators are found degree by degree: at each exponent degree the Reynolds
image basis is scanned in graded-lex order for the first invariant outside
the subalgebra generated so far, which makes the output deterministic.  The
Molien coefficient at that degree is the target dimension of the basis, so
monomials are projected only until their images span it; the basis is the
reduced echelon form of the same space either way.  Their Jacobian
determinant is kept with them.

The harmonics come from Steinberg's theorem (R. Steinberg, Differential
equations invariant under finite reflection groups, Trans. AMS 112, 1964):
they are spanned by the partial derivatives of every order of the Jacobian
determinant of the fundamental invariants.  The construction runs top-down
from the Jacobian, whose degree must be sum(d_i - 1); each lower layer is the
span of the first partials of the layer above.  No fallback is needed: a
group reaching it has n algebraically independent invariants with
prod d_i = |K|, so its invariant ring is polynomial, and by
Chevalley-Shephard-Todd it is generated by pseudo-reflections.  Each layer's
rank must equal the harmonic Hilbert coefficient, and the exact twin checks
that every generator, read as a differential operator, kills every basis
element; either failure raises InternalConsistencyError.
"""

from . import linalg
from .cyclotomic import ONE, Reduction
from .errors import GeneratorSearchError, InternalConsistencyError
from .polynomials import (
    Poly,
    coeff_vector,
    diff_apply,
    invariant_subspace,
    jacobian,
    monomials_of_degree,
    poly_from_vector,
)
from .series import (
    DegreeVector,
    default_truncation,
    extract_degrees,
    harmonic_hilbert,
    molien_truncated,
)


class FundamentalInvariants:
    """Algebraically independent invariant generators, ascending degree.

    `jacobian` is their Jacobian determinant, nonzero by construction.
    """

    __slots__ = ("generators", "degrees", "jacobian")

    def __init__(self, generators, degrees: DegreeVector, jacobian: Poly):
        self.generators = generators
        self.degrees = degrees
        self.jacobian = jacobian

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


class HarmonicSpace:
    """Graded basis of the harmonic polynomials of a reflection group."""

    __slots__ = ("basis_by_degree", "total_dimension")

    def __init__(self, basis_by_degree, total_dimension: int):
        self.basis_by_degree = basis_by_degree  # tuple of (degree, tuple-of-Poly) pairs
        self.total_dimension = total_dimension

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
    """Every power product of the generators of total degree `target`.

    Each product is built once from a memo: prod(e) = prod(e - e_j) g_j with
    j the last nonzero exponent, so the products share their prefixes.
    """
    memo = {(0,) * len(generators): Poly.constant(nvars, ONE)}

    def product(exps):
        got = memo.get(exps)
        if got is None:
            j = max(i for i, e in enumerate(exps) if e)
            lower = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
            got = memo[exps] = product(lower) * generators[j]
        return got

    return [product(exps) for exps in _exponent_solutions(degrees, target)]


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
        for candidate in invariant_subspace(group, d, int(mol[d])):
            if span.add(coeff_vector(candidate, monos)):
                picked = _normalize_leading(candidate)
                break
        if picked is None:
            raise GeneratorSearchError(
                f"no new invariant generator exists at degree {d}"
            )
        chosen.append(picked)
        chosen_degs.append(d)
    delta = jacobian(chosen)
    if not delta:
        raise InternalConsistencyError(
            "chosen generators have vanishing Jacobian"
        )
    return FundamentalInvariants(tuple(chosen), degrees, delta)


def compute_harmonics(group, invariants: FundamentalInvariants) -> HarmonicSpace:
    """Harmonics as the span of the partial derivatives of the Jacobian.

    The top layer is the normalized Jacobian; each lower layer is the span of
    the first partials of the layer above, kept as reduced echelon rows.
    """
    n = group.dimension
    expected = [int(c) for c in harmonic_hilbert(invariants.degrees).coeffs]
    if sum(expected) != group.order:
        raise InternalConsistencyError(
            f"harmonic total {sum(expected)} != group order {group.order}"
        )
    top = len(expected) - 1
    delta = invariants.jacobian
    if delta.degree() != top:
        raise InternalConsistencyError(
            f"Jacobian has degree {delta.degree()}, expected {top}"
        )
    spaces = []
    layer = [delta]
    for k in range(top, -1, -1):
        monos = monomials_of_degree(n, k)
        span = linalg.RowSpan(len(monos))
        for p in layer:
            span.add(coeff_vector(p, monos))
        if span.rank != expected[k]:
            raise InternalConsistencyError(
                f"harmonic dimension {span.rank} at degree {k}, "
                f"expected {expected[k]}"
            )
        # reduced echelon rows sorted by pivot: a basis canonical for the
        # monomial order, with leading coefficient 1
        basis = tuple(poly_from_vector(n, monos, row) for row in span.rows)
        spaces.append((k, basis))
        layer = [h.partial(i) for h in basis for i in range(n)]
    spaces.reverse()
    for k, basis in spaces:
        for gen in invariants.generators:
            for h in basis:
                if diff_apply(gen, h):
                    raise InternalConsistencyError(
                        f"a degree-{k} harmonic is not killed by the "
                        f"degree-{gen.degree()} invariant operator"
                    )
    return HarmonicSpace(tuple(spaces), group.order)


class DecompositionReport:
    """Outcome of the invariant-times-harmonic spanning check."""

    __slots__ = ("ok", "failed_degree", "detail")

    def __init__(self, ok: bool, failed_degree: int | None = None, detail: str = ""):
        self.ok = ok
        self.failed_degree = failed_degree
        self.detail = detail

    def __bool__(self):
        return self.ok


def _mul_mod(a, b, p):
    """Product of two polynomials given as reduced terms mod p."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return out


def verify_product_decomposition(
    group, invariants: FundamentalInvariants, harmonics: HarmonicSpace, max_degree: int
) -> DecompositionReport:
    """Check S^k = (invariants of degree k-l) x (harmonics of degree l).

    Verifies both the dimension count and the actual span, degree by degree
    up to max_degree.  The span is first ranked mod a split prime: the
    generators and harmonics are reduced (`cyclotomic.Reduction`) and the
    products formed in F_p.  The products lie in S^k, so a rank of dim S^k
    mod p certifies the span exactly; a lower rank falls back to exact
    elimination of the exact products, which decides.
    """
    n = group.dimension
    degs = list(invariants.degrees)
    harm = dict(harmonics.basis_by_degree)
    red = Reduction(
        [c for f in invariants.generators for c in f.terms.values()]
        + [c for h in harmonics.flat_basis() for c in h.terms.values()]
    )
    p = red.p
    gens_mod = [red.poly(g) for g in invariants.generators]
    harm_mod = {l: [red.poly(h) for h in basis] for l, basis in harm.items()}
    power_products = {(0,) * len(degs): {(0,) * n: 1}}

    def power_product(exps):
        # prod g_i^e_i mod p, one multiplication per new exponent vector
        got = power_products.get(exps)
        if got is None:
            i = next(i for i, e in enumerate(exps) if e)
            lower = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            got = _mul_mod(power_product(lower), gens_mod[i], p)
            power_products[exps] = got
        return got

    for k in range(max_degree + 1):
        monos = monomials_of_degree(n, k)
        dim_sk = len(monos)
        layers = [
            (l, _exponent_solutions(degs, k - l)) for l in sorted(harm) if l <= k
        ]
        count = sum(len(sols) * len(harm[l]) for l, sols in layers)
        if count != dim_sk:
            return DecompositionReport(
                False,
                k,
                f"dimension count {count} != dim S^{k} = {dim_sk}",
            )
        rows = []
        for l, sols in layers:
            for exps in sols:
                factor = power_product(exps)
                for h in harm_mod[l]:
                    prod = _mul_mod(factor, h, p)
                    rows.append([prod.get(e, 0) for e in monos])
        if linalg.rank_mod(rows, dim_sk, p) == dim_sk:
            continue
        span = linalg.RowSpan(dim_sk)
        for l, _ in layers:
            for factor in _generator_products(invariants.generators, degs, k - l, n):
                for h in harm[l]:
                    span.add(coeff_vector(factor * h, monos))
        if span.rank != dim_sk:
            return DecompositionReport(
                False,
                k,
                f"products span rank {span.rank} < dim S^{k} = {dim_sk}",
            )
    return DecompositionReport(True)
