"""Fundamental invariants and the harmonic complement.

Reference generators for the dihedral series: the squared radius and the
real part of (x1 + i x2)^n, whose expansions are frozen below and also
rebuilt independently from binomial coefficients.  The harmonics are checked
against the reference route below, the joint kernel of the invariant
differential operators solved degree by degree, which shares no code with
the construction from the Jacobian.
"""

import math
from dataclasses import replace

import pytest

from conftest import REFLECTION_BATTERY, naive_generator_products
from refleig import linalg
from refleig.cyclotomic import ONE, ZERO, cyc
from refleig.errors import InternalConsistencyError
from refleig.groups import builtin, is_pseudo_reflection
from refleig.harmonics import (
    HarmonicSpace,
    _generator_products,
    compute_harmonics,
    find_fundamental_invariants,
    verify_product_decomposition,
)
from refleig.parsing import parse_poly
from refleig.series import molien
from refleig.polynomials import (
    Poly,
    act,
    coeff_vector,
    diff_apply,
    invariant_subspace,
    jacobian,
    monomials_of_degree,
    reynolds,
)


# -- reference implementations ------------------------------------------------


def kernel_harmonics(group, invariants):
    """Joint kernel of the invariant operators: {degree: kernel vectors}.

    One constraint row per target monomial of each map p -> gen(d/dx) p
    restricted to degree k; vectors are over monomials_of_degree(n, k).
    """
    n = group.dimension
    top = sum(d - 1 for d in invariants.degrees.degrees)
    out = {}
    for k in range(top + 1):
        monos = monomials_of_degree(n, k)
        rows = []
        for gen, d in zip(invariants.generators, invariants.degrees.degrees):
            if d > k:
                continue
            target = monomials_of_degree(n, k - d)
            target_index = {e: i for i, e in enumerate(target)}
            block = [[ZERO] * len(monos) for _ in target]
            for col, e in enumerate(monos):
                img = diff_apply(gen, Poly.monomial(n, e))
                for te, c in img.terms.items():
                    block[target_index[te]][col] = c
            rows.extend(block)
        if rows:
            out[k] = linalg.nullspace(rows, len(monos), ONE)
        else:
            out[k] = [
                [ONE if i == j else ZERO for j in range(len(monos))]
                for i in range(len(monos))
            ]
    return out


def noether_invariant_candidates(group, max_degree=None):
    """Exhaustive Reynolds images of all monomials up to the group order.

    The classical degree bound: invariants of a finite group are generated
    in degree <= |K|.
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


def full_reynolds_generators(group, degrees):
    """Generators picked from the Reynolds images of every monomial.

    The search without the Molien stop: at each degree all monomials are
    projected, and the first reduced echelon row outside the subalgebra of
    the generators so far is picked.
    """
    n = group.dimension
    chosen = []
    for d in degrees:
        monos = monomials_of_degree(n, d)
        invariants = linalg.RowSpan(len(monos))
        for e in monos:
            invariants.add(coeff_vector(reynolds(group, Poly.monomial(n, e)), monos))
        products = linalg.RowSpan(len(monos))
        for prod in _generator_products(chosen, [g.degree() for g in chosen], d, n):
            products.add(coeff_vector(prod, monos))
        row = next(r for r in invariants.rows if products.add(r))
        chosen.append(Poly(n, dict(zip(monos, row))))
    return chosen


def graded_subalgebra_dims(generators, up_to: int):
    """Graded dimensions of the algebra the generators span, and the spans.

    Works for any homogeneous generating set (no independence assumed): at
    each degree the span of all products of generators is ranked exactly.
    """
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


# -- fundamental invariants ---------------------------------------------------


def radial_and_angular(n):
    """x1^2 + x2^2 and the expansion of Re((x1 + i x2)^n)."""
    radial = parse_poly("x1^2 + x2^2", 2)
    angular = Poly.zero(2)
    for j in range(0, n + 1, 2):
        sign = -1 if (j // 2) % 2 else 1
        angular = angular + Poly.monomial(
            2, (n - j, j), cyc(sign * math.comb(n, j))
        )
    return radial, angular


def test_dihedral3_generators_frozen():
    invariants = find_fundamental_invariants(builtin("dihedral:3"))
    assert invariants.degrees.degrees == (2, 3)
    gens = list(invariants.generators)
    assert gens[0] == parse_poly("x1^2 + x2^2", 2)
    assert gens[1] == parse_poly("x1^3 - 3*x1*x2^2", 2)


def test_degrees_battery():
    expected = {
        "dihedral:5": (2, 5),
        "symmetric:4": (1, 2, 3, 4),
        "hyperoctahedral:3": (2, 4, 6),
    }
    for spec, degrees in expected.items():
        invariants = find_fundamental_invariants(builtin(spec))
        assert invariants.degrees.degrees == degrees


def test_generators_are_invariant():
    group = builtin("hyperoctahedral:2")
    invariants = find_fundamental_invariants(group)
    for p in invariants.generators:
        for k in group.elements:
            assert act(k, p) == p


def test_dihedral_harmonic_profile():
    for n in (3, 4, 6):
        group = builtin(f"dihedral:{n}")
        invariants = find_fundamental_invariants(group)
        harmonics = compute_harmonics(group, invariants)
        dims = [len(basis) for _, basis in harmonics.basis_by_degree]
        assert dims == [1] + [2] * (n - 1) + [1]
        assert harmonics.total_dimension == 2 * n


def test_top_dihedral_harmonic_is_antisymmetric():
    group = builtin("dihedral:5")
    invariants = find_fundamental_invariants(group)
    harmonics = compute_harmonics(group, invariants)
    top_degree, top_basis = harmonics.basis_by_degree[-1]
    assert top_degree == 5 and len(top_basis) == 1
    reflection = group.elements[group.generator_indices[1]]
    assert act(reflection, top_basis[0]) == top_basis[0] * cyc(-1)


def test_harmonics_are_killed_by_invariant_operators():
    group = builtin("symmetric:3")
    invariants = find_fundamental_invariants(group)
    harmonics = compute_harmonics(group, invariants)
    for gen in invariants.generators:
        for _, basis in harmonics.basis_by_degree:
            for h in basis:
                assert diff_apply(gen, h) == Poly.zero(group.dimension)


def test_harmonic_total_matches_order():
    for spec in ("dihedral:8", "symmetric:4", "hyperoctahedral:2"):
        group = builtin(spec)
        invariants = find_fundamental_invariants(group)
        harmonics = compute_harmonics(group, invariants)
        assert harmonics.total_dimension == group.order


def test_dihedral_subalgebra_matches_classical_generators():
    for n in (3, 4, 5):
        group = builtin(f"dihedral:{n}")
        computed = list(find_fundamental_invariants(group).generators)
        reference = list(radial_and_angular(n))
        assert generate_same_subalgebra(computed, reference, up_to=2 * n)


def test_symmetric_subalgebra_matches_elementary_symmetrics():
    group = builtin("symmetric:3")
    computed = list(find_fundamental_invariants(group).generators)
    e1 = parse_poly("x1 + x2 + x3", 3)
    e2 = parse_poly("x1*x2 + x1*x3 + x2*x3", 3)
    e3 = parse_poly("x1*x2*x3", 3)
    assert generate_same_subalgebra(computed, [e1, e2, e3], up_to=8)


def test_product_decomposition_holds_and_detects_corruption():
    group = builtin("dihedral:4")
    invariants = find_fundamental_invariants(group)
    harmonics = compute_harmonics(group, invariants)
    report = verify_product_decomposition(group, invariants, harmonics, 8)
    assert report

    damaged_layers = []
    for degree, basis in harmonics.basis_by_degree:
        if degree == 2:
            basis = basis[:1]
        damaged_layers.append((degree, tuple(basis)))
    damaged = HarmonicSpace(
        tuple(damaged_layers), sum(len(b) for _, b in damaged_layers)
    )
    broken = verify_product_decomposition(group, invariants, damaged, 8)
    assert not broken
    assert broken.failed_degree == 2

    # a repeated harmonic keeps the count and loses the span: the rank mod p
    # misses, and the exact elimination it falls back to decides
    repeated_layers = []
    for degree, basis in harmonics.basis_by_degree:
        if degree == 2:
            basis = (basis[0], basis[0])
        repeated_layers.append((degree, tuple(basis)))
    repeated = HarmonicSpace(tuple(repeated_layers), group.order)
    broken = verify_product_decomposition(group, invariants, repeated, 8)
    assert not broken
    assert broken.failed_degree == 2
    assert broken.detail == "products span rank 2 < dim S^2 = 3"


def test_noether_candidates_span_the_invariant_subspaces():
    group = builtin("dihedral:3")
    candidates = noether_invariant_candidates(group)
    for degree in range(group.order + 1):
        layer = [p for p in candidates if p.degree() == degree]
        monomials = monomials_of_degree(group.dimension, degree)
        rows = [coeff_vector(p, monomials) for p in layer]
        rank = linalg.rank(rows, len(monomials)) if rows else 0
        assert rank == len(invariant_subspace(group, degree))


@pytest.mark.parametrize(
    "spec", ("symmetric:4", "hyperoctahedral:3", "dihedral:5", "dihedral:8")
)
def test_molien_bounded_search_matches_the_full_reynolds_loop(pipeline, spec):
    group, invariants, _ = pipeline(spec)
    reference = full_reynolds_generators(group, invariants.degrees.degrees)
    assert list(invariants.generators) == reference


@pytest.mark.parametrize(
    "spec", ("symmetric:4", "hyperoctahedral:3", "dihedral:5", "dihedral:7")
)
def test_memoized_generator_products_match_the_naive_powers(pipeline, spec):
    group, invariants, _ = pipeline(spec)
    gens = invariants.generators
    degs = list(invariants.degrees)
    for target in range(2 * max(degs) + 1):
        assert _generator_products(
            gens, degs, target, group.dimension
        ) == naive_generator_products(gens, degs, target, group.dimension)


def test_invariant_subspace_stops_at_the_molien_dimension():
    group = builtin("symmetric:4")
    series = molien(group, 8)
    for degree in range(9):
        dim = int(series[degree])
        assert invariant_subspace(group, degree, dim) == invariant_subspace(
            group, degree
        )
        with pytest.raises(InternalConsistencyError, match="Molien series says"):
            invariant_subspace(group, degree, dim + 1)


# -- harmonics from the Jacobian ----------------------------------------------


@pytest.mark.parametrize(
    "spec", REFLECTION_BATTERY + ("trivial:2", "symmetric:1")
)
def test_jacobian_layers_span_the_kernel_reference(pipeline, spec):
    group, invariants, harmonics = pipeline(spec)
    reference = kernel_harmonics(group, invariants)
    assert sorted(reference) == [k for k, _ in harmonics.basis_by_degree]
    for k, basis in harmonics.basis_by_degree:
        monos = monomials_of_degree(group.dimension, k)
        span = linalg.RowSpan(len(monos))
        for vec in reference[k]:
            span.add(vec)
        assert span.rank == len(basis)
        for h in basis:
            assert span.contains(coeff_vector(h, monos))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # one degree too high: the top layer must sit at sum(d_i - 1)
        (lambda delta: delta * Poly.variable(2, 0), "Jacobian has degree"),
        # right degree, but its partials span too little
        (lambda delta: parse_poly("x1^3", 2), "harmonic dimension"),
        # right degree and ranks, but not harmonic: the exact twin fires
        (lambda delta: parse_poly("x1^3 + x2^3", 2), "not killed"),
    ],
    ids=["delta-times-x1", "x1-cubed", "sum-of-cubes"],
)
def test_corrupted_jacobian_raises(pipeline, corrupt, message):
    group, invariants, _ = pipeline("dihedral:3")
    damaged = replace(invariants, jacobian=corrupt(invariants.jacobian))
    with pytest.raises(InternalConsistencyError, match=message):
        compute_harmonics(group, damaged)


def test_dihedral3_jacobian_is_the_product_of_reflecting_lines():
    group = builtin("dihedral:3")
    invariants = find_fundamental_invariants(group)
    delta = jacobian(list(invariants.generators))
    assert invariants.jacobian == delta
    lines = Poly.constant(2, ONE)
    count = 0
    for k in group.elements:
        if not is_pseudo_reflection(k):
            continue
        # I - k has rank one, so a nonzero column is normal to the mirror
        columns = [
            [(ONE if i == j else ZERO) - k.rows[i][j] for i in range(2)]
            for j in range(2)
        ]
        normal = next(c for c in columns if any(c))
        lines = lines * Poly(2, {(1, 0): normal[0], (0, 1): normal[1]})
        count += 1
    assert count == 3
    lead = lines.leading_monomial()
    scale = delta.terms[lead] * lines.terms[lead].inverse()
    assert scale and delta == lines * scale
