"""Acceptance battery: one test per contract criterion, budgets included.

Every criterion asserts exact equalities and its own wall-clock budget, so a
failure here is either a mathematical regression or a performance one.  The
shared pipeline fixture keeps group construction out of the timed sections
where the criterion is about certification work, not setup.
"""

import math
import random
import time

import pytest

from refleig import linalg
from refleig.cyclotomic import E, ZERO, cyc
from refleig.eigenspace import (
    InducedModel,
    FormalExp,
    Weight,
    commutant_dimension,
    equivariance_check,
    evaluation_rank,
    intertwiner,
    is_generic,
    orbit,
    random_generic_weight,
    zero_weight,
)
from refleig.errors import NotReflectionSeriesError
from refleig.groups import GroupElement, builtin, is_pseudo_reflection_group
from refleig.polynomials import (
    Poly,
    coeff_vector,
    invariant_subspace,
    monomials_of_degree,
)
from refleig.report import CONVENTION_NOTE, PipelineConfig, eigenspace_section
from refleig.series import extract_degrees, harmonic_hilbert, molien

from conftest import REFLECTION_BATTERY, degenerate_weight

I = E(4)


def timed(budget):
    """Context manager asserting the block stayed inside its time budget."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget, (
                    f"budget {budget}s exceeded: {self.elapsed:.2f}s"
                )
            return False

    return _Timer()


def dihedral_reference_pair(n):
    """x^2 + y^2 and the polynomial expansion of Re((x + iy)^n)."""
    radial = Poly.monomial(2, (2, 0)) + Poly.monomial(2, (0, 2))
    angular = Poly.zero(2)
    for j in range(0, n + 1, 2):
        sign = -1 if (j // 2) % 2 else 1
        angular = angular + Poly.monomial(2, (n - j, j), sign * math.comb(n, j))
    return radial, angular


def power_products(gens, degree):
    """All products of the generators with total degree exactly `degree`."""
    out = []

    def rec(idx, remaining, acc):
        if idx == len(gens):
            if remaining == 0:
                out.append(acc)
            return
        step = gens[idx]
        d = step.degree()
        power = acc
        used = 0
        while used * d <= remaining:
            rec(idx + 1, remaining - used * d, power)
            used += 1
            power = power * step

    rec(0, degree, Poly.constant(gens[0].nvars, 1))
    return out


def graded_rank(gens, degree):
    monos = monomials_of_degree(gens[0].nvars, degree)
    rows = [coeff_vector(p, monos) for p in power_products(gens, degree)]
    return linalg.rank(rows, len(monos)) if rows else 0


def spans_member(gens, candidate):
    degree = candidate.degree()
    monos = monomials_of_degree(candidate.nvars, degree)
    rows = [coeff_vector(p, monos) for p in power_products(gens, degree)]
    base = linalg.rank(rows, len(monos)) if rows else 0
    rows.append(coeff_vector(candidate, monos))
    return linalg.rank(rows, len(monos)) == base


def test_criterion_1_dihedral_battery(pipeline):
    for n in range(3, 9):
        with timed(5.0):
            group, invariants, harmonics = pipeline(f"dihedral:{n}")
            assert group.order == 2 * n
            assert tuple(invariants.degrees.degrees) == (2, n)
            assert invariants.degrees.product() == 2 * n
            assert harmonics.total_dimension == 2 * n
            profile = [len(basis) for _, basis in harmonics.basis_by_degree]
            assert profile == [1] + [2] * (n - 1) + [1]
    print("criterion 1 (dihedral battery): PASS")


def test_criterion_2_dihedral_invariant_subalgebra(pipeline):
    for n in range(3, 9):
        with timed(10.0):
            _, invariants, _ = pipeline(f"dihedral:{n}")
            computed = list(invariants.generators)
            reference = list(dihedral_reference_pair(n))
            for k in range(2 * n + 1):
                assert graded_rank(computed, k) == graded_rank(reference, k)
            for p in computed:
                assert spans_member(reference, p)
            for p in reference:
                assert spans_member(computed, p)
    print("criterion 2 (dihedral invariant subalgebra): PASS")


def test_criterion_3_molien_hilbert_identity():
    # every built-in reflection group of order at most 48
    battery = (
        [f"dihedral:{n}" for n in range(3, 25)]
        + ["symmetric:2", "symmetric:3", "symmetric:4"]
        + ["hyperoctahedral:2", "hyperoctahedral:3"]
        + ["trivial:2", "trivial:3"]
    )
    for spec in battery:
        with timed(10.0):
            group = builtin(spec)
            assert group.order <= 48
            bound = 2 * group.order
            mol = molien(group, truncation=max(bound, group.order + group.dimension))
            degrees = extract_degrees(mol, group.dimension, group.order)
            hh = harmonic_hilbert(degrees)
            n = group.dimension
            for k in range(bound + 1):
                conv = sum(
                    mol[j] * hh.coeffs[k - j]
                    for j in range(max(0, k - hh.truncation), k + 1)
                )
                assert conv == math.comb(k + n - 1, n - 1)
    print("criterion 3 (molien * harmonic hilbert identity): PASS")


def test_criterion_4_rank_and_commutant_certificates(pipeline):
    for spec in REFLECTION_BATTERY:
        group, _, harmonics = pipeline(spec)
        rng = random.Random(1000 + group.order)
        with timed(30.0):
            for _ in range(20):
                m = InducedModel.build(random_generic_weight(group, rng))
                assert evaluation_rank(m, harmonics) == group.order
                assert commutant_dimension(m) == 1
            for _ in range(5):
                m = InducedModel.build(degenerate_weight(group, rng))
                assert evaluation_rank(m, harmonics) < group.order
                assert commutant_dimension(m) > 1
            m = InducedModel.build(zero_weight(group))
            assert commutant_dimension(m) == group.order
    print("criterion 4 (rank and commutant certificates): PASS")


def test_criterion_5_equivariance_and_injectivity(pipeline):
    for spec in REFLECTION_BATTERY:
        group, _, harmonics = pipeline(spec)
        rng = random.Random(2000 + group.order)
        with timed(10.0):
            generic = random_generic_weight(group, rng)
            pinned = degenerate_weight(group, rng)
            for w in (generic, pinned):
                m = InducedModel.build(w)
                for _ in range(50):
                    g = GroupElement(
                        group,
                        tuple(
                            rng.randint(-5, 5) for _ in range(group.dimension)
                        ),
                        rng.randrange(group.order),
                    )
                    v = [
                        FormalExp.constant(rng.randint(-4, 4))
                        for _ in range(group.order)
                    ]
                    assert equivariance_check(m, g, v)
            # full evaluation rank makes the intertwiner injective
            assert (
                evaluation_rank(InducedModel.build(generic), harmonics)
                == group.order
            )
    print("criterion 5 (equivariance and injectivity): PASS")


def test_criterion_6_dihedral_eigenvalues(pipeline):
    with timed(5.0):
        for n in range(3, 9):
            group, invariants, harmonics = pipeline(f"dihedral:{n}")
            w = Weight(group, (I, I * 2))
            assert is_generic(w)
            lam_values = [g.evaluate(w.entries) for g in invariants.generators]
            for mu in orbit(w).points:
                for gen, target in zip(invariants.generators, lam_values):
                    assert gen.evaluate(mu) == target
            quad = [g for g in invariants.generators if g.degree() == 2]
            assert len(quad) == 1
            lam_sq = sum(
                (x * x for x in w.entries), start=ZERO
            )
            scale = quad[0].evaluate((cyc(1), cyc(0)))
            assert quad[0].evaluate(w.entries) == scale * lam_sq
            assert lam_sq == cyc(-5)
        # the sign convention rider must ride along with reported eigenvalues
        group, invariants, harmonics = pipeline("dihedral:3")
        section = eigenspace_section(
            group,
            invariants,
            harmonics,
            Weight(group, (I, I * 2)),
            PipelineConfig(),
            random.Random(0),
        )
        assert section["convention_note"] == CONVENTION_NOTE
        assert CONVENTION_NOTE
    print("criterion 6 (dihedral eigenvalue spot check): PASS")


def test_criterion_7_rotation_groups_are_rejected():
    with timed(5.0):
        for n in range(3, 9):
            group = builtin(f"cyclic:{n}")
            assert not is_pseudo_reflection_group(group)
            series = molien(group)
            with pytest.raises(NotReflectionSeriesError):
                extract_degrees(series, group.dimension, group.order)
    print("criterion 7 (rotation-only negative control): PASS")


def test_criterion_8_series_against_projection_ranks():
    for spec in ("symmetric:3", "hyperoctahedral:2"):
        with timed(10.0):
            group = builtin(spec)
            mol = molien(group, truncation=10)
            for k in range(11):
                assert int(mol[k]) == len(invariant_subspace(group, k))
    print("criterion 8 (series vs projection ranks): PASS")
