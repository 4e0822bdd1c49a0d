"""Eigenspace certification tests.

The commutant oracle here is deliberately independent of the library path:
it assembles the full A*pi(g) - pi(g)*A constraint system over the model
space and counts the numeric nullspace dimension, with no shared helpers.
"""

import cmath
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REFLECTION_BATTERY,
    degenerate_weight,
    evaluation_matrix,
    gram_positive_definite,
    mp_embed,
    mp_embed_formal,
)
from refleig import linalg
from refleig.cyclotomic import (
    Cyclotomic,
    E,
    ONE,
    Reduction,
    ZERO,
    cyc,
    prime_factors,
)
from refleig.errors import InternalConsistencyError
from refleig.eigenspace import (
    DualSample,
    FormalExp,
    InducedModel,
    PlaneWaveSum,
    Weight,
    commutant_dimension,
    dual_cyclic_check,
    dual_sample_elements,
    eigen_check,
    eigenspace_action,
    equivariance_check,
    evaluation_rank,
    intertwiner,
    invariant_eigenvalues,
    is_generic,
    model_act,
    orbit,
    random_generic_weight,
    stabilizer_order,
    zero_weight,
)
from refleig.groups import GroupElement, builtin, g_multiply

I = E(4)


def imag_weight(group, coords):
    return Weight(group, tuple(I * c for c in coords))


def random_element(group, rng, bound=4):
    trans = tuple(rng.randint(-bound, bound) for _ in range(group.dimension))
    return GroupElement(group, trans, rng.randrange(group.order))


# -- weights and orbits ---------------------------------------------------------


def test_weight_rejects_real_and_mixed_entries():
    group = builtin("dihedral:4")
    with pytest.raises(ValueError):
        Weight(group, (cyc(1), ZERO))
    with pytest.raises(ValueError):
        Weight(group, (E(3), ZERO))
    # zero entries are fine alongside imaginary ones
    Weight(group, (ZERO, I * 2))


def test_weight_rejects_wrong_length():
    group = builtin("dihedral:4")
    with pytest.raises(ValueError):
        Weight(group, (I,))


def test_orbit_frozen_dihedral4():
    group = builtin("dihedral:4")
    axis = imag_weight(group, (1, 0))
    orb = orbit(axis)
    assert orb.distinct_count == 4
    assert stabilizer_order(axis) == 2
    assert not is_generic(axis)

    free = imag_weight(group, (1, 2))
    orb = orbit(free)
    assert orb.distinct_count == group.order == 8
    assert stabilizer_order(free) == 1
    assert is_generic(free)


def test_orbit_classes_partition_the_group():
    group = builtin("dihedral:6")
    orb = orbit(imag_weight(group, (1, 0)))
    seen = sorted(idx for cls in orb.classes for idx in cls)
    assert seen == list(range(group.order))
    for cid, cls in enumerate(orb.classes):
        for idx in cls:
            assert orb.point_class[idx] == cid
            assert orb.points[idx] == orb.points[cls[0]]
    # distinct classes really are distinct
    reps = [orb.points[cls[0]] for cls in orb.classes]
    assert len(set(reps)) == len(reps)


def test_zero_weight_orbit_collapses():
    group = builtin("symmetric:3")
    w = zero_weight(group)
    assert w.is_zero()
    assert orbit(w).distinct_count == 1
    assert stabilizer_order(w) == group.order
    assert not is_generic(w)


def test_distinct_count_divides_order():
    rng = random.Random(7)
    for spec in ("dihedral:5", "symmetric:3", "hyperoctahedral:2"):
        group = builtin(spec)
        for _ in range(6):
            coords = [rng.randint(-3, 3) for _ in range(group.dimension)]
            w = imag_weight(group, coords)
            assert group.order % orbit(w).distinct_count == 0


# -- formal exponential ring -----------------------------------------------------

SCALAR_POOL = (
    ZERO,
    ONE,
    cyc(-2),
    cyc(Fraction(1, 2)),
    I,
    E(3),
    I * 3 + 1,
    E(6) - I,
)


@st.composite
def formal_sums(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        s = draw(st.sampled_from(SCALAR_POOL))
        c = draw(st.sampled_from(SCALAR_POOL))
        terms[s] = c
    return FormalExp(terms)


@settings(max_examples=60, deadline=None)
@given(formal_sums(), formal_sums(), formal_sums())
def test_formal_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + FormalExp.constant(0) == a
    assert a * FormalExp.constant(1) == a
    assert a - a == FormalExp.constant(0)


@settings(max_examples=60, deadline=None)
@given(formal_sums(), formal_sums())
def test_formal_conj_is_ring_map(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@settings(max_examples=40, deadline=None)
@given(formal_sums(), formal_sums())
def test_formal_embed_is_multiplicative(a, b):
    with mpmath.workprec(130):
        lhs = mp_embed_formal(a * b, 120)
        rhs = mp_embed_formal(a, 120) * mp_embed_formal(b, 120)
        assert abs(lhs - rhs) < mpmath.mpf(2) ** -80


def test_formal_exp_addition_law():
    s, t = E(3), I * 2
    assert FormalExp.exp(s) * FormalExp.exp(t) == FormalExp.exp(s + t)
    assert FormalExp.exp(ZERO) == FormalExp.constant(1) == 1
    assert not FormalExp.constant(0)
    assert FormalExp.constant(3) == 3


# -- induced model ----------------------------------------------------------------


def test_model_delta_and_fixed_vector():
    group = builtin("dihedral:3")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    assert m.dimension == group.order
    d = m.delta(2)
    assert d[2] == 1 and sum(1 for x in d if x) == 1
    assert all(x == 1 for x in m.fixed_vector())


def test_model_act_is_homomorphism():
    rng = random.Random(11)
    group = builtin("dihedral:4")
    for w in (imag_weight(group, (1, 2)), imag_weight(group, (1, 0))):
        m = InducedModel.build(w)
        for _ in range(8):
            g1 = random_element(group, rng)
            g2 = random_element(group, rng)
            v = [FormalExp.constant(rng.randint(-3, 3)) for _ in range(m.dimension)]
            composed = model_act(m, g_multiply(g1, g2), v)
            stepped = model_act(m, g1, model_act(m, g2, v))
            assert composed == stepped


def test_model_act_rejects_foreign_element():
    m = InducedModel.build(imag_weight(builtin("dihedral:3"), (1, 2)))
    other = builtin("dihedral:4")
    g = GroupElement(other, (ZERO, ZERO), 1)
    with pytest.raises(ValueError):
        model_act(m, g, m.fixed_vector())


def test_eigenspace_action_rejects_foreign_element():
    group = builtin("dihedral:3")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    p = intertwiner(m, m.fixed_vector())
    g = GroupElement(builtin("symmetric:3"), (1, 2, 3), 5)
    with pytest.raises(ValueError, match="different group"):
        eigenspace_action(group, g, p)


# -- intertwiner and equivariance --------------------------------------------------


def test_intertwiner_sends_delta_to_plane_wave():
    group = builtin("dihedral:4")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    for h in (0, 3, 7):
        p = intertwiner(m, m.delta(h))
        assert p.waves == {m.orbit.points[h]: FormalExp.constant(1)}


def test_intertwiner_is_linear():
    rng = random.Random(3)
    group = builtin("symmetric:3")
    m = InducedModel.build(imag_weight(group, (1, 2, 4)))
    u = [FormalExp.constant(rng.randint(-3, 3)) for _ in range(m.dimension)]
    v = [FormalExp.constant(rng.randint(-3, 3)) for _ in range(m.dimension)]
    total = intertwiner(m, [a + b for a, b in zip(u, v)])
    assert total == intertwiner(m, u) + intertwiner(m, v)


def test_intertwiner_merges_stabilizer_classes():
    group = builtin("dihedral:4")
    m = InducedModel.build(imag_weight(group, (1, 0)))
    p = intertwiner(m, m.fixed_vector())
    # each distinct exponent absorbs its whole duplicate class
    assert len(p.waves) == m.orbit.distinct_count
    assert set(p.waves.values()) == {FormalExp.constant(2)}


def test_equivariance_everywhere():
    rng = random.Random(19)
    for spec in ("dihedral:3", "dihedral:4", "symmetric:3"):
        group = builtin(spec)
        weights = [
            random_generic_weight(group, rng),
            degenerate_weight(group, rng),
            zero_weight(group),
        ]
        for w in weights:
            m = InducedModel.build(w)
            for _ in range(6):
                g = random_element(group, rng)
                v = [
                    FormalExp.constant(rng.randint(-2, 2))
                    for _ in range(m.dimension)
                ]
                assert equivariance_check(m, g, v)


# Each defect below must make the identity fail for every rotation but the
# identity.  The coefficients are distinct nonzero constants, so no two
# misplaced terms can cancel or coincide.
_TEETH_WEIGHTS = (("dihedral:5", (1, 3)), ("symmetric:4", (1, 2, 4, 7)))


def _teeth_setup(spec, coords):
    group = builtin(spec)
    m = InducedModel.build(imag_weight(group, coords))
    assert is_generic(m.weight)
    v = [FormalExp.constant(j + 1) for j in range(m.dimension)]
    y = tuple(range(1, group.dimension + 1))
    return group, m, v, [GroupElement(group, y, r) for r in range(1, group.order)]


@pytest.mark.parametrize("spec, coords", _TEETH_WEIGHTS)
def test_equivariance_fails_when_model_act_misreads_the_phase(monkeypatch, spec, coords):
    from refleig import eigenspace

    group, m, v, elements = _teeth_setup(spec, coords)
    assert all(equivariance_check(m, g, v) for g in elements)

    def misread(m, g, v, *_rest):
        # the phase of points[k^-1 h] instead of points[h]
        row = m.group.mult_table[m.group.inverse_table[g.rotation]]
        out = []
        for h in range(m.dimension):
            entry = v[row[h]]
            if entry:
                s = -linalg.dot(m.orbit.points[row[h]], list(g.translation))
                entry = FormalExp.exp(s) * entry
            out.append(entry)
        return out

    monkeypatch.setattr(eigenspace, "model_act", misread)
    assert not any(equivariance_check(m, g, v) for g in elements)


@pytest.mark.parametrize("spec, coords", _TEETH_WEIGHTS)
def test_equivariance_fails_on_a_wrong_rotated_point(monkeypatch, spec, coords):
    group, m, v, elements = _teeth_setup(spec, coords)
    for g in elements:
        assert equivariance_check(m, g, v)
        memo = group.rotated_points[g.rotation]
        mu = m.orbit.points[1]
        wrong = next(p for p in m.orbit.points if p != memo[mu])
        with monkeypatch.context() as patch:
            patch.setitem(memo, mu, wrong)
            assert not equivariance_check(m, g, v)


@pytest.mark.parametrize("spec, coords", _TEETH_WEIGHTS)
def test_equivariance_fails_on_a_swapped_multiplication_row(spec, coords):
    group, m, v, elements = _teeth_setup(spec, coords)
    for g in elements:
        row = group.mult_table[group.inverse_table[g.rotation]]
        row[0], row[1] = row[1], row[0]
        try:
            assert not equivariance_check(m, g, v)
        finally:
            row[0], row[1] = row[1], row[0]
        assert equivariance_check(m, g, v)


@pytest.mark.parametrize("spec, coords", _TEETH_WEIGHTS + (("dihedral:4", (1, 0)),))
def test_phase_table_is_the_exact_pairing(spec, coords):
    # one pass over the lifted orbit gives -<mu, x> for every orbit point,
    # as the fused sum does, and the battery's tables change no verdict
    group = builtin(spec)
    m = InducedModel.build(imag_weight(group, coords))
    rng = random.Random(97)
    for _ in range(5):
        shift = tuple(rng.randint(-5, 5) for _ in range(group.dimension))
        table = m.phase_table(shift)
        assert set(table) == set(m.orbit.points)
        x = [cyc(t) for t in shift]
        for mu, s in table.items():
            assert s == -linalg.dot(mu, x)
            assert hash(s) == hash(-linalg.dot(mu, x))
        g = GroupElement(group, shift, rng.randrange(group.order))
        v = [FormalExp.constant(rng.randint(-4, 4)) for _ in range(m.dimension)]
        assert equivariance_check(m, g, v, table)
    assert m.phase_table((0,) * group.dimension) == {mu: ZERO for mu in m.orbit.points}


def test_phase_table_keeps_the_teeth_of_a_wrong_rotation(monkeypatch):
    # a k mu outside the orbit misses the table and is paired on the spot
    group, m, v, elements = _teeth_setup(*_TEETH_WEIGHTS[1])
    # the translation `_teeth_setup` gives every element
    table = m.phase_table(range(1, group.dimension + 1))
    mu = m.orbit.points[1]
    for g in elements[:5]:
        memo = group.rotated_points[g.rotation]
        assert equivariance_check(m, g, v, dict(table))
        with monkeypatch.context() as patch:
            patch.setitem(memo, mu, tuple(x + 1 for x in memo[mu]))
            assert not equivariance_check(m, g, v, dict(table))


def test_battery_checks_its_phase_values(monkeypatch):
    # both sides of the identity read one table, so a table of wrong values
    # passes the identity; each trial of the battery pairs one entry itself
    from refleig import report

    group, m, v, elements = _teeth_setup(*_TEETH_WEIGHTS[1])
    assert report._equivariance_battery(m, random.Random(5))
    table = InducedModel.phase_table

    def wrong_values(self, shift):
        return {mu: 2 * s + 1 for mu, s in table(self, shift).items()}

    monkeypatch.setattr(InducedModel, "phase_table", wrong_values)
    g = elements[0]
    assert equivariance_check(m, g, v, m.phase_table(g.translation))
    with pytest.raises(InternalConsistencyError):
        report._equivariance_battery(m, random.Random(5))


def test_eigenspace_action_is_multiplicative():
    rng = random.Random(23)
    group = builtin("dihedral:5")
    m = InducedModel.build(random_generic_weight(group, rng))
    p = intertwiner(m, [FormalExp.constant(rng.randint(-2, 2)) for _ in range(m.dimension)])
    for _ in range(5):
        g1 = random_element(group, rng)
        g2 = random_element(group, rng)
        assert eigenspace_action(group, g_multiply(g1, g2), p) == eigenspace_action(
            group, g1, eigenspace_action(group, g2, p)
        )


def test_eigenspace_action_applies_each_rotation_once(monkeypatch):
    # k . mu comes from RMatrix.apply once per (element, exponent) for the
    # life of the group, whatever translation or coefficients come with it
    from refleig.groups import RMatrix

    group = builtin("dihedral:4")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    p = intertwiner(m, m.fixed_vector())
    reference = [
        eigenspace_action(group, GroupElement(group, (1, 2), r), p)
        for r in range(group.order)
    ]
    calls = []
    apply = RMatrix.apply
    monkeypatch.setattr(
        RMatrix, "apply", lambda k, vec: calls.append(1) or apply(k, vec)
    )
    rng = random.Random(29)
    for r in range(group.order):
        g = GroupElement(group, (1, 2), r)
        assert eigenspace_action(group, g, p) == reference[r]
        assert eigenspace_action(group, random_element(group, rng), p)
    assert not calls
    fresh = builtin("dihedral:4")
    m = InducedModel.build(imag_weight(fresh, (1, 2)))
    p = intertwiner(m, m.fixed_vector())
    calls.clear()
    for _ in range(3):
        eigenspace_action(fresh, GroupElement(fresh, (0, 1), 5), p)
    assert len(calls) == len(p.waves)


# -- eigenvalue checks -------------------------------------------------------------


def test_eigen_check_accepts_the_orbit(pipeline):
    group, invariants, _ = pipeline("dihedral:4")
    for w in (imag_weight(group, (1, 2)), imag_weight(group, (1, 0))):
        m = InducedModel.build(w)
        p = intertwiner(m, m.fixed_vector())
        assert eigen_check(p, invariants, invariant_eigenvalues(invariants, w))


def test_eigen_check_rejects_off_orbit_exponent(pipeline):
    group, invariants, _ = pipeline("dihedral:4")
    w = imag_weight(group, (1, 2))
    stray = PlaneWaveSum(group.dimension, {(I, I): FormalExp.constant(1)})
    assert not eigen_check(stray, invariants, invariant_eigenvalues(invariants, w))


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:5"])
def test_eigen_check_keeps_its_teeth(pipeline, spec):
    # a generic orbit passes; one orbit point moved off the orbit in two
    # coordinates, or one generator coefficient changed, fails
    group, invariants, _ = pipeline(spec)
    w = random_generic_weight(group, random.Random(89))
    m = InducedModel.build(w)
    p = intertwiner(m, m.fixed_vector())
    values = invariant_eigenvalues(invariants, w)
    assert eigen_check(p, invariants, values)
    points = list(p.waves)
    for j in (0, len(points) // 2, len(points) - 1):
        mu = list(points[j])
        mu[0], mu[1] = mu[0] + I, mu[1] - I
        assert tuple(mu) not in p.waves
        waves = dict(p.waves)
        waves[tuple(mu)] = waves.pop(points[j])
        assert not eigen_check(PlaneWaveSum(group.dimension, waves), invariants, values)
    for gen in invariants.generators:
        e, c = next(iter(gen.terms.items()))
        gen.terms[e] = c + 1
        try:
            assert not eigen_check(p, invariants, invariant_eigenvalues(invariants, w))
        finally:
            gen.terms[e] = c
    assert eigen_check(p, invariants, values)


def test_eigen_check_takes_the_eigenvalues_once(pipeline):
    group, invariants, _ = pipeline("dihedral:5")
    w = imag_weight(group, (1, 3))
    m = InducedModel.build(w)
    p = intertwiner(m, m.fixed_vector())
    values = invariant_eigenvalues(invariants, w)
    assert eigen_check(p, invariants, values)
    wrong = [values[0] + 1] + values[1:]
    assert not eigen_check(p, invariants, wrong)


def test_degree_two_eigenvalue_identity(pipeline):
    # the unique degree-2 invariant of a dihedral group is a multiple of
    # x^2 + y^2, so its eigenvalue at i*(a, b) is -(a^2 + b^2) times the
    # value at (1, 0)
    for spec in ("dihedral:3", "dihedral:5"):
        group, invariants, _ = pipeline(spec)
        quad = [g for g in invariants.generators if g.degree() == 2]
        assert len(quad) == 1
        scale = quad[0].evaluate((cyc(1), cyc(0)))
        for a, b in ((1, 2), (3, -1)):
            w = imag_weight(group, (a, b))
            values = invariant_eigenvalues(invariants, w)
            got = values[invariants.generators.index(quad[0])]
            assert got == scale * cyc(-(a * a + b * b))


# -- dual orbit --------------------------------------------------------------------


def test_dual_samples_separate_the_orbit():
    group = builtin("dihedral:4")
    m = InducedModel.build(imag_weight(group, (1, 0)))
    sample = dual_sample_elements(m)
    # the designed translation separates orbit classes exactly
    x = sample.translation
    reps = [m.orbit.points[cls[0]] for cls in m.orbit.classes]
    pairings = [linalg.dot(mu, x) for mu in reps]
    assert len(set(pairings)) == len(pairings)
    # every angle in [-1.5, 1.5]; deterministic, with nothing drawn
    assert all(abs((s / I).to_fraction()) <= Fraction(3, 2) for s in pairings)
    assert dual_sample_elements(m) == sample


def test_dual_cyclic_tracks_genericity():
    group = builtin("dihedral:4")
    generic = InducedModel.build(imag_weight(group, (1, 2)))
    assert dual_cyclic_check(generic)
    pinned = InducedModel.build(imag_weight(group, (1, 0)))
    assert not dual_cyclic_check(pinned)


def test_designed_sample_separates_what_a_small_box_cannot():
    # no point of [-9, 9]^3 separates the 48 orbit points of this weight;
    # the design takes y = (1, B, B^2) with B = 2 * 4 + 1 and scales it so
    # the largest pairing, 4 + 4 B + 4 B^2 = 364, meets the angle 1.5
    group = builtin("hyperoctahedral:3")
    m = InducedModel.build(imag_weight(group, (-3, 4, -1)))
    sample = dual_sample_elements(m)
    c = Fraction(3, 2 * 364)
    assert sample.translation == (c, 9 * c, 81 * c)
    assert sample.gap_bits == (2 * 364).bit_length()
    assert dual_cyclic_check(m)


def test_designed_sample_of_an_irrational_orbit():
    # dihedral:5 coordinates lie in Q(zeta_20), phi(20) / 2 = 4, so the
    # gap bound is (2Q)^-4; B starts at 2M + 1 and the pairings are distinct
    group = builtin("dihedral:5")
    m = InducedModel.build(imag_weight(group, (1, 3)))
    sample = dual_sample_elements(m)
    reps = [m.orbit.points[cls[0]] for cls in m.orbit.classes]
    angles = [linalg.dot(mu, sample.translation) / I for mu in reps]
    values = [mp_embed(a, 200).real for a in angles]
    assert max(abs(v) for v in values) <= 1.5
    gap = min(abs(u - v) for j, u in enumerate(values) for v in values[:j])
    assert gap > mpmath.mpf(2) ** -sample.gap_bits
    assert sample.gap_bits % 4 == 0
    assert dual_cyclic_check(m)


def test_dual_cyclic_rejects_small_or_redundant_samples(monkeypatch):
    from refleig import eigenspace

    group = builtin("dihedral:3")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    sample = dual_sample_elements(m)
    # a translation scaled below its designed gap, or one that does not
    # separate the orbit at all, contradicts the design: an internal error
    shrink = Fraction(1, 2 ** (sample.gap_bits + 8))
    for x in (tuple(t * shrink for t in sample.translation), (ZERO, ZERO)):
        with monkeypatch.context() as patch:
            patch.setattr(
                eigenspace, "dual_sample_elements", lambda _m: DualSample(x, sample.gap_bits)
            )
            with pytest.raises(InternalConsistencyError):
                dual_cyclic_check(m)
    # a redundant orbit fails with no numeric work, and no sample is designed
    pinned = InducedModel.build(imag_weight(group, (1, 0)))
    assert not is_generic(pinned.weight)

    def no_numeric_work(*_args):
        raise AssertionError("numeric work on equal columns")

    monkeypatch.setattr(eigenspace, "_phases", no_numeric_work)
    monkeypatch.setattr(eigenspace, "dual_sample_elements", no_numeric_work)
    assert not dual_cyclic_check(pinned)
    assert not dual_cyclic_check(InducedModel.build(zero_weight(group)))


def test_corrupted_phase_is_an_internal_error(monkeypatch):
    # the powered phases are checked against model_act at the last row
    from refleig import eigenspace

    group = builtin("dihedral:3")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    assert dual_cyclic_check(m)
    phases = eigenspace._phases
    calls = []

    def corrupt_first_row(exponents, precision):
        out = phases(exponents, precision)
        if not calls:
            # move one phase by 2^-30, far above t / 2^8 = 2^-72
            a, b = out[0]
            out[0] = (a + (1 << (precision + 10 - 30)), b)
        calls.append(precision)
        return out

    monkeypatch.setattr(eigenspace, "_phases", corrupt_first_row)
    with pytest.raises(InternalConsistencyError):
        dual_cyclic_check(m)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "spec, coords",
    [
        # the two weights verify-all symmetric:5 --seed 1 false-failed when
        # its translations were drawn at random
        ("symmetric:5", (-6, 6, -9, 3, 4)),
        ("symmetric:5", (-9, 5, -1, -2, 9)),
        # no translation in the drawn boxes separated this 384-point orbit
        ("hyperoctahedral:4", (3, 4, -8, -1)),
    ],
)
def test_designed_sample_certifies_large_orbits(spec, coords):
    group = builtin(spec)
    m = InducedModel.build(imag_weight(group, coords))
    assert is_generic(m.weight)
    sample = dual_sample_elements(m)
    base = 2 * max(map(abs, coords)) + 1
    top = max(map(abs, coords)) * sum(base**j for j in range(len(coords)))
    c = Fraction(3, 2 * top)
    assert sample.translation == tuple(base**j * c for j in range(len(coords)))
    assert dual_cyclic_check(m)


def test_designed_sample_scales_tiny_and_huge_weights():
    # i/10^24: every node lay within 10^-22 of 1 under integer translations
    from refleig.report import parse_weight

    group = builtin("dihedral:4")
    for text in ("i/10^24, 2*i/10^24", "i*10^30, i", "i*10^30, 3*i*10^30"):
        m = InducedModel.build(parse_weight(group, text))
        sample = dual_sample_elements(m)
        angles = [linalg.dot(mu, sample.translation) / I for mu in m.orbit.points]
        assert 1 <= max(abs(a.to_fraction()) for a in angles) <= Fraction(3, 2)
        assert dual_cyclic_check(m)


def reference_phases(exponents, precision):
    """Reference for `_phases`: e^s by mpmath at scale 2^P, P =
    precision + 10, each angle embedded with four more bits than its
    integer part has and the cosine and sine truncated toward zero."""
    bits = precision + 10
    out = []
    for s in exponents:
        extra = (sum(map(abs, s.nums.values())) // s.den).bit_length() + 4
        with mpmath.workprec(bits + extra):
            c, si = mpmath.cos_sin(mp_embed(s, bits + extra).imag)
        out.append((int(mpmath.ldexp(c, bits)), int(mpmath.ldexp(si, bits))))
    return out


@st.composite
def imaginary_exponents(draw):
    """Purely imaginary s = r (x - conj x) with x in Q(zeta_m) and |s| up to
    about 10^6, or i p/q with p/q the best approximation of k pi/2 with
    q up to 1, 10^3, 10^9 or 10^15."""
    if draw(st.booleans()):
        m = draw(st.sampled_from((4, 20, 28, 60, 396)))
        terms = draw(
            st.dictionaries(st.integers(0, m - 1), st.integers(-9, 9), min_size=1, max_size=4)
        )
        x = Cyclotomic(m, terms)
        # |x - conj x| <= 72, so |s| < 10^6
        r = Fraction(draw(st.integers(-13_000, 13_000)), draw(st.integers(1, 10**6)))
        return (x - x.conj()) * r
    k = draw(st.integers(-636_000, 636_000))
    limit = draw(st.sampled_from((1, 10**3, 10**9, 10**15)))
    with mpmath.workprec(200):
        near = Fraction(mpmath.nstr(k * mpmath.pi / 2, 60, strip_zeros=False))
    return I * near.limit_denominator(limit)


@settings(max_examples=150, deadline=None)
@given(st.lists(imaginary_exponents(), min_size=1, max_size=3), st.integers(64, 1024))
def test_phases_match_the_mpmath_reference(exponents, precision):
    from refleig.eigenspace import _phases

    got = _phases(exponents, precision)
    for (a, b), (ra, rb) in zip(got, reference_phases(exponents, precision)):
        assert abs(a - ra) <= 2 and abs(b - rb) <= 2


def designed_rows(m, sample, precision=128):
    """The row count r of the designed sample, from the phases of the
    distinct orbit points at the check's working precision; for a weight
    with duplicate points, which the check rejects with no numeric work,
    it is the r its distinct points would get."""
    from refleig import eigenspace

    work = precision + sample.gap_bits + m.dimension.bit_length() + 11
    z = eigenspace._action_phases(m, GroupElement(m.group, sample.translation, 0), work)
    distinct = [z[cls[0]] for cls in m.orbit.classes]
    return eigenspace._gershgorin_rows(distinct, work + 10, sample.gap_bits)


def sample_exponents(m, sample):
    """The exponents s_h = -<mu_h, x> of the phases z_h = e^(s_h), read
    from `model_act` at (x, 0)."""
    g = GroupElement(m.group, sample.translation, 0)
    return [next(iter(e.terms)) for e in model_act(m, g, m.fixed_vector())]


def closed_form_svd_full_rank(m, sample, r, precision=128):
    """Reference: every singular value of the r rows conj(z_h)^j above
    t = 2^(-precision/2), from the mpmath singular values of their Gram
    matrix G = A^H A in closed form, G_hh' = sum_j w^j with
    w = e^(s_h - s_h'): r where the exponents are equal, else
    (1 - w^r) / (1 - w).  Nothing is shared with the fixed-point route."""
    s = sample_exponents(m, sample)
    n = len(s)
    prec = 2 * precision + 64
    with mpmath.workprec(prec):
        gram = mpmath.matrix(n, n)
        for a in range(n):
            for b in range(n):
                if s[a] == s[b]:
                    gram[a, b] = r
                else:
                    d = mp_embed(s[a] - s[b], prec)
                    gram[a, b] = (1 - mpmath.exp(r * d)) / (1 - mpmath.exp(d))
        sing = mpmath.svd(gram, compute_uv=False)
        return min(sing[k] for k in range(n)) > mpmath.mpf(2) ** (-2 * (precision // 2))


def fixed_point_rows(m, sample, r, precision=128):
    """The r designed rows conj(z_h)^j by columns, real and imaginary
    integer parts at scale 2^P, P = precision + 10 + bit_length(r) + 8:
    each z_h embedded by mpmath (`reference_phases`), each row the row
    before times conj(z), within about 2r + 1 units an entry."""
    bits = precision + 10 + r.bit_length() + 8
    xs, ys = [], []
    for a, b in reference_phases(sample_exponents(m, sample), bits - 10):
        x, y = 1 << bits, 0
        col_x, col_y = [x], [y]
        for _ in range(r - 1):
            x, y = (x * a + y * b) >> bits, (y * a - x * b) >> bits
            col_x.append(x)
            col_y.append(y)
        xs.append(col_x)
        ys.append(col_y)
    return bits, xs, ys


def svd_full_rank(rows, precision):
    """Reference: every mpmath singular value above 2^(-precision/2)."""
    threshold = mpmath.mpf(2) ** (-(precision // 2))
    with mpmath.workprec(precision + 10):
        sing = mpmath.svd(mpmath.matrix(rows), compute_uv=False)
        return all(sing[k] > threshold for k in range(sing.rows))


def _battery_weights(group, rng):
    return (
        random_generic_weight(group, rng),
        degenerate_weight(group, rng),
        zero_weight(group),
    )


@pytest.mark.parametrize("spec", REFLECTION_BATTERY)
def test_dual_criterion_matches_the_svd_reference(spec):
    # a generic, a degenerate and the zero weight: the Gershgorin verdict on
    # the designed sample equals the SVD verdict on the Gram matrix of its
    # r rows, and both track genericity
    group = builtin(spec)
    rng = random.Random(71)
    for w in _battery_weights(group, rng):
        m = InducedModel.build(w)
        sample = dual_sample_elements(m)
        verdict = dual_cyclic_check(m)
        r = designed_rows(m, sample)
        assert r >= m.orbit.distinct_count
        assert verdict == closed_form_svd_full_rank(m, sample, r)
        assert verdict == is_generic(w)


@pytest.mark.parametrize("spec", ["dihedral:3", "dihedral:4", "dihedral:5", "symmetric:3"])
def test_designed_rows_match_the_ldl_and_svd_references(spec):
    # the explicit fixed-point rows of the designed (x, r): the LDL^H of
    # their exact Gram matrix and the mpmath SVD of the same matrix give
    # the verdict of the check
    group = builtin(spec)
    rng = random.Random(83)
    for w in _battery_weights(group, rng):
        m = InducedModel.build(w)
        sample = dual_sample_elements(m)
        verdict = dual_cyclic_check(m)
        r = designed_rows(m, sample)
        bits, xs, ys = fixed_point_rows(m, sample, r)
        t_sq = 1 << (2 * (bits - 64))
        assert gram_positive_definite(xs, ys, t_sq, 2 * bits) == verdict
        n = len(xs)
        with mpmath.workprec(2 * bits + 64):
            gram = mpmath.matrix(n, n)
            for a in range(n):
                for b in range(n):
                    re = sum(map(operator.mul, xs[a], xs[b])) + sum(map(operator.mul, ys[a], ys[b]))
                    im = sum(map(operator.mul, xs[a], ys[b])) - sum(map(operator.mul, ys[a], xs[b]))
                    gram[a, b] = mpmath.mpc(mpmath.ldexp(re, -2 * bits), mpmath.ldexp(im, -2 * bits))
            sing = mpmath.svd(gram, compute_uv=False)
            assert (min(sing[k] for k in range(n)) > mpmath.mpf(2) ** -128) == verdict
        assert verdict == is_generic(w)


def random_unitary(n, rng):
    """Product of n complex Householder reflections I - 2 v v^H / (v^H v)."""
    u = mpmath.eye(n)
    for _ in range(n):
        v = mpmath.matrix(
            [mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        )
        u = u * (mpmath.eye(n) - (2 / (v.H * v)[0]) * (v * v.H))
    return u


def real_form_positive_definite(xs, ys, shift, frac_bits):
    """Reference for `gram_positive_definite`: an LDL^T of the real form.

    The real form R = [[X, -Y], [Y, X]] of C = X + iY has the singular
    values of C, each twice, so R^T R - shift * I is positive definite
    exactly when C^H C - shift * I is.  Same fixed point as the library.
    """
    cols = [x + y for x, y in zip(xs, ys)]
    cols += [[-v for v in y] + x for x, y in zip(xs, ys)]
    n = len(cols)
    g = [[sum(a * b for a, b in zip(cols[i], cols[k])) for k in range(i + 1)] for i in range(n)]
    for j in range(n):
        d = g[j][j] - shift
        if d <= 0:
            return False
        for i in range(j + 1, n):
            row = g[i]
            l = (row[j] << frac_bits) // d
            for k in range(j + 1, i + 1):
                row[k] -= (l * g[k][j]) >> frac_bits
    return True


@pytest.mark.parametrize("precision", [64, 128])
@pytest.mark.parametrize("shape", [(8, 8), (11, 8)])
@pytest.mark.parametrize("side", [1, -1])
def test_full_rank_criterion_at_the_threshold(precision, shape, side):
    # U diag(sigma) V with sigma_min = t * 2^(+-1/64): 1% from the threshold
    nrows, ncols = shape
    rng = random.Random(73 + precision + nrows + side)
    t = mpmath.mpf(2) ** (-(precision // 2))
    with mpmath.workprec(precision + 40):
        sigma = [t * mpmath.mpf(2) ** (mpmath.mpf(side) / 64)] * 2 + [
            t * mpmath.mpf(2) ** rng.uniform(1, precision // 2)
            for _ in range(ncols - 2)
        ]
        rng.shuffle(sigma)
        diag = mpmath.zeros(nrows, ncols)
        for k, s in enumerate(sigma):
            diag[k, k] = s
        a = random_unitary(nrows, rng) * diag * random_unitary(ncols, rng)
        rows = [[a[i, j] for j in range(ncols)] for i in range(nrows)]
    # fixed point at scale 2^P, P = precision + 10
    bits = precision + 10
    cols = list(zip(*rows))
    xs = [[int(mpmath.ldexp(v.real, bits)) for v in col] for col in cols]
    ys = [[int(mpmath.ldexp(v.imag, bits)) for v in col] for col in cols]
    t_sq = 1 << (2 * (bits - precision // 2))
    assert gram_positive_definite(xs, ys, t_sq, 2 * bits) == (side > 0)
    assert real_form_positive_definite(xs, ys, t_sq, 2 * bits) == (side > 0)
    assert svd_full_rank(rows, precision) == (side > 0)


_gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def gaussian_products(draw):
    """L R for small Gaussian-integer L (rows x inner) and R (inner x cols):
    rank-deficient whenever inner < cols."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 4))
    inner = draw(st.integers(1, ncols))
    left = draw(st.lists(st.lists(_gaussian, min_size=inner, max_size=inner), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(_gaussian, min_size=ncols, max_size=ncols), min_size=inner, max_size=inner))
    return [
        [
            (
                sum(a * c - b * d for (a, b), (c, d) in zip(row, col)),
                sum(a * d + b * c for (a, b), (c, d) in zip(row, col)),
            )
            for col in zip(*right)
        ]
        for row in left
    ]


@settings(max_examples=80, deadline=None)
@given(gaussian_products())
def test_hermitian_ldl_matches_the_real_form_and_the_exact_rank(mat):
    # a full-rank Gaussian-integer C has det(C^H C) >= 1, so with entries this
    # small its least eigenvalue is above 2^-60; a rank-deficient one has 0
    ncols = len(mat[0])
    frac = 96
    xs = [[row[j][0] << frac for row in mat] for j in range(ncols)]
    ys = [[row[j][1] << frac for row in mat] for j in range(ncols)]
    shift = 1 << (2 * frac - 60)
    exact = [[cyc(a) + I * b for a, b in row] for row in mat]
    expected = linalg.rank(exact, ncols) == ncols
    assert gram_positive_definite(xs, ys, shift, 2 * frac) == expected
    assert real_form_positive_definite(xs, ys, shift, 2 * frac) == expected


def test_dual_criterion_with_more_samples_than_the_group_order():
    # rows past the designed r only raise sigma_min: r + 7 and 2r rows keep
    # the verdict, and a duplicate column keeps sigma_min at 0 for any r
    group = builtin("dihedral:5")
    rng = random.Random(79)
    generic = InducedModel.build(random_generic_weight(group, rng))
    pinned = InducedModel.build(degenerate_weight(group, rng))
    for m, expected in ((generic, True), (pinned, False)):
        sample = dual_sample_elements(m)
        assert dual_cyclic_check(m) == expected
        r = designed_rows(m, sample)
        for rows in (r + 7, 2 * r):
            assert closed_form_svd_full_rank(m, sample, rows) == expected


# -- evaluation matrix -------------------------------------------------------------


def test_evaluation_matrix_is_exact_at_origin(pipeline):
    group, _, harmonics = pipeline("dihedral:3")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    mat = evaluation_matrix(m, harmonics)
    basis = harmonics.flat_basis()
    assert len(mat) == len(basis) == group.order
    assert all(len(row) == group.order for row in mat)
    orb = orbit(m.weight)
    for i, h in enumerate(basis):
        for k in range(group.order):
            assert mat[i][k] == h.evaluate(orb.points[k])


def test_evaluation_rank_counts_distinct_orbit_points(pipeline):
    # harmonics restrict onto any orbit surjectively, so the rank always
    # equals the number of distinct orbit points
    rng = random.Random(31)
    for spec in ("dihedral:3", "dihedral:4", "dihedral:6", "symmetric:3",
                 "hyperoctahedral:2"):
        group, _, harmonics = pipeline(spec)
        weights = [
            random_generic_weight(group, rng),
            degenerate_weight(group, rng),
            zero_weight(group),
        ]
        for w in weights:
            m = InducedModel.build(w)
            assert evaluation_rank(m, harmonics) == orbit(w).distinct_count


# -- modular rank certificate -------------------------------------------------------


def test_primality_helper_matches_sympy():
    import sympy

    battery = [2, 3, 4, 25, 561, 1105, 1729, 65537, 2**20 + 7, 2**31 - 1]
    for n in battery:
        assert (prime_factors(n) == (n,)) == sympy.isprime(n)


def test_split_prime_properties():
    red = Reduction([E(12)])
    p = red.p
    assert p >= 1 << 20
    assert p % 12 == 1
    assert prime_factors(p) == (p,)
    z = red.zeta
    assert pow(z, 12, p) == 1
    assert pow(z, 6, p) != 1
    assert pow(z, 4, p) != 1


def _rank_lower_bound(rows, ncols):
    red = Reduction([x for row in rows for x in row])
    reduced = [[red.scalar(x) for x in row] for row in rows]
    return linalg.rank_mod(reduced, ncols, red.p)


def test_rank_lower_bound_matches_exact_rank():
    rng = random.Random(41)
    pool = [ONE, cyc(-1), I, E(3), E(3) + I, cyc(Fraction(1, 2)), ZERO]
    for _ in range(20):
        rows = [
            [pool[rng.randrange(len(pool))] for _ in range(5)] for _ in range(3)
        ]
        # force a dependent row so deficient ranks are exercised too
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        exact = linalg.rank(rows, 5)
        lower = _rank_lower_bound(rows, 5)
        assert lower <= exact
        assert lower == exact
    ones = [[ONE] * 3 for _ in range(3)]
    assert _rank_lower_bound(ones, 3) == 1


@pytest.mark.parametrize("spec", REFLECTION_BATTERY)
def test_evaluation_rank_matches_the_exact_reference(pipeline, spec):
    # exact evaluation at every orbit point, duplicates included, then exact
    # elimination: the route the modular certificate replaces
    group, _, harmonics = pipeline(spec)
    rng = random.Random(53)
    for w in (
        random_generic_weight(group, rng),
        degenerate_weight(group, rng),
        zero_weight(group),
    ):
        m = InducedModel.build(w)
        exact = linalg.rank(evaluation_matrix(m, harmonics))
        assert evaluation_rank(m, harmonics) == exact


# -- commutant ---------------------------------------------------------------------


def test_commutant_counts_the_stabilizer():
    rng = random.Random(47)
    for spec in ("dihedral:4", "symmetric:3"):
        group = builtin(spec)
        for w in (
            random_generic_weight(group, rng),
            degenerate_weight(group, rng),
            zero_weight(group),
        ):
            m = InducedModel.build(w)
            assert commutant_dimension(m) == stabilizer_order(w)


def test_commutant_of_a_weight_near_a_period_of_the_unit_translation():
    # 1850401877973371917511 is the numerator of a convergent of 2 pi, so
    # it pairs with the unit translation to within 2^-72 of a multiple of
    # 2 pi, below t = 2^-64: a caller-chosen (1, 0), (0, 1) made the
    # numeric twin count 2 here; the designed translations count 1
    group = builtin("dihedral:4")
    m = InducedModel.build(imag_weight(group, (1850401877973371917511, 1)))
    assert is_generic(m.weight)
    assert commutant_dimension(m) == 1


def numeric_rank(rows, tol):
    """Rank by Gaussian elimination with complete pivoting in complex floats:
    the number of pivots above `tol`."""
    work = [list(r) for r in rows]
    rank = 0
    while work:
        i, j = max(
            ((i, j) for i, row in enumerate(work) for j in range(len(row))),
            key=lambda ij: abs(work[ij[0]][ij[1]]),
        )
        pivot = work[i][j]
        if abs(pivot) <= tol:
            break
        prow = work.pop(i)
        for row in work:
            f = row[j] / pivot
            if f:
                for k, x in enumerate(prow):
                    row[k] -= f * x
        rank += 1
    return rank


def dense_commutant_dim(m):
    """Nullspace dimension of the stacked A pi(g) - pi(g) A system.

    Generating set: the permutation matrices of the group generators plus
    the diagonal matrices of the standard basis translations.  Everything
    is assembled from scratch so this shares no code with the library path,
    in double precision, with pivots thresholded at 2^-26.
    """
    group = m.group
    n = group.order
    table = group.mult_table
    inv = group.inverse_table
    mats = []
    for k in group.generator_indices:
        kinv = inv[k]
        perm = [[0j] * n for _ in range(n)]
        for h in range(n):
            perm[h][table[kinv][h]] = 1 + 0j
        mats.append(perm)
    for j in range(group.dimension):
        diag = [[0j] * n for _ in range(n)]
        for h in range(n):
            diag[h][h] = cmath.exp(-complex(mp_embed(m.orbit.points[h][j])))
        mats.append(diag)
    rows = []
    for mat in mats:
        for i in range(n):
            for j2 in range(n):
                row = [0j] * (n * n)
                for b in range(n):
                    row[i * n + b] += mat[b][j2]
                for a in range(n):
                    row[a * n + j2] -= mat[i][a]
                rows.append(row)
    return n * n - numeric_rank(rows, 2.0 ** -26)


def test_commutant_agrees_with_dense_solver():
    rng = random.Random(53)
    for spec in ("dihedral:3", "dihedral:4", "symmetric:3"):
        group = builtin(spec)
        for w in (random_generic_weight(group, rng), degenerate_weight(group, rng)):
            m = InducedModel.build(w)
            assert dense_commutant_dim(m) == commutant_dimension(m)


def test_certification_quantities_move_together(pipeline):
    # generic <=> full distinct orbit <=> full evaluation rank <=> trivial
    # commutant, in both directions
    rng = random.Random(59)
    for spec in ("dihedral:3", "dihedral:5", "symmetric:3"):
        group, _, harmonics = pipeline(spec)
        for w in (
            random_generic_weight(group, rng),
            degenerate_weight(group, rng),
            zero_weight(group),
        ):
            m = InducedModel.build(w)
            flags = (
                is_generic(w),
                orbit(w).distinct_count == group.order,
                evaluation_rank(m, harmonics) == group.order,
                commutant_dimension(m) == 1,
            )
            assert len(set(flags)) == 1


# -- weight generation --------------------------------------------------------------


def test_random_generic_weight_is_generic():
    rng = random.Random(61)
    for spec in ("dihedral:3", "symmetric:4", "hyperoctahedral:2"):
        group = builtin(spec)
        for _ in range(4):
            w = random_generic_weight(group, rng)
            assert is_generic(w)
            assert not w.is_zero()


def test_degenerate_weight_is_pinned_but_nonzero():
    rng = random.Random(67)
    for spec in ("dihedral:6", "symmetric:3", "hyperoctahedral:2"):
        group = builtin(spec)
        for _ in range(4):
            w = degenerate_weight(group, rng)
            assert not w.is_zero()
            assert not is_generic(w)
            assert stabilizer_order(w) > 1


def test_default_battery_builds_each_orbit_once(monkeypatch):
    # the orbit built to test genericity is the one the model reuses
    from refleig import eigenspace
    from refleig.report import BATTERY_GENERIC, PipelineConfig, verify_all

    built = []
    compute = eigenspace.orbit

    def counting_orbit(w):
        built.append(w)
        return compute(w)

    monkeypatch.setattr(eigenspace, "orbit", counting_orbit)
    report = verify_all(builtin("dihedral:3"), None, PipelineConfig())
    assert len(report["eigenspace"]) == BATTERY_GENERIC + 1
    assert len(built) >= BATTERY_GENERIC + 1
    assert len({id(w) for w in built}) == len(built)
