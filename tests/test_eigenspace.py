"""Eigenspace certification tests.

The commutant oracle here is deliberately independent of the library path:
it assembles the full A*pi(g) - pi(g)*A constraint system over the model
space and counts the numeric nullspace dimension, with no shared helpers.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refleig import linalg
from refleig.cyclotomic import E, ONE, ZERO, cyc, prime_factors
from refleig.errors import (
    InsufficientSamplesError,
    SampleSpanError,
)
from refleig.eigenspace import (
    FormalExp,
    InducedModel,
    PlaneWaveSum,
    Weight,
    _rank_lower_bound,
    _root_of_unity_mod,
    _split_prime,
    commutant_dimension,
    degenerate_weight,
    dual_cyclic_check,
    dual_sample_elements,
    eigen_check,
    eigenspace_action,
    equivariance_check,
    evaluation_matrix,
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


def standard_translations(group):
    n = group.dimension
    return [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]


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
        lhs = (a * b).embed(120)
        rhs = a.embed(120) * b.embed(120)
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


# -- eigenvalue checks -------------------------------------------------------------


def test_eigen_check_accepts_the_orbit(pipeline):
    group, invariants, _ = pipeline("dihedral:4")
    for w in (imag_weight(group, (1, 2)), imag_weight(group, (1, 0))):
        m = InducedModel.build(w)
        p = intertwiner(m, m.fixed_vector())
        assert eigen_check(p, invariants, w)


def test_eigen_check_rejects_off_orbit_exponent(pipeline):
    group, invariants, _ = pipeline("dihedral:4")
    w = imag_weight(group, (1, 2))
    stray = PlaneWaveSum(group.dimension, {(I, I): FormalExp.constant(1)})
    assert not eigen_check(stray, invariants, w)


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
    samples = dual_sample_elements(m)
    assert len(samples) == group.order
    assert all(g.rotation == 0 for g in samples)
    # the chosen translation separates orbit classes exactly
    y = samples[1].translation
    reps = [m.orbit.points[cls[0]] for cls in m.orbit.classes]
    pairings = [linalg.dot(mu, y) for mu in reps]
    assert len(set(pairings)) == len(pairings)
    # deterministic without an explicit rng
    again = dual_sample_elements(m)
    assert [g.translation for g in again] == [g.translation for g in samples]


def test_dual_cyclic_tracks_genericity():
    group = builtin("dihedral:4")
    generic = InducedModel.build(imag_weight(group, (1, 2)))
    assert dual_cyclic_check(generic, dual_sample_elements(generic))
    pinned = InducedModel.build(imag_weight(group, (1, 0)))
    assert not dual_cyclic_check(pinned, dual_sample_elements(pinned))


def test_dual_samples_widen_the_box_when_it_cannot_separate():
    # no point of [-9, 9]^3 separates the 48 orbit points of this weight
    group = builtin("hyperoctahedral:3")
    m = InducedModel.build(imag_weight(group, (-3, 4, -1)))
    samples = dual_sample_elements(m, random.Random(0), max_tries=50)
    y = samples[1].translation
    assert max(abs(t.to_fraction()) for t in y) > 9
    assert dual_cyclic_check(m, samples)


def test_dual_cyclic_rejects_small_or_redundant_samples():
    group = builtin("dihedral:3")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    samples = dual_sample_elements(m)
    with pytest.raises(InsufficientSamplesError):
        dual_cyclic_check(m, samples[:-1])
    stuck = [GroupElement(group, (ZERO, ZERO), 0)] * group.order
    assert not dual_cyclic_check(m, stuck)


# -- evaluation matrix -------------------------------------------------------------


def test_evaluation_matrix_is_exact_at_origin(pipeline):
    group, _, harmonics = pipeline("dihedral:3")
    w = imag_weight(group, (1, 2))
    mat = evaluation_matrix(w, harmonics)
    basis = harmonics.flat_basis()
    assert len(mat) == len(basis) == group.order
    assert all(len(row) == group.order for row in mat)
    orb = orbit(w)
    for i, h in enumerate(basis):
        for k in range(group.order):
            assert mat[i][k] == h.evaluate(orb.points[k])


def test_evaluation_matrix_base_point_units(pipeline):
    group, _, harmonics = pipeline("dihedral:3")
    w = imag_weight(group, (1, 2))
    plain = evaluation_matrix(w, harmonics)
    shifted = evaluation_matrix(w, harmonics, base_point=(1, -2))
    orb = orbit(w)
    x0 = (cyc(1), cyc(-2))
    for i in range(len(plain)):
        for k in range(group.order):
            unit = FormalExp.exp(linalg.dot(orb.points[k], x0))
            assert shifted[i][k] == unit * FormalExp.constant(plain[i][k])
    with pytest.raises(ValueError):
        evaluation_matrix(w, harmonics, base_point=(I, ZERO))


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
            assert evaluation_rank(w, harmonics) == orbit(w).distinct_count


# -- modular rank certificate -------------------------------------------------------


def test_primality_helper_matches_sympy():
    import sympy

    battery = [2, 3, 4, 25, 561, 1105, 1729, 65537, 2**20 + 7, 2**31 - 1]
    for n in battery:
        assert (prime_factors(n) == (n,)) == sympy.isprime(n)


def test_split_prime_properties():
    p = _split_prime(12, 1 << 20)
    assert p >= 1 << 20
    assert p % 12 == 1
    assert prime_factors(p) == (p,)
    z = _root_of_unity_mod(p, 12)
    assert pow(z, 12, p) == 1
    assert pow(z, 6, p) != 1
    assert pow(z, 4, p) != 1


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


# -- commutant ---------------------------------------------------------------------


def test_commutant_counts_the_stabilizer():
    rng = random.Random(47)
    for spec in ("dihedral:4", "symmetric:3"):
        group = builtin(spec)
        samples = standard_translations(group)
        for w in (
            random_generic_weight(group, rng),
            degenerate_weight(group, rng),
            zero_weight(group),
        ):
            m = InducedModel.build(w)
            assert commutant_dimension(m, samples) == stabilizer_order(w)


def test_commutant_sample_validation():
    group = builtin("dihedral:3")
    m = InducedModel.build(imag_weight(group, (1, 2)))
    with pytest.raises(SampleSpanError):
        commutant_dimension(m, [])
    with pytest.raises(SampleSpanError):
        commutant_dimension(m, [(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        commutant_dimension(m, [(I, ZERO), (ZERO, ONE)])


def dense_commutant_dim(m, precision=53):
    """Nullspace dimension of the stacked A pi(g) - pi(g) A system.

    Generating set: the permutation matrices of the group generators plus
    the diagonal matrices of the standard basis translations.  Everything
    is assembled from scratch so this shares no code with the library path.
    """
    group = m.group
    n = group.order
    table = group.mult_table
    inv = group.inverse_table
    with mpmath.workprec(precision + 10):
        mats = []
        for k in group.generator_indices:
            kinv = inv[k]
            perm = [[mpmath.mpc(0)] * n for _ in range(n)]
            for h in range(n):
                perm[h][table[kinv][h]] = mpmath.mpc(1)
            mats.append(perm)
        for j in range(group.dimension):
            diag = [[mpmath.mpc(0)] * n for _ in range(n)]
            for h in range(n):
                diag[h][h] = mpmath.exp(-m.orbit.points[h][j].embed(precision))
            mats.append(diag)
        rows = []
        for mat in mats:
            for i in range(n):
                for j2 in range(n):
                    row = [mpmath.mpc(0)] * (n * n)
                    for b in range(n):
                        row[i * n + b] += mat[b][j2]
                    for a in range(n):
                        row[a * n + j2] -= mat[i][a]
                    rows.append(row)
        system = mpmath.matrix(rows)
        sing = mpmath.svd(system, compute_uv=False)
        tol = mpmath.mpf(2) ** (-(precision // 2))
        rank = sum(1 for t in range(sing.rows) if sing[t] > tol)
        return n * n - rank


def test_commutant_agrees_with_dense_solver():
    rng = random.Random(53)
    group = builtin("dihedral:3")
    samples = standard_translations(group)
    for w in (random_generic_weight(group, rng), degenerate_weight(group, rng)):
        m = InducedModel.build(w)
        assert dense_commutant_dim(m) == commutant_dimension(m, samples)


def test_certification_quantities_move_together(pipeline):
    # generic <=> full distinct orbit <=> full evaluation rank <=> trivial
    # commutant, in both directions
    rng = random.Random(59)
    for spec in ("dihedral:3", "dihedral:5", "symmetric:3"):
        group, _, harmonics = pipeline(spec)
        samples = standard_translations(group)
        for w in (
            random_generic_weight(group, rng),
            degenerate_weight(group, rng),
            zero_weight(group),
        ):
            m = InducedModel.build(w)
            flags = (
                is_generic(w),
                orbit(w).distinct_count == group.order,
                evaluation_rank(w, harmonics) == group.order,
                commutant_dimension(m, samples) == 1,
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
