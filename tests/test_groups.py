"""Matrix group closure, classification, and the motion-group element ops."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_mat_mul, embed_complex
from refleig import linalg
from refleig.cyclotomic import E, ZERO, cyc
from refleig.errors import (
    GroupClosureError,
    NonOrthogonalError,
    ParseError,
)
from refleig.groups import (
    MAX_ROTATION_ORDER,
    GroupElement,
    RMatrix,
    _permutation_matrix,
    builtin,
    closure,
    g_inverse,
    g_multiply,
    is_pseudo_reflection,
    is_pseudo_reflection_group,
    load_group_file,
    reflection_matrix,
    rotation_matrix,
)


BUILTIN_ORDERS = {
    "dihedral:3": 6,
    "dihedral:5": 10,
    "dihedral:8": 16,
    "cyclic:6": 6,
    "symmetric:2": 2,
    "symmetric:4": 24,
    "hyperoctahedral:2": 8,
    "hyperoctahedral:3": 48,
    "trivial:3": 1,
}


def test_builtin_orders():
    for spec, order in BUILTIN_ORDERS.items():
        assert builtin(spec).order == order, spec


def test_identity_is_first_and_order_deterministic():
    a = builtin("dihedral:5")
    b = builtin("dihedral:5")
    assert a.elements[0].is_identity()
    assert a.elements == b.elements


def test_reflection_counts():
    assert sum(builtin("dihedral:7").reflection_flags) == 7
    assert sum(builtin("symmetric:4").reflection_flags) == 6
    assert sum(builtin("hyperoctahedral:2").reflection_flags) == 4
    assert sum(builtin("cyclic:5").reflection_flags) == 0


def test_pseudo_reflection_single_matrix():
    flip = RMatrix([[cyc(-1), cyc(0)], [cyc(0), cyc(1)]])
    assert is_pseudo_reflection(flip)
    assert not is_pseudo_reflection(RMatrix.identity(2))
    assert not is_pseudo_reflection(RMatrix([[cyc(-1), cyc(0)], [cyc(0), cyc(-1)]]))


def test_reflection_group_classification():
    assert is_pseudo_reflection_group(builtin("dihedral:6"))
    assert is_pseudo_reflection_group(builtin("symmetric:3"))
    assert is_pseudo_reflection_group(builtin("hyperoctahedral:3"))
    assert not is_pseudo_reflection_group(builtin("cyclic:4"))
    # vacuous: no non-identity elements to generate
    assert is_pseudo_reflection_group(builtin("trivial:2"))


def test_non_orthogonal_rejection():
    # M^2 = I, rank(M - I) = 1, but M^T M != I
    m = RMatrix([[cyc(0), cyc(2)], [cyc(Fraction(1, 2)), cyc(0)]])
    group = closure([m], name="skew-involution")
    with pytest.raises(NonOrthogonalError):
        is_pseudo_reflection_group(group)
    # -I is orthogonal; the first non-orthogonal element is the second
    # generator, element #2, as when every element was checked
    skew = RMatrix([[cyc(1), cyc(1)], [cyc(0), cyc(-1)]])
    group = closure([RMatrix([[cyc(-1), cyc(0)], [cyc(0), cyc(-1)]]), skew])
    assert group.order == 4
    with pytest.raises(NonOrthogonalError) as excinfo:
        is_pseudo_reflection_group(group)
    assert str(excinfo.value).startswith("element #2 is not orthogonal")


def test_infinite_group_hits_bound():
    shear = RMatrix([[cyc(1), cyc(1)], [cyc(0), cyc(1)]])
    with pytest.raises(GroupClosureError):
        closure([shear], max_order=64)


def test_generators_of_infinite_order_are_refused_before_closure():
    # a non-integral characteristic polynomial (trace 1/3, det 1), a
    # determinant of absolute value 2, an integral one with trace 3 >
    # C(2, 1) = 2, and one with trace 3i, whose mean square 9 over the
    # embeddings of Q(i) passes C(2, 1)^2, and two with traces 1 + sqrt 2
    # and 1 - sqrt 2, whose embeddings 2.41 and -0.41 have mean square
    # 3 <= 4 but one passes C(2, 1) (under the identity embedding for the
    # first, only under the other for the second): each took a second or
    # more to hit the bound
    for rows in (
        [[0, 1], [-1, Fraction(1, 3)]],
        [[2, 0], [0, 1]],
        [[2, 1], [1, 1]],
        [[3 * E(4), -1], [1, 0]],
        [[1 + E(8) - E(8) ** 3, -1], [1, 0]],
        [[1 - E(8) + E(8) ** 3, -1], [1, 0]],
    ):
        g = RMatrix([[cyc(x) for x in row] for row in rows])
        with pytest.raises(GroupClosureError, match="infinite order"):
            closure([g])


def test_every_builtin_generator_passes_the_finite_order_test():
    # closure stops at max_order = 1 on its first new element, so an error
    # naming the element bound means every generator passed the test
    gens = [
        [rotation_matrix(n, 1), reflection_matrix(n, 0)]
        for n in range(1, MAX_ROTATION_ORDER + 1)
    ]
    # a transposition of symmetric:7 and the sign flip of hyperoctahedral:5
    gens += [[_permutation_matrix((1, 0, 2, 3, 4, 5, 6))], [_flip(5, {0})]]
    for g in gens:
        with pytest.raises(GroupClosureError, match="exceeded 1 elements"):
            closure(g, max_order=1)
    # elements of order 3 and 4 with entries in Q(zeta_3) and Q(i)
    for rows in ([[E(3), 0], [0, E(3) ** 2]], [[0, E(4)], [E(4), 0]]):
        with pytest.raises(GroupClosureError, match="exceeded 1 elements"):
            closure([RMatrix(rows)], max_order=1)


@pytest.mark.parametrize(
    "spec", ["symmetric:4", "hyperoctahedral:3", "dihedral:5", "dihedral:7", "cyclic:5"]
)
def test_closure_with_the_dense_product_enumerates_identically(monkeypatch, spec):
    sparse = builtin(spec)
    monkeypatch.setattr(linalg, "mat_mul", dense_mat_mul)
    dense = builtin(spec)
    assert dense.elements == sparse.elements
    assert dense.right == sparse.right
    assert dense.reached == sparse.reached


def test_bad_builtin_specs():
    for spec in ("nosuch:3", "dihedral:2", "dihedral:x", "dihedral", ""):
        with pytest.raises(ParseError):
            builtin(spec)


def _flip(n, axes):
    return RMatrix(
        [
            [cyc(-1 if i == j and i in axes else int(i == j)) for j in range(n)]
            for i in range(n)
        ]
    )


def test_mult_and_inverse_tables():
    rot = builtin("dihedral:5").elements[1]
    repeated = closure(
        [rot, RMatrix.identity(2), rot, _flip(2, {0})], name="repeats"
    )
    assert repeated.order == 10
    groups = [builtin(spec) for spec in BUILTIN_ORDERS]
    groups += [builtin("cyclic:5"), builtin("symmetric:1"), repeated]
    for group in groups:
        elements = group.elements
        generators = [elements[k] for k in group.generator_indices]
        for i, row in enumerate(group.right):
            for j, g in enumerate(generators):
                assert elements[row[j]] == elements[i] * g
        for b, element in enumerate(elements):
            product = RMatrix.identity(group.dimension)
            for j in group.word(b):
                product = product * generators[j]
            assert product == element
        table = group.mult_table
        inv = group.inverse_table
        for i in range(group.order):
            assert table[i][inv[i]] == 0
            assert table[inv[i]][i] == 0
            for j in range(group.order):
                assert elements[table[i][j]] == elements[i] * elements[j]


def test_reflection_subgroup_is_not_the_group():
    # diag(-1, 1, 1) is the only reflection of this order-4 group, and it
    # generates a subgroup of order 2
    group = closure([_flip(3, {0}), _flip(3, {1, 2})], name="klein")
    assert group.order == 4
    assert sum(group.reflection_flags) == 1
    assert not is_pseudo_reflection_group(group)


def _regenerates(group):
    """Reference: re-close the group from its reflections by matrix products."""
    refl = group.reflections()
    if not refl:
        return group.order == 1
    regen = closure(refl, max_order=group.order, dimension=group.dimension)
    return regen.order == group.order and set(regen.elements) == set(
        group.elements
    )


def test_reflection_group_test_matches_regeneration():
    # large odd dihedral groups live in big cyclotomic fields, where the
    # reference costs seconds each; 16 and 24 reach order 48 cheaply
    specs = [f"dihedral:{n}" for n in (*range(3, 13), 16, 24)]
    specs += [f"cyclic:{n}" for n in range(1, 9)]
    specs += [f"symmetric:{n}" for n in range(1, 5)]
    specs += [f"hyperoctahedral:{n}" for n in range(1, 4)]
    specs += [f"trivial:{n}" for n in range(1, 4)]
    for spec in specs:
        group = builtin(spec)
        assert group.order <= 48
        assert is_pseudo_reflection_group(group) == _regenerates(group), spec


def test_dihedral_rotation_entries_embed_correctly():
    import mpmath

    group = builtin("dihedral:5")
    rot = group.elements[group.generator_indices[0]]
    re, im = embed_complex(rot.rows[0][0])
    assert abs(re - mpmath.cos(2 * mpmath.pi / 5)) < 1e-14
    assert abs(im) < 1e-14


# -- semidirect product elements ---------------------------------------------


_translations = st.tuples(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)


@st.composite
def motion_elements(draw, group):
    return GroupElement(
        group,
        draw(_translations),
        draw(st.integers(min_value=0, max_value=group.order - 1)),
    )


_D4 = builtin("dihedral:4")


@settings(max_examples=60, deadline=None)
@given(motion_elements(_D4), motion_elements(_D4), motion_elements(_D4))
def test_motion_group_associativity(a, b, c):
    assert g_multiply(g_multiply(a, b), c) == g_multiply(a, g_multiply(b, c))


@settings(max_examples=60, deadline=None)
@given(motion_elements(_D4))
def test_motion_group_inverse(a):
    e = GroupElement(_D4, (ZERO, ZERO), 0)
    assert g_multiply(a, g_inverse(a)) == e
    assert g_multiply(g_inverse(a), a) == e
    assert g_multiply(a, e) == a


def test_group_element_validation():
    group = builtin("dihedral:3")
    with pytest.raises(ValueError):
        GroupElement(group, (1,), 0)  # wrong translation length
    with pytest.raises(ValueError):
        GroupElement(group, (E(4), 0), 0)  # imaginary translation
    with pytest.raises(ValueError):
        GroupElement(group, (0, 0), group.order)  # rotation out of range


# -- group files ----------------------------------------------------------------


def test_load_group_file_with_generators(tmp_path):
    path = tmp_path / "rot4.json"
    path.write_text(
        json.dumps(
            {
                "name": "rotation-4",
                "dimension": 2,
                "generators": [[["0", "-1"], ["1", "0"]]],
            }
        )
    )
    group = load_group_file(str(path))
    assert group.order == 4
    assert not is_pseudo_reflection_group(group)


def test_load_group_file_builtin_indirection(tmp_path):
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({"builtin": "dihedral:3"}))
    assert load_group_file(str(path)).order == 6


def test_load_group_file_bad_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"dimension": 1, "generators": [[["E(0)"]]]})
    )
    with pytest.raises(ParseError) as excinfo:
        load_group_file(str(path))
    assert "generator" in str(excinfo.value)


def test_load_group_file_bad_json(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"dimension": 2,')
    with pytest.raises(ParseError) as excinfo:
        load_group_file(str(path))
    assert "line" in str(excinfo.value)


def test_load_group_file_malformed_shapes(tmp_path):
    path = tmp_path / "shape.json"
    cases = [
        ([[[0, -1], [1, 0]]], "generator #0 entry (0,0): expected a string, got int"),
        (5, "generators must be a list of matrices"),
        ([5], "generator #0 is not 2x2"),
        ([[["1", "0"], 7]], "generator #0 is not 2x2"),
    ]
    for generators, message in cases:
        path.write_text(json.dumps({"dimension": 2, "generators": generators}))
        with pytest.raises(ParseError) as excinfo:
            load_group_file(str(path))
        assert str(excinfo.value) == message
    path.write_text(json.dumps({"builtin": 5}))
    with pytest.raises(ParseError) as excinfo:
        load_group_file(str(path))
    assert str(excinfo.value) == "builtin must be a string such as 'dihedral:3'"
