"""Invariant dimension series: frozen values, degree extraction, identities.

Oracle for the symmetric-group series: the coefficient of t^k counts
partitions of k into parts of bounded size, computed here by direct dynamic
programming and frozen into the expected lists.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from refleig import linalg, series as series_module
from refleig.errors import (
    InternalConsistencyError,
    NotReflectionSeriesError,
    OrderLimitError,
)
from refleig.cyclotomic import E, ONE, cyc
from refleig.groups import builtin, parse_group_json
from refleig.cli import main
from conftest import reference_det_polys, reference_molien
from refleig.series import (
    DegreeVector,
    SeriesQ,
    default_truncation,
    extract_degrees,
    harmonic_hilbert,
    molien,
    series_identity_check,
)


def bounded_partition_counts(max_part, upto):
    """Partitions of k with parts <= max_part, for k = 0..upto."""
    counts = [1] + [0] * upto
    for part in range(1, max_part + 1):
        for k in range(part, upto + 1):
            counts[k] += counts[k - part]
    return counts


def test_molien_frozen_dihedral4():
    series = molien(builtin("dihedral:4"))
    assert [int(series[k]) for k in range(9)] == [1, 0, 1, 0, 2, 0, 2, 0, 3]


def test_molien_trivial_group_counts_all_monomials():
    series = molien(builtin("trivial:2"))
    assert [int(series[k]) for k in range(6)] == [1, 2, 3, 4, 5, 6]


def test_molien_symmetric_is_bounded_partition_count():
    for n in (2, 3, 4):
        series = molien(builtin(f"symmetric:{n}"))
        expected = bounded_partition_counts(n, series.truncation)
        assert [int(series[k]) for k in range(series.truncation + 1)] == expected
    # hyperoctahedral:3 has classes of unequal size; its series is
    # prod 1/(1 - t^(2i)), i = 1..3, the symmetric:3 series in t^2
    series = molien(builtin("hyperoctahedral:3"))
    half = bounded_partition_counts(3, series.truncation // 2)
    expected = [0 if k % 2 else half[k // 2] for k in range(series.truncation + 1)]
    assert [int(series[k]) for k in range(series.truncation + 1)] == expected


def test_molien_coefficients_are_nonnegative_integers():
    for spec in ("dihedral:7", "hyperoctahedral:2", "cyclic:6"):
        series = molien(builtin(spec))
        for k in range(series.truncation + 1):
            c = series[k]
            assert c.denominator == 1 and c >= 0


def test_degree_extraction_frozen():
    cases = {
        "dihedral:4": (2, 4),
        "dihedral:6": (2, 6),
        "symmetric:3": (1, 2, 3),
        "hyperoctahedral:2": (2, 4),
        "hyperoctahedral:3": (2, 4, 6),
    }
    for spec, degrees in cases.items():
        group = builtin(spec)
        series = molien(group)
        vec = extract_degrees(series, group.dimension, group.order)
        assert vec.degrees == degrees
        prod = 1
        for d in vec.degrees:
            prod *= d
        assert prod == group.order


def test_degree_extraction_rejects_non_reflection_series():
    group = builtin("cyclic:5")
    series = molien(group)
    with pytest.raises(NotReflectionSeriesError) as excinfo:
        extract_degrees(series, group.dimension, group.order)
    assert "not a reflection-group invariant series" in str(excinfo.value)


def test_degree_extraction_rejects_an_inexact_division():
    # 1/(1 + t^2) has reciprocal 1 + t^2, which (1 - t^2) does not divide
    with pytest.raises(NotReflectionSeriesError) as excinfo:
        extract_degrees(SeriesQ([1, 0, -1, 0, 1, 0, -1]), 2, 4)
    assert "nonzero remainder dividing by (1 - t^2)" in str(excinfo.value)


def test_degree_vector_validation():
    with pytest.raises(InternalConsistencyError):
        DegreeVector((2, 5), 2, 8)  # product mismatch
    with pytest.raises(InternalConsistencyError):
        DegreeVector((2,), 2, 8)  # wrong count
    vec = DegreeVector((4, 2), 2, 8)
    assert vec.degrees == (2, 4)  # stored ascending


def test_harmonic_hilbert_frozen():
    vec = DegreeVector((1, 2, 3), 3, 6)
    poly = harmonic_hilbert(vec)
    assert [int(poly[k]) for k in range(poly.truncation + 1)] == [1, 2, 2, 1]
    assert sum(int(poly[k]) for k in range(poly.truncation + 1)) == 6


def test_harmonic_hilbert_is_palindromic():
    for spec in ("dihedral:5", "hyperoctahedral:3", "symmetric:4"):
        group = builtin(spec)
        vec = extract_degrees(molien(group), group.dimension, group.order)
        poly = harmonic_hilbert(vec)
        top = sum(d - 1 for d in vec.degrees)
        coeffs = [int(poly[k]) for k in range(top + 1)]
        assert coeffs == coeffs[::-1]


def test_series_identity_battery():
    for spec in ("dihedral:3", "dihedral:8", "symmetric:4", "hyperoctahedral:2"):
        assert series_identity_check(builtin(spec))


def test_series_identity_detects_wrong_degrees():
    group = builtin("dihedral:4")
    wrong = DegreeVector((1, 8), 2, 8)  # right product, wrong degrees
    assert not series_identity_check(group, degrees=wrong)


def test_verify_all_computes_molien_once(monkeypatch, capsys):
    # every subcommand that reads the series computes it once
    original = series_module.molien
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bindings = 0
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "refleig":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
                    bindings += 1
    assert bindings >= 2  # the defining module and at least one importer
    for argv in (
        ["verify-all"],
        ["molien"],
        ["invariants"],
        ["harmonics"],
        ["eigenspace", "--weight", "i*1, i*2"],
    ):
        calls.clear()
        assert main(argv + ["--builtin", "dihedral:3"]) == 0
        capsys.readouterr()
        assert len(calls) == 1, argv


MOLIEN_REFERENCE_SPECS = (
    "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5",
    "hyperoctahedral:2", "hyperoctahedral:3", "hyperoctahedral:4",
    "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:7",
    "dihedral:8", "dihedral:12", "cyclic:3", "cyclic:5", "trivial:2",
)


@pytest.mark.parametrize("spec", MOLIEN_REFERENCE_SPECS)
def test_molien_matches_the_generic_reciprocal_reference(spec):
    group = builtin(spec)
    for truncation in (0, 1, default_truncation(group)):
        assert list(molien(group, truncation).coeffs) == reference_molien(
            group, truncation
        )


def _mixed_roots_group():
    # diag(E(5), 1) and diag(1, E(3)) generate a group of order 15 whose
    # det(I - t k) coefficients lie in Q(zeta_5), Q(zeta_3) and Q(zeta_15)
    return parse_group_json(
        {"dimension": 2, "generators": [
            [["E(5)", "0"], ["0", "1"]], [["1", "0"], ["0", "E(3)"]],
        ]}
    )


def test_molien_over_mixed_roots_of_unity_matches_the_reference():
    group = _mixed_roots_group()
    assert group.order == 15
    for truncation in (0, 1, default_truncation(group)):
        expected = reference_molien(group, truncation)
        assert list(molien(group, truncation).coeffs) == expected
    # x1^5 and x2^3 generate the invariants
    assert expected[:9] == [1, 0, 0, 1, 0, 1, 1, 0, 1]


@pytest.mark.parametrize(
    "spec", MOLIEN_REFERENCE_SPECS + ("symmetric:6", "mixed roots")
)
def test_det_polys_from_power_traces_match_the_charpoly_reference(spec):
    # Newton's identities on (tr k, ..., tr k^n), counted by trace tuple,
    # give the multiset one Faddeev-LeVerrier charpoly per element gives
    group = _mixed_roots_group() if spec == "mixed roots" else builtin(spec)
    det_polys = series_module._det_polys(group)
    assert det_polys == reference_det_polys(group)
    assert sum(det_polys.values()) == group.order


def test_molien_multiplies_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("molien multiplied matrices")

    for spec in ("hyperoctahedral:3", "dihedral:5", "cyclic:4"):
        group = builtin(spec)
        expected = reference_molien(group, default_truncation(group))
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "mat_mul", refuse)
            patch.setattr(linalg, "charpoly", refuse)
            assert list(molien(group).coeffs) == expected


def _fake_series(entries, order, truncation):
    """The series-from-multiset step on 1 x 1 "elements" x that need not
    form a group, with a declared order: det(I - t x) = 1 - x t."""
    det_polys = Counter((ONE, -cyc(x)) for x in entries)
    return series_module._series_from_det_polys(det_polys, order, truncation)


def test_molien_checks_every_coefficient():
    # 1/(1 - t) + 1/(1 - E(3) t) has 1 + E(3) at degree 1
    with pytest.raises(InternalConsistencyError, match="coefficient 1 is not rational"):
        _fake_series([1, E(3)], 2, 4)
    with pytest.raises(
        InternalConsistencyError,
        match=r"coefficient 0 = 1/2 is not a nonnegative integer",
    ):
        _fake_series([1], 2, 4)
    # 2/(1 - t) + 2/(1 + t) over 4 is 1 at even degrees, 0 at odd ones
    assert list(_fake_series([1, 1, -1, -1], 4, 3).coeffs) == [1, 0, 1, 0]
    with pytest.raises(InternalConsistencyError, match="not an algebraic integer"):
        _fake_series([1, Fraction(1, 2)], 2, 4)
    # conductors 64 and 63 promote to 4032, past the cap
    with pytest.raises(OrderLimitError):
        _fake_series([1, E(64), E(63)], 3, 4)


def test_series_reciprocal():
    s = SeriesQ(tuple(Fraction(c) for c in (1, 3, -2, 5, 0, 1, 7, -4)))
    r = s.reciprocal()
    prod = s.mul(r)
    assert int(prod[0]) == 1
    assert all(prod[k] == 0 for k in range(1, prod.truncation + 1))


def fraction_reciprocal(a, trunc):
    """Reference: b_k = -(1/a_0) sum_{i>=1} a_i b_(k-i), one Fraction at a time."""
    inv0 = 1 / a[0]
    out = [inv0]
    for k in range(1, trunc + 1):
        acc = sum(
            (a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1)),
            Fraction(0),
        )
        out.append(-inv0 * acc)
    return out


_denominators = st.integers(min_value=1, max_value=60)
_rationals = st.builds(Fraction, st.integers(min_value=-50, max_value=50), _denominators)
_units = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50).filter(bool), _denominators
)


@settings(max_examples=150, deadline=None)
@given(
    _units,
    st.lists(_rationals, max_size=13),
    st.integers(min_value=0, max_value=20),
)
def test_integer_reciprocal_matches_the_fraction_recurrence(head, tail, trunc):
    s = SeriesQ([head] + tail)
    r = s.reciprocal(trunc)
    assert r.truncation == trunc
    assert r.coeffs == tuple(fraction_reciprocal(s.coeffs, trunc))
    prod = s.truncated(trunc).mul(r)
    assert prod.coeffs == (Fraction(1),) + (Fraction(0),) * trunc


def test_integer_reciprocal_covers_rational_constant_terms():
    s = SeriesQ((Fraction(-3, 4), Fraction(5, 6), 2, Fraction(-1, 9)))
    r = s.reciprocal(12)
    assert r.coeffs == tuple(fraction_reciprocal(s.coeffs, 12))
    assert r[0] == Fraction(-4, 3)
    assert any(c.denominator > 1 for c in r.coeffs[1:])


def test_charpoly_against_sympy():
    # Faddeev-LeVerrier, which checks each generator's order in closure and
    # gives the Molien reference in conftest, against sympy
    rng = random.Random(3)
    s = sympy.Symbol("s")
    for n in range(1, 6):
        a = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        expected = sympy.Poly(sympy.Matrix(a).charpoly(s).as_expr(), s)
        coeffs = [Fraction(str(c)) for c in reversed(expected.all_coeffs())]
        assert linalg.charpoly(a, Fraction(1)) == coeffs


def test_default_truncation_covers_extraction_bound():
    for spec in ("dihedral:3", "hyperoctahedral:3", "trivial:1"):
        group = builtin(spec)
        assert default_truncation(group) > group.order + group.dimension - 1
