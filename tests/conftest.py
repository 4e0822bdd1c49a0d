"""Shared fixtures, and the references that tests compare the library with.

The mpmath references here are the embedding the library used before it
embedded in integer fixed point; mpmath is a test dependency only.
"""

import math
from functools import lru_cache

import mpmath
import pytest

from refleig import linalg
from refleig.cyclotomic import E, ONE, ZERO, cyc
from refleig.eigenspace import Weight, is_generic
from refleig.errors import InternalConsistencyError
from refleig.groups import builtin
from refleig.harmonics import compute_harmonics, find_fundamental_invariants

REFLECTION_BATTERY = (
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "dihedral:7",
    "dihedral:8",
    "symmetric:2",
    "symmetric:3",
    "symmetric:4",
    "hyperoctahedral:2",
    "hyperoctahedral:3",
)


@pytest.fixture(scope="session")
def pipeline():
    """Memoized (group, invariants, harmonics) per builtin spec string."""
    cache = {}

    def load(spec):
        if spec not in cache:
            group = builtin(spec)
            invariants = find_fundamental_invariants(group)
            harmonics = compute_harmonics(group, invariants)
            cache[spec] = (group, invariants, harmonics)
        return cache[spec]

    return load


# -- mpmath references -----------------------------------------------------------


@lru_cache(maxsize=None)
def _root(i, m, prec):
    """zeta_m^i = e^(2 pi i i / m) at `prec` bits."""
    with mpmath.workprec(prec):
        return mpmath.expjpi(mpmath.mpf(2 * i) / m)


def mp_embed(x, precision: int = 53):
    """A cyclotomic value as an mpmath complex number at `precision` bits."""
    den = x.den
    prec = precision + 10
    with mpmath.workprec(prec):
        acc = mpmath.mpc(0)
        for i, c in x.nums.items():
            # each coordinate in lowest terms, so that every term rounds
            # exactly as the coordinate's own fraction would
            g = math.gcd(c, den)
            acc += _root(i, x.order, prec) * mpmath.mpf(c // g) / (den // g)
        return +acc


def embed_complex(x, precision: int = 53):
    """`mp_embed` as an (re, im) mpf pair; the absolute error is below
    2^(-precision + 4)."""
    z = mp_embed(x, precision)
    return (z.real, z.imag)


def mp_embed_formal(f, precision: int = 53):
    """A `FormalExp` sum of c exp(s) as an mpmath complex number."""
    with mpmath.workprec(precision + 10):
        acc = mpmath.mpc(0)
        for s, c in f.terms.items():
            acc += mp_embed(c, precision) * mpmath.exp(mp_embed(s, precision))
        return +acc


# -- dense and naive references ----------------------------------------------------


def dense_mat_mul(a, b):
    """The product a b with every entry a `linalg.dot` of a row and a column,
    zeros included: the formulation `linalg.mat_mul` replaced."""
    cols = list(zip(*b))
    return [[linalg.dot(arow, col) for col in cols] for arow in a]


def dense_mat_vec(a, v):
    return [linalg.dot(row, v) for row in a]


def naive_generator_products(generators, degrees, target, nvars):
    """Every power product of total degree `target`, each built from scratch
    from the powers g ** e: what `harmonics._generator_products` memoizes."""
    from refleig.harmonics import _exponent_solutions
    from refleig.polynomials import Poly

    out = []
    for exps in _exponent_solutions(degrees, target):
        prod = Poly.constant(nvars, ONE)
        for gen, e in zip(generators, exps):
            if e:
                prod = prod * gen ** e
        out.append(prod)
    return out


# -- weights ---------------------------------------------------------------------


def degenerate_weight(group, rng, bound: int = 9, max_tries: int = 1000) -> Weight:
    """Nonzero weight fixed by some pseudo-reflection (hence non-generic)."""
    reflections = group.reflections()
    if not reflections:
        raise ValueError("group has no pseudo-reflections")
    i_unit = E(4)
    for _ in range(max_tries):
        s = reflections[rng.randrange(len(reflections))]
        n = group.dimension
        diff = [
            [s.rows[i][j] - ONE if i == j else s.rows[i][j] for j in range(n)]
            for i in range(n)
        ]
        fixed = linalg.nullspace(diff, n, ONE)
        entries = [ZERO] * n
        for vec in fixed:
            c = rng.randint(-bound, bound)
            if c:
                entries = [e + cyc(c) * x for e, x in zip(entries, vec)]
        w = Weight(group, tuple(i_unit * e for e in entries))
        if not w.is_zero():
            if is_generic(w):
                raise InternalConsistencyError(
                    "reflection-fixed weight cannot be generic"
                )
            return w
    raise InternalConsistencyError("could not sample a degenerate weight")
