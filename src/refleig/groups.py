"""Finite matrix groups over cyclotomic scalars.

Groups are enumerated by breadth-first closure from exact generator matrices;
the resulting element order is deterministic (identity first, then insertion
order of the search) and several downstream indices depend on it.  Closure
is the only place elements are multiplied as matrices; every other product
is read from the table of element-by-generator products it keeps.  The
pseudo-reflection test is exact rank(M - I) = 1.  The group-level test checks
that the generators are orthogonal (so every element is) and that the
reflections generate the group, by a search over element indices.

Elements of the motion group R^n x| K are (translation, rotation) pairs with
the semidirect multiplication (x1, k1)(x2, k2) = (x1 + k1 x2, k1 k2).
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclotomic import E, ONE, ZERO, cyc
from .errors import (
    GroupClosureError,
    InternalConsistencyError,
    NonOrthogonalError,
    ParseError,
)

DEFAULT_MAX_ORDER = 10000


class RMatrix:
    """Immutable square matrix with cyclotomic entries."""

    __slots__ = ("dimension", "rows", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(cyc(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.dimension = n
        self.rows = rows
        self._hash = None

    @staticmethod
    def identity(n):
        return RMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __mul__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return RMatrix(linalg.mat_mul(self.rows, other.rows))

    def __repr__(self):
        return f"RMatrix({self.text()})"

    def text(self):
        from .parsing import format_scalar

        return (
            "["
            + "; ".join(
                ", ".join(format_scalar(x) for x in row) for row in self.rows
            )
            + "]"
        )

    def transpose(self):
        return RMatrix(list(zip(*self.rows)))

    def is_identity(self):
        return self == RMatrix.identity(self.dimension)

    def is_orthogonal(self):
        return (self.transpose() * self).is_identity()

    def apply(self, vec):
        return tuple(linalg.mat_vec(self.rows, [cyc(v) for v in vec]))


def is_pseudo_reflection(m: RMatrix) -> bool:
    """Exact test that m fixes a hyperplane: rank(m - I) = 1."""
    n = m.dimension
    diff = [
        [m.rows[i][j] - ONE if i == j else m.rows[i][j] for j in range(n)]
        for i in range(n)
    ]
    return linalg.rank(diff, n) == 1


class ReflectionGroup:
    """A finite matrix group; the name records how it was built.

    `right[i][j]` is the index of elements[i] times generator j.  Closure
    first reached element b > 0 as elements[i] times generator j with i < b,
    and `reached[b]` is that (i, j); `reached[0]` is None.
    """

    def __init__(self, elements, right, reached, name=None):
        self.elements = tuple(elements)
        self.generator_indices = tuple(right[0])
        self.right = right
        self.reached = reached
        self.name = name
        self.dimension = elements[0].dimension
        if not self.elements[0].is_identity():
            raise InternalConsistencyError("element 0 must be the identity")
        self._mult = None
        self._inv = None
        self._reflection_flags = None
        self._action_powers = None

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        label = self.name or "custom"
        return f"ReflectionGroup({label}, order={self.order}, dim={self.dimension})"

    def word(self, b):
        """Generator positions j1..jk with elements[b] = g_j1 ... g_jk."""
        out = []
        while b:
            b, j = self.reached[b]
            out.append(j)
        return out[::-1]

    @property
    def mult_table(self):
        """Index of elements[a] * elements[b], read as (a * elements[i]) * g_j
        for reached[b] = (i, j), so each row fills left to right."""
        if self._mult is None:
            right = self.right
            table = []
            for a in range(self.order):
                row = [a]
                for i, j in self.reached[1:]:
                    row.append(right[row[i]][j])
                table.append(row)
            self._mult = table
        return self._mult

    @property
    def inverse_table(self):
        if self._inv is None:
            table = self.mult_table
            inv = [None] * self.order
            for i, row in enumerate(table):
                inv[i] = row.index(0)
            self._inv = inv
        return self._inv

    @property
    def action_powers(self):
        """One memo per element for `polynomials.reynolds`, filled lazily."""
        if self._action_powers is None:
            self._action_powers = [{} for _ in self.elements]
        return self._action_powers

    @property
    def reflection_flags(self):
        if self._reflection_flags is None:
            self._reflection_flags = tuple(
                is_pseudo_reflection(m) for m in self.elements
            )
        return self._reflection_flags

    def reflections(self):
        return [
            m for m, flag in zip(self.elements, self.reflection_flags) if flag
        ]


def closure(generators, max_order=DEFAULT_MAX_ORDER, dimension=None, name=None):
    """Breadth-first closure of the generators into a full group.

    Element order is part of the contract: identity first, then products in
    search order, so repeated runs enumerate identically.  An empty generator
    list gives the identity group of the given dimension.
    """
    generators = list(generators)
    n = generators[0].dimension if generators else dimension
    if n is None:
        raise ValueError("empty generator list needs an explicit dimension")
    if any(g.dimension != n for g in generators):
        raise ValueError("generators must share one dimension")
    for g in generators:
        if linalg.rank(g.rows, n) != n:
            raise ValueError("generators must be invertible")
    ident = RMatrix.identity(n)
    elements = [ident]
    seen = {ident: 0}
    right = []
    reached = [None]
    for i, current in enumerate(elements):
        row = []
        for j, g in enumerate(generators):
            prod = current * g
            b = seen.get(prod)
            if b is None:
                b = seen[prod] = len(elements)
                elements.append(prod)
                reached.append((i, j))
                if len(elements) > max_order:
                    raise GroupClosureError(
                        f"closure exceeded {max_order} elements; "
                        "group may be infinite"
                    )
            row.append(b)
        right.append(row)
    return ReflectionGroup(elements, right, reached, name=name)


def is_pseudo_reflection_group(group: ReflectionGroup) -> bool:
    """True when the orthogonal group is generated by its pseudo-reflections.

    Raises NonOrthogonalError naming the first element with k^T k != I; the
    trivial group passes vacuously.  Orthogonal matrices form a group, so
    only the generators are checked; closure reaches them before any other
    product, so the first non-orthogonal element is a generator.
    """
    for i in sorted(set(group.generator_indices)):
        m = group.elements[i]
        if not m.is_orthogonal():
            raise NonOrthogonalError(
                f"element #{i} is not orthogonal: {m.text()}"
            )
    right = group.right
    words = [group.word(b) for b, flag in enumerate(group.reflection_flags) if flag]
    generated = {0}
    frontier = [0]
    for a in frontier:
        for w in words:
            b = a
            for j in w:
                b = right[b][j]
            if b not in generated:
                generated.add(b)
                frontier.append(b)
    return len(generated) == group.order


# -- built-in families -------------------------------------------------------


def _cos_sin(n, k):
    """Exact cos(2 pi k / n) and sin(2 pi k / n).

    Cosines live in Q(zeta_n) but sines need i as well, so both are built in
    Q(zeta_M) with M = lcm(4, n); canonical forms then descend on their own.
    """
    m = 4 * n // math.gcd(4, n)
    c = (E(m, k * m // n) + E(m, -k * m // n)) * Fraction(1, 2)
    shift = k * m // n - m // 4  # cos(theta - pi/2) = sin(theta)
    s = (E(m, shift) + E(m, -shift)) * Fraction(1, 2)
    return c, s


def rotation_matrix(n, k):
    c, s = _cos_sin(n, k)
    return RMatrix([[c, -s], [s, c]])


def reflection_matrix(n, k):
    c, s = _cos_sin(n, k)
    return RMatrix([[c, s], [s, -c]])


def _permutation_matrix(perm):
    n = len(perm)
    return RMatrix(
        [[ONE if perm[j] == i else ZERO for j in range(n)] for i in range(n)]
    )


def builtin(spec: str) -> ReflectionGroup:
    """Construct a named group: dihedral:n, symmetric:n, hyperoctahedral:n,
    cyclic:n (planar rotations, the negative control), or trivial:n."""
    try:
        family, _, arg = spec.partition(":")
        n = int(arg)
    except ValueError:
        raise ParseError(f"bad builtin spec {spec!r}; expected name:n") from None
    if family == "dihedral":
        if n < 3:
            raise ParseError("dihedral:n requires n >= 3")
        gens = [rotation_matrix(n, 1), reflection_matrix(n, 0)]
        group = closure(gens, name=spec)
        if group.order != 2 * n:
            raise InternalConsistencyError("dihedral closure has wrong order")
        return group
    if family == "cyclic":
        if n < 1:
            raise ParseError("cyclic:n requires n >= 1")
        group = closure([rotation_matrix(n, 1)], name=spec)
        if group.order != n:
            raise InternalConsistencyError("cyclic closure has wrong order")
        return group
    if family == "symmetric":
        if n < 1:
            raise ParseError("symmetric:n requires n >= 1")
        if n == 1:
            return closure([], dimension=1, name=spec)
        gens = []
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append(_permutation_matrix(perm))
        group = closure(gens, name=spec)
        if group.order != math.factorial(n):
            raise InternalConsistencyError("symmetric closure has wrong order")
        return group
    if family == "hyperoctahedral":
        if n < 1:
            raise ParseError("hyperoctahedral:n requires n >= 1")
        gens = []
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append(_permutation_matrix(perm))
        flip = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        flip[0][0] = -ONE
        gens.append(RMatrix(flip))
        group = closure(gens, name=spec)
        if group.order != (2 ** n) * math.factorial(n):
            raise InternalConsistencyError(
                "hyperoctahedral closure has wrong order"
            )
        return group
    if family == "trivial":
        if n < 1:
            raise ParseError("trivial:n requires n >= 1")
        return closure([], dimension=n, name=spec)
    raise ParseError(f"unknown builtin family {family!r}")


# -- group files -------------------------------------------------------------


def parse_group_json(obj, name=None, max_order=DEFAULT_MAX_ORDER):
    from .parsing import parse_scalar

    if not isinstance(obj, dict):
        raise ParseError("group file must contain a JSON object")
    if "builtin" in obj:
        if not isinstance(obj["builtin"], str):
            raise ParseError("builtin must be a string such as 'dihedral:3'")
        return builtin(obj["builtin"])
    for key in ("dimension", "generators"):
        if key not in obj:
            raise ParseError(f"group file is missing {key!r}")
    n = obj["dimension"]
    if not isinstance(n, int) or n < 1:
        raise ParseError("dimension must be a positive integer")
    if not isinstance(obj["generators"], list):
        raise ParseError("generators must be a list of matrices")
    gens = []
    for gi, gen in enumerate(obj["generators"]):
        if not isinstance(gen, list) or len(gen) != n or any(
            not isinstance(row, list) or len(row) != n for row in gen
        ):
            raise ParseError(f"generator #{gi} is not {n}x{n}")
        rows = []
        for ri, row in enumerate(gen):
            out = []
            for ci, entry in enumerate(row):
                if not isinstance(entry, str):
                    raise ParseError(
                        f"generator #{gi} entry ({ri},{ci}): expected a "
                        f"string, got {type(entry).__name__}"
                    )
                try:
                    out.append(parse_scalar(entry))
                except ParseError as exc:
                    raise ParseError(
                        f"generator #{gi} entry ({ri},{ci}): {exc}"
                    ) from None
            rows.append(out)
        gens.append(RMatrix(rows))
    label = obj.get("name", name)
    return closure(gens, max_order=max_order, dimension=n, name=label)


def load_group_file(path, max_order=DEFAULT_MAX_ORDER) -> ReflectionGroup:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON in {path}: {exc.msg} "
                f"(line {exc.lineno}, column {exc.colno})"
            ) from None
    return parse_group_json(obj, name=str(path), max_order=max_order)


# -- semidirect product elements ----------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Element (x, k) of R^n x| K; the rotation is an index into the group."""

    group: ReflectionGroup
    translation: tuple
    rotation: int

    def __post_init__(self):
        trans = tuple(cyc(x) for x in self.translation)
        if len(trans) != self.group.dimension:
            raise ValueError("translation has wrong length")
        for x in trans:
            if not x.is_real():
                raise ValueError("translation entries must be real")
        object.__setattr__(self, "translation", trans)
        if not 0 <= self.rotation < self.group.order:
            raise ValueError("rotation index out of range")

    @property
    def rotation_matrix(self):
        return self.group.elements[self.rotation]


def g_multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.group is not b.group:
        raise ValueError("elements of different groups")
    moved = a.rotation_matrix.apply(b.translation)
    trans = tuple(x + y for x, y in zip(a.translation, moved))
    rot = a.group.mult_table[a.rotation][b.rotation]
    return GroupElement(a.group, trans, rot)


def g_inverse(a: GroupElement) -> GroupElement:
    inv_rot = a.group.inverse_table[a.rotation]
    inv_mat = a.group.elements[inv_rot]
    moved = inv_mat.apply(a.translation)
    trans = tuple(-x for x in moved)
    return GroupElement(a.group, trans, inv_rot)


def g_identity(group: ReflectionGroup) -> GroupElement:
    return GroupElement(group, (ZERO,) * group.dimension, 0)
