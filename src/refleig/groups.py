"""Finite matrix groups over cyclotomic scalars.

Groups are enumerated by breadth-first closure from exact generator matrices;
the resulting element order is deterministic (identity first, then insertion
order of the search) and several downstream indices depend on it.  Closure
is the only place elements are multiplied as matrices: every other product,
the powers k^j that `series.molien` reads traces from included, is read
from the table of element-by-generator products it keeps.  Outside it, only
the generators meet a matrix product, in their finite-order and
orthogonality checks.

Closure forms |K| times (number of generators) products, each against a
generator on the right.  Each `RMatrix` finds its rows' nonzero entries
once (`linalg.sparse_rows`) and keeps them for every product with it on the
right and for every `apply`; `linalg.mat_mul` multiplies only nonzero
entries, and a signed unit row of the right factor copies its partner.  So
a signed-permutation product costs n^2 entry tests of the left factor and
no scalar product, instead of n^3 products; a dense planar rotation still
costs all 8.  The pseudo-reflection test is exact rank(M - I) = 1, ruled
out mod p first for most elements.  The group-level test checks that the
generators are orthogonal (so every element is) and that the reflections
generate the group, by a search over element indices.

Elements of the motion group R^n x| K are (translation, rotation) pairs with
the semidirect multiplication (x1, k1)(x2, k2) = (x1 + k1 x2, k1 k2).
"""

import json
import math
from fractions import Fraction

from . import linalg
from .cyclotomic import E, ONE, Reduction, ZERO, cyc, sum_of_products
from .errors import (
    GroupClosureError,
    InternalConsistencyError,
    NonOrthogonalError,
    ParseError,
)

DEFAULT_MAX_ORDER = 10000
# The builtin planar groups have entries in Q(zeta_m), m = lcm(4, n), and
# closing them costs about n phi(m)^2 scalar operations, so the order bound
# alone admits planar groups that take minutes to build.
MAX_ROTATION_ORDER = 100
# trivial:n builds an n x n identity; its Jacobian is an n x n determinant.
MAX_TRIVIAL_DIMENSION = 8


class RMatrix:
    """Immutable square matrix with cyclotomic entries."""

    __slots__ = ("dimension", "rows", "_hash", "_sparse")

    def __init__(self, rows):
        rows = tuple(tuple(cyc(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.dimension = n
        self.rows = rows
        self._hash = None
        self._sparse = None

    @staticmethod
    def _of(rows, n):
        """An n x n matrix from Cyclotomic row lists, not coerced again."""
        m = object.__new__(RMatrix)
        m.dimension = n
        m.rows = tuple(map(tuple, rows))
        m._hash = None
        m._sparse = None
        return m

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
        if other.dimension != self.dimension:
            raise ValueError("matrices of different dimensions")
        # a product of Cyclotomic rows has Cyclotomic entries already
        return RMatrix._of(
            linalg.mat_mul(self.rows, other.rows, other.sparse_rows()),
            self.dimension,
        )

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

    def sparse_rows(self):
        """`linalg.sparse_rows` of the rows, found on the first call and
        kept: every product with this matrix on the right and every
        `apply` reads them."""
        if self._sparse is None:
            self._sparse = linalg.sparse_rows(self.rows)
        return self._sparse

    def apply(self, vec):
        """The image of a vector, read from `sparse_rows`: a row whose one
        entry is 1 or -1 copies or negates a coordinate, any other row is
        one fused sum of products."""
        sparse = self.sparse_rows()
        vec = [cyc(v) for v in vec]
        if len(vec) != self.dimension:
            raise ValueError("vector length must match the matrix dimension")
        out = []
        for k, positive, terms in sparse:
            if terms is None:
                out.append(vec[k] if positive else -vec[k])
            else:
                out.append(sum_of_products((x, vec[j]) for j, x in terms))
        return tuple(out)


def is_pseudo_reflection(m: RMatrix) -> bool:
    """Exact test that m fixes a hyperplane: rank(m - I) = 1, that is,
    m - I is nonzero and every 2 x 2 minor of it vanishes.  No field
    inverse is taken."""
    n = m.dimension
    diff = [
        [m.rows[i][j] - ONE if i == j else m.rows[i][j] for j in range(n)]
        for i in range(n)
    ]
    if not any(x for row in diff for x in row):
        return False
    for i in range(n):
        for k in range(i + 1, n):
            a, b = diff[i], diff[k]
            for j in range(n):
                for l in range(j + 1, n):
                    if a[j] * b[l] != a[l] * b[j]:
                        return False
    return True


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
        self._diagonal_characters = None
        self._rotated_points = None

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
    def diagonal_characters(self):
        """(L, (w_1, ..., w_n)) for each diagonal element other than the
        identity, whose diagonal entries are zeta_L^(w_i).

        Such an element scales the monomial x^e by zeta_L^(sum e_i w_i), so
        the Reynolds image of x^e is zero unless that sum is 0 mod L.
        """
        if self._diagonal_characters is None:
            n = self.dimension
            exponents = {}
            out = []
            for m in self.elements[1:]:
                rows = m.rows
                if any(rows[i][j] for i in range(n) for j in range(n) if i != j):
                    continue
                roots = []
                for i in range(n):
                    x = rows[i][i]
                    if x not in exponents:
                        exponents[x] = _root_exponent(x)
                    roots.append(exponents[x])
                order = math.lcm(*(o for o, _ in roots))
                out.append((order, tuple(j * (order // o) for o, j in roots)))
            self._diagonal_characters = tuple(out)
        return self._diagonal_characters

    @property
    def rotated_points(self):
        """One memo per element for `eigenspace.eigenspace_action`: exponent
        vector mu -> elements[i] . mu, filled lazily."""
        if self._rotated_points is None:
            self._rotated_points = [{} for _ in self.elements]
        return self._rotated_points

    @property
    def reflection_flags(self):
        """Whether each element is a pseudo-reflection.

        All entries go through one `Reduction` first.  A rank of m - I of 2
        or more mod p settles False, since reduction never raises a rank;
        only the elements left are tested exactly (`is_pseudo_reflection`).
        """
        if self._reflection_flags is None:
            red = Reduction([x for m in self.elements for row in m.rows for x in row])
            p = red.p
            n = self.dimension
            flags = []
            for m in self.elements:
                rows = [
                    [red.scalar(x) - (i == j) for j, x in enumerate(row)]
                    for i, row in enumerate(m.rows)
                ]
                flags.append(
                    linalg.rank_mod(rows, n, p) < 2 and is_pseudo_reflection(m)
                )
            self._reflection_flags = tuple(flags)
        return self._reflection_flags

    def reflections(self):
        return [
            m for m, flag in zip(self.elements, self.reflection_flags) if flag
        ]


def _root_exponent(x):
    """(o, j) with x = zeta_o^j for a root of unity x, as the diagonal
    entries of a finite group's elements are: x = +-zeta_m^j with m its
    conductor, and -zeta_m^j = zeta_2m^(2j + m)."""
    m = x.order
    for j in range(m):
        z = E(m, j)
        if z == x:
            return m, j
        if z == -x:
            return 2 * m, 2 * j + m
    raise InternalConsistencyError(f"diagonal entry {x!r} is not a root of unity")


def _exceeds_in_some_embedding(c, bound):
    """Whether |sigma(c)| > bound for some embedding sigma, read from each
    Galois conjugate's `Cyclotomic.embed` at 64 bits.

    Each part is within one unit there, so the modulus is within sqrt 2
    units, and a conjugate is counted only when it passes bound + 2 units;
    a value with every |sigma(c)| <= bound is never counted.
    """
    q = 64
    limit = (bound << q) + 2
    m = c.order
    for a in range(1, m + 1):
        if math.gcd(a, m) == 1:
            re, im = c.galois(a).embed(q)
            if re * re + im * im > limit * limit:
                return True
    return False


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
        coeffs = linalg.charpoly(g.rows, ONE)
        det = coeffs[0]
        if not det:
            raise ValueError("generators must be invertible")
        # finite order: eigenvalues are roots of unity, so the characteristic
        # polynomial is integral on the power basis, |det| = 1, and the
        # coefficient c of s^k, a signed elementary symmetric function of n
        # roots of unity, has modulus at most C(n, k) in every embedding
        if (
            any(c.den != 1 for c in coeffs)
            or det * det.conj() != ONE
            or any(
                _exceeds_in_some_embedding(c, math.comb(n, k))
                for k, c in enumerate(coeffs)
            )
        ):
            raise GroupClosureError(f"generator {g.text()} has infinite order")
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

_FAMILIES = ("dihedral", "cyclic", "symmetric", "hyperoctahedral", "trivial")


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


def _family_order(family, n):
    """Order of the builtin group family:n, or None once it passes
    DEFAULT_MAX_ORDER (n! and 2^n n! are built up factor by factor)."""
    order = {"dihedral": 2 * n, "cyclic": n, "trivial": 1}.get(family)
    if order is None:
        order = 1
        for k in range(1, n + 1):
            order *= 2 * k if family == "hyperoctahedral" else k
            if order > DEFAULT_MAX_ORDER:
                return None
    return order if order <= DEFAULT_MAX_ORDER else None


def builtin(spec: str) -> ReflectionGroup:
    """Construct a named group: dihedral:n, symmetric:n, hyperoctahedral:n,
    cyclic:n (planar rotations, the negative control), or trivial:n.

    n is a plain ASCII decimal numeral.  The order is known from n, so a
    group past DEFAULT_MAX_ORDER, a planar group with n past
    MAX_ROTATION_ORDER or a trivial group past MAX_TRIVIAL_DIMENSION is
    refused before anything is built.
    """
    family, _, arg = spec.partition(":")
    if not (arg.isascii() and arg.isdigit()):
        raise ParseError(f"bad builtin spec {spec!r}; expected name:n")
    if family not in _FAMILIES:
        raise ParseError(f"unknown builtin family {family!r}")
    try:
        n = int(arg)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"bad builtin spec {spec!r}; expected name:n") from None
    if _family_order(family, n) is None:
        raise ParseError(
            f"builtin {spec!r} has order past the limit {DEFAULT_MAX_ORDER}"
        )
    if family in ("dihedral", "cyclic") and n > MAX_ROTATION_ORDER:
        raise ParseError(
            f"builtin {spec!r}: n is past the limit {MAX_ROTATION_ORDER}"
        )
    if family == "trivial" and n > MAX_TRIVIAL_DIMENSION:
        raise ParseError(
            f"builtin {spec!r}: dimension is past the limit "
            f"{MAX_TRIVIAL_DIMENSION}"
        )
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
    # trivial
    if n < 1:
        raise ParseError("trivial:n requires n >= 1")
    return closure([], dimension=n, name=spec)


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


class GroupElement:
    """Element (x, k) of R^n x| K; the rotation is an index into the group.

    Two elements are equal when group, translation and rotation are."""

    __slots__ = ("group", "translation", "rotation")

    def __init__(self, group: ReflectionGroup, translation, rotation: int):
        trans = tuple(cyc(x) for x in translation)
        if len(trans) != group.dimension:
            raise ValueError("translation has wrong length")
        for x in trans:
            if not x.is_real():
                raise ValueError("translation entries must be real")
        if not 0 <= rotation < group.order:
            raise ValueError("rotation index out of range")
        self.group = group
        self.translation = trans
        self.rotation = rotation

    def __eq__(self, other):
        if type(other) is not GroupElement:
            return NotImplemented
        return (self.group, self.translation, self.rotation) == (
            other.group, other.translation, other.rotation
        )

    def __hash__(self):
        return hash((self.group, self.translation, self.rotation))

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
