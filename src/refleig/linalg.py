"""Exact linear algebra over any field-like scalar.

Every routine but `dot` works for scalars supporting +, -, *, /, == and
truth-testing (zero is falsy): `fractions.Fraction` and `Cyclotomic` both
qualify; `dot` takes `Cyclotomic` entries.  Matrices are lists of row
lists.  Sizes here are desk scale, so plain Gaussian elimination with
first-nonzero pivoting is used throughout; pivot choice is deterministic,
which several callers rely on for reproducible bases.
`rank_mod` is the one routine over F_p instead: it takes integer matrices
reduced by `cyclotomic.Reduction`.  Nothing here is numeric: the
certificates' fixed-point routes live in `eigenspace`.

Every exact sum in the package goes through one of two accumulators:
`add_term` for sparse sums keyed by exponent or column, and `dot` for dense
sums of products such as orbit pairings.  `add_term` never adds into an
exact zero, since `ZERO + x` builds a value that changes nothing.  `dot` is
`cyclotomic.sum_of_products`: one integer vector for all the products and
one canonicalization for the sum, where a chain of `+` and `*` would
canonicalize every product and partial sum.
`mat_mul` is row-sparse: it forms only the products of two nonzero
entries, and a row of the right factor that is a signed unit vector copies
its partner, so a product of signed-permutation matrices forms no scalar
product at all.  The right factor's nonzero entries come from
`sparse_rows`, which `RMatrix` in `groups` keeps once per matrix for both
its products and `RMatrix.apply`.  `charpoly` passes list rows and lets
`mat_mul` find them on each call.
"""

from fractions import Fraction

from .cyclotomic import sum_of_products


def add_term(out, key, value):
    """Add `value` into the sparse sum `out` at `key`; a cancelled key is dropped."""
    acc = out.get(key)
    total = value if acc is None else acc + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def dot(u, v):
    """Sum of u[i] * v[i] over `Cyclotomic` vectors of equal length, as one
    fused sum."""
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum_of_products(zip(u, v))


def sparse_rows(rows):
    """Each row's nonzero entries, the form `mat_mul` and `RMatrix.apply`
    read: (k, True, None) or (k, False, None) for a row whose one nonzero
    entry is 1 or -1, at column k, and (None, None, ((j, y), ...)) for any
    other row."""
    out = []
    for row in rows:
        terms = tuple((j, y) for j, y in enumerate(row) if y)
        if len(terms) == 1 and (terms[0][1] == 1 or terms[0][1] == -1):
            out.append((terms[0][0], terms[0][1] == 1, None))
        else:
            out.append((None, None, terms))
    return tuple(out)


def mat_mul(a, b, sparse_b=None):
    """The product a b of nonempty matrices.  Row i sums a[i][k] b[k] over
    the nonzero a[i][k], touching only the nonzero entries of b[k], read
    from `sparse_b` (`sparse_rows(b)`, formed here when not given); a row
    b[k] that is a unit vector times 1 or -1 copies or negates a[i][k] with
    no product.  An entry with no term is the field's zero, a[0][0] * 0."""
    zero = a[0][0] * 0
    ncols = len(b[0])
    if sparse_b is None:
        sparse_b = sparse_rows(b)
    out = []
    for arow in a:
        acc = {}
        for x, (k, positive, terms) in zip(arow, sparse_b):
            if not x:
                continue
            if terms is None:
                add_term(acc, k, x if positive else -x)
            else:
                for j, y in terms:
                    add_term(acc, j, x * y)
        out.append([acc.get(j, zero) for j in range(ncols)])
    return out


def rref(rows, ncols):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Each row has `ncols` entries; a row of another length raises
    ValueError.  The rows are fed to a `RowSpan`, whose rows are that
    form: it is unique, so any elimination order gives it.
    Input rows are not modified.  Zero rows are dropped from the output.
    """
    span = RowSpan(ncols)
    for row in rows:
        span.add(row)
    return span.rows, span.pivot_cols


def rank(rows, ncols=None):
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    _, pivots = rref(rows, ncols)
    return len(pivots)


def rank_mod(rows, ncols: int, p: int) -> int:
    """Rank over F_p of a matrix of integers, by elimination mod p."""
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(mat)) if mat[r][col] % p), None
        )
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        # columns left of `col` are never read again: update the tail only
        tail = mat[rank][col:]
        inv = pow(tail[0], -1, p)
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            factor = row[col] * inv % p
            if factor:
                row[col:] = [
                    (a - factor * b) % p for a, b in zip(row[col:], tail)
                ]
        rank += 1
    return rank


def nullspace(rows, ncols, one=Fraction(1)):
    """Basis of the right nullspace, one vector per free column.

    The basis is deterministic: free columns are visited in ascending order
    and each vector has `one` at its free column.
    """
    zero = one - one
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for prow, pcol in zip(red, pivots):
            vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def charpoly(a, one):
    """Coefficients of det(sI - A), constant term first (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [None] * n + [one]
    am = [list(row) for row in a]  # A M_1, since M_1 = I
    for k in range(1, n + 1):
        tr = am[0][0]
        for i in range(1, n):
            tr = tr + am[i][i]
        ck = -(tr * Fraction(1, k))
        coeffs[n - k] = ck
        if k < n:
            # M_{k+1} = A M_k + c_{n-k} I
            for i in range(n):
                am[i][i] = am[i][i] + ck
            am = mat_mul(a, am)
    return coeffs


class RowSpan:
    """Incremental echelon form for membership and rank queries, on rows of
    `ncols` entries; `add` and `contains` refuse a row of another length."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # kept in echelon form, pivot coeff 1
        self.pivot_cols = []

    def _reduce(self, vec):
        vec = list(vec)
        if len(vec) != self.ncols:
            raise ValueError(
                f"row of {len(vec)} entries in a span of {self.ncols} columns"
            )
        for row, pcol in zip(self.rows, self.pivot_cols):
            if vec[pcol]:
                f = vec[pcol]
                vec = [x - f * y for x, y in zip(vec, row)]
        return vec

    def contains(self, vec):
        return not any(self._reduce(vec))

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        red = self._reduce(vec)
        lead = None
        for c, x in enumerate(red):
            if x:
                lead = c
                break
        if lead is None:
            return False
        # one inverse per pivot: dividing each entry would invert it again
        scale = 1 / red[lead]
        red = [x * scale for x in red]
        for i, (row, pcol) in enumerate(zip(self.rows, self.pivot_cols)):
            if row[lead]:
                f = row[lead]
                self.rows[i] = [x - f * y for x, y in zip(row, red)]
        # keep rows sorted by pivot column so iteration order is stable
        pos = 0
        while pos < len(self.pivot_cols) and self.pivot_cols[pos] < lead:
            pos += 1
        self.rows.insert(pos, red)
        self.pivot_cols.insert(pos, lead)
        return True

    @property
    def rank(self):
        return len(self.rows)
