"""Dense exact linear algebra over any field-like scalar.

Every routine works for scalars supporting +, -, *, /, == and truth-testing
(zero is falsy): `fractions.Fraction` and `Cyclotomic` both qualify.  Matrices
are lists of row lists.  Sizes here are desk scale, so plain Gaussian
elimination with first-nonzero pivoting is used throughout; pivot choice is
deterministic, which several callers rely on for reproducible bases.
"""

from fractions import Fraction


def mat_mul(a, b):
    rows, mid, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        arow = a[i]
        row = []
        for j in range(cols):
            acc = arow[0] * b[0][j]
            for k in range(1, mid):
                acc = acc + arow[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


def rref(rows, ncols):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Input rows are not modified.  Zero rows are dropped from the output.
    """
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows, ncols=None):
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    _, pivots = rref(rows, ncols)
    return len(pivots)


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
            vec[pcol] = zero - prow[free]
        basis.append(vec)
    return basis


def charpoly(a, one):
    """Coefficients of det(sI - A), constant term first (Faddeev-LeVerrier)."""
    n = len(a)
    zero = one - one
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    m = [[zero] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I
        m = mat_mul(a, m)
        ck = coeffs[n - k + 1]
        for i in range(n):
            m[i][i] = m[i][i] + ck
        am = mat_mul(a, m)
        tr = am[0][0]
        for i in range(1, n):
            tr = tr + am[i][i]
        coeffs[n - k] = zero - tr * Fraction(1, k)
    return coeffs


class RowSpan:
    """Incremental echelon form for membership and rank queries."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # kept in echelon form, pivot coeff 1
        self.pivot_cols = []

    def _reduce(self, vec):
        vec = list(vec)
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
        inv = red[lead]
        red = [x / inv for x in red]
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
