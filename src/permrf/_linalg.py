"""Dense exact linear algebra over a finite field.

Matrices are lists of n >= 1 rows; entries are integer encodings read by an
ops object exposing sub, mul, neg, inv.  Encoding 0 must be the additive
identity and encoding 1 the multiplicative identity.  Inverse, kernel and
column space run on rref, the one elimination here; rank is its pivot count.
Everything is deterministic: pivots are chosen left to right, free
variables low to high.
"""


def rref(ops, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = ops.inv(m[r][col])
        m[r] = [ops.mul(scale, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [ops.sub(m[i][j], ops.mul(f, m[r][j])) for j in range(ncols)]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def inv_matrix(ops, a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(a[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(ops, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def nullspace(ops, rows):
    """Basis of the right kernel, one vector per free column, ascending."""
    red, pivots = rref(ops, rows)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = ops.neg(red[r][free])
        basis.append(v)
    return basis


def col_echelon(ops, rows):
    """Basis of the column space, returned as normalized coordinate vectors."""
    transpose = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    red, pivots = rref(ops, transpose)
    return [red[i] for i in range(len(pivots))]
