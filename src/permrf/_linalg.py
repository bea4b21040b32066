"""Dense exact linear algebra over a finite field.

Matrices are lists of rows; entries are integer encodings understood by an
ops object exposing add, sub, mul, neg, inv.  Encoding 0 must be the additive
identity and encoding 1 the multiplicative identity.  Everything here is
deterministic: pivots are chosen left to right, free variables low to high.
"""


def rref(ops, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
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


def matmul(ops, a, b):
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            acc = 0
            for t in range(k):
                acc = ops.add(acc, ops.mul(a[i][t], b[t][j]))
            out[i][j] = acc
    return out


def inv_matrix(ops, a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(a[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(ops, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve(ops, a, b):
    """One solution x of a·x = b, or None if inconsistent."""
    n = len(a)
    ncols = len(a[0]) if a else 0
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    red, pivots = rref(ops, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x


def nullspace(ops, rows):
    """Basis of the right kernel, one vector per free column, ascending."""
    red, pivots = rref(ops, rows)
    ncols = len(rows[0]) if rows else 0
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


def det(ops, rows):
    n = len(rows)
    m = [list(r) for r in rows]
    result = 1
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = ops.neg(result)
        result = ops.mul(result, m[col][col])
        scale = ops.inv(m[col][col])
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = ops.mul(m[i][col], scale)
                m[i] = [ops.sub(m[i][j], ops.mul(f, m[col][j])) for j in range(n)]
    return result


def col_echelon(ops, rows):
    """Basis of the column space, returned as normalized coordinate vectors."""
    if not rows:
        return []
    transpose = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    red, pivots = rref(ops, transpose)
    return [red[i] for i in range(len(pivots))]


class Echelon:
    """Incremental echelon basis; add returns whether the vector extended it."""

    def __init__(self, ops):
        self.ops = ops
        self.rows = {}

    def reduce(self, v):
        v = list(v)
        for pivot, row in sorted(self.rows.items()):
            if v[pivot] != 0:
                f = v[pivot]
                v = [self.ops.sub(v[j], self.ops.mul(f, row[j])) for j in range(len(v))]
        return v

    def add(self, v):
        v = self.reduce(v)
        for j, x in enumerate(v):
            if x != 0:
                scale = self.ops.inv(x)
                self.rows[j] = [self.ops.mul(scale, y) for y in v]
                return True
        return False

    def __len__(self):
        return len(self.rows)
