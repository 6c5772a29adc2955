"""Dense integer matrices: the reference that the sparse maps and the
Smith normal forms of ``wittlab.abgroups`` are tested against.

Rows are lists of ints, and a row vector multiplies a matrix from the
left, as in ``AbHom``: row i of a map's matrix is the image of
generator i.  ``determinant`` runs on fractions, which the library
never uses.
"""

from fractions import Fraction

from wittlab.errors import InternalInvariantFailure


def identity_matrix(n):
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    bcols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * bcols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def vecmat(v, m):
    """Row vector times matrix."""
    if len(v) != len(m):
        raise ValueError("vector/matrix dimensions do not match")
    ncols = len(m[0]) if m else 0
    acc = [0] * ncols
    for x, row in zip(v, m):
        if x:
            for j, y in enumerate(row):
                if y:
                    acc[j] += x * y
    return acc


def determinant(m):
    """Exact determinant via fraction-based Gaussian elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for t in range(n):
        piv = None
        for i in range(t, n):
            if a[i][t]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            det = -det
        det *= a[t][t]
        inv = 1 / a[t][t]
        for i in range(t + 1, n):
            if a[i][t]:
                f = a[i][t] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    if det.denominator != 1:
        raise InternalInvariantFailure("non-integer determinant %s" % det)
    return int(det)
