"""Every Smith normal form and every map the library builds without
the public checks is certified in the test session.

The session fixture ``certified_smith`` wraps ``abgroups._smith``: each
call runs the elimination with the left transform, checks the result
against the input, and hands back what the caller asked for.  The
unwrapped function stays reachable as ``abgroups._smith.__wrapped__``,
so that a test can run the elimination without the left transform and
compare it with a certified run.

The session fixture ``certified_homs`` wraps ``abgroups._hom``, which
builds an ``AbHom`` from sparse rows with no relation check: each call
checks the shape of the rows and that the map preserves relations.
"""

import pytest

from wittlab import abgroups


def smith_certificate_fault(rows, ncols, result):
    """Why ``result = (d, left, right, right_inv)`` is not a Smith normal
    form of the matrix with the given sparse rows, or None.

    Checks that d is diagonal, non-negative and a divisibility chain,
    that right * right_inv = I, that column j of m * right is divisible
    by d_j (zero where d_j = 0), and that left * m * right = d.
    """
    d, left, right, right_inv = result
    nrows = len(rows)
    if len(d) != nrows or len(left) != nrows or len(right) != ncols \
            or len(right_inv) != ncols:
        return "transforms of the wrong shape"
    diag = []
    for i, row in enumerate(d):
        if any(k != i for k in row):
            return "d is not diagonal in row %d" % i
        diag.append(row.get(i, 0))
    diag = diag[:ncols] + [0] * (ncols - min(nrows, ncols))
    if any(x < 0 for x in diag):
        return "negative invariant factor"
    for a, b in zip(diag, diag[1:]):
        if b and not (a and b % a == 0):
            return "not a divisibility chain: %d, %d" % (a, b)
    right_rows = [{} for _ in range(ncols)]
    for j, column in enumerate(right):
        for k, x in column.items():
            right_rows[k][j] = x
    for k, row in enumerate(right_rows):
        if combination(row, right_inv) != {k: 1}:
            return "row %d of right * right_inv is not the identity's" % k
    m_right = [combination(dict(row), right_rows) for row in rows]
    for row in m_right:
        for j, x in row.items():
            if x % diag[j] if diag[j] else x:
                return "column %d of m * right is not divisible by %d" % (
                    j, diag[j])
    for i, row in enumerate(left):
        if combination(row, m_right) != d[i]:
            return "row %d of left * m * right is not row %d of d" % (i, i)
    return None


def combination(coeffs, rows):
    """The sparse row sum of c * rows[r] over the entries r: c of the
    dict coeffs, zeros left out."""
    acc = {}
    for r, c in coeffs.items():
        for j, x in rows[r].items():
            acc[j] = acc.get(j, 0) + c * x
    return {j: x for j, x in acc.items() if x}


@pytest.fixture(scope="session", autouse=True)
def certified_smith():
    smith = abgroups._smith

    def certified(rows, ncols, with_left=True):
        full = smith(rows, ncols, True)
        fault = smith_certificate_fault(rows, ncols, full)
        if fault is not None:
            raise AssertionError("uncertified Smith normal form: " + fault)
        return full if with_left else (full[0], None, full[2], full[3])

    certified.__wrapped__ = smith
    abgroups._smith = certified
    try:
        yield
    finally:
        abgroups._smith = smith


def hom_rows_fault(source, target, rows):
    """Why ``rows`` are not the sparse rows of a map from ``source`` to
    ``target``: one per source generator, each a tuple of ``(column,
    value)`` pairs with distinct columns below target.ngens and non-zero
    int values; or None."""
    if len(rows) != source.ngens:
        return "%d rows for %d generators" % (len(rows), source.ngens)
    for s, row in enumerate(rows):
        if type(row) is not tuple:
            return "row %d is a %s, not a tuple" % (s, type(row).__name__)
        columns = [k for k, _x in row]
        if len(set(columns)) != len(columns):
            return "row %d repeats a column" % s
        for k, x in row:
            if not 0 <= k < target.ngens:
                return "row %d has column %d of %d" % (s, k, target.ngens)
            if type(x) is not int or not x:
                return "row %d holds %r at column %d" % (s, x, k)
    return None


@pytest.fixture(scope="session", autouse=True)
def certified_homs():
    hom = abgroups._hom

    def certified(source, target, rows):
        rows = tuple(rows)
        fault = hom_rows_fault(source, target, rows)
        if fault is not None:
            raise AssertionError("malformed library map: " + fault)
        try:
            abgroups._check_relations(source, target, rows)
        except ValueError as exc:
            raise AssertionError("ill-defined library map: %s" % exc)
        return hom(source, target, rows)

    certified.__wrapped__ = hom
    abgroups._hom = certified
    try:
        yield
    finally:
        abgroups._hom = hom
