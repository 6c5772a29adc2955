"""Finitely generated abelian groups and exact integer linear algebra.

A group is presented as Z^ngens modulo the row lattice of an integer
relations matrix.  Elements are integer coordinate vectors over the
generators.  The Smith normal form of the relations matrix is computed
once at construction; it yields the invariant factors and a change of
basis in which equality, lattice membership and enumeration of elements
are all decided by modular reduction.  The elimination carries the
inverse of its right transform along (each column operation is undone
by a row operation), so mapping canonical coordinates back to the
generators needs no second pass.  Everything runs on Python's
arbitrary-precision integers: there is no floating point anywhere, and
no rational arithmetic outside ``determinant``, which is kept as a
test oracle.

Relation rows are sparse.  A group stores each row once, as a tuple of
its non-zero ``(column, value)`` pairs; the public constructor coerces
a caller's dense rows with ``int()`` and drops the zeros, and library
builders (box products, direct sums, tensors, kernels, images) hand
over sparse rows of ints directly.  ``relations`` writes the rows out
dense on each read.

The elimination works on these rows as dicts, so it touches only
non-zero entries.  The pivot is the first entry of least absolute value
in row-major order of the trailing block; the search stops at the first
unit.  Row operations run over the support of the pivot row and only on
the rows that are non-zero in the pivot column, column operations over
the rows that are non-zero there after them, and a unit pivot skips the
divisibility-chain scan.  A column swap moves no entry: the elimination
keeps a permutation of the columns instead.  ``right`` is kept by
sparse columns and ``right_inv`` by sparse rows, so each column
operation is one sparse update of each.  A unit-row index keeps one
flag per row, "holds +-1", and looks again only at the rows a step
changed, so the pivot search starts at the first flagged row.  None of
this changes the transforms.  Group builds discard the left transform,
so they do not build it.

Canonical forms use only the non-unit Smith columns.  A column whose
invariant factor is 1 always reduces to x mod 1 = 0, so a group keeps
just its live columns (d_i != 1), each with its index, its d_i and its
non-zero entries, and the matching rows of the inverse transform.
``canonical`` writes 0 at the unit positions, ``is_zero`` stops at the
first live coordinate that is not zero, and ``equal`` is ``is_zero`` of
the difference.  The relation check of ``AbHom`` reads the target the
same way: it forms the live coordinates of the image of each source
generator once per map, and checks each sparse source relation as a
combination of them modulo each d_i.  That is the algebra of reducing
the full image of the relation, with the same verdict and the same
first failing relation.  ``AbHom`` always checks, through
``_check_relations``, which the box product also calls on its sparse
rows; ``_hom`` is the one way to skip the coercion and the relation
check, for matrices the library built itself.

Cokernels, coinvariants and the levels of the Mackey quotients (Weyl
coinvariants, geometric fixed points, the nerve H_0) are all built by
``quotient``: the same generators with more relation rows.
"""

from fractions import Fraction
from itertools import compress, product

from .errors import InternalInvariantFailure, MalformedData


# ---------------------------------------------------------------------------
# bare matrix helpers (rows of ints; row vector times matrix convention)

def identity_matrix(n):
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def unit_vector(n, i):
    """The i-th standard basis vector of Z^n, as a tuple."""
    v = [0] * n
    v[i] = 1
    return tuple(v)


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


def bilinear(table, x, y, n):
    """The product of x and y given by structure constants: the sum of
    x_i y_j table[i][j] over the non-zero entries, a tuple of length n."""
    acc = [0] * n
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for t, v in enumerate(row[j]):
                        if v:
                            acc[t] += c * v
    return tuple(acc)


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


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns ``(d, left, right)`` with ``left * m * right = d``, where
    ``d`` is diagonal with a divisibility chain d0 | d1 | ... and both
    transforms are unimodular.  Total on arbitrary integer matrices.

    >>> d, l, r = smith_normal_form([[2, 0], [0, 3]])
    >>> [d[0][0], d[1][1]]
    [1, 6]
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    d, left, right, _right_inv = _smith(_sparse_rows(m, ncols), ncols)
    return (_dense([r.items() for r in d], ncols),
            _dense([r.items() for r in left], nrows),
            _transpose(right, ncols))


def _smith(rows, ncols, with_left=True):
    """Smith normal form of the matrix with the given sparse rows, as
    ``(d, left, right, right_inv)`` with ``left * m * right = d``.

    Each row of ``rows`` is a dict or an iterable of ``(column, value)``
    pairs of ints, zeros left out; ``ncols`` is the width.  The results
    are sparse too, as dicts keyed by index: ``d`` (diagonal) and
    ``left`` are lists of rows, ``right`` a list of columns and
    ``right_inv``, the inverse of ``right``, a list of rows.  With
    ``with_left=False`` the left transform is not built and comes back
    as ``None``; the other three results are the same.
    """
    nrows = len(rows)
    a = [dict(row) for row in rows]
    # columns never move: position j of the elimination holds column
    # col[j], and pos inverts col, so a column swap costs O(1)
    col = list(range(ncols))
    pos = list(range(ncols))
    # unit[i] says whether row i holds an entry +-1; only the rows a step
    # changes are looked at again.  The final True ends every search.
    unit = [1 in row.values() or -1 in row.values() for row in a]
    unit.append(True)
    left = [{i: 1} for i in range(nrows)] if with_left else None
    right = [{j: 1} for j in range(ncols)]      # right[c]: column c
    right_inv = [{j: 1} for j in range(ncols)]  # right_inv[c]: row c
    t = 0
    size = min(nrows, ncols)
    while t < size:
        pivot = _pivot(a, t, unit, pos)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            unit[t], unit[pi] = unit[pi], unit[t]
            if with_left:
                left[t], left[pi] = left[pi], left[t]
        if pj != t:
            col[t], col[pj] = col[pj], col[t]
            pos[col[t]] = t
            pos[col[pj]] = pj
        ct = col[t]
        prow = a[t]
        piv = prow[ct]
        if piv < 0:
            piv = -piv
            prow = a[t] = {k: -x for k, x in prow.items()}
            if with_left:
                left[t] = {k: -x for k, x in left[t].items()}
        # a row operation changes only the rows below t that are non-zero
        # in column t; the rows above t are zero there
        below = [i for i in range(t + 1, nrows) if ct in a[i]]
        for i in below:
            row = a[i]
            q = row[ct] // piv
            if q:
                _sub_scaled(row, q, prow)
                unit[i] = 1 in row.values() or -1 in row.values()
                if with_left:
                    _sub_scaled(left[i], q, left[t])
        below = [i for i in below if ct in a[i]]
        # column operations leave column t alone, so only the rows that
        # are non-zero there ever change
        a_rows = [a[i] for i in below]
        a_rows.append(prow)
        rcol = right[ct]
        rinv_row = right_inv[ct]
        moved = False
        for c, x in list(prow.items()):
            q = x // piv
            if q and c != ct:
                moved = True
                for row in a_rows:
                    y = row.get(c, 0) - q * row[ct]
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                _sub_scaled(right[c], q, rcol)
                # col_c -= q col_t is undone by row_t += q row_c
                _sub_scaled(rinv_row, -q, right_inv[c])
        if moved:
            unit[t] = 1 in prow.values() or -1 in prow.values()
            for i in below:
                unit[i] = 1 in a[i].values() or -1 in a[i].values()
        if below or len(prow) > 1:
            continue  # leftover remainders are smaller than piv; repick
        # enforce the divisibility chain before advancing; every entry
        # is divisible by a unit pivot
        fold = None
        if piv != 1:
            for i in range(t + 1, nrows):
                if any(x % piv for x in a[i].values()):
                    fold = i
                    break
        if fold is not None:
            _sub_scaled(prow, -1, a[fold])
            unit[t] = 1 in prow.values() or -1 in prow.values()
            if with_left:
                _sub_scaled(left[t], -1, left[fold])
            continue
        t += 1
    d = [{pos[k]: x for k, x in row.items()} for row in a]
    return (d, left, [right[c] for c in col],
            [right_inv[c] for c in col])


def _pivot(a, t, unit, pos):
    """Position (row, elimination position) of the first entry of least
    absolute value in the trailing block from (t, t), in row-major order,
    or None if the block is zero.

    Rows from t on are zero left of position t, so whole rows can be
    searched.  A unit is the least possible value, so the first row
    flagged in ``unit`` decides the pivot without looking further;
    ``unit`` ends with one more True, past the last row, that stops the
    search when no row holds a unit.
    """
    i = unit.index(True, t)
    if i < len(a):
        return i, min([pos[k] for k, x in a[i].items() if x == 1 or x == -1])
    pivot = None
    best = 0
    for i in range(t, len(a)):
        for k, x in a[i].items():
            x = abs(x)
            if pivot is None or x < best or (
                    x == best and i == pivot[0] and pos[k] < pivot[1]):
                pivot = (i, pos[k])
                best = x
    return pivot


def _sub_scaled(row, q, other):
    """row -= q * other, in place, for sparse rows; zeros are dropped."""
    get = row.get
    for k, x in other.items():
        y = get(k, 0) - q * x
        if y:
            row[k] = y
        else:
            del row[k]


def _sparse(row):
    """A dense row of ints as a tuple of its non-zero (column, value)
    pairs."""
    return tuple(compress(enumerate(row), row))


def _sparse_rows(rows, width):
    """A caller's dense rows as sparse rows: each entry coerced with
    ``int()`` once, each row checked against the width and kept as a
    tuple of its non-zero ``(column, value)`` pairs."""
    out = []
    for row in rows:
        row = tuple(map(int, row))
        if len(row) != width:
            raise ValueError("relation width does not match ngens")
        out.append(_sparse(row))
    return out


def _dense(rows, width):
    """Sparse rows (iterables of ``(column, value)`` pairs) as a tuple of
    dense tuples of the given width."""
    out = []
    for row in rows:
        full = [0] * width
        for k, x in row:
            full[k] = x
        out.append(tuple(full))
    return tuple(out)


def _transpose(columns, nrows):
    """Sparse columns (dicts) as a tuple of dense rows."""
    out = [[0] * len(columns) for _ in range(nrows)]
    for j, column in enumerate(columns):
        for k, x in column.items():
            out[k][j] = x
    return tuple(map(tuple, out))


def _diagonal(d, n):
    """The first n diagonal entries of the sparse rows d, 0 past its end."""
    return [d[i].get(i, 0) if i < len(d) else 0 for i in range(n)]


# ---------------------------------------------------------------------------


class FgAbGroup:
    """A finitely generated abelian group Z^ngens / row lattice.

    >>> g = FgAbGroup(2, [[2, 0]])     # Z/2 + Z
    >>> g.invariant_factors
    (2, 0)
    >>> g.equal((1, 0), (3, 0))
    True
    >>> g.equal((1, 0), (0, 1))
    False
    """

    __slots__ = ("ngens", "_rels", "_dvec", "_live", "_rinv",
                 "_invariants")

    def __init__(self, ngens, relations=()):
        ngens = int(ngens)
        if ngens < 0:
            raise ValueError("ngens must be nonnegative")
        _present(self, ngens, _sparse_rows(relations, ngens))

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup instances are immutable")

    # -- presentation data

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def from_invariant_factors(cls, factors):
        factors = [int(x) for x in factors]
        return _group(len(factors),
                      [((i, f),) for i, f in enumerate(factors) if f])

    @property
    def relations(self):
        """The relation rows as a tuple of dense tuples of length ngens;
        the group stores them sparse and builds this on each read."""
        return _dense(self._rels, self.ngens)

    @property
    def invariant_factors(self):
        """Invariant factors d1 | d2 | ..., trailing zeros = free rank."""
        return self._invariants

    def zero(self):
        return (0,) * self.ngens

    # -- element arithmetic (elements are coordinate tuples)

    def canonical(self, x):
        """Canonical form of an element; equal iff canonical forms agree."""
        if len(x) != self.ngens:
            raise ValueError("element has wrong length")
        out = [0] * self.ngens
        for i, di, col in self._live:
            z = sum([x[k] * c for k, c in col])
            out[i] = z % di if di else z
        return tuple(out)

    def is_zero(self, x):
        if len(x) != self.ngens:
            raise ValueError("element has wrong length")
        for _i, di, col in self._live:
            z = sum([x[k] * c for k, c in col])
            if z % di if di else z:
                return False
        return True

    def equal(self, x, y):
        if len(x) != len(y):
            raise ValueError("element has wrong length")
        return self.is_zero([a - b for a, b in zip(x, y)])

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def scale(self, c, x):
        return tuple(c * a for a in x)

    # -- global structure

    def order(self):
        """Number of elements, or None when the group is infinite."""
        total = 1
        for d in self._dvec:
            if d == 0:
                return None
            total *= d
        return total

    def is_trivial(self):
        return self.order() == 1

    def elements(self):
        """Iterate over all elements of a finite group, in a fixed order."""
        if self.order() is None:
            raise ValueError("group is infinite")
        if not self._live:
            yield self.zero()
            return
        # live canonical coordinates in lexicographic order
        for coords in product(*(range(di) for _i, di, _col in self._live)):
            yield tuple(_combine(coords, self._rinv, self.ngens))

    def random_element(self, rng, bound=9):
        return tuple(rng.randint(-bound, bound) for _ in range(self.ngens))

    def to_json(self):
        """Invariant factors plus, when needed, the raw presentation.

        The presentation fields keep generator indices of stored
        matrices meaningful after a round trip.
        """
        data = {"invariant_factors": list(self.invariant_factors)}
        if self._rels or self.ngens != len(self.invariant_factors):
            data["ngens"] = self.ngens
            data["relations"] = [list(r) for r in self.relations]
        return data

    @classmethod
    def from_json(cls, data):
        if "relations" in data:
            return cls(_json_int(data["ngens"], "ngens"),
                       _json_int(data["relations"], "relations", 2))
        return cls.from_invariant_factors(
            _json_int(data["invariant_factors"], "invariant_factors", 1))

    def describe(self):
        parts = []
        for d in self.invariant_factors:
            parts.append("Z" if d == 0 else "Z/%d" % d)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "FgAbGroup(%d gens, %s)" % (self.ngens, self.describe())


def _group(ngens, rels):
    """FgAbGroup on ngens generators modulo sparse relation rows, tuples
    of ``(column, value)`` pairs of ints with columns below ngens, built
    without the public constructor's coercion and width check."""
    group = object.__new__(FgAbGroup)
    _present(group, ngens, rels)
    return group


def _present(group, ngens, rels):
    """Fill the slots of ``group`` from its sparse relation rows."""
    rels = tuple(rels)
    d, _left, right, rinv = _smith(rels, ngens, with_left=False)
    dvec = _diagonal(d, ngens)
    # only the columns with d_i != 1 can be non-zero modulo d_i
    live = [i for i, di in enumerate(dvec) if di != 1]
    setattr_ = object.__setattr__
    setattr_(group, "ngens", ngens)
    setattr_(group, "_rels", rels)
    setattr_(group, "_dvec", tuple(dvec))
    setattr_(group, "_live", tuple((i, dvec[i], tuple(right[i].items()))
                                   for i in live))
    setattr_(group, "_rinv", tuple(tuple(rinv[i].items()) for i in live))
    setattr_(group, "_invariants", tuple(x for x in dvec if x != 1))


def _combine(coeffs, rows, width):
    """The dense list sum of c * row over coeffs and sparse rows."""
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            for k, x in row:
                out[k] += c * x
    return out


class AbHom:
    """Homomorphism between presented groups, as a matrix on generators.

    Rows are indexed by the generators of the source.  Construction
    checks well-definedness: every relation of the source must map into
    the relation lattice of the target.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        matrix = tuple([tuple(map(int, row)) for row in matrix])
        if len(matrix) != source.ngens:
            raise ValueError("matrix has wrong number of rows")
        for row in matrix:
            if len(row) != target.ngens:
                raise ValueError("matrix has wrong number of columns")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        _check_relations(source, target, map(_sparse, matrix))

    def __setattr__(self, name, value):
        raise AttributeError("AbHom instances are immutable")

    @classmethod
    def identity(cls, group):
        n = group.ngens
        return _hom(group, group, [unit_vector(n, i) for i in range(n)])

    @classmethod
    def zero(cls, source, target):
        return _hom(source, target, [(0,) * target.ngens] * source.ngens)

    @classmethod
    def scalar(cls, group, c):
        return _hom(group, group,
                    [[c if i == j else 0 for j in range(group.ngens)]
                     for i in range(group.ngens)])

    def apply(self, x):
        if len(x) != self.source.ngens:
            raise ValueError("element has wrong length")
        if self.source.ngens == 0:
            return (0,) * self.target.ngens
        return tuple(vecmat(x, self.matrix))

    def compose(self, inner):
        """self after inner."""
        if inner.target is not self.source and \
                inner.target.ngens != self.source.ngens:
            raise ValueError("homomorphisms do not compose")
        if self.source.ngens == 0:
            mat = [(0,) * self.target.ngens] * inner.source.ngens
        else:
            mat = matmul(inner.matrix, self.matrix)
        return _hom(inner.source, self.target, mat)

    def add(self, other):
        mat = [[a + b for a, b in zip(r1, r2)]
               for r1, r2 in zip(self.matrix, other.matrix)]
        return _hom(self.source, self.target, mat)

    def sub(self, other):
        mat = [[a - b for a, b in zip(r1, r2)]
               for r1, r2 in zip(self.matrix, other.matrix)]
        return _hom(self.source, self.target, mat)

    def scale_by(self, c):
        mat = [[c * a for a in row] for row in self.matrix]
        return _hom(self.source, self.target, mat)

    def power(self, j):
        """j-fold composite of an endomorphism, by repeated squaring."""
        if self.source.ngens != self.target.ngens:
            raise ValueError("power of a non-endomorphism")
        if j < 0:
            raise ValueError("negative power %d" % j)
        out = None
        base = self
        while j:
            if j & 1:
                out = base if out is None else base.compose(out)
            j >>= 1
            if j:
                base = base.compose(base)
        return AbHom.identity(self.source) if out is None else out

    def equal(self, other):
        if self.source.ngens != other.source.ngens or \
                self.target.ngens != other.target.ngens:
            return False
        is_zero = self.target.is_zero
        for r1, r2 in zip(self.matrix, other.matrix):
            if r1 != r2 and not is_zero([a - b for a, b in zip(r1, r2)]):
                return False
        return True

    def is_zero_hom(self):
        return all(self.target.is_zero(row) for row in self.matrix)

    def to_json(self):
        return {"matrix": [list(r) for r in self.matrix]}

    def __repr__(self):
        return "AbHom(%d -> %d gens)" % (self.source.ngens, self.target.ngens)


def _hom(source, target, matrix):
    """AbHom from a matrix of ints, of the right shape and well defined,
    built without the public constructor's coercion and relation check."""
    hom = object.__new__(AbHom)
    object.__setattr__(hom, "source", source)
    object.__setattr__(hom, "target", target)
    object.__setattr__(hom, "matrix", tuple(map(tuple, matrix)))
    return hom


def _check_relations(source, target, rows):
    """Raise ValueError unless the map sending generator s of ``source``
    to ``rows[s]``, a sparse row of ``target`` as ``(column, value)``
    pairs, sends every relation of ``source`` into the relations of
    ``target``.

    A relation maps to zero iff its combination of the images vanishes
    modulo d_i in every live column of the target, so the images are
    taken in live coordinates once, through the live entries of each
    row of the right transform, and each relation is read over its
    non-zero entries only.
    """
    live = target._live
    if not source._rels or not live:
        return
    through = {}  # generator k of target -> [(live index, right[k][i])]
    for n, (_i, _di, col) in enumerate(live):
        for k, c in col:
            through.setdefault(k, []).append((n, c))
    images = []  # the non-zero live coordinates of each image
    for row in rows:
        z = {}
        for k, x in row:
            for n, c in through.get(k, ()):
                z[n] = z.get(n, 0) + x * c
        images.append(z)
    moduli = [di for _i, di, _col in live]
    for rel in source._rels:
        z = {}
        for s, x in rel:
            for n, c in images[s].items():
                z[n] = z.get(n, 0) + x * c
        for n, zn in z.items():
            di = moduli[n]
            if zn % di if di else zn:
                raise ValueError("map does not preserve relations: %r"
                                 % (_dense((rel,), source.ngens)[0],))


def _json_int(value, name, depth=0):
    """An integer of a JSON file or, at ``depth`` > 0, arrays of them
    nested that deep: a JSON true or a numeric string is MalformedData."""
    if depth and isinstance(value, list):
        return [_json_int(v, name, depth - 1) for v in value]
    if depth or type(value) is not int:   # bool is a subclass of int
        raise MalformedData("%s: expected %s, got %r" % (
            name, "an array" if depth else "an integer", value))
    return value


# ---------------------------------------------------------------------------
# derived constructions


def _left_kernel_lattice(rows, ncols):
    """Basis of the v with v * m = 0, as dense rows, for the matrix m
    with the given sparse rows and ncols columns."""
    if not rows:
        return []
    d, left, _right, _rinv = _smith(rows, ncols)
    rank = sum(1 for x in _diagonal(d, min(len(rows), ncols)) if x)
    return list(_dense([row.items() for row in left[rank:]], len(rows)))


def _stacked(hom):
    """The rows of hom's matrix over the relation rows of its target,
    sparse."""
    return [_sparse(row) for row in hom.matrix] + list(hom.target._rels)


def _solution_lattice(hom):
    """Basis of the lattice {x in Z^src : hom(x) = 0 in target}."""
    basis = _left_kernel_lattice(_stacked(hom), hom.target.ngens)
    return [row[:hom.source.ngens] for row in basis]


def kernel(hom):
    """Kernel subgroup with its inclusion into the source.

    >>> z = FgAbGroup.free(1)
    >>> k, incl = kernel(AbHom(z, z, [[3]]))
    >>> k.invariant_factors
    ()
    """
    src = hom.source
    kgens = _solution_lattice(hom)
    if not kgens:
        triv = FgAbGroup(0)
        return triv, _hom(triv, src, [])
    # relations among the kernel generators, taken inside the source group
    stacked = [_sparse(row) for row in kgens] + list(src._rels)
    basis = _left_kernel_lattice(stacked, src.ngens)
    kgroup = _group(len(kgens), [_sparse(row[:len(kgens)]) for row in basis])
    return kgroup, AbHom(kgroup, src, kgens)


def image(hom):
    """Image subgroup with its inclusion into the target."""
    rels = _solution_lattice(hom)
    igroup = _group(hom.source.ngens, map(_sparse, rels))
    return igroup, AbHom(igroup, hom.target, hom.matrix)


def quotient(group, rows):
    """The group modulo extra relation rows, on the same generators,
    with the projection from ``group``; zero rows are not stored."""
    extra = [row for row in _sparse_rows(rows, group.ngens) if row]
    q = _group(group.ngens, group._rels + tuple(extra))
    return q, _hom(group, q, identity_matrix(group.ngens))


def cokernel(hom):
    """Target modulo image, with the projection from the target.

    >>> z = FgAbGroup.free(1)
    >>> c, proj = cokernel(AbHom(z, z, [[3]]))
    >>> c.invariant_factors
    (3,)
    """
    return quotient(hom.target, hom.matrix)


def quotient_by_endomorphism_family(group, endos):
    """Coinvariants: quotient by the subgroup generated by x - phi(x)."""
    rows = []
    for phi in endos:
        if phi.source is not group and phi.source.ngens != group.ngens:
            raise ValueError("endomorphism does not act on the group")
        for i in range(group.ngens):
            row = [-x for x in phi.matrix[i]]
            row[i] += 1
            rows.append(row)
    return quotient(group, rows)


def direct_sum(*groups):
    """Direct sum with coordinate injections and projections."""
    ngens = sum(g.ngens for g in groups)
    rels = []
    offset = 0
    for g in groups:
        rels.extend(tuple((k + offset, x) for k, x in row)
                    for row in g._rels)
        offset += g.ngens
    total = _group(ngens, rels)
    injections = []
    projections = []
    offset = 0
    for g in groups:
        inj = [[0] * ngens for _ in range(g.ngens)]
        prj = [[0] * g.ngens for _ in range(ngens)]
        for i in range(g.ngens):
            inj[i][offset + i] = 1
            prj[offset + i][i] = 1
        injections.append(_hom(g, total, inj))
        projections.append(AbHom(total, g, prj))
        offset += g.ngens
    return total, injections, projections


def tensor(a, b):
    """Tensor product with the bilinear pairing on elements.

    >>> t, pair = tensor(FgAbGroup.from_invariant_factors([9]),
    ...                  FgAbGroup.from_invariant_factors([3]))
    >>> t.invariant_factors
    (3,)
    """
    na, nb = a.ngens, b.ngens
    ngens = na * nb

    def idx(i, j):
        return i * nb + j

    rels = [tuple((idx(i, j), c) for i, c in row)
            for row in a._rels for j in range(nb)]
    rels += [tuple((idx(i, j), c) for j, c in row)
             for row in b._rels for i in range(na)]
    t = _group(ngens, rels)

    def pair(x, y):
        out = [0] * ngens
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        out[idx(i, j)] += xi * yj
        return tuple(out)

    return t, pair


def is_injective(hom):
    for row in _solution_lattice(hom):
        if not hom.source.is_zero(row):
            return False
    return True


def is_surjective(hom):
    cgroup, _ = cokernel(hom)
    return cgroup.is_trivial()


def is_isomorphism(hom):
    return is_injective(hom) and is_surjective(hom)


def preimage(hom, y):
    """Some x with hom(x) = y in the target, or None."""
    src, tgt = hom.source, hom.target
    stacked = _stacked(hom)
    nrows = len(stacked)
    if nrows == 0:
        return src.zero() if tgt.is_zero(y) else None
    d, left, right, _rinv = _smith(stacked, tgt.ngens)
    z = [sum([y[k] * c for k, c in col.items()]) for col in right]
    dvec = _diagonal(d, tgt.ngens)
    w = [0] * nrows
    for j, dj in enumerate(dvec):
        if dj:
            if z[j] % dj:
                return None
            w[j] = z[j] // dj
        elif z[j]:
            return None
    v = _combine(w, [row.items() for row in left], nrows)
    return tuple(v[:src.ngens])
