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
arbitrary-precision integers: there is no floating point and no
rational arithmetic anywhere.

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
just its live columns (d_i != 1), each with its index and its d_i, the
non-zero live entries of each generator, and the matching rows of the
inverse transform.  The live coordinates of an element are summed over
its non-zero entries only; ``canonical`` writes 0 at the unit positions,
``is_zero`` stops at the first live coordinate that is not zero, and
``equal`` is ``is_zero`` of the difference.

A homomorphism stores its rows as a group stores its relations: row s,
the image of source generator s, is a tuple of non-zero ``(column,
value)`` pairs, and ``matrix`` writes the rows out dense on each read.
Every operation, from ``apply`` and ``compose`` to kernels and
cokernels, works on the sparse rows; ``equal`` skips identical rows.
The relation check forms the live coordinates of the image of each
source generator once per map, and checks each sparse source relation
as a combination of them modulo each d_i: the verdict, and the first
failing relation, of reducing the full image of each relation.
``AbHom`` and ``_checked_hom`` always check, through
``_check_relations``; ``_hom`` is the one way to skip the coercion and
the check, for rows the library built itself.

Cokernels, coinvariants and the levels of the Mackey quotients (Weyl
coinvariants, geometric fixed points, the nerve H_0) are all built by
``_quotient``: the same generators with more relation rows.
"""

from itertools import compress, product, repeat

from .errors import MalformedData


# ---------------------------------------------------------------------------
# bare matrix helpers (rows of ints; row vector times matrix convention)

def unit_vector(n, i):
    """The i-th standard basis vector of Z^n, as a tuple."""
    v = [0] * n
    v[i] = 1
    return tuple(v)


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


def _sparse_rows(rows, width,
                 mismatch="relation width does not match ngens"):
    """A caller's dense rows as sparse rows: each entry coerced with
    ``int()`` once, each row checked against the width, ValueError
    ``mismatch`` if it differs, and kept as a tuple of its non-zero
    ``(column, value)`` pairs."""
    out = []
    for row in rows:
        row = tuple(map(int, row))
        if len(row) != width:
            raise ValueError(mismatch)
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


def _unit_rows(n):
    """The rows of the n x n identity matrix, sparse."""
    return tuple([((i, 1),) for i in range(n)])


def _accumulate(row, table):
    """The sum of x * table[k] over the pairs (k, x) of a sparse row,
    where each table[k] is a sparse row too, as a dict; entries that
    cancel stay in it as zeros."""
    acc = {}
    get = acc.get
    for k, x in row:
        for j, y in table[k]:
            acc[j] = get(j, 0) + x * y
    return acc


def _row_sum(a, b, c=1):
    """The sparse row a + c * b."""
    acc = dict(a)
    _sub_scaled(acc, -c, dict(b))
    return tuple(acc.items())


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

    __slots__ = ("ngens", "_rels", "_dvec", "_live", "_through", "_rinv",
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
        z = _accumulate(_sparse(x), self._through)
        for n, (i, di) in enumerate(self._live):
            zn = z.get(n, 0)
            out[i] = zn % di if di else zn
        return tuple(out)

    def is_zero(self, x):
        if len(x) != self.ngens:
            raise ValueError("element has wrong length")
        return self._is_zero_row(_sparse(x))

    def equal(self, x, y):
        if len(x) != len(y):
            raise ValueError("element has wrong length")
        return self.is_zero([a - b for a, b in zip(x, y)])

    def _is_zero_row(self, row):
        """is_zero for an element given as a sparse row."""
        return self._vanishes(_accumulate(row, self._through))

    def _vanishes(self, z):
        """Whether live coordinates ``{n: value}`` are all 0 modulo
        their invariant factors."""
        live = self._live
        for n, zn in z.items():
            di = live[n][1]
            if zn % di if di else zn:
                return False
        return True

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
        for coords in product(*(range(di) for _i, di in self._live)):
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
    # through[k]: the live coordinates of generator k, as (n, right[k][i])
    # pairs for the n-th live column i
    through = [[] for _ in range(ngens)]
    for n, i in enumerate(live):
        for k, c in right[i].items():
            through[k].append((n, c))
    setattr_ = object.__setattr__
    setattr_(group, "ngens", ngens)
    setattr_(group, "_rels", rels)
    setattr_(group, "_dvec", tuple(dvec))
    setattr_(group, "_live", tuple((i, dvec[i]) for i in live))
    setattr_(group, "_through", tuple(map(tuple, through)))
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
    """Homomorphism between presented groups, given on generators.

    Row s is the image of generator s of the source, stored sparse as
    its non-zero ``(column, value)`` pairs; ``matrix`` writes the rows
    out dense.  Construction checks well-definedness: every relation of
    the source must map into the relation lattice of the target.
    """

    __slots__ = ("source", "target", "_rows")

    def __init__(self, source, target, matrix):
        rows = tuple(_sparse_rows(matrix, target.ngens,
                                  "matrix has wrong number of columns"))
        if len(rows) != source.ngens:
            raise ValueError("matrix has wrong number of rows")
        _check_relations(source, target, rows)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("AbHom instances are immutable")

    @property
    def matrix(self):
        """The rows as a tuple of dense tuples of length target.ngens;
        the map stores them sparse and builds this on each read."""
        return _dense(self._rows, self.target.ngens)

    @classmethod
    def identity(cls, group):
        return _hom(group, group, _unit_rows(group.ngens))

    @classmethod
    def zero(cls, source, target):
        return _hom(source, target, ((),) * source.ngens)

    @classmethod
    def scalar(cls, group, c):
        return cls.identity(group).scale_by(c)

    def apply(self, x):
        if len(x) != self.source.ngens:
            raise ValueError("element has wrong length")
        return tuple(_combine(x, self._rows, self.target.ngens))

    def compose(self, inner):
        """self after inner."""
        if inner.target is not self.source and \
                inner.target.ngens != self.source.ngens:
            raise ValueError("homomorphisms do not compose")
        outer = self._rows
        rows = []
        for row in inner._rows:
            if len(row) == 1 and row[0][1] == 1:
                rows.append(outer[row[0][0]])  # a unit row picks a row
            else:
                rows.append(tuple([e for e in _accumulate(row, outer).items()
                                   if e[1]]))
        return _hom(inner.source, self.target, rows)

    def add(self, other):
        return _hom(self.source, self.target,
                    map(_row_sum, self._rows, other._rows))

    def sub(self, other):
        return _hom(self.source, self.target,
                    map(_row_sum, self._rows, other._rows, repeat(-1)))

    def scale_by(self, c):
        rows = [tuple([(k, c * x) for k, x in row]) if c else ()
                for row in self._rows]
        return _hom(self.source, self.target, rows)

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
        is_zero = self.target._is_zero_row
        for r1, r2 in zip(self._rows, other._rows):
            if r1 != r2 and not is_zero(_row_sum(r1, r2, -1)):
                return False
        return True

    def is_zero_hom(self):
        return all(map(self.target._is_zero_row, self._rows))

    def to_json(self):
        return {"matrix": [list(r) for r in self.matrix]}

    def __repr__(self):
        return "AbHom(%d -> %d gens)" % (self.source.ngens, self.target.ngens)


def _hom(source, target, rows):
    """AbHom from its sparse rows, tuples of non-zero ``(column, value)``
    pairs of ints with columns below target.ngens, one per generator of
    the source, that preserve relations: built without the public
    constructor's coercion and relation check."""
    hom = object.__new__(AbHom)
    object.__setattr__(hom, "source", source)
    object.__setattr__(hom, "target", target)
    object.__setattr__(hom, "_rows", tuple(rows))
    return hom


def _checked_hom(source, target, rows):
    """``_hom`` for sparse rows that may not preserve relations: raises
    ValueError, as the public constructor does, when they do not."""
    rows = tuple(rows)
    _check_relations(source, target, rows)
    return _hom(source, target, rows)


def _check_relations(source, target, rows):
    """Raise ValueError unless the map sending generator s of ``source``
    to ``rows[s]``, a sparse row of ``target`` as ``(column, value)``
    pairs, sends every relation of ``source`` into the relations of
    ``target``.

    A relation maps to zero iff its combination of the images vanishes
    modulo d_i in every live column of the target, so the images are
    taken in live coordinates once, through ``target._through``, and
    each relation is read over its non-zero entries only.
    """
    if not source._rels or not target._live:
        return
    images = [tuple(_accumulate(row, target._through).items())
              for row in rows]
    for rel in source._rels:
        if not target._vanishes(_accumulate(rel, images)):
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


def _json_keys(table, name, keys):
    """``keys``, once the JSON object ``table`` has exactly these keys:
    a missing or unknown one is MalformedData naming ``name`` and it."""
    for key in list(table) + keys:
        if (key in keys) != (key in table):
            raise MalformedData("%s: %s key %r" % (
                name, "missing" if key in keys else "unknown", key))
    return keys


# ---------------------------------------------------------------------------
# derived constructions


def _left_kernel_lattice(rows, ncols, width):
    """Basis of the v with v * m = 0 for the matrix m with the given
    sparse rows and ncols columns, as sparse rows cut to their first
    ``width`` entries."""
    if not rows:
        return []
    d, left, _right, _rinv = _smith(rows, ncols)
    rank = sum(1 for x in _diagonal(d, min(len(rows), ncols)) if x)
    return [tuple([(k, x) for k, x in row.items() if k < width])
            for row in left[rank:]]


def _solution_lattice(hom):
    """Basis of the lattice {x in Z^src : hom(x) = 0 in target}, as
    sparse rows."""
    return _left_kernel_lattice(list(hom._rows) + list(hom.target._rels),
                                hom.target.ngens, hom.source.ngens)


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
    kgroup = _group(len(kgens), _left_kernel_lattice(
        kgens + list(src._rels), src.ngens, len(kgens)))
    return kgroup, _hom(kgroup, src, kgens)


def image(hom):
    """Image subgroup with its inclusion into the target."""
    igroup = _group(hom.source.ngens, _solution_lattice(hom))
    return igroup, _hom(igroup, hom.target, hom._rows)


def quotient(group, rows):
    """The group modulo extra relation rows, on the same generators,
    with the projection from ``group``; zero rows are not stored."""
    return _quotient(group, _sparse_rows(rows, group.ngens))


def _quotient(group, rows):
    """``quotient`` by sparse rows of ints."""
    q = _group(group.ngens, group._rels + tuple(row for row in rows if row))
    return q, _hom(group, q, _unit_rows(group.ngens))


def cokernel(hom):
    """Target modulo image, with the projection from the target.

    >>> z = FgAbGroup.free(1)
    >>> c, proj = cokernel(AbHom(z, z, [[3]]))
    >>> c.invariant_factors
    (3,)
    """
    return _quotient(hom.target, hom._rows)


def quotient_by_endomorphism_family(group, endos):
    """Coinvariants: quotient by the subgroup generated by x - phi(x)."""
    rows = []
    for phi in endos:
        if phi.source is not group and phi.source.ngens != group.ngens:
            raise ValueError("endomorphism does not act on the group")
        rows.extend(map(_row_sum, _unit_rows(group.ngens), phi._rows,
                        repeat(-1)))
    return _quotient(group, rows)


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
        end = offset + g.ngens
        injections.append(_hom(g, total, [((offset + i, 1),)
                                          for i in range(g.ngens)]))
        projections.append(_hom(total, g, ((),) * offset
                                + _unit_rows(g.ngens)
                                + ((),) * (ngens - end)))
        offset = end
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
    return all(map(hom.source._is_zero_row, _solution_lattice(hom)))


def is_surjective(hom):
    cgroup, _ = cokernel(hom)
    return cgroup.is_trivial()


def is_isomorphism(hom):
    return is_injective(hom) and is_surjective(hom)


def preimage(hom, y):
    """Some x with hom(x) = y in the target, or None."""
    src, tgt = hom.source, hom.target
    stacked = list(hom._rows) + list(tgt._rels)
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
