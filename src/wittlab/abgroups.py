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

The pivot is the first entry of least absolute value in row-major order
of the trailing block; the search stops at the first unit.  Relation
matrices (box products above all) are tall, sparse and full of units,
so the elimination touches only non-zero entries: row operations run
over the support of the pivot row and only on the rows that are non-zero
in the pivot column, column operations over the rows that are non-zero
there after them, and a unit pivot skips the divisibility-chain scan.
A unit-row index keeps one flag per row, "holds +-1", and looks again
only at the rows a step changed (the eliminated rows, the rows the
column operations touched, a folded row, both rows of a swap), so the
pivot search starts at the first flagged row instead of rescanning every
row.  None of this changes the transforms.  Group builds discard the
left transform, so they do not build it.

Canonical forms use only the non-unit Smith columns.  A column whose
invariant factor is 1 always reduces to x mod 1 = 0, so a group keeps
just its live columns (d_i != 1), each with its index, its d_i and its
non-zero entries, and the matching rows of the inverse transform.
``canonical`` writes 0 at the unit positions, ``is_zero`` stops at the
first live coordinate that is not zero, and ``equal`` is ``is_zero`` of
the difference.  The relation check of ``AbHom`` reads the target the
same way: it forms the live coordinates of the image of each source
generator once per map, and checks each source relation as a combination
of them, over its non-zero entries, modulo each d_i.  That is the
algebra of reducing the full image of the relation, with the same
verdict and the same first failing relation.  ``AbHom`` always checks;
``_hom`` is the one way to skip the coercion and the relation check, for
matrices the library built itself.

Cokernels, coinvariants and the levels of the Mackey quotients (Weyl
coinvariants, geometric fixed points, the nerve H_0) are all built by
``quotient``: the same generators with more relation rows.
"""

from fractions import Fraction
from itertools import compress, count, product

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
    d, left, right, _right_inv = _smith([[int(x) for x in row] for row in m])
    return _frozen(d), _frozen(left), _frozen(right)


def _frozen(m):
    return tuple(tuple(row) for row in m)


def _smith(m, with_left=True):
    """Smith normal form as lists ``(d, left, right, right_inv)``.

    ``right_inv`` is the inverse of ``right``: every column operation on
    ``right`` is matched by its inverse row operation on ``right_inv``.
    With ``with_left=False`` the left transform is not built and comes
    back as ``None``; the other three results are the same.  ``m``, a
    matrix of ints, is not changed.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    a = [list(row) for row in m]
    # unit[i] says whether row i holds an entry +-1; only the rows a step
    # changes are looked at again.  The final True ends every search.
    unit = [1 in row or -1 in row for row in a]
    unit.append(True)
    left = identity_matrix(nrows) if with_left else None
    right = identity_matrix(ncols)
    right_inv = identity_matrix(ncols)
    t = 0
    size = min(nrows, ncols)
    while t < size:
        pivot = _pivot(a, t, unit)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            unit[t], unit[pi] = unit[pi], unit[t]
            if with_left:
                left[t], left[pi] = left[pi], left[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in right:
                row[t], row[pj] = row[pj], row[t]
            right_inv[t], right_inv[pj] = right_inv[pj], right_inv[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if with_left:
                left[t] = [-x for x in left[t]]
        prow = a[t]
        piv = prow[t]
        pcols = _support(prow)
        lrow = left[t] if with_left else None
        lcols = _support(lrow) if with_left else ()
        # a row operation changes only the rows below t that are non-zero
        # in column t; the rows above t are zero there
        below = [i for i in range(t + 1, nrows) if a[i][t]]
        for i in below:
            row = a[i]
            q = row[t] // piv
            if q:
                for k in pcols:
                    row[k] -= q * prow[k]
                unit[i] = 1 in row or -1 in row
                if with_left:
                    lrow_i = left[i]
                    for k in lcols:
                        lrow_i[k] -= q * lrow[k]
        below = [i for i in below if a[i][t]]
        # column operations leave column t alone, so only the rows that
        # are non-zero there ever change
        dirty = bool(below)
        a_rows = [a[i] for i in below]
        a_rows.append(prow)
        right_rows = [row for row in right if row[t]]
        moved = False
        for j in range(t + 1, ncols):
            q = prow[j] // piv
            if q:
                moved = True
                for row in a_rows:
                    row[j] -= q * row[t]
                for row in right_rows:
                    row[j] -= q * row[t]
                # col_j -= q col_t is undone by row_t += q row_j
                right_inv[t] = [x + q * y for x, y
                                in zip(right_inv[t], right_inv[j])]
            if prow[j]:
                dirty = True
        if moved:
            unit[t] = 1 in prow or -1 in prow
            for i in below:
                unit[i] = 1 in a[i] or -1 in a[i]
        if dirty:
            continue  # leftover remainders are smaller than piv; repick
        # enforce the divisibility chain before advancing; every entry
        # is divisible by a unit pivot
        fold = None
        if piv != 1:
            for i in range(t + 1, nrows):
                row = a[i]
                for j in range(t + 1, ncols):
                    if row[j] % piv:
                        fold = i
                        break
                if fold is not None:
                    break
        if fold is not None:
            a[t] = [x + y for x, y in zip(a[t], a[fold])]
            unit[t] = 1 in a[t] or -1 in a[t]
            if with_left:
                left[t] = [x + y for x, y in zip(left[t], left[fold])]
            continue
        t += 1
    return a, left, right, right_inv


def _pivot(a, t, unit):
    """Position of the first entry of least absolute value in the
    trailing block from (t, t), in row-major order, or None if the
    block is zero.

    Rows from t on are zero left of column t, so whole rows can be
    searched.  A unit is the least possible value, so the first row
    flagged in ``unit`` decides the pivot without looking further;
    ``unit`` ends with one more True, past the last row, that stops the
    search when no row holds a unit.
    """
    i = unit.index(True, t)
    if i < len(a):
        row = a[i]
        j = row.index(1) if 1 in row else len(row)
        if -1 in row:
            j = min(j, row.index(-1))
        return i, j
    pivot = None
    best = 0
    for i in range(t, len(a)):
        if not any(a[i]):
            continue
        for j, v in enumerate(a[i]):
            if v and (pivot is None or abs(v) < best):
                pivot = (i, j)
                best = abs(v)
    return pivot


def _support(row):
    """Indices of the non-zero entries of a row."""
    return [k for k, x in enumerate(row) if x]


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

    __slots__ = ("ngens", "relations", "_dvec", "_live", "_rinv",
                 "_invariants")

    def __init__(self, ngens, relations=()):
        ngens = int(ngens)
        if ngens < 0:
            raise ValueError("ngens must be nonnegative")
        rel = tuple([tuple(map(int, row)) for row in relations])
        for row in rel:
            if len(row) != ngens:
                raise ValueError("relation width does not match ngens")
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "relations", rel)
        if rel:
            d, _left, right, rinv = _smith(rel, with_left=False)
            dvec = [d[i][i] if i < len(rel) else 0 for i in range(ngens)]
        else:
            right = rinv = identity_matrix(ngens)
            dvec = [0] * ngens
        # only the columns with d_i != 1 can be non-zero modulo d_i
        live = [i for i, di in enumerate(dvec) if di != 1]
        object.__setattr__(self, "_dvec", tuple(dvec))
        object.__setattr__(self, "_live", tuple(
            (i, dvec[i], tuple((k, row[i]) for k, row in enumerate(right)
                               if row[i]))
            for i in live))
        object.__setattr__(self, "_rinv", tuple(tuple(rinv[i]) for i in live))
        inv = tuple(x for x in dvec if x != 1)
        object.__setattr__(self, "_invariants", inv)

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup instances are immutable")

    # -- presentation data

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def from_invariant_factors(cls, factors):
        factors = [int(x) for x in factors]
        rels = []
        for i, f in enumerate(factors):
            if f:
                row = [0] * len(factors)
                row[i] = f
                rels.append(row)
        return cls(len(factors), rels)

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
            yield tuple(vecmat(coords, self._rinv))

    def random_element(self, rng, bound=9):
        return tuple(rng.randint(-bound, bound) for _ in range(self.ngens))

    def to_json(self):
        """Invariant factors plus, when needed, the raw presentation.

        The presentation fields keep generator indices of stored
        matrices meaningful after a round trip.
        """
        data = {"invariant_factors": list(self.invariant_factors)}
        if self.relations or self.ngens != len(self.invariant_factors):
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
        if source.relations:
            # the live coordinates of the image of each generator; a
            # relation maps to zero iff its combination of them vanishes
            # modulo d_i in every live column of the target
            live = [(di, [sum([row[k] * c for k, c in col])
                          for row in matrix])
                    for _i, di, col in target._live]
            for rel in source.relations:
                support = list(compress(count(), rel))
                for di, coords in live:
                    z = sum([rel[k] * coords[k] for k in support])
                    if z % di if di else z:
                        raise ValueError(
                            "map does not preserve relations: %r" % (rel,))

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


def _left_kernel_lattice(m, nrows, ncols):
    """Basis rows v with v * m = 0, for an explicit nrows x ncols matrix."""
    if nrows == 0:
        return []
    d, left, _right, _rinv = _smith(m)
    rank = 0
    for i in range(min(nrows, ncols)):
        if d[i][i]:
            rank += 1
    return list(left[rank:])


def _solution_lattice(hom):
    """Basis of the lattice {x in Z^src : hom(x) = 0 in target}."""
    src, tgt = hom.source, hom.target
    stacked = list(hom.matrix) + list(tgt.relations)
    basis = _left_kernel_lattice(stacked, len(stacked), tgt.ngens)
    return [row[:src.ngens] for row in basis]


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
    stacked = kgens + list(src.relations)
    basis = _left_kernel_lattice(stacked, len(stacked), src.ngens)
    rels = [row[:len(kgens)] for row in basis]
    kgroup = FgAbGroup(len(kgens), rels)
    return kgroup, AbHom(kgroup, src, kgens)


def image(hom):
    """Image subgroup with its inclusion into the target."""
    src, tgt = hom.source, hom.target
    rels = _solution_lattice(hom)
    igroup = FgAbGroup(src.ngens, rels)
    return igroup, AbHom(igroup, tgt, hom.matrix)


def quotient(group, rows):
    """The group modulo extra relation rows, on the same generators,
    with the projection from ``group``; zero rows are not stored."""
    rels = list(group.relations)
    rels.extend(row for row in rows if any(row))
    q = FgAbGroup(group.ngens, rels)
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
        for row in g.relations:
            full = [0] * ngens
            full[offset:offset + g.ngens] = list(row)
            rels.append(full)
        offset += g.ngens
    total = FgAbGroup(ngens, rels)
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

    rels = []
    for row in a.relations:
        for j in range(nb):
            full = [0] * ngens
            for i, c in enumerate(row):
                full[idx(i, j)] = c
            rels.append(full)
    for row in b.relations:
        for i in range(na):
            full = [0] * ngens
            for j, c in enumerate(row):
                full[idx(i, j)] = c
            rels.append(full)
    t = FgAbGroup(ngens, rels)

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
    stacked = list(hom.matrix) + list(tgt.relations)
    nrows = len(stacked)
    if nrows == 0:
        return src.zero() if tgt.is_zero(y) else None
    d, left, right, _rinv = _smith(stacked)
    z = vecmat(y, right)
    w = [0] * nrows
    for j in range(tgt.ngens):
        dj = d[j][j] if j < min(nrows, tgt.ngens) else 0
        if dj:
            if z[j] % dj:
                return None
            w[j] = z[j] // dj
        elif z[j]:
            return None
    v = vecmat(w, left)
    return tuple(v[:src.ngens])
