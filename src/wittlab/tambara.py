"""Green and Tambara functors over cyclic groups.

A Green functor is a Mackey functor with a commutative ring on each
level, given by structure constants on the presentation generators.  A
Tambara functor adds multiplicative (non-additive) norm maps between
levels; norms are stored as element-level closures because no matrix
can carry them.

Each Tambara functor carries a ``norm_class`` object: its JSON tag,
its recipe for the norm N_{C_n}^{C_{p^k n}} and, for the classes a
norm lands in, the data eqwitt and wittcomplex need.  No other module
knows which classes exist, so a new input class is one more object.

* ``BURNSIDE``: norms are computed through the table-of-marks
  embedding A(C_d) -> prod_j Z (exponentiate the mark at gcd(d', j) by
  the orbit count) and land in Burnside again; the function-enumeration
  description of the same norm is kept as a test oracle.
* ``Constant``: a constant Tambara functor on A; its norm is the Witt
  tower (``WittTower``): level p^q m carries W_{q+1}(A), restriction in
  the p-direction is the Witt Frobenius, transfer the Verschiebung,
  and the internal norm the ghost-shift multiplicative transfer.
* ``FIXED_POINT``: a ring with a C_N-action; no norm recipe yet.

Each W_k(A), A = Z or Z/m, is presented on the basis V^j(1), j < k,
with encode and decode by ghost vectors (``present_witt_ring``).  Its
tables are closed forms from FV = p, with V^j(1) = 0 for j >= k:
V^i(1) V^j(1) = p^min(i,j) V^max(i,j)(1), F(1) = 1, F(V^j(1)) =
p V^(j-1)(1), V(V^j(1)) = V^(j+1)(1), and R keeps V^j(1) below the
shorter length.  Reduced as encode reduces, each is the one vector of
its class with entries in [0, m).  The base ring is cyclic on 1.
"""

from collections import namedtuple
from functools import partial
from math import gcd

from . import abgroups
from .abgroups import AbHom, FgAbGroup, _json_int, bilinear, unit_vector
from .errors import (MalformedData, NotASubgroup, PrimeDividesN,
                     TambaraAxiomFailure, UnsupportedInput, WittlabError)
from .mackey import (CyclicGroupSpec, MackeyFunctor, MackeyMap,
                     _factor_through_inclusion, _fixed_point_mackey,
                     _require, burnside, divisors, prime_steps, zeta)
from .rings import IntegerRing, ModularRing, is_prime, parse_ring
from .witt import WittRing, _ghost, _solve


class GreenFunctor:
    """Levelwise commutative rings on a Mackey functor.

    ``mul[d][i][j]`` is the product of generators i and j of level d as
    a coordinate vector; ``one[d]`` is the unit.  Restrictions are ring
    maps and multiplication satisfies Frobenius reciprocity against the
    transfers; ``validate_green`` checks all of it.
    """

    def __init__(self, mackey, mul, one):
        self.mackey = mackey
        self.mul = {d: tuple(tuple(tuple(v) for v in row) for row in table)
                    for d, table in mul.items()}
        self.one = {d: tuple(v) for d, v in one.items()}
        for d in mackey.group.divisors:
            if d not in self.mul or d not in self.one:
                raise ValueError("missing ring structure at level %d" % d)
            n = mackey.level(d).ngens
            if len(self.mul[d]) != n or any(
                    len(row) != n or any(len(v) != n for v in row)
                    for row in self.mul[d]):
                raise MalformedData("mul at level %d is not %d x %d x %d"
                                    % (d, n, n, n))
            if len(self.one[d]) != n:
                raise MalformedData("one at level %d has %d entries, not %d"
                                    % (d, len(self.one[d]), n))

    @property
    def group(self):
        return self.mackey.group

    def level(self, d):
        return self.mackey.level(d)

    def multiply(self, d, x, y):
        ngens = self.mackey.level(d).ngens   # NotASubgroup for a bad d
        return bilinear(self.mul[d], x, y, ngens)

    def unit(self, d):
        return self.one[d]

    def ring(self, d):
        """Level d as a ring: its multiplication and its unit."""
        return partial(self.multiply, d), self.one[d]

    def power(self, d, x, n):
        if n < 0:
            raise ValueError("negative power")
        acc = self.unit(d)
        base = tuple(x)
        while n:
            if n & 1:
                acc = self.multiply(d, acc, base)
            if n > 1:
                base = self.multiply(d, base, base)
            n >>= 1
        return acc

    def validate_green(self):
        mk = self.mackey
        for d in mk.group.divisors:
            level = mk.level(d)
            gens = [unit_vector(level.ngens, i) for i in range(level.ngens)]
            # structure constants descend to the presented quotient
            for rel in level.relations:
                for g in gens:
                    _require(level.is_zero(self.multiply(d, rel, g)),
                             TambaraAxiomFailure,
                             "multiplication ill-defined at level %d", d)
            for i, gi in enumerate(gens):
                _require(level.equal(self.multiply(d, self.one[d], gi), gi),
                         TambaraAxiomFailure, "unit fails at level %d", d)
                for j, gj in enumerate(gens):
                    _require(level.equal(self.multiply(d, gi, gj),
                                         self.multiply(d, gj, gi)),
                             TambaraAxiomFailure,
                             "commutativity fails at level %d", d)
                    for gk in gens:
                        lhs = self.multiply(d, self.multiply(d, gi, gj), gk)
                        rhs = self.multiply(d, gi, self.multiply(d, gj, gk))
                        _require(level.equal(lhs, rhs), TambaraAxiomFailure,
                                 "associativity fails at level %d", d)
            fault = _ring_map_fault(mk.weyl[d], self.ring(d), self.ring(d))
            _require(fault is None or fault["generators"],
                     TambaraAxiomFailure,
                     "weyl does not fix the unit at level %d", d)
            _require(fault is None, TambaraAxiomFailure,
                     "weyl is not a ring map at level %d", d)
        for (dsub, d) in mk.group.covering_pairs():
            r = mk.res[(d, dsub)]
            t = mk.tr[(dsub, d)]
            ld, lsub = mk.level(d), mk.level(dsub)
            fault = _ring_map_fault(r, self.ring(d), self.ring(dsub))
            _require(fault is None or fault["generators"],
                     TambaraAxiomFailure,
                     "res does not preserve the unit at (%d, %d)", dsub, d)
            _require(fault is None, TambaraAxiomFailure,
                     "res is not a ring map at (%d, %d)", dsub, d)
            for i in range(ld.ngens):
                gi = unit_vector(ld.ngens, i)
                # Frobenius reciprocity x tr(y) = tr(res(x) y), bilinear
                for j in range(lsub.ngens):
                    y = unit_vector(lsub.ngens, j)
                    lhs = self.multiply(d, gi, t.apply(y))
                    rhs = t.apply(self.multiply(dsub, r.apply(gi), y))
                    _require(ld.equal(lhs, rhs), TambaraAxiomFailure,
                             "Frobenius reciprocity fails at (%d, %d)",
                             dsub, d)
        return True

    def to_json(self):
        data = self.mackey.to_json()
        data["mul"] = {str(d): [[list(v) for v in row] for row in table]
                       for d, table in self.mul.items()}
        data["one"] = {str(d): list(v) for d, v in self.one.items()}
        return data


class TambaraFunctor:
    """A Green functor with internal norm maps.

    Norms are stored for covering pairs as closures on coordinate
    vectors; composite norms are taken along ascending prime steps
    (any order agrees, which validate_tambara spot-checks).
    ``norm_class`` is the input class: ``BURNSIDE``, ``FIXED_POINT``,
    a ``Constant`` or a ``WittTower``.
    """

    def __init__(self, green, norms, norm_class):
        self.green = green
        self.norms = dict(norms)
        self.norm_class = norm_class

    @property
    def mackey(self):
        return self.green.mackey

    @property
    def group(self):
        return self.green.mackey.group

    def internal_norm(self, x, d_from, d_to):
        if d_to % d_from:
            raise NotASubgroup("%d does not divide %d" % (d_from, d_to))
        cur = d_from
        out = tuple(x)
        for q in prime_steps(d_to // d_from):
            out = self.norms[(cur, cur * q)](out)
            cur *= q
        return out

    def validate_tambara(self, rng, samples=6):
        mk = self.mackey
        N = mk.group.N
        for (dsub, d) in mk.group.covering_pairs():
            nmap = self.norms[(dsub, d)]
            lsub, ld = mk.level(dsub), mk.level(d)
            _require(ld.equal(nmap(self.green.one[dsub]), self.green.one[d]),
                     TambaraAxiomFailure,
                     "norm does not preserve 1 at (%d, %d)", dsub, d)
            pool = _sample_pool(lsub, rng, samples)
            for x in pool:
                for y in pool:
                    lhs = nmap(self.green.multiply(dsub, x, y))
                    rhs = self.green.multiply(d, nmap(x), nmap(y))
                    _require(ld.equal(lhs, rhs), TambaraAxiomFailure,
                             "norm not multiplicative at (%d, %d)", dsub, d)
            r = mk.res[(d, dsub)]
            for x in pool:
                prod = self.green.one[dsub]
                for j in range(d // dsub):
                    prod = self.green.multiply(
                        dsub, prod,
                        mk.weyl[dsub].power((j * (N // d)) % (N // dsub))
                        .apply(x))
                _require(lsub.equal(r.apply(nmap(x)), prod),
                         TambaraAxiomFailure,
                         "res of norm is not the Weyl orbit product at "
                         "(%d, %d)", dsub, d)
        return True

    def to_json(self):
        data = self.green.to_json()
        data["norm_class"] = self.norm_class.tag
        return data


class GreenMap(MackeyMap):
    """Map of Green functors: a Mackey map that is a ring map levelwise."""

    def __init__(self, source, target, components):
        self.source_green = source
        self.target_green = target
        super().__init__(source.mackey, target.mackey, components)

    def validate(self):
        """The levelwise ring maps first, then the Mackey laws."""
        self.validate_ring_maps()
        return super().validate()

    def validate_ring_maps(self):
        src, tgt = self.source_green, self.target_green
        for d in src.mackey.group.divisors:
            fault = _ring_map_fault(self.components[d], src.ring(d),
                                    tgt.ring(d))
            if fault is not None:
                exc = TambaraAxiomFailure(
                    ("component at level %d is not a ring map"
                     if fault["generators"]
                     else "unit not preserved at level %d") % d)
                exc.witness = dict(level=d, **fault)
                raise exc
        return True


def _ring_map_fault(f, source, target):
    """None when f maps 1 to 1 and products of generators to products;
    else ``{"generators": [i, j], "lhs": f(g_i g_j), "rhs": f(g_i) f(g_j)}``
    at the first failure, ``[]`` (the empty product 1) checked first.
    ``source`` and ``target`` are the rings as (multiply, one) pairs."""
    (multiply, one), (target_multiply, target_one) = source, target
    tgt = f.target
    image = f.apply(one)
    if not tgt.equal(image, target_one):
        return {"generators": [], "lhs": image, "rhs": target_one}
    n = f.source.ngens
    images = f.matrix
    for i, fi in enumerate(images):
        for j, fj in enumerate(images):
            lhs = f.apply(multiply(unit_vector(n, i), unit_vector(n, j)))
            rhs = target_multiply(fi, fj)
            if not tgt.equal(lhs, rhs):
                return {"generators": [i, j], "lhs": lhs, "rhs": rhs}
    return None


def _sample_pool(level, rng, samples):
    order = level.order()
    if order is not None and order <= 81:
        return [tuple(v) for v in level.elements()]
    pool = [level.zero(), unit_vector(level.ngens, 0) if level.ngens else ()]
    for _ in range(samples):
        pool.append(level.random_element(rng, 4))
    return pool


# ---------------------------------------------------------------------------
# Burnside Tambara functor via the table of marks


def _marks_table(d):
    """Sparse rows = basis orbits [C_d/C_e], columns = subgroups C_j; the
    entry counts C_j-fixed points of C_d/C_e, i.e. d/e when j | e."""
    divs = divisors(d)
    return [tuple((c, d // e) for c, j in enumerate(divs) if e % j == 0)
            for e in divs]


def burnside_to_marks(d, x):
    return tuple(abgroups._combine(x, _marks_table(d), len(divisors(d))))


def burnside_from_marks(d, marks):
    """Invert the (unitriangular after scaling) table of marks."""
    divs = divisors(d)
    coeff = {}
    for j in reversed(divs):
        acc = marks[divs.index(j)]
        for e in divs:
            if e > j and e % j == 0:
                acc -= coeff[e] * (d // e)
        q, r = divmod(acc, d // j)
        if r:
            raise ArithmeticError(
                "mark vector not realizable in A(C_%d)" % d)
        coeff[j] = q
    return tuple(coeff[e] for e in divs)


def burnside_tambara(N):
    """The Burnside Tambara functor of C_N.

    Multiplication is the orbit decomposition of products of orbits;
    norms exponentiate mark vectors: the C_j-mark of n_{d'}^{d}(x) is
    the gcd(d', j)-mark of x raised to the orbit count (d/j)gcd(d',j)/d'.
    """
    mk = burnside(N)
    mul = {}
    one = {}
    for d in mk.group.divisors:
        divs = divisors(d)
        n = len(divs)
        table = []
        for a in divs:
            row = []
            for b in divs:
                g = gcd(a, b)
                count = d * g // (a * b)
                vec = [0] * n
                vec[divs.index(g)] = count
                row.append(tuple(vec))
            table.append(tuple(row))
        mul[d] = tuple(table)
        one[d] = unit_vector(n, divs.index(d))
    green = GreenFunctor(mk, mul, one)
    norms = {}
    for (dsub, d) in mk.group.covering_pairs():
        norms[(dsub, d)] = _burnside_norm_closure(dsub, d)
    return TambaraFunctor(green, norms, BURNSIDE)


def _burnside_norm_closure(dsub, d):
    divs = divisors(d)
    sub_divs = divisors(dsub)

    def norm(x):
        marks = burnside_to_marks(dsub, x)
        out = []
        for j in divs:
            g = gcd(dsub, j)
            exponent = (d // j) * g // dsub
            out.append(marks[sub_divs.index(g)] ** exponent)
        return burnside_from_marks(d, out)

    return norm


# ---------------------------------------------------------------------------
# presented rings (encode/decode between elements and coordinates)


class PresentedRing(namedtuple(
        "PresentedRing", "group gens encode decode reduce mul one")):
    """A commutative ring on a presented FgAbGroup, immutable so that
    towers can share it: ``mul[i][j]`` is generator i times generator j
    and ``one`` the unit, as coordinate vectors; ``reduce`` takes a
    coordinate vector to the one that encode returns."""

    def basis(self, j, c=1):
        """c times generator j, reduced; 0 for j past the last one."""
        return self.reduce([c if i == j else 0 for i in range(len(self.gens))])


def _modulus(spec):
    """m for the carrier Z/m, 0 for Z; other carriers are unsupported."""
    if isinstance(spec, ModularRing):
        return spec.modulus
    if isinstance(spec, IntegerRing):
        return 0
    raise UnsupportedInput("no presentation for the ring %s" % spec.name)


def present_witt_ring(wr):
    """Present W_k(A), A = Z or Z/m, on the basis V^j(1), j < k.

    Both directions are integer arithmetic on ghost vectors, where
    ghost(V^j(1))_n = p^j for n >= j.  Decoding c solves the ghost
    vector (sum_{j<=n} c_j p^j)_n over the cover of ``WittRing``
    arithmetic: Z itself, or Z/(m p^k) over Z/m.  Encoding reads
    c_n = (w_n - w_{n-1}) / p^n off the ghost vector of the coordinates'
    lifts (Dwork's lemma), over Z/m modulo (m p)^k, which fixes c_n
    modulo m^k p^(k-n) in O(k log(m p)) bits, and ends with ``reduce``:
    the relations m e_j - encode(m V^j(1)) are triangular with diagonal
    m, their index m^k is the order of W_k(Z/m), and reduce brings each
    entry into [0, m) along them, low index first.

    A class has one representative with every entry in [0, m): if two
    differed, take the lowest relation row in their difference; that
    entry would be a non-zero multiple of m, but two entries in [0, m)
    differ by less than m.  So encode is exact (the lattice contains
    m^k Z^k), and the tables, closed forms reduced, are encode of the
    Witt products: V^i(1) V^j(1) = p^min(i,j) V^max(i,j)(1), as
    V^i(x) y = V^i(x F^i(y)) and FV = p, and 1 = V^0(1).  Over Z there
    are no rows, and encode and the closed forms are exact.
    """
    p, k, m = wr.p, wr.k, _modulus(wr.ring)
    dmod = wr._cover_modulus(k)
    emod = (m * p) ** k if m else None

    def decode(vec):
        ghost = []
        acc = 0
        for j, c in enumerate(vec):
            acc += c * p ** j
            ghost.append(acc)
        return wr.vector(_solve(p, ghost, dmod))

    def reduce(vec):
        out = list(vec)
        for j, row in enumerate(rels):
            q = out[j] // m
            if q:
                out = [a - q * b for a, b in zip(out, row)]
        return tuple(out)

    def encode(w):
        out = []
        prev = 0
        for n, g in enumerate(_ghost(p, w.coords, emod)):
            out.append((g - prev) // p ** n)
            prev = g
        return reduce(out)

    # m V^j(1) = V^j(m) has zero coordinates up to j, so encoding it
    # reads no row at or below j: build the rows from the top down
    rels = [None] * k if m else []
    for j in reversed(range(len(rels))):
        row = [-c for c in encode(decode([m if i == j else 0
                                          for i in range(k)]))]
        row[j] += m
        rels[j] = row
    gens = tuple(wr.vector(unit_vector(k, j)) for j in range(k))
    pres = PresentedRing(FgAbGroup(k, rels), gens, encode, decode, reduce,
                         None, None)
    return pres._replace(one=pres.basis(0), mul=tuple(
        tuple(pres.basis(max(i, j), p ** min(i, j)) for j in range(k))
        for i in range(k)))


def present_ring_spec(spec):
    """Present Z or Z/m as cyclic on 1, elements as themselves."""
    m = _modulus(spec)
    group = FgAbGroup(1, [[m]]) if m else FgAbGroup.free(1)
    one = (spec.one(),)
    return PresentedRing(group, one, lambda x: (x,),
                         lambda v: spec.from_int(v[0]),
                         lambda v: (spec.from_int(v[0]),), ((one,),), one)


# ---------------------------------------------------------------------------
# fixed points of a ring with C_N-action


class ActionRing:
    """A commutative ring with a finite-order ring automorphism.

    The additive group is a presented FgAbGroup with multiplication
    structure constants; the action is an AbHom that must be a ring
    automorphism.
    """

    def __init__(self, group, mul, one, action):
        self.group = group
        self.mul = tuple(tuple(tuple(v) for v in row) for row in mul)
        self.one = tuple(one)
        self.action = action
        ring = (self.multiply, self.one)
        fault = _ring_map_fault(action, ring, ring)
        if fault is not None:
            raise ValueError("action is not a ring automorphism"
                             if fault["generators"]
                             else "action does not fix the unit")

    def multiply(self, x, y):
        return bilinear(self.mul, x, y, self.group.ngens)

    def is_trivial_action(self):
        return self.action.equal(AbHom.identity(self.group))


def fixed_point_tambara(ring, N):
    """Tambara functor of fixed points of a C_N-action on a ring.

    Levels are the fixed subrings, res the inclusions, tr the coset
    sums, and the norm the product over the Weyl orbit.
    """
    group = CyclicGroupSpec(N)
    if ring.is_trivial_action():
        # constant functor: every level is the ring itself
        levels = {d: ring.group for d in group.divisors}
        res = {}
        tr = {}
        for (dsub, d) in group.covering_pairs():
            res[(d, dsub)] = AbHom.identity(ring.group)
            tr[(dsub, d)] = AbHom.scalar(ring.group, d // dsub)
        weyl = {d: AbHom.identity(ring.group) for d in group.divisors}
        mk = MackeyFunctor(group, levels, res, tr, weyl)
        green = GreenFunctor(mk, {d: ring.mul for d in group.divisors},
                             {d: ring.one for d in group.divisors})
        norms = {}
        for (dsub, d) in group.covering_pairs():
            norms[(dsub, d)] = partial(green.power, d, n=d // dsub)
        return TambaraFunctor(green, norms, FIXED_POINT)

    mk, inclusions = _fixed_point_mackey(ring.group, ring.action, N)
    mul = {}
    one = {}
    for d in group.divisors:
        incl = inclusions[d]
        gens = incl.matrix
        mul[d] = tuple(
            tuple(_factor_through_inclusion(ring.multiply(x, y), incl)
                  for y in gens)
            for x in gens)
        one[d] = _factor_through_inclusion(ring.one, incl)
    green = GreenFunctor(mk, mul, one)
    norms = {}
    for (dsub, d) in group.covering_pairs():
        norms[(dsub, d)] = _orbit_product_norm_closure(
            ring, inclusions, N, dsub, d)
    return TambaraFunctor(green, norms, FIXED_POINT)


def _orbit_product_norm_closure(ring, inclusions, N, dsub, d):
    def norm(x):
        lifted = inclusions[dsub].apply(tuple(x))
        acc = ring.one
        for j in range(d // dsub):
            acc = ring.multiply(
                acc, ring.action.power((j * (N // d)) % N).apply(lifted))
        return _factor_through_inclusion(acc, inclusions[d])
    return norm


def constant_tambara(spec, N):
    """The constant Tambara functor on a ring carrier (trivial action)."""
    pres = present_ring_spec(spec)
    ring = ActionRing(pres.group, pres.mul, pres.one,
                      AbHom.identity(pres.group))
    out = fixed_point_tambara(ring, N)
    out.norm_class = Constant(spec, pres)
    return out


# ---------------------------------------------------------------------------
# the norm functor and the norm classes


def split_p_part(d, p):
    """d = p^q * m with p coprime to m."""
    q = 0
    while d % p == 0:
        d //= p
        q += 1
    return q, d


def norm_functor(R, p, k):
    """Norm a supported C_n-Tambara functor up to C_{p^k n}.

    The recipe is ``R.norm_class.norm``: Burnside functors norm to
    Burnside functors, constant functors to the Witt tower.  Everything
    else raises UnsupportedInput.
    """
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = R.group.N
    if n % p == 0:
        raise PrimeDividesN("p = %d divides n = %d" % (p, n))
    return R.norm_class.norm(n, p, k)


class Burnside:
    """The Burnside Tambara functor; its norm is Burnside again.

    As the class of a norm it gives the Witt identification behind r,
    the unit eta of the norm adjunction (the identity) and, at n = 1,
    the classical theta W_{k+1}(Z) -> A(C_{p^k}).
    """

    tag = "burnside"
    classical_ring = IntegerRing()

    def norm(self, n, p, k):
        return burnside_tambara(p ** k * n)

    def witt_rows(self, p, nu, d):
        """Phi^{C_{p^nu}} A(C_{d p^nu}) -> A(C_d): the orbit of C_e goes
        to the orbit of C_{e / p^nu} when p^nu | e, and to 0 otherwise."""
        pnu = p ** nu
        tgt_divs = divisors(d)
        rows = []
        for e in divisors(d * pnu):
            row = [0] * len(tgt_divs)
            if e % pnu == 0:
                row[tgt_divs.index(e // pnu)] = 1
            rows.append(row)
        return rows

    def embed(self, a):
        return tuple(a)

    def classical_theta(self, p, k):
        """W_{k+1}(Z) -> A(C_{p^k}): ghost components read as marks."""
        wr = WittRing(p, k + 1, self.classical_ring)
        top = p ** k

        def theta(wv):
            ghost = wr.ghost(wv)
            return burnside_from_marks(top, [ghost[k - i]
                                             for i in range(k + 1)])

        return theta


class FixedPoint:
    """Fixed points of a ring with a C_N-action: no norm recipe yet."""

    tag = "fixed_point"

    def norm(self, n, p, k):
        raise UnsupportedInput(
            "no norm recipe for Tambara functors of class %r" % self.tag)


BURNSIDE = Burnside()
FIXED_POINT = FixedPoint()


class Constant:
    """The constant Tambara functor on A = Z or Z/m, presented on 1;
    its norm is the ``WittTower`` of A."""

    classical_ring = property(lambda self: self.spec)

    def __init__(self, spec, presentation):
        self.spec = spec
        self.presentation = presentation
        self.tag = "constant:%s" % spec.name

    def norm(self, n, p, k):
        towers = {q: WittRing(p, q + 1, self.spec) for q in range(k + 1)}
        pres = {q: present_witt_ring(towers[q]) for q in range(k + 1)}
        group = CyclicGroupSpec(p ** k * n)
        at = {d: pres[split_p_part(d, p)[0]] for d in group.divisors}
        levels = {d: at[d].group for d in group.divisors}
        res = {}
        tr = {}
        for (dsub, d) in group.covering_pairs():
            if d // dsub == p:
                # p-direction: F(1) = 1, F(V^(j+1)(1)) = p V^j(1); V shifts
                low, js = at[dsub], range(len(at[dsub].gens))
                fro = [low.one] + [low.basis(j, p) for j in js]
                res[(d, dsub)] = AbHom(levels[d], levels[dsub], fro)
                ver = [at[d].basis(j + 1) for j in js]
                tr[(dsub, d)] = AbHom(levels[dsub], levels[d], ver)
            else:
                # n-direction: identity / multiplication by the index
                res[(d, dsub)] = AbHom.identity(levels[d])
                tr[(dsub, d)] = AbHom.scalar(levels[d], d // dsub)
        weyl = {d: AbHom.identity(levels[d]) for d in group.divisors}
        mk = MackeyFunctor(group, levels, res, tr, weyl)
        green = GreenFunctor(mk, {d: at[d].mul for d in group.divisors},
                             {d: at[d].one for d in group.divisors})
        norms = {}
        for (dsub, d) in group.covering_pairs():
            if d // dsub == p:
                norms[(dsub, d)] = _witt_norm_closure(
                    towers, pres, split_p_part(dsub, p)[0])
            else:
                norms[(dsub, d)] = partial(green.power, d, n=d // dsub)
        return TambaraFunctor(green, norms, WittTower(self, pres, towers))


class WittTower:
    """The norm of ``base``, a ``Constant`` on A: level p^q m carries
    ``witt_rings[q]`` = W_{q+1}(A), presented by ``presentations[q]``.
    A shorter tower on A presents its levels the same way."""

    tag = "witt_tower"
    norm = FixedPoint.norm   # no recipe for norming a norm yet

    def __init__(self, base, presentations, witt_rings):
        self.base = base
        self.presentations = presentations
        self.witt_rings = witt_rings

    def witt_rows(self, p, nu, d):
        """W_{q+1}(A) -> W_{q-nu+1}(A) at level d p^nu: the restriction
        R^nu keeps V^j(1) for j <= q - nu and sends it to 0 above."""
        q, _m = split_p_part(d * p ** nu, p)
        return [self.presentations[q - nu].basis(j) for j in range(q + 1)]

    def embed(self, a):
        """A -> W_1(A) on coordinates: the reduction of the coordinate."""
        return self.presentations[0].reduce(a)

    def classical_theta(self, p, k):
        """W_{k+1}(A) -> the top level: its presentation's encode."""
        return self.presentations[k].encode


def tambara_from_json(data):
    """The Tambara functor of a ``{"norm_class": tag, "N": N}`` object:
    tag ``burnside`` or ``constant:<ring>``."""
    tag = data.get("norm_class")
    N = _json_int(data["N"], "N")
    if tag == BURNSIDE.tag:
        return burnside_tambara(N)
    if isinstance(tag, str) and tag.startswith("constant:"):
        return constant_tambara(parse_ring(tag.split(":", 1)[1]), N)
    raise WittlabError("unsupported norm_class %r" % tag)


def _witt_norm_closure(towers, pres, qsub):
    def norm(x):
        w = pres[qsub].decode(tuple(x))
        return pres[qsub + 1].encode(towers[qsub].norm(w))
    return norm


# ---------------------------------------------------------------------------
# transport of Green structure along reindexing


def zeta_green(G, m):
    """Reindex a Green functor along C_N -> C_N/C_m."""
    mk = zeta(G.mackey, m)
    mul = {d: G.mul[d * m] for d in mk.group.divisors}
    one = {d: G.one[d * m] for d in mk.group.divisors}
    return GreenFunctor(mk, mul, one)


def restrict_green(G, h):
    """Restrict a Green functor to the subgroup C_h."""
    from .mackey import restrict_to_subgroup
    mk = restrict_to_subgroup(G.mackey, h)
    mul = {d: G.mul[d] for d in mk.group.divisors}
    one = {d: G.one[d] for d in mk.group.divisors}
    return GreenFunctor(mk, mul, one)


def green_from_json(data):
    """Rebuild a Green functor from the extended Mackey schema."""
    mk = MackeyFunctor.from_json(data)
    keys = [str(d) for d in mk.group.divisors]
    mul = {int(d): _json_int(data["mul"][d], "mul " + d, 3)
           for d in abgroups._json_keys(data["mul"], "mul", keys)}
    one = {int(d): _json_int(data["one"][d], "one " + d, 1)
           for d in abgroups._json_keys(data["one"], "one", keys)}
    return GreenFunctor(mk, mul, one)
