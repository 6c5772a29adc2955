"""Mechanical verifier for equivariant and classical Witt complex axioms.

The equivariant checker takes a tower of graded Green functors E[s]
over C_{p^s n} together with differentials d, restriction maps r, unit
maps lambda from the equivariant Witt vectors, and compatibility
witnesses, and verifies on all generators (plus every element of
finite carriers for the non-additive lift rule):

  * the compatibility witnesses are Green isomorphisms commuting with d,
  * d^2 = 0 and the Leibniz rule,
  * lambda r = r lambda  and  d r = r d,
  * res tr = [L:H]  and  res d tr = d  for all comparable subgroups
    (not covering pairs only, as in ``MackeyFunctor.validate``: towers
    read from a file are never validated as Mackey functors, so their
    composites along different prime paths may differ),
  * F d lambda([x]_k) = lambda([x]_{k-1})^{p-1} d lambda([x]_{k-1}),
  * lambda is a map of Green functors (a ring map at every level that
    commutes with res, tr and the Weyl action).

Both checkers share one implementation of d^2 = 0, Leibniz and the lift
rule, over the graded ring of a tower level or of a classical B_s, and
run every law that two homomorphisms agree through ``_law``.  Every
failure carries a concrete witness that re-evaluates to the violated
equation.  The n = 1 specialization extracts the top-orbit
pro-differential graded ring and feeds the classical checker.
"""

import warnings
from collections import namedtuple
from functools import partial

from . import abgroups, mackey
from .abgroups import AbHom, FgAbGroup, unit_vector
from .errors import (EvenPrime, MackeyAxiomFailure, MalformedData,
                     NotApplicable, PrimeDividesN, TambaraAxiomFailure)
from .eqwitt import (_restriction_r, equivariant_witt, multiplicative_lift,
                     multiplicative_order, restriction_r)
from .mackey import MackeyFunctor, divisors
from .rings import is_prime
from .tambara import (GreenFunctor, GreenMap, present_witt_ring,
                      restrict_green)
from .witt import WittRing

TRIVIAL_GROUP = FgAbGroup(0)


def trivial_mackey(group):
    levels = {d: TRIVIAL_GROUP for d in group.divisors}
    res = {}
    tr = {}
    zero = AbHom.zero(TRIVIAL_GROUP, TRIVIAL_GROUP)
    for (dsub, d) in group.covering_pairs():
        res[(d, dsub)] = zero
        tr[(dsub, d)] = zero
    weyl = {d: zero for d in group.divisors}
    return MackeyFunctor(group, levels, res, tr, weyl)


# The graded ring of a tower level or a classical B_s: by degree q, its
# group level(q), product multiply(q1, x, q2, y) and d differential(q).
_Graded = namedtuple("_Graded", "level multiply differential")


def _pairing(table, target, x, y, missing, *args):
    """x y by a structure-constant table into ``target``; without a
    table only a product that is zero anyway is defined."""
    if table is None:
        if target.ngens == 0 or not (any(x) and any(y)):
            return target.zero()
        raise MalformedData(missing % args)
    return abgroups.bilinear(table, x, y, target.ngens)


class GradedTower:
    """One tower entry: graded levels over C_{p^s n}.

    Degree 0 is a Green functor; higher degrees are Mackey functors
    with bilinear pairings against the other degrees, the (0, 0) pairing
    being the product of the Green functor.  Missing degrees are trivial.
    """

    def __init__(self, green0, higher=None, pairings=None):
        self.green0 = green0
        self.group = green0.mackey.group
        self.higher = dict(higher or {})
        self.pairings = {**(pairings or {}), (0, 0): green0.mul}
        self._trivial = trivial_mackey(self.group)

    def degree(self, q):
        if q == 0:
            return self.green0.mackey
        return self.higher.get(q, self._trivial)

    def level(self, q, d):
        return self.degree(q).level(d)

    def multiply(self, d, q1, x, q2, y):
        """Graded product landing in degree q1 + q2 at level d."""
        table = self.pairings.get((q1, q2))
        return _pairing(None if table is None else table[d],
                        self.level(q1 + q2, d), x, y,
                        "missing pairing for degrees (%d, %d)", q1, q2)


class ClassicalBridge:
    """Identification data from W_{s+1}(A) into the top Witt orbit:
    ``theta[s]`` maps a Witt vector to coordinates of the top level of
    the norm under tower entry s, before the coinvariant quotient."""

    def __init__(self, ring_spec, theta):
        self.ring_spec = ring_spec
        self.theta = dict(theta)


class WittComplexData:
    """Everything the equivariant checker consumes.

    ``d_maps[(s, q)][div]`` raises degree by one, ``r_maps[s][q][div]``
    maps the zeta-reindexed tower entry s to entry s - nu, ``lam[s]
    [div]`` is the Green map from the Witt vectors in degree zero, and
    ``compat[(s, k)][q][div]`` witnesses the subgroup compatibility.
    Unsupplied differentials and restriction maps read as zero.
    """

    def __init__(self, base, p, S, D, towers, witt_tower, d_maps=None,
                 r_maps=None, lam=None, compat=None, classical_base=None):
        if S < 0:
            raise MalformedData("S = %d is negative" % S)
        self.base = base
        self.n = base.group.N
        self.p = p
        self.S = S
        self.D = D
        self.nu = multiplicative_order(p, self.n)
        self.towers = list(towers)
        self.witt_tower = list(witt_tower)
        self.d_maps = dict(d_maps or {})
        self.r_maps = dict(r_maps or {})
        self.lam = dict(lam or {})
        self.compat = dict(compat or {})
        self.classical_base = classical_base

    def differential(self, s, q, d):
        """d of tower entry s from degree q to q + 1 at level d."""
        hom = self.d_maps.get((s, q), {}).get(d)
        return hom if hom is not None else AbHom.zero(
            self.towers[s].level(q, d), self.towers[s].level(q + 1, d))

    def restriction(self, s, q, d):
        """r from entry s, level d p^nu, to entry s - nu, level d."""
        hom = self.r_maps.get(s, {}).get(q, {}).get(d)
        return hom if hom is not None else AbHom.zero(
            self.towers[s].level(q, d * self.p ** self.nu),
            self.towers[s - self.nu].level(q, d))

    def _graded(self, s, d):
        """The graded ring of tower entry s at level d."""
        tower = self.towers[s]
        return _Graded(lambda q: tower.level(q, d),
                       partial(tower.multiply, d),
                       lambda q: self.differential(s, q, d))


class AxiomResult:
    def __init__(self, name, status, witness=None):
        self.name = name
        self.status = status
        self.witness = witness

    def to_json(self):
        out = {"axiom": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def __repr__(self):
        return "%s: %s" % (self.name, self.status)


class AxiomReport:
    """Ordered axiom results; failures carry reproducible witnesses."""

    def __init__(self, results):
        self.results = list(results)

    @property
    def passed(self):
        return all(r.status == "PASS" for r in self.results)

    def failures(self):
        return [r for r in self.results if r.status == "FAIL"]

    def to_json(self):
        return {"status": "PASS" if self.passed else "FAIL",
                "axioms": [r.to_json() for r in self.results]}

    def __repr__(self):
        return "\n".join(repr(r) for r in self.results)


# ---------------------------------------------------------------------------
# the degree-zero families used as batteries and demo data


def degree_zero_family(R, p, S):
    """E[s] = W_{C_{p^s n}}(R) in degree zero, d = 0, lambda = id."""
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    n = R.group.N
    witt_tower = [equivariant_witt(R, p, s) for s in range(S + 1)]
    towers = [GradedTower(w.green) for w in witt_tower]
    nu = multiplicative_order(p, n)
    r_maps = {}
    for s in range(nu, S + 1):
        rm = _restriction_r(witt_tower[s], witt_tower[s - nu])
        r_maps[s] = {0: dict(rm.components)}
    lam = {s: {d: AbHom.identity(W.green.level(d)) for d in W.group.divisors}
           for s, W in enumerate(witt_tower)}
    compat = {}
    for s in range(S + 1):
        for smaller in range(s):
            comps = {}
            for d in divisors(p ** smaller * n):
                a = witt_tower[s].green.level(d)
                b = witt_tower[smaller].green.level(d)
                comps[d] = abgroups._checked_hom(
                    a, b, abgroups._unit_rows(a.ngens))
            compat[(s, smaller)] = {0: comps}
    return WittComplexData(R, p, S, 0, towers, witt_tower,
                           r_maps=r_maps, lam=lam, compat=compat,
                           classical_base=classical_bridge(R, witt_tower))


def classical_bridge(R, witt_tower):
    """The identification of W_{s+1}(A) with the top orbit of entry s
    of ``witt_tower`` at n = 1, None for n > 1.  A and each theta come
    from the norm classes."""
    if R.group.N != 1:
        return None
    return ClassicalBridge(R.norm_class.classical_ring,
                           {s: W.norm.norm_class.classical_theta(W.p, W.k)
                            for s, W in enumerate(witt_tower)})


# ---------------------------------------------------------------------------
# violation injectors (for tests and demos)


def _copy(data, **fields):
    """A shallow copy of data with some fields replaced."""
    import copy  # here: only the injectors need it, every process imports us
    out = copy.copy(data)
    out.__dict__.update(fields)
    return out


def with_scaled_transfer(data, s, pair, factor):
    """Copy of the data with one transfer of tower s scaled; breaks the
    res tr = [L:H] axiom.  The copy shares every other map with data."""
    tower = data.towers[s]
    mk = tower.green0.mackey
    tr = dict(mk.tr)
    tr[pair] = tr[pair].scale_by(factor)
    bad_mk = MackeyFunctor(mk.group, mk.levels, mk.res, tr, mk.weyl)
    bad_green = GreenFunctor(bad_mk, tower.green0.mul, tower.green0.one)
    towers = list(data.towers)
    towers[s] = GradedTower(bad_green, tower.higher, tower.pairings)
    return _copy(data, towers=towers)


def with_identity_differential(data, s):
    """Copy with degree 1 = degree 0 and d = identity; breaks Leibniz
    (d(xy) = xy but x dy + dx y = 2xy).  The copy shares every other map
    with data."""
    tower = data.towers[s]
    green0 = tower.green0
    higher = dict(tower.higher)
    higher[1] = green0.mackey
    pairings = dict(tower.pairings)
    pairings[(0, 1)] = pairings[(1, 0)] = green0.mul
    towers = list(data.towers)
    towers[s] = GradedTower(green0, higher, pairings)
    d_maps = dict(data.d_maps)
    d_maps[(s, 0)] = {d: AbHom.identity(green0.level(d))
                      for d in tower.group.divisors}
    return _copy(data, D=max(data.D, 1), towers=towers, d_maps=d_maps)


# ---------------------------------------------------------------------------
# p-locality


def _assert_p_local(levels, p, what):
    """Finite carriers must have p-power order; infinite carriers only
    get a warning, since no finite certificate exists."""
    for label, level in levels:
        inv = level.invariant_factors
        if any(f == 0 for f in inv):
            warnings.warn(
                "cannot certify Z_(p)-locality of the infinite carrier "
                "at %s %s" % (what, label))
            continue
        primes = set()
        for f in inv:
            for q in mackey.prime_steps(f):
                primes.add(q)
        for q in sorted(primes):
            if q != p and not abgroups.is_isomorphism(
                    AbHom.scalar(level, q)):
                raise MalformedData(
                    "carrier at %s %s is not a Z_(%d)-algebra: "
                    "multiplication by %d is not invertible"
                    % (what, label, p, q))


# ---------------------------------------------------------------------------
# laws shared by both checkers


def _fail(name, **witness):
    witness = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in witness.items()}
    return AxiomResult(name, "FAIL", witness)


def _first_difference(lhs, rhs):
    """Witness fields for the first generator on which two homs differ;
    empty when their shapes differ."""
    if lhs.source.ngens == rhs.source.ngens:
        for i, (a, b) in enumerate(zip(lhs.matrix, rhs.matrix)):
            if lhs.target.canonical(a) != rhs.target.canonical(b):
                return {"generator": i, "lhs": a, "rhs": b}
    return {}


def _law(name, cases):
    """PASS when lhs equals rhs in every (where, lhs, rhs) of cases;
    else FAIL at the first case that differs, witnessed by where and
    the first differing generator."""
    for where, lhs, rhs in cases:
        if not lhs.equal(rhs):
            return _fail(name, **where, **_first_difference(lhs, rhs))
    return AxiomResult(name, "PASS")


def _d_squared(rings, D):
    """d^2 = 0 below degree D of each (where, graded ring)."""
    return _law("d^2 = 0", (
        (dict(where, degree=q),
         R.differential(q + 1).compose(R.differential(q)),
         AbHom.zero(R.level(q), R.level(q + 2)))
        for where, R in rings for q in range(D)))


def _leibniz(rings):
    """d(xy) = d(x) y + x d(y) on degree-0 generators."""
    name = "Leibniz rule"
    for where, R in rings:
        level, target, dd = R.level(0), R.level(1), R.differential(0)
        for i in range(level.ngens):
            x = unit_vector(level.ngens, i)
            dx = dd.apply(x)
            for j in range(level.ngens):
                y = unit_vector(level.ngens, j)
                lhs = dd.apply(R.multiply(0, x, 0, y))
                rhs = target.add(R.multiply(1, dx, 0, y),
                                 R.multiply(0, x, 1, dd.apply(y)))
                if not target.equal(lhs, rhs):
                    return _fail(name, **where, x=x, y=y, lhs=lhs, rhs=rhs)
    return AxiomResult(name, "PASS")


def _lift_law(cases, p, missing):
    """F d lambda([a]_k) = lambda([a]_{k-1})^{p-1} d lambda([a]_{k-1})
    over cases (where, R, f, v, y): y = lambda([a]_{k-1}) in the graded
    ring R, v is d lambda([a]_k) restricted to R's level and f the
    degree-1 map onto R; without f only v = 0 passes."""
    name = "F d lambda lift rule"
    for where, R, f, v, y in cases:
        if f is not None:
            lhs = f.apply(v)
        elif not any(v):
            lhs = R.level(1).zero()
        else:
            return _fail(name, **where, reason=missing)
        power = y
        for _ in range(p - 2):
            power = R.multiply(0, power, 0, y)
        rhs = R.multiply(0, power, 1, R.differential(0).apply(y))
        if not R.level(1).equal(lhs, rhs):
            return _fail(name, **where, lhs=lhs, rhs=rhs)
    return AxiomResult(name, "PASS")


# ---------------------------------------------------------------------------
# the equivariant checker


def check_equivariant(data):
    """Verify the equivariant Witt complex axioms; returns AxiomReport."""
    p, n = data.p, data.n
    if p == 2:
        raise EvenPrime("Witt complexes are defined for odd primes")
    if not is_prime(p):
        raise MalformedData("p = %d is not prime" % p)
    if n % p == 0:
        raise PrimeDividesN("p = %d divides n = %d" % (p, n))
    if len(data.towers) != data.S + 1 or len(data.witt_tower) != data.S + 1:
        raise MalformedData("tower length does not match S")
    _assert_p_local([(m, data.base.green.level(m))
                     for m in divisors(n)], p, "base level")

    rings = [({"tower": s, "level": d}, data._graded(s, d))
             for s, tower in enumerate(data.towers)
             for d in tower.group.divisors]
    return AxiomReport([
        _axiom_compat(data),
        _d_squared(rings, data.D),
        _leibniz(rings),
        _axiom_lambda_r(data),
        _axiom_d_r(data),
        _axiom_res_tr_index(data),
        _axiom_res_d_tr(data),
        _axiom_lift_rule(data),
        _axiom_lambda_ring_map(data),
    ])


def _axiom_compat(data):
    name = "compatibility isomorphisms"
    pairs = sorted(data.compat.items())
    for (s, smaller), per_degree in pairs:
        restricted = restrict_green(data.towers[s].green0,
                                    data.p ** smaller * data.n)
        target = data.towers[smaller].green0
        comps = per_degree.get(0, {})
        for d in restricted.mackey.group.divisors:
            f = comps.get(d)
            if f is None:
                return _fail(name, towers=[s, smaller], level=d,
                             reason="missing witness")
            if not abgroups.is_isomorphism(f):
                return _fail(name, towers=[s, smaller], level=d,
                             reason="witness is not an isomorphism")
        try:
            GreenMap(restricted, target, comps)
        except (MackeyAxiomFailure, TambaraAxiomFailure, ValueError) as exc:
            return _fail(name, towers=[s, smaller], reason=str(exc))
    # d-compatibility: compat . d == d . compat, a missing degree-1
    # witness reading as zero
    return _law(name, (
        ({"towers": [s, smaller], "level": d,
          "reason": "differential not preserved"},
         data.differential(smaller, 0, d).compose(per_degree[0][d]),
         per_degree.get(1, {}).get(d, AbHom.zero(
             data.towers[s].level(1, d), data.towers[smaller].level(1, d)))
         .compose(data.differential(s, 0, d)))
        for (s, smaller), per_degree in pairs
        for d in divisors(data.p ** smaller * data.n)))


def _axiom_lambda_r(data):
    pnu = data.p ** data.nu

    def cases():
        for s in range(data.nu, data.S + 1):
            witt_r = restriction_r(data.witt_tower[s]).components
            for d in data.towers[s - data.nu].group.divisors:
                yield ({"tower": s, "level": d},
                       data.restriction(s, 0, d).compose(
                           data.lam[s][d * pnu]),
                       data.lam[s - data.nu][d].compose(witt_r[d]))
    return _law("lambda r = r lambda", cases())


def _axiom_d_r(data):
    pnu = data.p ** data.nu
    return _law("d r = r d", (
        ({"tower": s, "degree": q, "level": d},
         data.differential(s - data.nu, q, d).compose(
             data.restriction(s, q, d)),
         data.restriction(s, q + 1, d).compose(
             data.differential(s, q, d * pnu)))
        for s in range(data.nu, data.S + 1)
        for q in range(data.D + 1)
        for d in data.towers[s - data.nu].group.divisors))


def _axiom_res_tr_index(data):
    return _law("res tr = [L:H]", (
        ({"tower": s, "degree": q, "pair": [e, d]},
         tower.degree(q).res_map(d, e).compose(tower.degree(q).tr_map(e, d)),
         AbHom.scalar(tower.level(q, e), d // e))
        for s, tower in enumerate(data.towers)
        for q in range(data.D + 1)
        for (e, d) in tower.group.comparable_pairs()))


def _axiom_res_d_tr(data):
    return _law("res d tr = d", (
        ({"tower": s, "degree": q, "pair": [e, d]},
         tower.degree(q + 1).res_map(d, e).compose(
             data.differential(s, q, d)).compose(
             tower.degree(q).tr_map(e, d)),
         data.differential(s, q, e))
        for s, tower in enumerate(data.towers)
        for q in range(data.D + 1)
        for (e, d) in tower.group.comparable_pairs()))


def _sample_base_elements(R, m):
    level = R.green.level(m)
    if level.order() is not None and level.order() <= 81:
        return [tuple(v) for v in level.elements()]
    out = []
    for c in range(-3, 4):
        for i in range(level.ngens):
            vec = [0] * level.ngens
            vec[i] = c
            out.append(tuple(vec))
    return out


def _axiom_lift_rule(data):
    p = data.p

    def cases():
        for k in range(1, data.S + 1):
            compat = data.compat.get((k, k - 1), {}).get(1, {})
            for m in divisors(data.n):
                top, lowtop = p ** k * m, p ** (k - 1) * m
                low = data._graded(k - 1, lowtop)
                fd = data.towers[k].degree(1).res_map(top, lowtop).compose(
                    data.differential(k, 0, top))
                for a in _sample_base_elements(data.base, m):
                    x = multiplicative_lift(data.witt_tower[k], a, m)
                    y = multiplicative_lift(data.witt_tower[k - 1], a, m)
                    yield ({"tower": k, "level": m, "element": a}, low,
                           compat.get(lowtop),
                           fd.apply(data.lam[k][top].apply(x)),
                           data.lam[k - 1][lowtop].apply(y))
    return _lift_law(cases(), p, "no degree-1 compatibility witness for a "
                     "nonzero left side")


def _axiom_lambda_ring_map(data):
    """lambda is a map of Green functors, under the law's old name."""
    name = "lambda is a ring map"
    for s, tower in enumerate(data.towers):
        try:
            GreenMap(data.witt_tower[s].green, tower.green0, data.lam[s])
        except MackeyAxiomFailure as exc:
            return _fail(name, tower=s, reason=str(exc))
        except TambaraAxiomFailure as exc:
            return _fail(name, tower=s, **exc.witness)
    return AxiomResult(name, "PASS")


# ---------------------------------------------------------------------------
# classical Witt complexes


class ClassicalWittData:
    """A pro-differential graded ring over W_*(A) with F, V, lambda.

    ``levels[s][q]`` for s = 1..S+1 presents the degree-q part of B_s;
    F[s] maps B_s to B_{s-1}, V[s] maps B_s to B_{s+1}, restr[s] is the
    pro-structure map B_s -> B_{s-1}, lam[s] the unit from the
    presented W_s(A).
    """

    def __init__(self, p, ring_spec, S, D, levels, pairings, F, V, restr,
                 d_maps, lam, witt_pres):
        self.p = p
        self.ring_spec = ring_spec
        self.S = S
        self.D = D
        self.levels = levels
        self.pairings = pairings
        self.F = F
        self.V = V
        self.restr = restr
        self.d_maps = d_maps
        self.lam = lam
        self.witt_pres = witt_pres

    def level(self, s, q):
        return self.levels[s].get(q, TRIVIAL_GROUP)

    def differential(self, s, q):
        maps = self.d_maps.get(s, {})
        if q in maps:
            return maps[q]
        return AbHom.zero(self.level(s, q), self.level(s, q + 1))

    def multiply(self, s, q1, x, q2, y):
        return _pairing(self.pairings.get(s, {}).get((q1, q2)),
                        self.level(s, q1 + q2), x, y,
                        "missing pairing at B_%d degrees (%d, %d)",
                        s, q1, q2)

    def _graded(self, s):
        """The graded ring B_s."""
        return _Graded(partial(self.level, s), partial(self.multiply, s),
                       partial(self.differential, s))


def check_classical(cdata):
    """Verify the classical Witt complex axioms on finite truncations."""
    p = cdata.p
    if p == 2:
        raise EvenPrime("classical Witt complexes need an odd prime")
    if not is_prime(p):
        raise MalformedData("p = %d is not prime" % p)
    A_pres = cdata.witt_pres[1]
    _assert_p_local([("A", A_pres.group)], p, "base ring")

    rings = [({"ring": s}, cdata._graded(s)) for s in range(1, cdata.S + 2)]
    return AxiomReport([
        _d_squared(rings, cdata.D),
        _leibniz(rings),
        _cl_lambda(cdata, "lambda is a strict pro-map", cdata.restr, -1,
                   "restriction"),
        _cl_lambda(cdata, "lambda F = F lambda", cdata.F, -1, "frobenius"),
        _cl_lambda(cdata, "lambda V = V lambda", cdata.V, 1, "verschiebung"),
        _cl_FV(cdata),
        _cl_FdV(cdata),
        _cl_module(cdata),
        _cl_lift_rule(cdata),
    ])


def _cl_lambda(cdata, name, maps, step, op):
    """maps[s][0] lambda_s = lambda_{s+step} op, where op is the named
    Witt operator from W_s(A) to W_{s+step}(A)."""
    def cases():
        for s in range(1, cdata.S + 2):
            if not 1 <= s + step <= cdata.S + 1:
                continue
            witt_op = getattr(WittRing(cdata.p, max(s, s + step),
                                       cdata.ring_spec), op)
            here, there = cdata.witt_pres[s], cdata.witt_pres[s + step]
            op_hom = AbHom(here.group, there.group,
                           [there.encode(witt_op(g)) for g in here.gens])
            yield ({"ring": s}, maps[s][0].compose(cdata.lam[s]),
                   cdata.lam[s + step].compose(op_hom))
    return _law(name, cases())


def _cl_FV(cdata):
    return _law("F V = p", (
        ({"ring": s, "degree": q},
         cdata.F[s + 1][q].compose(cdata.V[s][q]),
         AbHom.scalar(cdata.level(s, q), cdata.p))
        for s in range(1, cdata.S + 1) for q in range(cdata.D + 1)))


def _cl_FdV(cdata):
    def cases():
        for s in range(1, cdata.S + 1):
            for q in range(cdata.D + 1):
                where = {"ring": s, "degree": q}
                dv = cdata.differential(s + 1, q).compose(cdata.V[s][q])
                f = cdata.F[s + 1].get(q + 1)
                if f is None:
                    # without a degree-(q+1) F the law needs d V = 0
                    yield (dict(where, reason="no degree-%d F supplied"
                                % (q + 1)),
                           dv, AbHom.zero(dv.source, dv.target))
                    f = AbHom.zero(dv.target, cdata.level(s, q + 1))
                yield where, f.compose(dv), cdata.differential(s, q)
    return _law("F d V = d", cases())


def _cl_module(cdata):
    name = "x V(y) = V(F(x) y)"
    for s in range(1, cdata.S + 1):
        top = cdata.level(s + 1, 0)
        low = cdata.level(s, 0)
        for i in range(top.ngens):
            x = unit_vector(top.ngens, i)
            for j in range(low.ngens):
                y = unit_vector(low.ngens, j)
                lhs = cdata.multiply(s + 1, 0, x, 0,
                                     cdata.V[s][0].apply(y))
                rhs = cdata.V[s][0].apply(
                    cdata.multiply(s, 0, cdata.F[s + 1][0].apply(x), 0, y))
                if not top.equal(lhs, rhs):
                    return _fail(name, ring=s, x=x, y=y, lhs=lhs, rhs=rhs)
    return AxiomResult(name, "PASS")


def _cl_base_elements(cdata):
    spec = cdata.ring_spec
    if spec.is_finite:
        return list(spec.elements())
    return [spec.from_int(c) for c in range(-3, 4)]


def _cl_lift_rule(cdata):
    def cases():
        for k in range(1, cdata.S + 1):
            high, low = (WittRing(cdata.p, j, cdata.ring_spec)
                         for j in (k + 1, k))
            ring, d_high = cdata._graded(k), cdata.differential(k + 1, 0)
            for a in _cl_base_elements(cdata):
                x = cdata.witt_pres[k + 1].encode(high.teichmuller(a))
                y = cdata.witt_pres[k].encode(low.teichmuller(a))
                yield ({"ring": k, "element": repr(a)}, ring,
                       cdata.F[k + 1].get(1),
                       d_high.apply(cdata.lam[k + 1].apply(x)),
                       cdata.lam[k].apply(y))
    return _lift_law(cases(), cdata.p, "no degree-1 F supplied")


# ---------------------------------------------------------------------------
# specialization to n = 1


def specialize_n1(data):
    """Extract the top-orbit pro-DGA B_{s+1} = E[s](C_{p^s}/C_{p^s}).

    F and V of tower s must match B_s in every degree (MalformedData).
    """
    if data.n != 1:
        raise NotApplicable("specialization requires n = 1")
    if data.classical_base is None:
        raise MalformedData("no classical identification supplied")
    p, S, D = data.p, data.S, data.D
    spec = data.classical_base.ring_spec
    witt_pres = {s: present_witt_ring(WittRing(p, s, spec))
                 for s in range(1, S + 2)}
    levels = {}
    pairings = {}
    F = {}
    V = {}
    restr = {}
    d_maps = {}
    lam = {}
    for s in range(S + 1):
        top = p ** s
        tower = data.towers[s]
        levels[s + 1] = {q: tower.level(q, top) for q in range(D + 2)}
        pairings[s + 1] = {qq: table[top]
                           for qq, table in tower.pairings.items()}
        d_maps[s + 1] = {q: data.differential(s, q, top)
                         for q in range(D + 1)}
        theta = data.classical_base.theta[s]
        quotient = data.witt_tower[s].q.components[top]
        rows = [quotient.apply(theta(g)) for g in witt_pres[s + 1].gens]
        theta_hom = AbHom(witt_pres[s + 1].group,
                          data.witt_tower[s].green.level(top), rows)
        lam[s + 1] = data.lam[s][top].compose(theta_hom)
        if s >= 1:
            lowtop = p ** (s - 1)
            F[s + 1] = {q: tower.degree(q).res_map(top, lowtop)
                        for q in range(D + 2)}
            V[s] = {q: tower.degree(q).tr_map(lowtop, top)
                    for q in range(D + 1)}
            restr[s + 1] = {q: data.restriction(s, q, lowtop)
                            for q in range(D + 1)}
            for q in range(D + 2):
                # F lands in, and V starts from, this level of tower s
                if tower.level(q, lowtop).ngens != levels[s][q].ngens:
                    raise MalformedData(
                        "F and V of tower %d in degree %d do not match B_%d"
                        % (s, q, s))
    return ClassicalWittData(p, spec, S, D, levels, pairings, F, V, restr,
                             d_maps, lam, witt_pres)
