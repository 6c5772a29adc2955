"""Mechanical verifier for equivariant and classical Witt complex axioms.

The equivariant checker takes a tower of graded Green functors E[s]
over C_{p^s n} together with differentials d, restriction maps r, unit
maps lambda from the equivariant Witt vectors, and compatibility
witnesses, and verifies on all generators (plus every element of
finite carriers for the non-additive lift rule):

  * d^2 = 0 and the Leibniz rule,
  * lambda r = r lambda  and  d r = r d,
  * res tr = [L:H]  and  res d tr = d  for all comparable subgroups,
  * F d lambda([x]_k) = lambda([x]_{k-1})^{p-1} d lambda([x]_{k-1}).

Every failure carries a concrete witness that re-evaluates to the
violated equation.  The n = 1 specialization extracts the top-orbit
pro-differential graded ring and feeds the classical checker.
"""

import warnings

from . import abgroups, mackey
from .abgroups import AbHom, FgAbGroup, unit_vector
from .errors import (EvenPrime, MackeyAxiomFailure, MalformedData,
                     NotApplicable, PrimeDividesN, TambaraAxiomFailure)
from .eqwitt import (equivariant_witt, multiplicative_lift,
                     multiplicative_order, restriction_r)
from .mackey import MackeyFunctor, divisors
from .rings import is_prime
from .tambara import GreenFunctor, present_witt_ring, restrict_green
from .witt import WittRing

TRIVIAL_GROUP = FgAbGroup(0)


def trivial_mackey(group):
    levels = {d: TRIVIAL_GROUP for d in group.divisors}
    res = {}
    tr = {}
    zero = AbHom(TRIVIAL_GROUP, TRIVIAL_GROUP, (), check=False)
    for (dsub, d) in group.covering_pairs():
        res[(d, dsub)] = zero
        tr[(dsub, d)] = zero
    weyl = {d: zero for d in group.divisors}
    return MackeyFunctor(group, levels, res, tr, weyl)


class GradedTower:
    """One tower entry: graded levels over C_{p^s n}.

    Degree 0 is a Green functor; higher degrees are Mackey functors
    with bilinear pairings against the other degrees.  Missing degrees
    are trivial.
    """

    def __init__(self, green0, higher=None, pairings=None):
        self.green0 = green0
        self.group = green0.mackey.group
        self.higher = dict(higher or {})
        self.pairings = dict(pairings or {})
        self._trivial = trivial_mackey(self.group)

    def degree(self, q):
        if q == 0:
            return self.green0.mackey
        return self.higher.get(q, self._trivial)

    def level(self, q, d):
        return self.degree(q).level(d)

    def multiply(self, d, q1, x, q2, y):
        """Graded product landing in degree q1 + q2 at level d."""
        if q1 == 0 and q2 == 0:
            return self.green0.multiply(d, x, y)
        target = self.level(q1 + q2, d)
        table = self.pairings.get((q1, q2))
        if table is None:
            if target.ngens == 0 or not (any(x) and any(y)):
                return target.zero()
            raise MalformedData(
                "missing pairing for degrees (%d, %d)" % (q1, q2))
        return abgroups.bilinear(table[d], x, y, target.ngens)


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
    Missing differentials and higher-degree maps default to zero.
    """

    def __init__(self, base, p, S, D, towers, witt_tower, d_maps=None,
                 r_maps=None, lam=None, compat=None, classical_base=None):
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
        self._fill_defaults()

    def _fill_defaults(self):
        for s in range(self.S + 1):
            tower = self.towers[s]
            for q in range(self.D + 1):
                key = (s, q)
                maps = self.d_maps.setdefault(key, {})
                for d in tower.group.divisors:
                    if d not in maps:
                        maps[d] = AbHom.zero(tower.level(q, d),
                                             tower.level(q + 1, d))
        for s in range(self.nu, self.S + 1):
            per_degree = self.r_maps.setdefault(s, {})
            low = self.towers[s - self.nu]
            high = self.towers[s]
            pnu = self.p ** self.nu
            for q in range(self.D + 1):
                maps = per_degree.setdefault(q, {})
                for d in low.group.divisors:
                    if d not in maps:
                        maps[d] = AbHom.zero(high.level(q, d * pnu),
                                             low.level(q, d))

    def differential(self, s, q, d):
        return self.d_maps[(s, q)][d]


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
        rm = restriction_r(witt_tower[s])
        r_maps[s] = {0: dict(rm.components)}
    lam = {}
    for s in range(S + 1):
        lam[s] = {d: AbHom.identity(witt_tower[s].green.level(d))
                  for d in witt_tower[s].group.divisors}
    compat = {}
    for s in range(S + 1):
        for smaller in range(s):
            comps = {}
            for d in divisors(p ** smaller * n):
                a = witt_tower[s].green.level(d)
                b = witt_tower[smaller].green.level(d)
                comps[d] = AbHom(a, b, abgroups.identity_matrix(a.ngens),
                                 check=True)
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


def with_scaled_transfer(data, s, pair, factor):
    """Copy of the data with one transfer of tower s scaled; breaks the
    res tr = [L:H] axiom."""
    tower = data.towers[s]
    mk = tower.green0.mackey
    tr = dict(mk.tr)
    tr[pair] = tr[pair].scale_by(factor)
    bad_mk = MackeyFunctor(mk.group, mk.levels, mk.res, tr, mk.weyl)
    bad_green = GreenFunctor(bad_mk, tower.green0.mul, tower.green0.one)
    towers = list(data.towers)
    towers[s] = GradedTower(bad_green, tower.higher, tower.pairings)
    return WittComplexData(data.base, data.p, data.S, data.D, towers,
                           data.witt_tower, data.d_maps, data.r_maps,
                           data.lam, data.compat, data.classical_base)


def with_identity_differential(data, s):
    """Copy with degree 1 = degree 0 and d = identity; breaks Leibniz
    (d(xy) = xy but x dy + dx y = 2xy)."""
    towers = list(data.towers)
    tower = towers[s]
    green0 = tower.green0
    higher = dict(tower.higher)
    higher[1] = green0.mackey
    pairings = dict(tower.pairings)
    pairings[(0, 1)] = {d: green0.mul[d] for d in tower.group.divisors}
    pairings[(1, 0)] = {d: green0.mul[d] for d in tower.group.divisors}
    towers[s] = GradedTower(green0, higher, pairings)
    d_maps = {key: dict(val) for key, val in data.d_maps.items()}
    d_maps[(s, 0)] = {d: AbHom.identity(green0.level(d))
                      for d in tower.group.divisors}
    return WittComplexData(data.base, data.p, data.S, max(data.D, 1),
                           towers, data.witt_tower, d_maps, data.r_maps,
                           data.lam, data.compat, data.classical_base)


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

    results = []
    results.append(_axiom_compat(data))
    results.append(_axiom_d_squared(data))
    results.append(_axiom_leibniz(data))
    results.append(_axiom_lambda_r(data))
    results.append(_axiom_d_r(data))
    results.append(_axiom_res_tr_index(data))
    results.append(_axiom_res_d_tr(data))
    results.append(_axiom_lift_rule(data))
    return AxiomReport(results)


def _fail(name, **witness):
    witness = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in witness.items()}
    return AxiomResult(name, "FAIL", witness)


def _first_difference(lhs, rhs):
    """Witness fields for the first generator on which two homs
    differ."""
    for i, (a, b) in enumerate(zip(lhs.matrix, rhs.matrix)):
        if lhs.target.canonical(a) != rhs.target.canonical(b):
            return {"generator": i, "lhs": a, "rhs": b}


def _axiom_compat(data):
    name = "compatibility isomorphisms"
    for (s, smaller), per_degree in sorted(data.compat.items()):
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
            from .tambara import GreenMap
            GreenMap(restricted, target, comps)
        except (MackeyAxiomFailure, TambaraAxiomFailure, ValueError) as exc:
            return _fail(name, towers=[s, smaller], reason=str(exc))
        # d-compatibility: compat . d == d . compat in supplied degrees
        for d in restricted.mackey.group.divisors:
            f0 = comps[d]
            f1 = per_degree.get(1, {}).get(d)
            dd_big = data.differential(s, 0, d)
            dd_small = data.differential(smaller, 0, d)
            if f1 is None:
                if not dd_small.compose(f0).is_zero_hom():
                    return _fail(name, towers=[s, smaller], level=d,
                                 reason="differential not preserved")
            else:
                if not dd_small.compose(f0).equal(f1.compose(dd_big)):
                    return _fail(name, towers=[s, smaller], level=d,
                                 reason="differential not preserved")
    return AxiomResult(name, "PASS")


def _axiom_d_squared(data):
    name = "d^2 = 0"
    for s in range(data.S + 1):
        tower = data.towers[s]
        for q in range(data.D):
            for d in tower.group.divisors:
                comp = data.differential(s, q + 1, d).compose(
                    data.differential(s, q, d))
                if not comp.is_zero_hom():
                    gens = [i for i in range(comp.source.ngens)
                            if not comp.target.is_zero(comp.matrix[i])]
                    return _fail(name, tower=s, degree=q, level=d,
                                 generator=gens[0])
    return AxiomResult(name, "PASS")


def _axiom_leibniz(data):
    name = "Leibniz rule"
    for s in range(data.S + 1):
        tower = data.towers[s]
        for d in tower.group.divisors:
            level = tower.level(0, d)
            dd = data.differential(s, 0, d)
            for i in range(level.ngens):
                x = unit_vector(level.ngens, i)
                for j in range(level.ngens):
                    y = unit_vector(level.ngens, j)
                    lhs = dd.apply(tower.multiply(d, 0, x, 0, y))
                    rhs = tower.level(1, d).add(
                        tower.multiply(d, 1, dd.apply(x), 0, y),
                        tower.multiply(d, 0, x, 1, dd.apply(y)))
                    if not tower.level(1, d).equal(lhs, rhs):
                        return _fail(name, tower=s, level=d, x=x, y=y,
                                     lhs=lhs, rhs=rhs)
    return AxiomResult(name, "PASS")


def _axiom_lambda_r(data):
    name = "lambda r = r lambda"
    pnu = data.p ** data.nu
    for s in range(data.nu, data.S + 1):
        witt_r = restriction_r(data.witt_tower[s])
        for d in data.towers[s - data.nu].group.divisors:
            lhs = data.r_maps[s][0][d].compose(data.lam[s][d * pnu])
            rhs = data.lam[s - data.nu][d].compose(witt_r.components[d])
            if not lhs.equal(rhs):
                return _fail(name, tower=s, level=d,
                             **_first_difference(lhs, rhs))
    return AxiomResult(name, "PASS")


def _axiom_d_r(data):
    name = "d r = r d"
    pnu = data.p ** data.nu
    for s in range(data.nu, data.S + 1):
        for q in range(data.D + 1):
            rq = data.r_maps[s].get(q)
            rq1 = data.r_maps[s].get(q + 1)
            if rq is None:
                continue
            for d in data.towers[s - data.nu].group.divisors:
                lhs = data.differential(s - data.nu, q, d).compose(rq[d])
                dd = data.differential(s, q, d * pnu)
                if rq1 is not None and d in rq1:
                    rhs = rq1[d].compose(dd)
                else:
                    rhs = AbHom.zero(lhs.source, lhs.target)
                if not lhs.equal(rhs):
                    return _fail(name, tower=s, degree=q, level=d)
    return AxiomResult(name, "PASS")


def _axiom_res_tr_index(data):
    name = "res tr = [L:H]"
    for s in range(data.S + 1):
        tower = data.towers[s]
        for q in range(data.D + 1):
            mk = tower.degree(q)
            for (e, d) in tower.group.comparable_pairs():
                lhs = mk.res_map(d, e).compose(mk.tr_map(e, d))
                rhs = AbHom.scalar(mk.level(e), d // e)
                if not lhs.equal(rhs):
                    return _fail(name, tower=s, degree=q, pair=[e, d],
                                 **_first_difference(lhs, rhs))
    return AxiomResult(name, "PASS")


def _axiom_res_d_tr(data):
    name = "res d tr = d"
    for s in range(data.S + 1):
        tower = data.towers[s]
        for q in range(data.D + 1):
            mk_q = tower.degree(q)
            mk_q1 = tower.degree(q + 1)
            for (e, d) in tower.group.comparable_pairs():
                lhs = mk_q1.res_map(d, e).compose(
                    data.differential(s, q, d)).compose(mk_q.tr_map(e, d))
                rhs = data.differential(s, q, e)
                if not lhs.equal(rhs):
                    return _fail(name, tower=s, degree=q, pair=[e, d])
    return AxiomResult(name, "PASS")


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
    name = "F d lambda lift rule"
    p, n = data.p, data.n
    for k in range(1, data.S + 1):
        high = data.towers[k]
        low = data.towers[k - 1]
        compat = data.compat.get((k, k - 1), {})
        for m in divisors(n):
            top = p ** k * m
            lowtop = p ** (k - 1) * m
            for a in _sample_base_elements(data.base, m):
                lift_k = multiplicative_lift(data.witt_tower[k], a, m)
                x0 = data.lam[k][top].apply(lift_k)
                dx = data.differential(k, 0, top).apply(x0)
                fdx = high.degree(1).res_map(top, lowtop).apply(dx)
                c1 = compat.get(1, {}).get(lowtop)
                if c1 is not None:
                    lhs = c1.apply(fdx)
                elif not any(fdx):
                    lhs = low.level(1, lowtop).zero()
                else:
                    return _fail(name, tower=k, level=m, element=a,
                                 reason="no degree-1 compatibility witness"
                                 " for a nonzero left side")
                lift_km1 = multiplicative_lift(data.witt_tower[k - 1], a, m)
                y0 = data.lam[k - 1][lowtop].apply(lift_km1)
                dy = data.differential(k - 1, 0, lowtop).apply(y0)
                rhs = low.multiply(lowtop, 0,
                                   low.green0.power(lowtop, y0, p - 1), 1, dy)
                if not low.level(1, lowtop).equal(lhs, rhs):
                    return _fail(name, tower=k, level=m, element=a,
                                 lhs=lhs, rhs=rhs)
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
        target = self.level(s, q1 + q2)
        table = self.pairings.get(s, {}).get((q1, q2))
        if table is None:
            if target.ngens == 0 or not (any(x) and any(y)):
                return target.zero()
            raise MalformedData(
                "missing pairing at B_%d degrees (%d, %d)" % (s, q1, q2))
        return abgroups.bilinear(table, x, y, target.ngens)


def _witt_op_hom(pres_from, pres_to, fn):
    rows = [pres_to.encode(fn(g)) for g in pres_from.gens]
    return AbHom(pres_from.group, pres_to.group, rows, check=True)


def check_classical(cdata):
    """Verify the classical Witt complex axioms on finite truncations."""
    p = cdata.p
    if p == 2:
        raise EvenPrime("classical Witt complexes need an odd prime")
    if not is_prime(p):
        raise MalformedData("p = %d is not prime" % p)
    A_pres = cdata.witt_pres[1]
    _assert_p_local([("A", A_pres.group)], p, "base ring")

    results = []
    results.append(_cl_d_squared(cdata))
    results.append(_cl_leibniz(cdata))
    results.append(_cl_lambda_strict(cdata))
    results.append(_cl_lambda_F(cdata))
    results.append(_cl_lambda_V(cdata))
    results.append(_cl_FV(cdata))
    results.append(_cl_FdV(cdata))
    results.append(_cl_module(cdata))
    results.append(_cl_lift_rule(cdata))
    return AxiomReport(results)


def _cl_d_squared(cdata):
    name = "d^2 = 0"
    for s in range(1, cdata.S + 2):
        for q in range(cdata.D):
            comp = cdata.differential(s, q + 1).compose(
                cdata.differential(s, q))
            if not comp.is_zero_hom():
                return _fail(name, ring=s, degree=q)
    return AxiomResult(name, "PASS")


def _cl_leibniz(cdata):
    name = "Leibniz rule"
    for s in range(1, cdata.S + 2):
        level = cdata.level(s, 0)
        dd = cdata.differential(s, 0)
        for i in range(level.ngens):
            x = unit_vector(level.ngens, i)
            for j in range(level.ngens):
                y = unit_vector(level.ngens, j)
                lhs = dd.apply(cdata.multiply(s, 0, x, 0, y))
                rhs = cdata.level(s, 1).add(
                    cdata.multiply(s, 1, dd.apply(x), 0, y),
                    cdata.multiply(s, 0, x, 1, dd.apply(y)))
                if not cdata.level(s, 1).equal(lhs, rhs):
                    return _fail(name, ring=s, x=x, y=y, lhs=lhs, rhs=rhs)
    return AxiomResult(name, "PASS")


def _cl_lambda_strict(cdata):
    name = "lambda is a strict pro-map"
    for s in range(2, cdata.S + 2):
        wr = WittRing(cdata.p, s, cdata.ring_spec)
        r_w = _witt_op_hom(cdata.witt_pres[s], cdata.witt_pres[s - 1],
                           wr.restriction)
        lhs = cdata.restr[s][0].compose(cdata.lam[s])
        rhs = cdata.lam[s - 1].compose(r_w)
        if not lhs.equal(rhs):
            return _fail(name, ring=s)
    return AxiomResult(name, "PASS")


def _cl_lambda_F(cdata):
    name = "lambda F = F lambda"
    for s in range(2, cdata.S + 2):
        wr = WittRing(cdata.p, s, cdata.ring_spec)
        f_w = _witt_op_hom(cdata.witt_pres[s], cdata.witt_pres[s - 1],
                           wr.frobenius)
        lhs = cdata.F[s][0].compose(cdata.lam[s])
        rhs = cdata.lam[s - 1].compose(f_w)
        if not lhs.equal(rhs):
            return _fail(name, ring=s)
    return AxiomResult(name, "PASS")


def _cl_lambda_V(cdata):
    name = "lambda V = V lambda"
    for s in range(1, cdata.S + 1):
        longer = WittRing(cdata.p, s + 1, cdata.ring_spec)
        v_w = _witt_op_hom(cdata.witt_pres[s], cdata.witt_pres[s + 1],
                           longer.verschiebung)
        lhs = cdata.V[s][0].compose(cdata.lam[s])
        rhs = cdata.lam[s + 1].compose(v_w)
        if not lhs.equal(rhs):
            return _fail(name, ring=s)
    return AxiomResult(name, "PASS")


def _cl_FV(cdata):
    name = "F V = p"
    for s in range(1, cdata.S + 1):
        for q in range(cdata.D + 1):
            lhs = cdata.F[s + 1][q].compose(cdata.V[s][q])
            rhs = AbHom.scalar(cdata.level(s, q), cdata.p)
            if not lhs.equal(rhs):
                return _fail(name, ring=s, degree=q,
                             **_first_difference(lhs, rhs))
    return AxiomResult(name, "PASS")


def _cl_FdV(cdata):
    name = "F d V = d"
    for s in range(1, cdata.S + 1):
        for q in range(cdata.D + 1):
            lhs = cdata.F[s + 1][q + 1].compose(
                cdata.differential(s + 1, q)).compose(cdata.V[s][q]) \
                if (q + 1) in cdata.F[s + 1] else None
            if lhs is None:
                lhs = AbHom.zero(cdata.level(s, q), cdata.level(s, q + 1))
                mid = cdata.differential(s + 1, q).compose(cdata.V[s][q])
                if not mid.is_zero_hom():
                    return _fail(name, ring=s, degree=q,
                                 reason="no degree-%d F supplied" % (q + 1))
            rhs = cdata.differential(s, q)
            if not lhs.equal(rhs):
                return _fail(name, ring=s, degree=q)
    return AxiomResult(name, "PASS")


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
    name = "F d lambda lift rule"
    p = cdata.p
    for k in range(1, cdata.S + 1):
        wr_high = WittRing(p, k + 1, cdata.ring_spec)
        wr_low = WittRing(p, k, cdata.ring_spec)
        for a in _cl_base_elements(cdata):
            x0 = cdata.lam[k + 1].apply(
                cdata.witt_pres[k + 1].encode(wr_high.teichmuller(a)))
            dx = cdata.differential(k + 1, 0).apply(x0)
            fq = cdata.F[k + 1].get(1)
            if fq is None:
                if any(dx):
                    return _fail(name, ring=k, element=repr(a),
                                 reason="no degree-1 F supplied")
                lhs = cdata.level(k, 1).zero()
            else:
                lhs = fq.apply(dx)
            y0 = cdata.lam[k].apply(
                cdata.witt_pres[k].encode(wr_low.teichmuller(a)))
            dy = cdata.differential(k, 0).apply(y0)
            power = None  # y0^(p-1)
            for _ in range(p - 1):
                power = y0 if power is None else cdata.multiply(
                    k, 0, power, 0, y0)
            rhs = cdata.multiply(k, 0, power, 1, dy)
            if not cdata.level(k, 1).equal(lhs, rhs):
                return _fail(name, ring=k, element=repr(a), lhs=lhs,
                             rhs=rhs)
    return AxiomResult(name, "PASS")


# ---------------------------------------------------------------------------
# specialization to n = 1


def specialize_n1(data):
    """Extract the top-orbit pro-DGA B_{s+1} = E[s](C_{p^s}/C_{p^s})."""
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
        tabs = {(0, 0): tower.green0.mul[top]}
        for (q1, q2), table in tower.pairings.items():
            tabs[(q1, q2)] = table[top]
        pairings[s + 1] = tabs
        d_maps[s + 1] = {q: data.differential(s, q, top)
                         for q in range(D + 1)}
        theta = data.classical_base.theta[s]
        quotient = data.witt_tower[s].q.components[top]
        rows = [quotient.apply(theta(g)) for g in witt_pres[s + 1].gens]
        theta_hom = AbHom(witt_pres[s + 1].group,
                          data.witt_tower[s].green.level(top), rows,
                          check=True)
        lam[s + 1] = data.lam[s][top].compose(theta_hom)
        if s >= 1:
            lowtop = p ** (s - 1)
            F[s + 1] = {q: tower.degree(q).res_map(top, lowtop)
                        for q in range(D + 2)}
            V[s] = {q: tower.degree(q).tr_map(lowtop, top)
                    for q in range(D + 1)}
            restr[s + 1] = {q: data.r_maps[s][q][lowtop]
                            for q in sorted(data.r_maps[s])}
    return ClassicalWittData(p, spec, S, D, levels, pairings, F, V, restr,
                             d_maps, lam, witt_pres)
