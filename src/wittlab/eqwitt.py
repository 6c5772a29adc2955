"""Equivariant Witt vectors of supported Tambara functors.

W_{C_{p^k n}}(R) is computed as the levelwise Weyl coinvariants of the
norm functor N_{C_n}^{C_{p^k n}} R, with the induced Green structure
and the quotient map q.  The twisted-nerve H_0 (a coequalizer built
from the box product of the norm with itself) is kept as an independent
oracle for the same functor.  Both, like the geometric fixed points
behind r, are quotients on the same generators by ``mackey.quotient``.

Operators: F and V are the restriction and transfer along the
p-direction of the underlying Mackey functor; the restriction map r is
the transfer-quotient projection onto geometric fixed points followed
by the Witt identification; the multiplicative lift is q . n . eta.
"""

from . import abgroups, mackey
from .abgroups import AbHom, unit_vector
from .errors import (InternalInvariantFailure, LengthTooShort, NotApplicable,
                     NotASubgroup)
from .mackey import box_product
from .tambara import GreenFunctor, GreenMap, norm_functor, zeta_green


def multiplicative_order(p, n):
    """Order of p in (Z/n)^*; returns 1 when n = 1."""
    if n == 1:
        return 1
    nu = 1
    acc = p % n
    while acc != 1:
        acc = (acc * p) % n
        nu += 1
        if nu > n:
            raise ValueError("p and n are not coprime")
    return nu


class EquivariantWittFunctor:
    """The Green functor W_{C_{p^k n}}(R) with its operator data."""

    def __init__(self, base, p, k, norm, green, q):
        self.base = base
        self.n = base.group.N
        self.p = p
        self.k = k
        self.nu = multiplicative_order(p, self.n)
        self.norm = norm
        self.green = green
        self.q = q
        self._r = None  # restriction_r's GreenMap, built on first use

    @property
    def group(self):
        return self.green.mackey.group

    def level(self, d):
        return self.green.level(d)

    def orbit_label(self, d):
        return "C%d/C%d" % (self.group.N, d)

    def frobenius_map(self, d):
        """F at the orbit with p | d: res one p-step down."""
        if d % self.p:
            raise NotASubgroup("no p-direction below divisor %d" % d)
        return self.green.mackey.res[(d, d // self.p)]

    def verschiebung_map(self, d):
        """V into the orbit with p | d: tr one p-step up."""
        if d % self.p:
            raise NotASubgroup("no p-direction below divisor %d" % d)
        return self.green.mackey.tr[(d // self.p, d)]

    def lift(self, a, m):
        return multiplicative_lift(self, a, m)

    def __repr__(self):
        return "EquivariantWittFunctor(n=%d, p=%d, k=%d, %s)" % (
            self.n, self.p, self.k, self.norm.norm_class.tag)


def equivariant_witt(R, p, k):
    """W_{C_{p^k n}}(R): Weyl coinvariants of the norm, levelwise."""
    norm_tam = norm_functor(R, p, k)
    nmk = norm_tam.mackey
    levels = {d: mackey.weyl_coinvariants(nmk, d)[0]
              for d in nmk.group.divisors}
    quotient, q = mackey.quotient(nmk, levels)
    green = GreenFunctor(quotient, norm_tam.green.mul, norm_tam.green.one)
    return EquivariantWittFunctor(R, p, k, norm_tam, green, q)


# ---------------------------------------------------------------------------
# the restriction map r


def restriction_r(W):
    """The map r: zeta_{C_{p^nu}} W_{C_{p^k n}}(R) -> W_{C_{p^{k-nu}n}}(R).

    Computed as the projection onto geometric fixed points followed by
    the Witt identification of the norm's class; a map of Green
    functors, so it commutes with F and V by construction.  The
    returned GreenMap carries the target functor as ``target_witt``.
    It is built once per functor and kept on ``W``: later calls return
    the same map, which callers must not mutate.
    """
    if W.k < W.nu:
        raise LengthTooShort("k = %d is below nu = %d" % (W.k, W.nu))
    if W._r is not None:
        return W._r
    return _restriction_r(W, equivariant_witt(W.base, W.p, W.k - W.nu))


def _restriction_r(W, target):
    """restriction_r(W) into a ``target`` that the caller holds, kept on
    ``W`` for later restriction_r calls."""
    pnu = W.p ** W.nu
    phi, proj = mackey.geometric_fixed_points(W.green.mackey, pnu)
    comps = {}
    for d in phi.group.divisors:
        ident = AbHom(phi.level(d), target.green.level(d),
                      W.norm.norm_class.witt_rows(W.p, W.nu, d))
        if not abgroups.is_isomorphism(ident):
            raise InternalInvariantFailure(
                "Witt identification is not an isomorphism at level %d" % d)
        comps[d] = ident.compose(proj.components[d])
    rmap = GreenMap(zeta_green(W.green, pnu), target.green, comps)
    rmap.target_witt = target
    W._r = rmap
    return rmap


# ---------------------------------------------------------------------------
# multiplicative lifts


def embed_base_element(W, a, m):
    """The unit eta of the norm adjunction on coordinates, from the
    norm's class: identity for Burnside, A -> W_1(A) for Witt towers."""
    if W.n % m:
        raise NotASubgroup("%d does not divide %d" % (m, W.n))
    return W.norm.norm_class.embed(a)


def multiplicative_lift(W, a, m):
    """[a]_k = q(n_{C_m}^{C_{p^k m}}(eta(a))), landing at orbit
    C_{p^k n}/C_{p^k m}.  Multiplicative, not additive."""
    eta = embed_base_element(W, a, m)
    top = W.p ** W.k * m
    normed = W.norm.internal_norm(eta, m, top)
    return W.q.components[top].apply(normed)


def check_lift_power(W, a, m):
    """Witness that res-composite of lift(a) is a^{p^k} down at level m."""
    lift = multiplicative_lift(W, a, m)
    top = W.p ** W.k * m
    down = W.green.mackey.res_map(top, m).apply(lift)
    power = W.base.green.power(m, tuple(a), W.p ** W.k)
    expected = W.q.components[m].apply(embed_base_element(W, power, m))
    ok = W.green.level(m).equal(down, expected)
    witness = {"input": list(a), "level": m, "lift": list(lift),
               "res_of_lift": list(down), "power": list(expected),
               "ok": ok}
    return ok, witness


def check_r_lift_identity(W, a):
    """For n = 1: r^k([a]_k) = a, iterating the restriction maps."""
    if W.n != 1:
        raise NotApplicable("r^k lift identity is stated for n = 1 only")
    val = multiplicative_lift(W, a, 1)
    cur = W
    while cur.k > 0:
        rmap = restriction_r(cur)
        val = rmap.components[cur.p ** (cur.k - 1)].apply(val)
        cur = rmap.target_witt
    expected = cur.q.components[1].apply(embed_base_element(cur, a, 1))
    ok = cur.green.level(1).equal(val, expected)
    witness = {"input": list(a), "result": list(val),
               "expected": list(expected), "ok": ok}
    return ok, witness


# ---------------------------------------------------------------------------
# the twisted-nerve H_0 oracle


def hh0_via_nerve(R, p, k):
    """H_0 of the twisted cyclic nerve, computed as the coequalizer of
    d_0 = mu and d_1 = mu . alpha on (N R) [] (N R) -> N R.

    Independent of the coinvariant construction: it goes through the
    box product and the Green multiplication.  Returns the quotient
    Green functor.
    """
    norm_tam = norm_functor(R, p, k)
    nmk = norm_tam.mackey
    box = box_product(nmk, nmk)
    levels = {}
    for d in nmk.group.divisors:
        mu_rows = []
        alpha_rows = []
        for (e, i, j) in box.symbols[d]:
            gi = unit_vector(nmk.level(e).ngens, i)
            gj = unit_vector(nmk.level(e).ngens, j)
            prod = norm_tam.green.multiply(e, gi, gj)
            mu_rows.append(nmk.tr_map(e, d).apply(prod))
            # alpha cycles the last factor to the front and twists it
            alpha_rows.append(box.pure_tensor(d, e, nmk.weyl[e].apply(gj),
                                              gi))
        mu = AbHom(box.level(d), nmk.level(d), mu_rows)
        alpha = AbHom(box.level(d), box.level(d), alpha_rows)
        d1 = mu.compose(alpha)
        levels[d] = abgroups.cokernel(mu.sub(d1))[0]
    quotient, _q = mackey.quotient(nmk, levels)
    return GreenFunctor(quotient, norm_tam.green.mul, norm_tam.green.one)


def nerve_comparison(R, p, k):
    """Levelwise PASS/FAIL of the oracle equivalence hh0 = coinvariants.
    Both present each level on the norm's generators, so they agree when
    each relation lattice lies in the other."""
    nerve = hh0_via_nerve(R, p, k)
    witt = equivariant_witt(R, p, k)
    out = {}
    for d in witt.group.divisors:
        a, b = nerve.level(d), witt.level(d)
        out[d] = (a.ngens == b.ngens and all(map(b.is_zero, a.relations))
                  and all(map(a.is_zero, b.relations)))
    return out
