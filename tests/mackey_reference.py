"""The Mackey laws checked on every comparable pair: the reference that
``MackeyFunctor.validate``, which checks the double coset law on
covering pairs only, is tested against.

``validate_comparable`` runs the laws in the order of ``validate`` and
raises the same ``MackeyAxiomFailure`` messages.  It rebuilds each
composite ``res_map(d, e)`` and ``tr_map(e, d)`` from the stored maps
and also checks that every transfer coequalizes the Weyl action of its
source.
"""

from wittlab import abgroups
from wittlab.abgroups import AbHom
from wittlab.errors import MackeyAxiomFailure
from wittlab.mackey import prime_steps


def _require(ok, message, *args):
    if not ok:
        raise MackeyAxiomFailure(message % args)


def validate_comparable(M):
    """The full Mackey invariant suite of M, with the double coset law
    on all comparable pairs; raises MackeyAxiomFailure naming the first
    law that fails."""
    N = M.N
    for d in M.group.divisors:
        w = M.weyl[d]
        if not w.power(N // d).equal(AbHom.identity(M.level(d))):
            _require(abgroups.is_isomorphism(w), "weyl[%d] not invertible", d)
            raise MackeyAxiomFailure(
                "weyl[%d] does not have order dividing %d" % (d, N // d))
    for (dsub, d) in M.group.covering_pairs():
        r = M.res[(d, dsub)]
        t = M.tr[(dsub, d)]
        _require(r.compose(M.weyl[d]).equal(M.weyl[dsub].compose(r)),
                 "res and weyl do not commute at (%d, %d)", dsub, d)
        _require(M.weyl[d].compose(t).equal(t.compose(M.weyl[dsub])),
                 "tr and weyl do not commute at (%d, %d)", dsub, d)
        _require(t.compose(M.weyl[dsub].power(N // d)).equal(t),
                 "transfer does not coequalize the Weyl action at %d", d)
    for d in M.group.divisors:
        qs = sorted(set(prime_steps(d)))
        for a in qs:
            for b in qs:
                if a < b:
                    r1 = M.res[(d // a, d // (a * b))].compose(
                        M.res[(d, d // a)])
                    r2 = M.res[(d // b, d // (a * b))].compose(
                        M.res[(d, d // b)])
                    _require(r1.equal(r2), "res transitivity at %d", d)
                    t1 = M.tr[(d // a, d)].compose(
                        M.tr[(d // (a * b), d // a)])
                    t2 = M.tr[(d // b, d)].compose(
                        M.tr[(d // (a * b), d // b)])
                    _require(t1.equal(t2), "tr transitivity at %d", d)
    for (e, d) in M.group.comparable_pairs():
        lhs = M.res_map(d, e).compose(M.tr_map(e, d))
        rhs = AbHom.zero(M.level(e), M.level(e))
        for j in range(d // e):
            rhs = rhs.add(M.weyl[e].power(j * (N // d)))
        _require(lhs.equal(rhs), "double coset law fails at (%d, %d)", e, d)
    return True
