"""The Witt-ring tables computed by Witt arithmetic: the reference that
the closed forms on the basis V^j(1) are tested against.

``present_witt_ring`` gives each W_k(A) its multiplication table and
unit as reduced closed forms, ``Constant.norm`` the F and V rows of the
Witt tower and ``WittTower.witt_rows`` the rows of R^nu.  Here each is
the presentation's ``encode`` of a ghost-lift product, Frobenius,
Verschiebung or restriction of its generators.
"""

from wittlab.tambara import split_p_part


def ring_tables(pres, wr):
    """(mul, one) of the presentation ``pres`` of ``wr``: encode of the
    products of its generators and of the unit."""
    mul = tuple(tuple(pres.encode(wr.mul(gi, gj)) for gj in pres.gens)
                for gi in pres.gens)
    return mul, pres.encode(wr.one())


def frobenius_rows(tower, q):
    """F: W_{q+1}(A) -> W_q(A) on the generators of level q of the
    ``WittTower``, as rows in the presentation of level q - 1."""
    pres, rings = tower.presentations, tower.witt_rings
    return [pres[q - 1].encode(rings[q].frobenius(g)) for g in pres[q].gens]


def verschiebung_rows(tower, q):
    """V: W_q(A) -> W_{q+1}(A) on the generators of level q - 1 of the
    ``WittTower``, as rows in the presentation of level q."""
    pres, rings = tower.presentations, tower.witt_rings
    return [pres[q].encode(rings[q].verschiebung(g))
            for g in pres[q - 1].gens]


def restriction_rows(tower, p, nu, d):
    """R^nu: W_{q+1}(A) -> W_{q-nu+1}(A) at level d p^nu of the
    ``WittTower``, by nu restrictions of each generator."""
    q, _m = split_p_part(d * p ** nu, p)
    target = tower.presentations[q - nu]
    rows = []
    for gen in tower.presentations[q].gens:
        w = gen
        for step in range(nu):
            w = tower.witt_rings[q - step].restriction(w)
        rows.append(target.encode(w))
    return rows
