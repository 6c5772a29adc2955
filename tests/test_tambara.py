"""Tests for Green and Tambara functors, norms, and the norm functor.

Burnside norms are checked against a direct function-enumeration
oracle: realize an honest G-set, enumerate the twisted function set
Map_{C_{d'}}(C_d, X) and count orbits with their stabilizers.
"""

import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittlab
import witt_tables_reference as reference
from wittlab.abgroups import AbHom, FgAbGroup
from wittlab.errors import (ActionOrderInvalid, NotASubgroup, PrimeDividesN,
                            TambaraAxiomFailure, UnsupportedInput,
                            WittlabError)
from wittlab.mackey import MackeyFunctor, box_product, divisors
from wittlab.rings import (IntegerRing, ModularRing, PolynomialRing,
                           parse_ring)
from wittlab.tambara import (ActionRing, GreenFunctor, GreenMap,
                             burnside_from_marks, burnside_tambara,
                             burnside_to_marks, constant_tambara,
                             fixed_point_tambara, green_from_json,
                             norm_functor, present_witt_ring,
                             split_p_part, tambara_from_json, zeta_green)
from wittlab.eqwitt import equivariant_witt, restriction_r
from wittlab.witt import WittRing, witt_from_ghost_over_z
from wittlab.wittcomplex import degree_zero_family


def norm_by_function_enumeration(dsub, d, orbit_stabilizers):
    """Enumeration oracle for Burnside norms on an honest C_dsub-set.

    ``orbit_stabilizers`` lists the stabilizer order e | dsub of each
    orbit.  Returns coordinates over the orbit basis of A(C_d).
    """
    points = []
    for oi, e in enumerate(orbit_stabilizers):
        for j in range(dsub // e):
            points.append((oi, j))
    index = {pt: i for i, pt in enumerate(points)}

    def act(i):
        oi, j = points[i]
        size = dsub // orbit_stabilizers[oi]
        return index[(oi, (j + 1) % size)]

    s = d // dsub
    counts = {e: 0 for e in divisors(d)}
    visited = set()
    for f in iproduct(range(len(points)), repeat=s):
        if f in visited:
            continue
        orbit = []
        cur = f
        while cur not in orbit:
            orbit.append(cur)
            visited.add(cur)
            cur = cur[1:] + (act(cur[0]),)
        stab_order = d // len(orbit)
        counts[stab_order] += 1
    divs = divisors(d)
    return tuple(counts[e] for e in divs)


class TestBurnsideGreen:
    def test_orbit_product(self):
        t = burnside_tambara(3)
        free = (1, 0)  # [C3/e]
        assert t.green.multiply(3, free, free) == (3, 0)

    def test_validates(self):
        rng = random.Random(0)
        for n in (1, 2, 3, 6):
            t = burnside_tambara(n)
            t.green.validate_green()
            t.validate_tambara(rng)

    def test_marks_round_trip(self):
        rng = random.Random(1)
        for d in (2, 3, 6, 12):
            for _ in range(10):
                x = tuple(rng.randint(-5, 5) for _ in divisors(d))
                assert burnside_from_marks(d, burnside_to_marks(d, x)) == x


class TestBurnsideNorms:
    def test_norm_of_two_element_set(self):
        t = burnside_tambara(3)
        # 2 in A(e) is a 2-element trivial set; 8 functions C_3 -> {0,1}
        got = t.internal_norm((2,), 1, 3)
        oracle = norm_by_function_enumeration(1, 3, [1, 1])
        assert got == oracle == (2, 2)

    def test_norm_against_enumeration_oracle(self):
        t = burnside_tambara(6)
        cases = [
            (1, 2, [1, 1, 1]),
            (1, 3, [1]),
            (2, 6, [1, 2]),      # one free orbit and one fixed point
            (2, 6, [2, 2]),
            (3, 6, [1, 3]),
        ]
        for dsub, d, orbits in cases:
            x = [0] * len(divisors(dsub))
            for e in orbits:
                x[divisors(dsub).index(e)] += 1
            got = t.internal_norm(tuple(x), dsub, d)
            assert got == norm_by_function_enumeration(dsub, d, orbits)

    def test_norm_transitivity(self):
        t = burnside_tambara(12)
        rng = random.Random(2)
        for _ in range(10):
            x = tuple(rng.randint(-3, 3) for _ in divisors(1))
            one_step = t.internal_norm(x, 1, 12)
            via = t.internal_norm(t.internal_norm(x, 1, 2), 2, 12)
            assert one_step == via

    def test_res_norm_power_on_integers(self):
        for k in (1, 2):
            t = burnside_tambara(3 ** k)
            for x in range(-5, 6):
                n = t.internal_norm((x,), 1, 3 ** k)
                down = t.mackey.res_map(3 ** k, 1).apply(n)
                assert down == (x ** (3 ** k),)

    def test_not_a_subgroup(self):
        t = burnside_tambara(6)
        with pytest.raises(NotASubgroup):
            t.internal_norm((1, 0), 2, 3)


class TestFixedPointTambara:
    def test_constant_f3_norm_is_square(self):
        r = constant_tambara(ModularRing(3), 2)
        pres = r.norm_class.presentation
        for a in range(3):
            got = r.internal_norm(pres.encode(a), 1, 2)
            assert r.green.level(2).equal(got, pres.encode((a * a) % 3))

    def test_norm_not_additive_over_z(self):
        r = constant_tambara(IntegerRing(), 2)
        # n(1 + 1) = 4, not 2
        assert r.internal_norm((2,), 1, 2) == (4,)

    def test_res_norm_is_weyl_orbit_product(self):
        rng = random.Random(3)
        z2 = FgAbGroup.free(2)
        swap = AbHom(z2, z2, [[0, 1], [1, 0]])
        ring = ActionRing(z2, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]],
                          (1, 1), swap)
        t = fixed_point_tambara(ring, 2)
        t.green.validate_green()
        t.validate_tambara(rng)
        # explicitly: res(norm(x)) = x * swap(x) at the bottom
        x = (2, 5)
        n = t.internal_norm(x, 1, 2)
        down = t.mackey.res_map(2, 1).apply(n)
        expected = ring.multiply(x, swap.apply(x))
        assert t.green.level(1).equal(down, expected)

    def test_validates_on_battery(self):
        rng = random.Random(4)
        for spec, n in ((ModularRing(3), 2), (ModularRing(4), 1),
                        (IntegerRing(), 2)):
            t = constant_tambara(spec, n)
            t.green.validate_green()
            t.validate_tambara(rng)

    def test_action_order_must_divide_n(self):
        z2 = FgAbGroup.free(2)
        swap = AbHom(z2, z2, [[0, 1], [1, 0]])
        ring = ActionRing(z2, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]],
                          (1, 1), swap)
        with pytest.raises(ActionOrderInvalid):
            fixed_point_tambara(ring, 3)

    def test_action_must_be_ring_automorphism(self):
        z = FgAbGroup.free(1)
        with pytest.raises(ValueError):
            ActionRing(z, [[(1,)]], (1,), AbHom(z, z, [[-1]]))


class TestNormFunctor:
    def test_burnside_class(self):
        out = norm_functor(burnside_tambara(2), 3, 1)
        assert out.norm_class.tag == "burnside"
        assert out.group.N == 6
        ref = burnside_tambara(6)
        for d in divisors(6):
            assert out.green.mul[d] == ref.green.mul[d]
            assert out.green.one[d] == ref.green.one[d]

    def test_prime_divides_n(self):
        with pytest.raises(PrimeDividesN):
            norm_functor(burnside_tambara(3), 3, 1)
        with pytest.raises(PrimeDividesN):
            norm_functor(constant_tambara(ModularRing(3), 2), 2, 1)

    def test_unsupported_inputs(self):
        z2 = FgAbGroup.free(2)
        swap = AbHom(z2, z2, [[0, 1], [1, 0]])
        ring = ActionRing(z2, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]],
                          (1, 1), swap)
        t = fixed_point_tambara(ring, 2)
        with pytest.raises(UnsupportedInput):
            norm_functor(t, 3, 1)

    def test_constant_tower_shape(self):
        rng = random.Random(5)
        w = norm_functor(constant_tambara(ModularRing(3), 2), 3, 1)
        w.green.validate_green()
        w.validate_tambara(rng)
        levels = {d: w.green.level(d).invariant_factors for d in divisors(6)}
        assert levels == {1: (3,), 2: (3,), 3: (9,), 6: (9,)}

    def test_constant_tower_maps_are_witt_operators(self):
        w = norm_functor(constant_tambara(ModularRing(3), 1), 3, 2)
        pres = w.norm_class.presentations
        rings = w.norm_class.witt_rings
        # res along p = Frobenius, tr = Verschiebung, exhaustively
        for q in (1, 2):
            res = w.mackey.res[(3 ** q, 3 ** (q - 1))]
            tr = w.mackey.tr[(3 ** (q - 1), 3 ** q)]
            for x in rings[q].elements():
                got = res.apply(pres[q].encode(x))
                assert pres[q - 1].group.equal(
                    got, pres[q - 1].encode(rings[q].frobenius(x)))
            for y in rings[q - 1].elements():
                got = tr.apply(pres[q - 1].encode(y))
                assert pres[q].group.equal(
                    got, pres[q].encode(rings[q].verschiebung(y)))

    def test_mixed_orbit_box_consistency(self):
        # the closed form at the free orbit agrees with the box-product
        # decomposition M^{[] p} of the underlying Mackey functor
        r = constant_tambara(ModularRing(3), 2)
        w = norm_functor(r, 3, 1)
        cube = box_product(r.mackey,
                           box_product(r.mackey, r.mackey))
        assert cube.level(1).invariant_factors == \
            w.green.level(1).invariant_factors == (3,)

    def test_z9_identification(self):
        w = norm_functor(constant_tambara(ModularRing(3), 2), 3, 1)
        assert w.green.level(3).invariant_factors == (9,)
        # restriction to the free orbit is reduction mod 3
        res = w.mackey.res_map(3, 1)
        unit3 = w.green.one[3]
        unit1 = w.green.one[1]
        lvl1 = w.green.level(1)
        for c in range(9):
            got = res.apply(tuple(c * v for v in unit3))
            assert lvl1.equal(got, tuple((c % 3) * v for v in unit1))


class ExactWittPresentation:
    """The V^j(1) presentation of W_k(Z/m) with exact ghost vectors over
    Z: decode solves with witt_from_ghost_over_z, encode lifts the
    coordinates to Z.  Entries grow p^k-fold; a test oracle only.
    Without ``rels`` the relations are built the slow way too."""

    def __init__(self, wr, rels=None):
        self.wr = wr
        self.p, self.k, self.m = wr.p, wr.k, wr.ring.modulus
        if rels is None:
            k, m = self.k, self.m
            self.rels = [None] * k
            for j in reversed(range(k)):
                row = [-c for c in self.encode(self.decode(
                    [m if i == j else 0 for i in range(k)]))]
                row[j] += m
                self.rels[j] = row
        else:
            self.rels = [list(r) for r in rels]

    def decode(self, vec):
        ghost = []
        acc = 0
        for j, c in enumerate(vec):
            acc += c * self.p ** j
            ghost.append(acc)
        return self.wr.vector(witt_from_ghost_over_z(self.p, ghost))

    def encode(self, w):
        p, m = self.p, self.m
        out = []
        prev = 0
        for n in range(self.k):
            g = sum(p ** i * w.coords[i] ** p ** (n - i)
                    for i in range(n + 1))
            out.append((g - prev) // p ** n)
            prev = g
        for j, row in enumerate(self.rels):
            q = out[j] // m
            if q:
                out = [a - q * b for a, b in zip(out, row)]
        return tuple(out)


class TestPresentations:
    # invariant factors recorded from the enumerating (BFS) presenter
    # that the V^j(1) presentation replaced
    @pytest.mark.parametrize("p, k, m, factors", [
        pytest.param(3, 2, 4, (4, 4), id="p3-k2-m4"),
        pytest.param(3, 3, 3, (27,), id="p3-k3-m3"),
        pytest.param(2, 3, 4, (2, 2, 16), id="p2-k3-m4"),
        pytest.param(2, 2, 6, (3, 12), id="p2-k2-m6"),
        pytest.param(5, 2, 6, (6, 6), id="p5-k2-m6"),
        pytest.param(3, 2, 9, (3, 27), id="p3-k2-m9"),
        pytest.param(3, 2, 1, (), id="p3-k2-m1"),
    ])
    def test_finite_witt_presentation_faithful(self, p, k, m, factors):
        # wr.add/wr.mul (ghost lift modulo m p^k, checked against the
        # universal polynomials in test_witt) are the oracle for the
        # encoder, which works on exact ghost vectors over Z
        wr = WittRing(p, k, ModularRing(m))
        pres = present_witt_ring(wr)
        group = pres.group
        assert group.order() == m ** k
        assert group.invariant_factors == factors
        ring = ActionRing(group, pres.mul, pres.one, AbHom.identity(group))
        elements = list(wr.elements())
        codes = [pres.encode(x) for x in elements]
        assert len({group.canonical(c) for c in codes}) == len(elements)
        for x, cx in zip(elements, codes):
            assert wr.eq(pres.decode(cx), x)
            for y, cy in zip(elements, codes):
                assert group.equal(pres.encode(wr.add(x, y)),
                                   group.add(cx, cy))
                assert group.equal(pres.encode(wr.mul(x, y)),
                                   ring.multiply(cx, cy))

    @pytest.mark.parametrize("p, k, m", [
        pytest.param(3, 4, 9, id="p3-k4-m9"),
        pytest.param(2, 5, 4, id="p2-k5-m4"),
        pytest.param(5, 3, 6, id="p5-k3-m6"),
        pytest.param(2, 4, 12, id="p2-k4-m12"),
        pytest.param(3, 3, 1, id="p3-k3-m1"),
        pytest.param(7, 3, 49, id="p7-k3-m49"),
    ])
    def test_bounded_presentation_matches_exact(self, p, k, m):
        # over Z/m encode and decode work modulo (m p)^k and m p^k; the
        # exact-Z formulas, with witt_from_ghost_over_z, are the oracle
        wr = WittRing(p, k, ModularRing(m))
        pres = present_witt_ring(wr)
        exact = ExactWittPresentation(wr)
        assert pres.group.relations == tuple(map(tuple, exact.rels))
        rng = random.Random(p * k * m)
        for _ in range(25):
            w = wr.vector([rng.randrange(m) for _ in range(k)])
            assert pres.encode(w) == exact.encode(w)
            c = [rng.randint(-3 * m, 3 * m) for _ in range(k)]
            assert pres.decode(c).coords == exact.decode(c).coords
            assert pres.encode(pres.decode(c)) == exact.encode(
                exact.decode(c))

    def test_bounded_presentation_at_k13(self):
        # the exact decode takes seconds here, so decode is checked by
        # round trips through the exact encode
        p, k, m = 3, 13, 9
        wr = WittRing(p, k, ModularRing(m))
        pres = present_witt_ring(wr)
        exact = ExactWittPresentation(wr, pres.group.relations)
        assert pres.group.order() == m ** k
        rng = random.Random(13)
        for _ in range(5):
            w = wr.vector([rng.randrange(m) for _ in range(k)])
            code = pres.encode(w)
            assert code == exact.encode(w)
            assert all(0 <= c < m for c in code)
            assert pres.decode(code).coords == w.coords
            x = wr.vector([rng.randrange(m) for _ in range(k)])
            assert pres.group.equal(pres.encode(wr.mul(w, x)),
                                    exact.encode(wr.mul(w, x)))

    def test_f3_relations_are_triangular(self):
        pres = present_witt_ring(WittRing(3, 3, ModularRing(3)))
        assert pres.group.relations == ((3, -1, 0), (0, 3, -1), (0, 0, 3))

    def test_unsupported_carrier(self):
        with pytest.raises(UnsupportedInput):
            present_witt_ring(WittRing(3, 2, PolynomialRing(1)))
        with pytest.raises(UnsupportedInput):
            constant_tambara(PolynomialRing(1), 1)

    def test_integer_witt_presentation(self):
        wr = WittRing(3, 3, IntegerRing())
        pres = present_witt_ring(wr)
        rng = random.Random(6)
        for _ in range(20):
            x = wr.vector([rng.randint(-9, 9) for _ in range(3)])
            assert wr.eq(pres.decode(pres.encode(x)), x)
            y = wr.vector([rng.randint(-9, 9) for _ in range(3)])
            # encoding is additive
            assert pres.group.equal(
                pres.encode(wr.add(x, y)),
                pres.group.add(pres.encode(x), pres.encode(y)))
            # over Z decode is the exact triangular solve
            c = [rng.randint(-50, 50) for _ in range(3)]
            ghost = [sum(c[j] * 3 ** j for j in range(n + 1))
                     for n in range(3)]
            assert pres.decode(c).coords == witt_from_ghost_over_z(3, ghost)


def _carrier(m):
    return IntegerRing() if m == 0 else ModularRing(m)


@lru_cache(maxsize=None)
def _presentation(p, k, m):
    return present_witt_ring(WittRing(p, k, _carrier(m)))


class TestClosedFormTables:
    """The tables read off the basis V^j(1) are, entry for entry, the
    encoded Witt arithmetic of ``witt_tables_reference``."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 49],
                             ids=lambda m: "Z" if m == 0 else "m%d" % m)
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ring_tables_match_witt_products(self, p, m):
        for k in range(1, 9):
            wr = WittRing(p, k, _carrier(m))
            pres = present_witt_ring(wr)
            assert (pres.mul, pres.one) == reference.ring_tables(pres, wr)

    @pytest.mark.parametrize("ring, n, p", [
        ("Z", 1, 2), ("Z", 2, 3), ("F3", 1, 3), ("Z/9", 2, 3),
        ("Z/4", 1, 2), ("Z/12", 5, 2), ("Z/25", 2, 5), ("Z/6", 1, 5)])
    def test_f_and_v_match_witt_operators(self, ring, n, p):
        w = norm_functor(constant_tambara(parse_ring(ring), n), p, 6)
        mk, tower = w.mackey, w.norm_class
        for d in mk.group.divisors:
            q, _m = split_p_part(d, p)
            if q:
                assert list(mk.res[(d, d // p)].matrix) == \
                    reference.frobenius_rows(tower, q)
                assert list(mk.tr[(d // p, d)].matrix) == \
                    reference.verschiebung_rows(tower, q)

    @pytest.mark.parametrize("p, n, nu", [
        (3, 2, 1), (3, 4, 2), (3, 5, 4), (5, 3, 2)])
    @pytest.mark.parametrize("ring", ["F3", "Z/9", "Z"])
    def test_r_rows_match_restrictions(self, ring, p, n, nu):
        k = nu + 2
        tower = norm_functor(constant_tambara(parse_ring(ring), n), p,
                             k).norm_class
        for d in divisors(p ** (k - nu) * n):
            assert tower.witt_rows(p, nu, d) == \
                reference.restriction_rows(tower, p, nu, d)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6),
           st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 49]),
           st.data())
    def test_reduce_is_a_representative_in_range(self, p, k, m, data):
        pres = _presentation(p, k, m)
        vec = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                 min_size=k, max_size=k))
        got = pres.reduce(vec)
        if m:
            assert all(0 <= c < m for c in got)
        else:
            assert got == tuple(vec)
        assert pres.group.equal(got, vec)

    def test_towers_take_no_witt_arithmetic(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Witt arithmetic in a table")
        for op in ("mul", "frobenius", "verschiebung", "restriction"):
            monkeypatch.setattr(WittRing, op, forbidden)
        for ring in ("F3", "Z/9", "Z"):
            for n in (1, 2):
                w = equivariant_witt(constant_tambara(parse_ring(ring), n),
                                     3, 4)
                assert restriction_r(w).target_witt.k == 3
        family = degree_zero_family(constant_tambara(ModularRing(3), 2), 3, 3)
        assert len(family.witt_tower) == 4


CORRUPT_GREEN = """
from wittlab.errors import WittlabError
from wittlab.rings import ModularRing
from wittlab.tambara import GreenFunctor, constant_tambara
g = constant_tambara(ModularRing(9), 2).green
mul = dict(g.mul)
mul[2] = (((2,),),)
try:
    GreenFunctor(g.mackey, mul, g.one).validate_green()
except WittlabError as exc:
    print("%s: %s" % (type(exc).__name__, exc))
"""


class TestTypedValidation:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_corrupted_green_is_rejected(self, flags):
        # 1 * 1 = 2 at level 2; validation must not rely on assert,
        # which python -O strips
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(wittlab.__file__))
        proc = subprocess.run([sys.executable] + flags + ["-c", CORRUPT_GREEN],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "TambaraAxiomFailure: unit fails at level 2\n"

    def test_bad_norm_is_rejected(self):
        t = constant_tambara(ModularRing(9), 2)
        t.norms[(1, 2)] = lambda x: (2 * x[0],)
        with pytest.raises(TambaraAxiomFailure,
                           match=r"norm does not preserve 1 at \(1, 2\)"):
            t.validate_tambara(random.Random(0))

    @pytest.mark.parametrize("table, key, matrix, message", [
        ("weyl", 2, [[1, 0], [0, 2]], "weyl does not fix the unit at level 2"),
        ("weyl", 2, [[0, 1], [0, 1]], "weyl is not a ring map at level 2"),
        ("res", (2, 1), [[2], [2]],
         r"res does not preserve the unit at \(1, 2\)"),
        ("res", (2, 1), [[1], [1]], r"res is not a ring map at \(1, 2\)"),
    ])
    def test_structure_map_that_is_not_a_ring_map(self, table, key, matrix,
                                                   message):
        # in A(C_2), [C_2/C_1]^2 = 2 [C_2/C_1] and the unit is [C_2/C_2]
        g = burnside_tambara(2).green
        mk = g.mackey
        maps = {"res": dict(mk.res), "weyl": dict(mk.weyl)}
        old = maps[table][key]
        maps[table][key] = AbHom(old.source, old.target, matrix)
        bad = MackeyFunctor(mk.group, mk.levels, maps["res"], mk.tr,
                            maps["weyl"])
        with pytest.raises(TambaraAxiomFailure, match=message):
            GreenFunctor(bad, g.mul, g.one).validate_green()

    def test_non_ring_map_is_rejected(self):
        g = constant_tambara(ModularRing(9), 2).green
        comps = {d: AbHom.scalar(g.level(d), 2) for d in (1, 2)}
        with pytest.raises(TambaraAxiomFailure,
                           match="unit not preserved at level 1"):
            GreenMap(g, g, comps)


class TestZetaGreen:
    def test_transport(self):
        r = norm_functor(constant_tambara(ModularRing(3), 2), 3, 1)
        z = zeta_green(r.green, 3)
        z.validate_green()
        assert z.mackey.N == 2
        assert z.level(1).invariant_factors == (9,)


class TestGreenJson:
    def test_round_trip(self):
        g = burnside_tambara(6).green
        back = green_from_json(g.to_json())
        back.validate_green()
        for d in divisors(6):
            assert back.mul[d] == g.mul[d]


class TestTambaraJson:
    @pytest.mark.parametrize("ring, N", [
        ("burnside", 1), ("burnside", 2), ("burnside", 6),
        ("Z", 1), ("Z", 2), ("F3", 1), ("F3", 2), ("Z/9", 1), ("Z/9", 2)])
    def test_tag_round_trip(self, ring, N):
        R = burnside_tambara(N) if ring == "burnside" else \
            constant_tambara(parse_ring(ring), N)
        data = R.to_json()
        back = tambara_from_json({"norm_class": data["norm_class"], "N": N})
        assert back.to_json() == data

    def test_unknown_tag(self):
        with pytest.raises(WittlabError, match="unsupported norm_class"):
            tambara_from_json({"norm_class": "witt_tower", "N": 2})
