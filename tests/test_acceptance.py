"""Acceptance suite: one test per criterion, exact checks, timed.

Each test prints a single line ``ACCEPTANCE <n> <label>: PASS (<t>s)``
on success; pytest reports failures in the usual way.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
import warnings
from itertools import product as iproduct

import pytest
from dense import identity_matrix

from wittlab.abgroups import AbHom
from wittlab.eqwitt import (check_lift_power, check_r_lift_identity,
                            equivariant_witt, multiplicative_lift,
                            nerve_comparison, restriction_r)
from wittlab.mackey import (MackeyMap, box_product, box_symmetry_map,
                            box_unit_map, burnside, burnside_basis_vector,
                            divisors, fixed_point_mackey,
                            geometric_fixed_points)
from wittlab.abgroups import FgAbGroup, is_isomorphism, tensor
from wittlab.rings import IntegerRing, ModularRing
from wittlab.tambara import burnside_tambara, constant_tambara
from wittlab.witt import WittRing
from wittlab.wittcomplex import (check_classical, check_equivariant,
                                 degree_zero_family, specialize_n1,
                                 with_identity_differential,
                                 with_scaled_transfer)

Z = IntegerRing()
F3 = ModularRing(3)


class Timer:
    def __init__(self, number, label, limit):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %d %s: %s (%.2fs)"
              % (self.number, self.label, status, elapsed))
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, \
                "criterion %d exceeded %.0fs" % (self.number, self.limit)


def test_01_z9_identification():
    with Timer(1, "Z/9 identification", 5.0):
        R = constant_tambara(F3, 2)
        W = equivariant_witt(R, 3, 1)
        assert W.level(3).invariant_factors == (9,)
        # res from C6/C3 to C6/e is reduction mod 3
        res = W.green.mackey.res_map(3, 1)
        one3, one1 = W.green.one[3], W.green.one[1]
        for c in range(9):
            got = res.apply(W.level(3).scale(c, one3))
            assert W.level(1).equal(got, W.level(1).scale(c % 3, one1))


def test_02_lift_values():
    with Timer(2, "lift values 0, 1, -1 in Z/9", 1.0):
        R = constant_tambara(F3, 2)
        W = equivariant_witt(R, 3, 1)
        pres = R.norm_class.presentation
        lvl = W.level(3)
        assert lvl.is_zero(multiplicative_lift(W, pres.encode(0), 1))
        assert lvl.equal(multiplicative_lift(W, pres.encode(1), 1),
                         W.green.one[3])
        assert lvl.equal(multiplicative_lift(W, pres.encode(2), 1),
                         lvl.neg(W.green.one[3]))


def test_03_burnside_witt_vectors():
    with Timer(3, "W(A_{C_2}) = A_{C_6}", 10.0):
        W = equivariant_witt(burnside_tambara(2), 3, 1)
        ref = burnside_tambara(6)
        ranks = {d: len(W.level(d).invariant_factors) for d in divisors(6)}
        assert ranks == {1: 1, 2: 2, 3: 2, 6: 4}
        comps = {d: AbHom(W.level(d), ref.green.level(d),
                          identity_matrix(W.level(d).ngens))
                 for d in divisors(6)}
        m = MackeyMap(W.green.mackey, ref.mackey, comps)  # validates res/tr
        assert m.is_levelwise_isomorphism()


def test_04_burnside_lift_and_power_law():
    with Timer(4, "Burnside lift and p^k-power law", None):
        W = equivariant_witt(burnside_tambara(1), 3, 1)
        lift = multiplicative_lift(W, (2,), 1)
        # enumeration oracle: 8 functions C_3 -> {0, 1}
        funcs = list(iproduct(range(2), repeat=3))
        orbits = {}
        seen = set()
        for f in funcs:
            if f in seen:
                continue
            orbit = {f, f[1:] + f[:1], f[2:] + f[:2]}
            seen |= orbit
            orbits[3 // len(orbit)] = orbits.get(3 // len(orbit), 0) + 1
        expected = (orbits.get(1, 0), orbits.get(3, 0))
        assert lift == expected == (2, 2)
        for k in (1, 2):
            Wk = equivariant_witt(burnside_tambara(1), 3, k)
            for x in range(-5, 6):
                ok, witness = check_lift_power(Wk, (x,), 1)
                assert ok, witness
                down = Wk.green.mackey.res_map(3 ** k, 1).apply(
                    multiplicative_lift(Wk, (x,), 1))
                assert down == (x ** (3 ** k),)


def test_05_classical_witt_rings():
    with Timer(5, "classical Witt ring laws, p in {2,3,5}", 30.0):
        for p in (2, 3, 5):
            wr = WittRing(p, 3, Z)
            bigger = WittRing(p, 4, Z)
            shorter = WittRing(p, 2, Z)
            rng = random.Random(100 + p)
            for _ in range(50):
                x = wr.vector([rng.randint(-6, 6) for _ in range(3)])
                y = wr.vector([rng.randint(-6, 6) for _ in range(3)])
                z = wr.vector([rng.randint(-6, 6) for _ in range(3)])
                # ring axioms via ghost injectivity over Z
                assert wr.ghost(wr.add(x, y)) == tuple(
                    a + b for a, b in zip(wr.ghost(x), wr.ghost(y)))
                assert wr.ghost(wr.mul(x, y)) == tuple(
                    a * b for a, b in zip(wr.ghost(x), wr.ghost(y)))
                assert wr.add(wr.add(x, y), z) == wr.add(x, wr.add(y, z))
                assert wr.mul(wr.mul(x, y), z) == wr.mul(x, wr.mul(y, z))
                assert wr.mul(x, wr.add(y, z)) == \
                    wr.add(wr.mul(x, y), wr.mul(x, z))
                # FV = p through length 4
                assert bigger.frobenius(bigger.verschiebung(x)) == \
                    wr.scalar_mul(p, x)
                # Frobenius reciprocity x V(y') = V(F(x) y')
                yv = shorter.vector([rng.randint(-6, 6) for _ in range(2)])
                assert wr.mul(x, wr.verschiebung(yv)) == \
                    wr.verschiebung(shorter.mul(wr.frobenius(x), yv))
                # F on Teichmuller and R/F commutation
                a = rng.randint(-6, 6)
                assert wr.frobenius(wr.teichmuller(a)) == \
                    shorter.teichmuller(a ** p)
                assert shorter.restriction(wr.frobenius(x)) == \
                    shorter.frobenius(wr.restriction(x))


def test_06_n1_agreement_with_classical():
    with Timer(6, "n=1 towers recover W_{k+1}(A)", None):
        for modulus in (3, 4):
            spec = ModularRing(modulus)
            R = constant_tambara(spec, 1)
            for k in (1, 2):
                W = equivariant_witt(R, 3, k)
                wr_top = WittRing(3, k + 1, spec)
                pres = W.norm.norm_class.presentations
                rings = W.norm.norm_class.witt_rings
                # top level is W_{k+1}(A) via the encoding bijection
                canon = {W.level(3 ** k).canonical(pres[k].encode(x))
                         for x in wr_top.elements()}
                assert len(canon) == modulus ** (k + 1)
                assert W.level(3 ** k).order() == modulus ** (k + 1)
                # F, V match the classical operators exhaustively
                for q in range(1, k + 1):
                    res = W.green.mackey.res[(3 ** q, 3 ** (q - 1))]
                    tr = W.green.mackey.tr[(3 ** (q - 1), 3 ** q)]
                    for x in rings[q].elements():
                        assert pres[q - 1].group.equal(
                            res.apply(pres[q].encode(x)),
                            pres[q - 1].encode(rings[q].frobenius(x)))
                    for y in rings[q - 1].elements():
                        assert pres[q].group.equal(
                            tr.apply(pres[q - 1].encode(y)),
                            pres[q].encode(rings[q].verschiebung(y)))
                # r matches classical restriction R at the top orbit
                if k >= 1:
                    r = restriction_r(W)
                    tgt = r.target_witt
                    tpres = tgt.norm.norm_class.presentations
                    for x in rings[k].elements():
                        got = r.components[3 ** (k - 1)].apply(
                            pres[k].encode(x))
                        want = tpres[k - 1].encode(rings[k].restriction(x))
                        assert tgt.level(3 ** (k - 1)).equal(got, want)
                # r^k [a]_k = a, exhaustively
                for a in spec.elements():
                    vec = R.norm_class.presentation.encode(a)
                    ok, witness = check_r_lift_identity(W, vec)
                    assert ok, witness


def test_07_nerve_oracle():
    with Timer(7, "twisted-nerve H0 oracle", 60.0):
        battery = [
            (burnside_tambara(2), 3, 1),
            (constant_tambara(F3, 2), 3, 1),
            (constant_tambara(F3, 1), 3, 1),
            (constant_tambara(F3, 1), 3, 2),
        ]
        for base, p, k in battery:
            comparison = nerve_comparison(base, p, k)
            assert all(comparison.values()), (base.norm_class.tag, comparison)


def test_08_box_product_laws():
    with Timer(8, "box product unit/symmetry/bottom-tensor", None):
        z = FgAbGroup.free(1)
        f3 = FgAbGroup.from_invariant_factors([3])
        battery = {
            2: [burnside(2),
                fixed_point_mackey(f3, AbHom.identity(f3), 2),
                fixed_point_mackey(z, AbHom(z, z, [[-1]]), 2)],
            6: [burnside(6)],
        }
        for N, functors in battery.items():
            unit = burnside(N)
            for m in functors:
                bx = box_product(unit, m)
                assert box_unit_map(bx, m).is_levelwise_isomorphism()
            for m in functors:
                for n in functors:
                    mn = box_product(m, n)
                    assert box_symmetry_map(
                        mn, box_product(n, m)).is_levelwise_isomorphism()
                    t, _ = tensor(m.level(1), n.level(1))
                    gens = []
                    for i in range(m.level(1).ngens):
                        for j in range(n.level(1).ngens):
                            x = tuple(int(a == i)
                                      for a in range(m.level(1).ngens))
                            y = tuple(int(b == j)
                                      for b in range(n.level(1).ngens))
                            gens.append(mn.pure_tensor(1, 1, x, y))
                    assert is_isomorphism(AbHom(t, mn.level(1), gens))


def test_09_geometric_fixed_points():
    with Timer(9, "geometric fixed points of burnside(p)", None):
        phi, proj = geometric_fixed_points(burnside(3), 3)
        level = phi.level(1)
        assert level.invariant_factors == (0,)
        assert level.is_zero(burnside_basis_vector(3, 1))
        gen = AbHom(FgAbGroup.free(1), level,
                    [burnside_basis_vector(3, 3)])
        assert is_isomorphism(gen)


def test_10_witt_complex_verifier():
    with Timer(10, "Witt complex verifier", 30.0):
        fam_n2 = degree_zero_family(constant_tambara(F3, 2), 3, 1)
        assert check_equivariant(fam_n2).passed
        fam_n1 = degree_zero_family(constant_tambara(F3, 1), 3, 2)
        report = check_equivariant(fam_n1)
        assert report.passed
        # injected violations fail with reproducible witnesses
        bad_fv = with_scaled_transfer(fam_n1, 2, (3, 9), 2)
        rep1 = check_equivariant(bad_fv)
        rep2 = check_equivariant(with_scaled_transfer(fam_n1, 2, (3, 9), 2))
        assert not rep1.passed
        assert rep1.to_json() == rep2.to_json()
        assert any(f.name == "res tr = [L:H]" for f in rep1.failures())
        bad_leibniz = with_identity_differential(fam_n1, 1)
        repl = check_equivariant(bad_leibniz)
        assert not repl.passed
        assert any(f.name == "Leibniz rule" for f in repl.failures())
        # classical reduction
        cdata = specialize_n1(fam_n1)
        assert check_classical(cdata).passed
        assert not check_classical(specialize_n1(bad_fv)).passed
