"""Tests for classical p-typical Witt vectors.

The arithmetic computes by ghost lift over a bounded cover.  It has
two independent oracles: the universal Witt polynomials, built
symbolically for small (p, k) and evaluated in the base ring, and the
exact lift to Z, whose ghost vector is solved back by
``witt_from_ghost_over_z`` and reduced.
"""

import json
import random

import pytest

from wittlab.cli import main
from wittlab.eqwitt import equivariant_witt
from wittlab.errors import (LengthMismatch, LengthTooShort, ParamsMismatch)
from wittlab.rings import (IntegerRing, IntPolynomial, ModularRing,
                           PolynomialRing)
from wittlab.tambara import constant_tambara
from wittlab.witt import (UniversalWittPolynomials, WittParams, WittRing,
                          teichmuller_lift, universal_polynomials,
                          witt_from_ghost_over_z)

Z = IntegerRing()
F3 = ModularRing(3)


def oracle_add(p, x, y):
    wr = WittRing(p, len(x), Z)
    gx = wr.ghost(wr.vector(list(x)))
    gy = wr.ghost(wr.vector(list(y)))
    return witt_from_ghost_over_z(p, [a + b for a, b in zip(gx, gy)])


def oracle_mul(p, x, y):
    wr = WittRing(p, len(x), Z)
    gx = wr.ghost(wr.vector(list(x)))
    gy = wr.ghost(wr.vector(list(y)))
    return witt_from_ghost_over_z(p, [a * b for a, b in zip(gx, gy)])


class TestGhost:
    def test_formula_p3_k2_symbolically(self):
        ring = PolynomialRing(2)
        a0, a1 = ring.variable(0), ring.variable(1)
        wr = WittRing(3, 2, ring)
        ghost = wr.ghost(wr.vector([a0, a1]))
        assert ghost[0] == a0
        assert ghost[1] == a0 ** 3 + a1.scale(3)

    def test_zero(self):
        wr = WittRing(5, 3, Z)
        assert wr.ghost(wr.zero()) == (0, 0, 0)

    def test_one_one(self):
        wr = WittRing(3, 2, Z)
        assert wr.ghost(wr.vector([1, 1])) == (1, 4)

    def test_injective_over_z(self):
        wr = WittRing(3, 3, Z)
        rng = random.Random(1)
        for _ in range(25):
            x = wr.vector([rng.randint(-9, 9) for _ in range(3)])
            back = witt_from_ghost_over_z(3, list(wr.ghost(x)))
            assert back == x.coords


class TestUniversalPolynomials:
    def test_length_one(self):
        up = universal_polynomials(7, 1)
        two = PolynomialRing(2)
        assert up.sums[0] == two.variable(0) + two.variable(1)
        assert up.products[0] == two.variable(0) * two.variable(1)

    def test_sum_poly_p2(self):
        up = universal_polynomials(2, 2)
        two = PolynomialRing(4)
        x0, x1, y0, y1 = (two.variable(i) for i in range(4))
        assert up.sums[1] == x1 + y1 - x0 * y0

    def test_sum_poly_p3(self):
        up = universal_polynomials(3, 2)
        two = PolynomialRing(4)
        x0, x1, y0, y1 = (two.variable(i) for i in range(4))
        assert up.sums[1] == x1 + y1 - (x0 ** 2 * y0 + x0 * y0 ** 2)

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (3, 3), (5, 2)])
    def test_ghost_identities_symbolic(self, p, k):
        # ghost of the formal sum/product equals the sum/product of
        # ghosts, as polynomial identities over Z
        up = universal_polynomials(p, k)
        ring = PolynomialRing(2 * k)
        xs = [ring.variable(i) for i in range(k)]
        ys = [ring.variable(k + i) for i in range(k)]

        def ghost(coords, n):
            acc = ring.zero()
            for i in range(n + 1):
                acc = acc + (coords[i] ** (p ** (n - i))).scale(p ** i)
            return acc

        for n in range(k):
            sum_ghost = ghost(list(up.sums), n)
            assert sum_ghost == ghost(xs, n) + ghost(ys, n)
            prod_ghost = ghost(list(up.products), n)
            assert prod_ghost == ghost(xs, n) * ghost(ys, n)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            WittParams(4, 2)
        with pytest.raises(ValueError):
            WittParams(3, 0)

    def test_exact_division_guard(self):
        poly = IntPolynomial.constant(1, 3)
        with pytest.raises(ArithmeticError):
            poly.exact_div_int(2)


class TestRingOperations:
    def test_one_plus_one_p3(self):
        wr = WittRing(3, 2, Z)
        s = wr.add(wr.vector([1, 0]), wr.vector([1, 0]))
        assert s.coords == (2, -2)

    def test_additive_identity(self):
        wr = WittRing(3, 3, Z)
        rng = random.Random(2)
        for _ in range(10):
            x = wr.vector([rng.randint(-9, 9) for _ in range(3)])
            assert wr.add(x, wr.zero()) == x

    def test_multiplicative_identity(self):
        wr = WittRing(5, 2, Z)
        x = wr.vector([3, -4])
        assert wr.mul(wr.one(), x) == x

    def test_params_mismatch(self):
        a = WittRing(3, 2, Z).vector([1, 0])
        b = WittRing(5, 2, Z).vector([1, 0])
        with pytest.raises(ParamsMismatch):
            a + b

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_ghost_oracle(self, p):
        wr = WittRing(p, 3, Z)
        rng = random.Random(p)
        for _ in range(20):
            x = tuple(rng.randint(-6, 6) for _ in range(3))
            y = tuple(rng.randint(-6, 6) for _ in range(3))
            assert wr.add(wr.vector(x), wr.vector(y)).coords == \
                oracle_add(p, x, y)
            assert wr.mul(wr.vector(x), wr.vector(y)).coords == \
                oracle_mul(p, x, y)

    def test_finite_ring_matches_lifted_oracle(self):
        wr = WittRing(3, 2, ModularRing(4))
        wz = WittRing(3, 2, Z)
        rng = random.Random(3)
        for _ in range(20):
            x = tuple(rng.randrange(4) for _ in range(2))
            y = tuple(rng.randrange(4) for _ in range(2))
            got = wr.add(wr.vector(x), wr.vector(y))
            lifted = oracle_add(3, x, y)
            assert got.coords == tuple(c % 4 for c in lifted)


class TestOperators:
    def test_restriction_drops_last(self):
        wr = WittRing(3, 2, Z)
        assert wr.restriction(wr.vector([7, 9])).coords == (7,)
        with pytest.raises(LengthTooShort):
            WittRing(3, 1, Z).restriction(WittRing(3, 1, Z).vector([1]))

    def test_restriction_is_ring_map(self):
        wr = WittRing(3, 3, Z)
        rng = random.Random(4)
        for _ in range(15):
            x = wr.vector([rng.randint(-5, 5) for _ in range(3)])
            y = wr.vector([rng.randint(-5, 5) for _ in range(3)])
            assert wr.restriction(wr.add(x, y)) == \
                wr.restriction(x) + wr.restriction(y)
            assert wr.restriction(wr.mul(x, y)) == \
                wr.restriction(x) * wr.restriction(y)

    def test_restriction_of_teichmuller(self):
        wr = WittRing(3, 3, Z)
        assert wr.restriction(wr.teichmuller(5)).coords == (5, 0)

    def test_frobenius_formula_p3(self):
        ring = PolynomialRing(2)
        a0, a1 = ring.variable(0), ring.variable(1)
        wr = WittRing(3, 2, ring)
        image = wr.frobenius(wr.vector([a0, a1]))
        assert image.coords == (a0 ** 3 + a1.scale(3),)

    def test_frobenius_ghost_shift(self):
        wr = WittRing(5, 3, Z)
        rng = random.Random(5)
        for _ in range(10):
            x = wr.vector([rng.randint(-4, 4) for _ in range(3)])
            shorter = WittRing(5, 2, Z)
            assert shorter.ghost(wr.frobenius(x)) == wr.ghost(x)[1:]

    def test_frobenius_of_teichmuller(self):
        wr = WittRing(3, 3, Z)
        assert wr.frobenius(wr.teichmuller(2)) == \
            WittRing(3, 2, Z).teichmuller(2 ** 3)

    def test_frobenius_preserves_one(self):
        wr = WittRing(3, 3, Z)
        assert wr.frobenius(wr.one()) == WittRing(3, 2, Z).one()

    def test_verschiebung(self):
        wr = WittRing(3, 2, Z)
        v = wr.verschiebung(WittRing(3, 1, Z).vector([4]))
        assert v.coords == (0, 4)
        assert wr.verschiebung(WittRing(3, 1, Z).zero()) == wr.zero()
        with pytest.raises(LengthMismatch):
            wr.verschiebung(wr.vector([1, 2]))

    def test_fv_is_multiplication_by_p(self):
        wr = WittRing(3, 2, Z)
        bigger = WittRing(3, 3, Z)
        rng = random.Random(6)
        for _ in range(15):
            x = wr.vector([rng.randint(-9, 9) for _ in range(2)])
            fv = bigger.frobenius(bigger.verschiebung(x))
            assert fv == wr.scalar_mul(3, x)

    def test_frobenius_reciprocity(self):
        wr = WittRing(3, 3, Z)
        shorter = WittRing(3, 2, Z)
        rng = random.Random(7)
        for _ in range(15):
            x = wr.vector([rng.randint(-5, 5) for _ in range(3)])
            y = shorter.vector([rng.randint(-5, 5) for _ in range(2)])
            lhs = wr.mul(x, wr.verschiebung(y))
            rhs = wr.verschiebung(shorter.mul(wr.frobenius(x), y))
            assert lhs == rhs

    def test_r_and_f_commute(self):
        wr = WittRing(3, 3, Z)
        rng = random.Random(8)
        for _ in range(15):
            x = wr.vector([rng.randint(-5, 5) for _ in range(3)])
            shorter = WittRing(3, 2, Z)
            assert shorter.restriction(wr.frobenius(x)) == \
                shorter.frobenius(wr.restriction(x))


class TestTeichmuller:
    def test_lift_has_length_k_plus_one(self):
        lift = teichmuller_lift(Z, 3, 5, 2)
        assert lift.coords == (5, 0, 0)

    def test_unit(self):
        wr = WittRing(3, 4, Z)
        assert wr.teichmuller(1) == wr.one()

    def test_multiplicative(self):
        wr = WittRing(3, 2, Z)
        assert wr.mul(wr.teichmuller(2), wr.teichmuller(3)) == \
            wr.teichmuller(6)

    def test_lifts_p_power_map(self):
        for k in (1, 2, 3):
            rng = random.Random(k)
            for _ in range(5):
                a = rng.randint(-9, 9)
                lift = teichmuller_lift(Z, 3, a, k)
                cur = lift
                for j in range(k):
                    cur = WittRing(3, k + 1 - j, Z).frobenius(cur)
                assert cur.coords == (a ** (3 ** k),)


class TestRingAxiomsViaGhost:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_axioms_on_random_triples(self, p):
        wr = WittRing(p, 3, Z)
        rng = random.Random(10 + p)
        for _ in range(50):
            x = wr.vector([rng.randint(-6, 6) for _ in range(3)])
            y = wr.vector([rng.randint(-6, 6) for _ in range(3)])
            z = wr.vector([rng.randint(-6, 6) for _ in range(3)])
            assert wr.add(x, y) == wr.add(y, x)
            assert wr.add(wr.add(x, y), z) == wr.add(x, wr.add(y, z))
            assert wr.mul(x, y) == wr.mul(y, x)
            assert wr.mul(wr.mul(x, y), z) == wr.mul(x, wr.mul(y, z))
            assert wr.mul(x, wr.add(y, z)) == \
                wr.add(wr.mul(x, y), wr.mul(x, z))
            assert wr.add(x, wr.neg(x)) == wr.zero()


class TestFiniteWittRings:
    def test_w2_f3_is_z9(self):
        wr = WittRing(3, 2, F3)
        elements = list(wr.elements())
        assert len(elements) == 9
        acc = wr.zero()
        order = 0
        while True:
            acc = wr.add(acc, wr.one())
            order += 1
            if wr.eq(acc, wr.zero()):
                break
        assert order == 9

    def test_frobenius_works_where_p_is_zero_divisor(self):
        # F must be polynomial, not ghost-inverted: check over F_3
        wr = WittRing(3, 2, F3)
        shorter = WittRing(3, 1, F3)
        for x in wr.elements():
            for y in wr.elements():
                assert shorter.eq(wr.frobenius(wr.add(x, y)),
                                  shorter.add(wr.frobenius(x),
                                              wr.frobenius(y)))


class TestNorm:
    def test_norm_of_teichmuller(self):
        wr = WittRing(3, 2, Z)
        assert wr.norm(wr.teichmuller(7)) == \
            WittRing(3, 3, Z).teichmuller(7)

    def test_f_norm_is_p_power(self):
        wr = WittRing(3, 2, Z)
        longer = WittRing(3, 3, Z)
        rng = random.Random(11)
        for _ in range(15):
            x = wr.vector([rng.randint(-5, 5) for _ in range(2)])
            assert longer.frobenius(wr.norm(x)) == wr.power(x, 3)

    def test_norm_multiplicative(self):
        wr = WittRing(3, 2, Z)
        longer = WittRing(3, 3, Z)
        rng = random.Random(12)
        for _ in range(15):
            x = wr.vector([rng.randint(-4, 4) for _ in range(2)])
            y = wr.vector([rng.randint(-4, 4) for _ in range(2)])
            assert wr.norm(wr.mul(x, y)) == longer.mul(wr.norm(x),
                                                       wr.norm(y))
        assert wr.norm(wr.one()) == longer.one()

    def test_norm_exhaustive_over_f3(self):
        wr = WittRing(3, 1, F3)
        longer = WittRing(3, 2, F3)
        for x in wr.elements():
            for y in wr.elements():
                assert longer.eq(wr.norm(wr.mul(x, y)),
                                 longer.mul(wr.norm(x), wr.norm(y)))


def random_element(ring, rng):
    if isinstance(ring, ModularRing):
        return rng.randrange(ring.modulus)
    if isinstance(ring, PolynomialRing):
        return IntPolynomial(ring.nvars, {
            tuple(rng.randrange(2) for _ in range(ring.nvars)):
            rng.randint(-2, 2) for _ in range(2)})
    return rng.randint(-9, 9)


class TestGhostLiftOracles:
    @pytest.mark.parametrize("p,k,ring", [
        (2, 2, Z), (3, 3, Z), (2, 4, ModularRing(4)), (3, 4, ModularRing(9)),
        (5, 3, ModularRing(5)), (5, 2, ModularRing(6)),
        (3, 2, ModularRing(1)), (2, 3, PolynomialRing(2))],
        ids=lambda v: getattr(v, "name", v))
    def test_matches_universal_polynomials(self, p, k, ring):
        up = UniversalWittPolynomials(p, k)
        wr = WittRing(p, k, ring)

        def evaluate(family, *vectors):
            values = [c for v in vectors for c in v.coords]
            return [f.evaluate(ring, values) for f in family]

        def add(x, y):
            return wr.vector(evaluate(up.sums, x, y))

        def neg(x):
            return wr.vector(evaluate(up.negations, x))

        def times(n, x):
            acc = wr.zero()
            for _ in range(abs(n)):
                acc = add(acc, x)
            return acc if n >= 0 else neg(acc)

        rng = random.Random(100 * p + k)
        for _ in range(6):
            x = wr.vector([random_element(ring, rng) for _ in range(k)])
            y = wr.vector([random_element(ring, rng) for _ in range(k)])
            assert wr.add(x, y) == add(x, y)
            assert wr.sub(x, y) == add(x, neg(y))
            assert wr.mul(x, y) == wr.vector(evaluate(up.products, x, y))
            assert wr.neg(x) == neg(x)
            for n in (5, -5):
                assert wr.scalar_mul(n, x) == times(n, x)
                assert wr.from_int(n) == times(n, wr.one())
            if k > 1:
                assert wr.frobenius(x) == WittRing(p, k - 1, ring).vector(
                    evaluate(up.frobenius, x))
            assert wr.norm(x) == WittRing(p, k + 1, ring).vector(
                evaluate(up.norms, x))

    @pytest.mark.parametrize("p,k,m", [(2, 12, 4), (3, 6, 9), (5, 4, 25),
                                       (2, 10, 6)])
    def test_modular_cover_matches_exact_lift(self, p, k, m):
        wr = WittRing(p, k, ModularRing(m))

        def ghost(coords):
            return [sum(p ** i * coords[i] ** p ** (n - i)
                        for i in range(n + 1)) for n in range(len(coords))]

        def lifted(targets):
            return tuple(c % m for c in witt_from_ghost_over_z(p, targets))

        rng = random.Random(p * k * m)
        for _ in range(3):
            xs = [rng.randrange(m) for _ in range(k)]
            ys = [rng.randrange(m) for _ in range(k)]
            gx, gy = ghost(xs), ghost(ys)
            x, y = wr.vector(xs), wr.vector(ys)
            cases = [
                (wr.add(x, y), [a + b for a, b in zip(gx, gy)]),
                (wr.sub(x, y), [a - b for a, b in zip(gx, gy)]),
                (wr.mul(x, y), [a * b for a, b in zip(gx, gy)]),
                (wr.neg(x), [-a for a in gx]),
                (wr.scalar_mul(-5, x), [-5 * a for a in gx]),
                (wr.frobenius(x), gx[1:]),
                (wr.norm(x), [gx[0]] + [a ** p for a in gx])]
            for got, targets in cases:
                assert got.coords == lifted(targets)

    def test_runtime_never_builds_universal_polynomials(self, monkeypatch,
                                                        capsys):
        def refuse(*args):
            raise RuntimeError("universal polynomials used at run time")
        monkeypatch.setattr(UniversalWittPolynomials, "__init__", refuse)
        monkeypatch.setattr(IntPolynomial, "evaluate", refuse)
        code = main(["classical", "--p", "5", "--k", "4", "--ring", "Z/25",
                     "--op", "add", "--x", "3,1,4,1", "--y", "5,9,2,6"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["coords"]) == 4
        w = equivariant_witt(constant_tambara(F3, 1), 3, 3)
        assert w.level(27).invariant_factors == (81,)
