"""Tests for the ring carriers and sparse integer polynomials."""

import doctest
import random
import threading

import pytest

import wittlab.abgroups
import wittlab.mackey
from wittlab.rings import (IntegerRing, IntPolynomial, ModularRing,
                           PolynomialRing, is_prime, parse_ring)


@pytest.mark.parametrize("ring,sample", [
    (IntegerRing(), lambda rng: rng.randint(-20, 20)),
    (ModularRing(12), lambda rng: rng.randrange(12)),
])
def test_ring_axioms_on_sampled_elements(ring, sample):
    rng = random.Random(0)
    for _ in range(30):
        a, b, c = sample(rng), sample(rng), sample(rng)
        assert ring.eq(ring.add(a, b), ring.add(b, a))
        assert ring.eq(ring.add(ring.add(a, b), c),
                       ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))
        assert ring.eq(ring.mul(ring.mul(a, b), c),
                       ring.mul(a, ring.mul(b, c)))
        assert ring.eq(ring.mul(a, ring.add(b, c)),
                       ring.add(ring.mul(a, b), ring.mul(a, c)))
        assert ring.eq(ring.add(a, ring.neg(a)), ring.zero())
        assert ring.eq(ring.mul(a, ring.one()), a)


def test_polynomial_ring_axioms_on_sampled_elements():
    ring = PolynomialRing(2)
    rng = random.Random(1)

    def sample():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = \
                rng.randint(-5, 5)
        return IntPolynomial(2, terms)

    for _ in range(20):
        a, b, c = sample(), sample(), sample()
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == \
            ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero()


def test_polynomial_evaluation_and_power():
    ring = PolynomialRing(2)
    p = (ring.variable(0) + ring.variable(1)) ** 3
    assert p.evaluate(IntegerRing(), [2, 1]) == 27
    assert p.total_degree() == 3
    mod = p.evaluate(ModularRing(5), [2, 1])
    assert mod == 2


def test_polynomial_repr_graded_lex():
    ring = PolynomialRing(2)
    p = ring.variable(0) ** 2 + ring.variable(1) - 3
    text = repr(p)
    assert text.index("x0^2") < text.index("x1") < text.index("-3")


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_parse_ring():
    assert parse_ring("Z") == IntegerRing()
    assert parse_ring("F3") == ModularRing(3)
    assert parse_ring("Z/9") == ModularRing(9)
    with pytest.raises(ValueError):
        parse_ring("F4")
    with pytest.raises(ValueError):
        parse_ring("Q")


def test_polynomial_cache_concurrent_initialization():
    # nothing is cached any more: concurrent builds of the polynomial
    # family and concurrent Witt arithmetic share no state and agree
    import wittlab.witt as wittmod
    key = (7, 2)
    wr = wittmod.WittRing(7, 2, ModularRing(49))
    x, y = wr.vector([3, 40]), wr.vector([48, 5])
    results = []

    def worker():
        fam = wittmod.universal_polynomials(*key)
        results.append((fam.sums, fam.products, fam.norms,
                        wr.add(x, y), wr.mul(x, y), wr.norm(x)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results)


def test_module_doctests():
    for mod in (wittlab.abgroups, wittlab.mackey):
        outcome = doctest.testmod(mod)
        assert outcome.failed == 0
        assert outcome.attempted > 0
