"""Classical p-typical Witt vectors.

The ring structure on length-k vectors is carried by universal integer
polynomials obtained from the triangular ghost solve: the ghost map

    w_n = sum_{i<=n} p^i * a_i^(p^(n-i))

must be a ring map, and solving the resulting system over Z[x_i, y_i]
with exact division by powers of p produces sum, product, negation,
Frobenius and norm polynomials.  Because the formulas are polynomial,
every operator also works over base rings where p is a zero divisor.

Universal polynomials are computed once per (p, k) and cached; set the
environment variable WITTLAB_CACHE_DIR to persist them between runs.
"""

import json
import os
import threading

from .errors import (InternalIntegralityFailure, LengthMismatch,
                     LengthTooShort, ParamsMismatch)
from .rings import IntPolynomial, PolynomialRing, is_prime, ring_pow


class WittParams:
    """Prime and truncation length for p-typical Witt vectors."""

    __slots__ = ("p", "k")

    def __init__(self, p, k):
        p, k = int(p), int(k)
        if not is_prime(p):
            raise ValueError("p = %d is not prime" % p)
        if k < 1:
            raise ValueError("length k must be at least 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("WittParams instances are immutable")

    def __eq__(self, other):
        return isinstance(other, WittParams) and \
            (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return "WittParams(p=%d, k=%d)" % (self.p, self.k)


def _ghost_poly(p, n, variables):
    """w_n as a polynomial in the given coordinate variables."""
    acc = None
    for i in range(n + 1):
        term = (variables[i] ** (p ** (n - i))).scale(p ** i)
        acc = term if acc is None else acc + term
    return acc


def _solve_ghost_system(p, targets, variables):
    """Solve sum_{i<=n} p^i r_i^(p^(n-i)) = targets[n] over Z exactly."""
    out = []
    for n, target in enumerate(targets):
        acc = target
        for i in range(n):
            acc = acc - (out[i] ** (p ** (n - i))).scale(p ** i)
        try:
            out.append(acc.exact_div_int(p ** n))
        except ArithmeticError as exc:
            raise InternalIntegralityFailure(
                "ghost solve failed at index %d: %s" % (n, exc)) from exc
    return out


class UniversalWittPolynomials:
    """Sum, product, negation, Frobenius and norm polynomials for (p, k).

    Sum/product polynomials live in 2k variables (x then y); negation,
    Frobenius and norm polynomials in k variables.  The norm family has
    k+1 entries and describes the multiplicative transfer into length
    k+1, pinned down by sending Teichmueller vectors to Teichmueller
    vectors and shifting the ghost vector.
    """

    __slots__ = ("p", "k", "sums", "products", "negations", "frobenius",
                 "norms")

    def __init__(self, p, k):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        two = PolynomialRing(2 * k)
        xs = [two.variable(i) for i in range(k)]
        ys = [two.variable(k + i) for i in range(k)]
        sums = _solve_ghost_system(
            p, [_ghost_poly(p, n, xs) + _ghost_poly(p, n, ys)
                for n in range(k)], xs)
        prods = _solve_ghost_system(
            p, [_ghost_poly(p, n, xs) * _ghost_poly(p, n, ys)
                for n in range(k)], xs)
        one = PolynomialRing(k)
        zs = [one.variable(i) for i in range(k)]
        negs = _solve_ghost_system(
            p, [-_ghost_poly(p, n, zs) for n in range(k)], zs)
        frob = _solve_ghost_system(
            p, [_ghost_poly(p, n + 1, zs) for n in range(k - 1)], zs)
        norm_targets = [zs[0]]
        for n in range(1, k + 1):
            norm_targets.append(_ghost_poly(p, n - 1, zs) ** p)
        norms = _solve_ghost_system(p, norm_targets, zs)
        object.__setattr__(self, "sums", tuple(sums))
        object.__setattr__(self, "products", tuple(prods))
        object.__setattr__(self, "negations", tuple(negs))
        object.__setattr__(self, "frobenius", tuple(frob))
        object.__setattr__(self, "norms", tuple(norms))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def to_json(self):
        return {
            "p": self.p, "k": self.k,
            "sums": [f.to_json() for f in self.sums],
            "products": [f.to_json() for f in self.products],
            "negations": [f.to_json() for f in self.negations],
            "frobenius": [f.to_json() for f in self.frobenius],
            "norms": [f.to_json() for f in self.norms],
        }

    @classmethod
    def from_json(cls, data):
        obj = object.__new__(cls)
        p, k = data["p"], data["k"]
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "k", k)
        for field, nvars, count in (("sums", 2 * k, k),
                                    ("products", 2 * k, k),
                                    ("negations", k, k),
                                    ("frobenius", k, k - 1),
                                    ("norms", k, k + 1)):
            polys = tuple(IntPolynomial.from_json(nvars, item)
                          for item in data[field])
            if len(polys) != count:
                raise ValueError("%s: expected %d polynomials, got %d"
                                 % (field, count, len(polys)))
            object.__setattr__(obj, field, polys)
        return obj


_POLY_CACHE = {}
_POLY_LOCK = threading.Lock()


def universal_polynomials(p, k):
    """Cached universal polynomial families, one per (p, k)."""
    key = (int(p), int(k))
    with _POLY_LOCK:
        hit = _POLY_CACHE.get(key)
    if hit is not None:
        return hit
    value = _load_from_disk(*key)
    if value is None:
        WittParams(*key)  # validates p prime, k >= 1
        value = UniversalWittPolynomials(*key)
        _store_to_disk(value)
    with _POLY_LOCK:
        # racing computations produce identical values; first write wins
        hit = _POLY_CACHE.setdefault(key, value)
    return hit


def _cache_path(p, k):
    root = os.environ.get("WITTLAB_CACHE_DIR")
    if not root:
        return None
    return os.path.join(root, "witt-polys-p%d-k%d.json" % (p, k))


def _load_from_disk(p, k):
    """The cached family for exactly (p, k), or None.

    A missing file, a malformed one, or one written for another (p, k)
    is a miss, and the caller rebuilds.
    """
    path = _cache_path(p, k)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if (data["p"], data["k"]) != (p, k):
            return None
        return UniversalWittPolynomials.from_json(data)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _store_to_disk(polys):
    path = _cache_path(polys.p, polys.k)
    if not path:
        return
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(polys.to_json(), fh)
    except OSError:
        pass


class WittVector:
    """A length-k p-typical Witt vector over a base ring."""

    __slots__ = ("params", "ring", "coords")

    def __init__(self, params, ring, coords):
        coords = tuple(coords)
        if len(coords) != params.k:
            raise LengthMismatch(
                "expected %d coordinates, got %d" % (params.k, len(coords)))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("WittVector instances are immutable")

    def witt_ring(self):
        return WittRing(self.params.p, self.params.k, self.ring)

    def _check(self, other):
        if self.params != other.params or self.ring != other.ring:
            raise ParamsMismatch(
                "%r vs %r" % ((self.params, self.ring),
                              (other.params, other.ring)))

    def __add__(self, other):
        self._check(other)
        return self.witt_ring().add(self, other)

    def __sub__(self, other):
        self._check(other)
        return self.witt_ring().sub(self, other)

    def __mul__(self, other):
        self._check(other)
        return self.witt_ring().mul(self, other)

    def __neg__(self):
        return self.witt_ring().neg(self)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return (self.params == other.params and self.ring == other.ring
                and all(self.ring.eq(a, b)
                        for a, b in zip(self.coords, other.coords)))

    def __hash__(self):
        return hash((self.params, tuple(map(repr, self.coords))))

    def __repr__(self):
        return "WittVector(p=%d, %r)" % (self.params.p, list(self.coords))


class WittRing:
    """W_k(A) for a prime p and a base ring A."""

    def __init__(self, p, k, ring):
        self.params = WittParams(p, k)
        self.p = self.params.p
        self.k = self.params.k
        self.ring = ring

    def _polys(self):
        return universal_polynomials(self.p, self.k)

    def vector(self, coords):
        return WittVector(self.params, self.ring,
                          [self.ring.from_int(c) if isinstance(c, int) else c
                           for c in coords])

    def zero(self):
        return self.vector([self.ring.zero()] * self.k)

    def one(self):
        coords = [self.ring.one()] + [self.ring.zero()] * (self.k - 1)
        return self.vector(coords)

    def from_int(self, n):
        return self.scalar_mul(n, self.one())

    def teichmuller(self, a):
        """Length-k multiplicative representative (a, 0, ..., 0)."""
        return self.vector([a] + [self.ring.zero()] * (self.k - 1))

    def _binary(self, family, x, y):
        values = list(x.coords) + list(y.coords)
        return self.vector([f.evaluate(self.ring, values) for f in family])

    def add(self, x, y):
        return self._binary(self._polys().sums, x, y)

    def mul(self, x, y):
        return self._binary(self._polys().products, x, y)

    def neg(self, x):
        values = list(x.coords)
        return self.vector([f.evaluate(self.ring, values)
                            for f in self._polys().negations])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scalar_mul(self, n, x):
        """Additive multiple n.x, by double-and-add."""
        n = int(n)
        if n < 0:
            return self.neg(self.scalar_mul(-n, x))
        acc = self.zero()
        base = x
        while n:
            if n & 1:
                acc = self.add(acc, base)
            if n > 1:
                base = self.add(base, base)
            n >>= 1
        return acc

    def power(self, x, n):
        if n < 0:
            raise ValueError("negative power")
        acc = self.one()
        base = x
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            if n > 1:
                base = self.mul(base, base)
            n >>= 1
        return acc

    def eq(self, x, y):
        return all(self.ring.eq(a, b) for a, b in zip(x.coords, y.coords))

    def ghost(self, x):
        """Ghost coordinates (w_0, ..., w_{k-1})."""
        out = []
        for n in range(self.k):
            acc = self.ring.zero()
            for i in range(n + 1):
                term = self.ring.mul(
                    self.ring.from_int(self.p ** i),
                    ring_pow(self.ring, x.coords[i], self.p ** (n - i)))
                acc = self.ring.add(acc, term)
            out.append(acc)
        return tuple(out)

    def restriction(self, x):
        """Drop the last Witt coordinate; a ring map to W_{k-1}."""
        if self.k < 2:
            raise LengthTooShort("restriction needs length >= 2")
        return WittRing(self.p, self.k - 1, self.ring).vector(x.coords[:-1])

    def frobenius(self, x):
        """The ring map F with ghost(F x) = tail of ghost(x)."""
        if self.k < 2:
            raise LengthTooShort("frobenius needs length >= 2")
        values = list(x.coords)
        shorter = WittRing(self.p, self.k - 1, self.ring)
        return shorter.vector([f.evaluate(self.ring, values)
                               for f in self._polys().frobenius])

    def verschiebung(self, x):
        """Prepend a zero coordinate; input must have length k-1."""
        if x.params.k != self.k - 1:
            raise LengthMismatch(
                "verschiebung into length %d needs input of length %d"
                % (self.k, self.k - 1))
        return self.vector([self.ring.zero()] + list(x.coords))

    def norm(self, x):
        """Multiplicative transfer into W_{k+1}(A).

        Sends Teichmueller vectors to Teichmueller vectors and satisfies
        F(norm(x)) = x^p; additivity fails, multiplicativity holds.
        """
        values = list(x.coords)
        longer = WittRing(self.p, self.k + 1, self.ring)
        return longer.vector([f.evaluate(self.ring, values)
                              for f in self._polys().norms])

    def elements(self):
        """All Witt vectors over a finite base ring."""
        base = list(self.ring.elements())

        def rec(prefix):
            if len(prefix) == self.k:
                yield self.vector(prefix)
                return
            for a in base:
                yield from rec(prefix + [a])

        yield from rec([])

    def __repr__(self):
        return "WittRing(p=%d, k=%d, %s)" % (self.p, self.k, self.ring.name)


def teichmuller_lift(ring, p, a, k):
    """The multiplicative lift [a]_k = (a, 0, ..., 0) of length k+1.

    Indexing follows the subgroup C_{p^k}: the lift of index k has
    length k+1, and F^k([a]_k) = a^(p^k).
    """
    return WittRing(p, k + 1, ring).teichmuller(a)


def witt_from_ghost_over_z(p, ghost):
    """Recover integer Witt coordinates from an integral ghost vector.

    It solves the triangular system directly instead of evaluating the
    cached universal polynomials, so the tests use it as an independent
    oracle for the polynomial arithmetic.  At runtime it decodes
    presented Witt rings (``tambara.present_witt_ring``), whose
    coordinates in the basis V^j(1) have an integer ghost vector.
    Raises ArithmeticError when the ghost vector is not in the image.
    """
    coords = []
    for n, w in enumerate(ghost):
        acc = w
        for i in range(n):
            acc -= p ** i * coords[i] ** (p ** (n - i))
        q, r = divmod(acc, p ** n)
        if r:
            raise ArithmeticError("ghost vector is not integral at %d" % n)
        coords.append(q)
    return tuple(coords)
