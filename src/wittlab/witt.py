"""Classical p-typical Witt vectors.

The ring structure on length-k vectors is the one that makes the ghost
map

    w_n = sum_{i<=n} p^i * a_i^(p^(n-i))

a ring map.  Every operator computes by ghost lift:

1. lift the coordinates to a torsion-free cover of the base ring;
2. combine the ghost vectors entry by entry (sum, difference, product,
   negation and n.w; F drops the first ghost entry; the norm has the
   targets [x_0, w_0^p, ..., w_{k-1}^p]);
3. solve the triangular system back, dividing exactly by p^n;
4. reduce to the base ring.

Z and Z[x] are their own cover.  Z/m is covered by the integers modulo
Q = m p^L, L the output length: a = b mod p^j with j >= 1 gives
a^p = b^p mod p^(j+1), so coordinate n of the solve is known modulo
m p^(L-n), and exactly modulo m.  Entries stay at O(L log p + log m)
bits, where a plain lift to Z would need p^(L-1)-fold bit lengths.

The sum, product, negation, Frobenius and norm are integer polynomials
in the coordinates (the universal Witt polynomials), so the result is
that of the polynomials evaluated in the base ring, also where p is a
zero divisor.  ``universal_polynomials`` builds them symbolically; the
arithmetic never uses them, and the tests keep them as an independent
oracle for small (p, k).
"""

from .errors import (InternalIntegralityFailure, LengthMismatch,
                     LengthTooShort, ParamsMismatch)
from .rings import (IntPolynomial, ModularRing, PolynomialRing, is_prime,
                    ring_pow)


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


def universal_polynomials(p, k):
    """The universal polynomial families for (p, k), built afresh.

    The cost grows exponentially in k; the Witt arithmetic does not
    need them.
    """
    WittParams(p, k)  # validates p prime, k >= 1
    return UniversalWittPolynomials(int(p), int(k))


def _ghost(p, coords, modulus):
    """Ghost vector of cover coordinates, reduced modulo `modulus`
    unless it is None.  At step n, powers[i] = a_i^(p^(n-i))."""
    out, powers = [], []
    for n, a in enumerate(coords):
        w = p ** n * a
        for i, b in enumerate(powers):
            b = powers[i] = pow(b, p, modulus)
            w += p ** i * b
        powers.append(a)
        out.append(w % modulus if modulus else w)
    return out


def _solve(p, targets, modulus):
    """Cover coordinates with the given ghost vector: the triangular
    solve, reducing modulo `modulus` (unless None) before each exact
    division by p^n.  At step n, powers[i] = c_i^(p^(n-i))."""
    coords, powers = [], []
    for n, acc in enumerate(targets):
        for i, b in enumerate(powers):
            b = powers[i] = pow(b, p, modulus)
            acc -= p ** i * b
        try:
            if isinstance(acc, IntPolynomial):
                c = acc.exact_div_int(p ** n)
            else:
                c, r = divmod(acc % modulus if modulus else acc, p ** n)
                if r:
                    raise ArithmeticError("remainder %d" % r)
        except ArithmeticError as exc:
            raise InternalIntegralityFailure(
                "ghost solve failed at index %d: %s" % (n, exc)) from exc
        coords.append(c)
        powers.append(c)
    return coords


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

    def _cover_modulus(self, length):
        """Q = m p^L covering Z/m at output length L; None for Z and
        Z[x], which are their own cover."""
        if isinstance(self.ring, ModularRing):
            return self.ring.modulus * self.p ** length
        return None

    def _ghost_lift(self, length, combine, *xs):
        """The length-L vector whose ghost vector in the cover is
        `combine` of the inputs' ghost vectors, reduced to the base
        ring.  Coordinates are their own lifts: any integer stands for
        its residue modulo m, and m divides Q."""
        modulus = self._cover_modulus(length)
        targets = combine(*(_ghost(self.p, x.coords, modulus) for x in xs))
        out = self if length == self.k else \
            WittRing(self.p, length, self.ring)
        return out.vector(_solve(self.p, targets, modulus))

    def add(self, x, y):
        return self._ghost_lift(self.k, lambda a, b: [
            u + v for u, v in zip(a, b)], x, y)

    def mul(self, x, y):
        return self._ghost_lift(self.k, lambda a, b: [
            u * v for u, v in zip(a, b)], x, y)

    def neg(self, x):
        return self._ghost_lift(self.k, lambda a: [-u for u in a], x)

    def sub(self, x, y):
        return self._ghost_lift(self.k, lambda a, b: [
            u - v for u, v in zip(a, b)], x, y)

    def scalar_mul(self, n, x):
        """Additive multiple n.x."""
        n = int(n)
        return self._ghost_lift(self.k, lambda a: [n * u for u in a], x)

    def power(self, x, n):
        return ring_pow(self, x, n)

    def eq(self, x, y):
        return all(self.ring.eq(a, b) for a, b in zip(x.coords, y.coords))

    def ghost(self, x):
        """Ghost coordinates (w_0, ..., w_{k-1})."""
        return tuple(_ghost(self.p, x.coords, self._cover_modulus(0)))

    def restriction(self, x):
        """Drop the last Witt coordinate; a ring map to W_{k-1}."""
        if self.k < 2:
            raise LengthTooShort("restriction needs length >= 2")
        return WittRing(self.p, self.k - 1, self.ring).vector(x.coords[:-1])

    def frobenius(self, x):
        """The ring map F with ghost(F x) = tail of ghost(x)."""
        if self.k < 2:
            raise LengthTooShort("frobenius needs length >= 2")
        return self._ghost_lift(self.k - 1, lambda a: a[1:], x)

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
        return self._ghost_lift(self.k + 1,
                          lambda a: [a[0]] + [u ** self.p for u in a], x)

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

    It is a second, plain implementation of the triangular solve over
    Z (no cover modulus, powers recomputed at every step), so the tests
    use it as an oracle for the ghost-lift arithmetic and the Witt-ring
    presentations.
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
