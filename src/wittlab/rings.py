"""Base-ring carriers for Witt vector arithmetic.

Three carriers are provided: the integers, integers modulo m, and
sparse multivariate polynomials over the integers.  Each exposes the
same small protocol (zero/one/add/mul/neg/sub/eq/from_int, plus
enumeration for finite carriers), so Witt rings can be built over any
of them.
"""


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class IntPolynomial:
    """Sparse polynomial in nvars variables with integer coefficients.

    Terms are stored as {exponent tuple: coefficient}; zero coefficients
    are never stored, so dict equality is canonical equality.  Printing
    uses graded-lex term order.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial instances are immutable")

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: int(c)})

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, IntPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(self.nvars,
                             {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPolynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c):
        c = int(c)
        if c == 0:
            return IntPolynomial(self.nvars, {})
        return IntPolynomial(self.nvars,
                             {e: c * v for e, v in self.terms.items()})

    def exact_div_int(self, c):
        out = {}
        for e, v in self.terms.items():
            q, r = divmod(v, c)
            if r:
                raise ArithmeticError(
                    "coefficient %d is not divisible by %d" % (v, c))
            out[e] = q
        return IntPolynomial(self.nvars, out)

    def evaluate(self, ring, values):
        """Evaluate in a ring, mapping coefficients through from_int."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        acc = ring.zero()
        for exps, c in self.terms.items():
            term = ring.from_int(c)
            for v, e in zip(values, exps):
                if e:
                    term = ring.mul(term, ring_pow(ring, v, e))
            acc = ring.add(acc, term)
        return acc

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def _key(self, exps):
        return (-sum(exps), tuple(-x for x in exps))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items(),
                              key=lambda item: self._key(item[0])):
            mono = "*".join("x%d^%d" % (i, e) if e > 1 else "x%d" % i
                            for i, e in enumerate(exps) if e)
            if mono:
                bits.append("%d*%s" % (c, mono) if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def ring_pow(ring, x, n):
    if n < 0:
        raise ValueError("negative ring power")
    acc = ring.one()
    base = x
    while n:
        if n & 1:
            acc = ring.mul(acc, base)
        base = ring.mul(base, base) if n > 1 else base
        n >>= 1
    return acc


class IntegerRing:
    """The ring of integers."""

    name = "Z"
    is_finite = False

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return n

    def elements(self):
        raise ValueError("the integers are infinite")

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "IntegerRing()"


class ModularRing:
    """Integers modulo m, carried as canonical residues 0..m-1."""

    is_finite = True

    def __init__(self, modulus):
        modulus = int(modulus)
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.name = "Z/%d" % modulus

    def zero(self):
        return 0

    def one(self):
        return 1 % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def eq(self, a, b):
        return (a - b) % self.modulus == 0

    def from_int(self, n):
        return n % self.modulus

    def elements(self):
        return range(self.modulus)

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Zmod", self.modulus))

    def __repr__(self):
        return "ModularRing(%d)" % self.modulus


class PolynomialRing:
    """Multivariate polynomials over the integers."""

    is_finite = False

    def __init__(self, nvars):
        self.nvars = int(nvars)
        self.name = "Z[%s]" % ",".join("x%d" % i for i in range(self.nvars))

    def zero(self):
        return IntPolynomial(self.nvars, {})

    def one(self):
        return IntPolynomial.constant(self.nvars, 1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return IntPolynomial.constant(self.nvars, n)

    def variable(self, i):
        return IntPolynomial.variable(self.nvars, i)

    def elements(self):
        raise ValueError("polynomial rings are infinite")

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.nvars == self.nvars

    def __hash__(self):
        return hash(("Zpoly", self.nvars))

    def __repr__(self):
        return "PolynomialRing(%d)" % self.nvars


def parse_ring(text):
    """Ring grammar used by the CLI: Z, F<p>, or Z/<m>."""
    text = text.strip()
    if text == "Z":
        return IntegerRing()
    if text.startswith("F"):
        p = int(text[1:])
        if not is_prime(p):
            raise ValueError("F%d is not a prime field" % p)
        return ModularRing(p)
    if text.startswith("Z/"):
        return ModularRing(int(text[2:]))
    raise ValueError("unknown ring %r (expected Z, F<p> or Z/<m>)" % text)
