"""Reference computations made apart from wittlab.

* The ghost map and the triangular ghost solve, in plain Python ints.
  They give the expected coordinates of every classical Witt operation:
  add/sub/mul/neg/scalar multiples act on ghost vectors componentwise,
  F shifts the ghost vector, V sends it to (0, p w_0, p w_1, ...), and
  the norm sends it to (x_0, w_0^p, w_1^p, ...).  Over Z/m the inputs are
  lifted to Z and the results reduced mod m; this is valid because the
  universal Witt polynomials have integer coefficients.
* Invariant factors of an integer relation matrix, from sympy's
  ``invariant_factors``, in wittlab's normal form: non-unit factors in
  divisibility order followed by one 0 per free rank.
* The tensor product of two finitely generated abelian groups given by
  invariant factors: (+) Z/a_i (x) (+) Z/b_j = (+) Z/gcd(a_i, b_j).
"""

from math import gcd


def ghost(p, coords):
    """Ghost components w_n = sum_{i<=n} p^i a_i^(p^(n-i)) over Z."""
    return [sum(p ** i * coords[i] ** (p ** (n - i)) for i in range(n + 1))
            for n in range(len(coords))]


def from_ghost(p, ws):
    """Integer Witt coordinates with the given ghost vector.

    Raises ArithmeticError when the vector is not in the image of the
    ghost map.
    """
    coords = []
    for n, w in enumerate(ws):
        acc = w - sum(p ** i * coords[i] ** (p ** (n - i)) for i in range(n))
        q, r = divmod(acc, p ** n)
        if r:
            raise ArithmeticError("ghost vector is not integral at %d" % n)
        coords.append(q)
    return coords


def expected_witt(p, op, x, y=None, n=None):
    """Integer coordinates of a classical Witt operation on integer inputs.

    ``op`` is one of add, sub, mul, neg, scalar_mul, frobenius,
    verschiebung, norm, FV.  For verschiebung ``x`` has length k-1 and
    the result length k; frobenius shortens by one and norm lengthens
    by one.
    """
    wx = ghost(p, x)
    if op in ("add", "sub", "mul"):
        wy = ghost(p, y)
        if op == "add":
            ws = [a + b for a, b in zip(wx, wy)]
        elif op == "sub":
            ws = [a - b for a, b in zip(wx, wy)]
        else:
            ws = [a * b for a, b in zip(wx, wy)]
    elif op == "neg":
        ws = [-a for a in wx]
    elif op == "scalar_mul":
        ws = [n * a for a in wx]
    elif op == "FV":
        ws = [p * a for a in wx]
    elif op == "frobenius":
        ws = wx[1:]
    elif op == "verschiebung":
        ws = [0] + [p * a for a in wx]
    elif op == "norm":
        ws = [x[0]] + [a ** p for a in wx]
    else:
        raise ValueError("unknown Witt operation %r" % op)
    return from_ghost(p, ws)


def reduce_coords(coords, modulus):
    """Coordinates reduced into the canonical residues of Z/modulus;
    unchanged over Z (modulus None)."""
    if modulus is None:
        return list(coords)
    return [c % modulus for c in coords]


def witt_mismatch(p, modulus, op, got, x, y=None, n=None):
    """None when ``got`` are the coordinates of op(x, y) in W(Z/modulus)
    (W(Z) for modulus None), else a description of the difference."""
    want = reduce_coords(expected_witt(p, op, x, y, n), modulus)
    got = reduce_coords(got, modulus)
    if got != want:
        return "%s at p=%d mod %s: got %s, expected %s" % (
            op, p, modulus, got, want)
    return None


def chain_normal_form(factors, ngens):
    """wittlab's invariant-factor tuple from a list of diagonal entries
    of a Smith form of a relation matrix on ngens generators."""
    nonzero = sorted(abs(f) for f in factors if f)
    rank = len(nonzero)
    return tuple(f for f in nonzero if f != 1) + (0,) * (ngens - rank)


def invariant_factors(relations, ngens):
    """Invariant factors of Z^ngens / (row lattice of relations), by sympy."""
    rows = [list(r) for r in relations if any(r)]
    if not rows or ngens == 0:
        return (0,) * ngens
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors as sympy_inv
    diag = sympy_inv(Matrix(rows), domain=ZZ)
    return chain_normal_form([int(f) for f in diag], ngens)


def _prime_powers(a):
    out = {}
    q = 2
    while q * q <= a:
        while a % q == 0:
            out[q] = out.get(q, 0) + 1
            a //= q
        q += 1
    if a > 1:
        out[a] = out.get(a, 0) + 1
    return out


def cyclic_to_chain(orders):
    """Invariant factors of (+) Z/a_i (a_i = 0 meaning Z), without sympy:
    split each finite a_i into prime powers and regroup them."""
    free = sum(1 for a in orders if a == 0)
    by_prime = {}
    for a in orders:
        for q, e in _prime_powers(abs(a)).items() if a else ():
            by_prime.setdefault(q, []).append(q ** e)
    width = max((len(v) for v in by_prime.values()), default=0)
    chain = [1] * width
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, pq in enumerate(powers):
            chain[width - 1 - i] *= pq
    return tuple(chain) + (0,) * free


def tensor_factors(a, b):
    """Invariant factors of A (x) B from those of A and B."""
    return cyclic_to_chain([gcd(x, y) for x in a for y in b])


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def vecmat(v, m):
    """Row vector times matrix, plain ints."""
    width = len(m[0]) if m else 0
    out = [0] * width
    for x, row in zip(v, m):
        if x:
            for j, y in enumerate(row):
                out[j] += x * y
    return out
