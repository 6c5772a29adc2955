"""Tests for the exact integer linear algebra layer."""

import hashlib
import random
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dense import determinant, identity_matrix, matmul, vecmat

from wittlab import abgroups
from wittlab.abgroups import (AbHom, FgAbGroup, cokernel, direct_sum,
                              image, is_isomorphism, kernel, preimage,
                              quotient, quotient_by_endomorphism_family,
                              smith_normal_form, tensor)
from wittlab.mackey import box_product, burnside


def dense_smith(m, with_left=True, raw=False):
    """``abgroups._smith`` on a dense matrix, its sparse results written
    out as the lists of lists ``(d, left, right, right_inv)``.  With
    ``raw`` the elimination runs unwrapped by the certificate of
    conftest.py, exactly as asked."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    smith = abgroups._smith
    if raw:
        smith = getattr(smith, "__wrapped__", smith)
    d, left, right, right_inv = smith(
        abgroups._sparse_rows(m, ncols), ncols, with_left)

    def rows(sparse, width):
        return [[row.get(j, 0) for j in range(width)] for row in sparse]

    return (rows(d, ncols), rows(left, nrows) if with_left else None,
            [[column.get(k, 0) for column in right] for k in range(ncols)],
            rows(right_inv, ncols))


def invariant_factors_by_minor_gcd(m):
    """Independent oracle: d_1 * ... * d_k = gcd of all k x k minors."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[m[i][j] for j in csel] for i in rsel]
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


# tall and sparse with small entries, like box-product relation matrices
box_shaped = st.integers(min_value=1, max_value=7).flatmap(
    lambda c: st.integers(min_value=c, max_value=4 * c).flatmap(
        lambda r: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2)),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


def assert_diagonal_chain(d):
    """d is diagonal with non-negative entries d0 | d1 | ..."""
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a and b % a == 0
    for i, row in enumerate(d):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0


class TestSmithNormalForm:
    def test_two_by_two_example(self):
        d, left, right = smith_normal_form([[2, 0], [0, 3]])
        assert (d[0][0], d[1][1]) == (1, 6)

    def test_identity(self):
        d, left, right = smith_normal_form([[1, 0], [0, 1]])
        assert d == ((1, 0), (0, 1))

    def test_zero_one_by_one(self):
        d, left, right = smith_normal_form([[0]])
        assert d == ((0,),)

    @settings(max_examples=120, deadline=None)
    @given(matrices)
    def test_transform_identity_and_chain(self, m):
        d, left, right = smith_normal_form(m)
        assert matmul(matmul(left, m), right) == [list(r) for r in d]
        assert determinant(left) in (1, -1)
        assert determinant(right) in (1, -1)
        # the inverse carried by the elimination inverts the right transform
        right_inv = dense_smith(m)[3]
        assert matmul(right, right_inv) == identity_matrix(len(right))
        assert matmul(right_inv, right) == identity_matrix(len(right))
        assert_diagonal_chain(d)

    @settings(max_examples=150, deadline=None)
    @given(box_shaped)
    def test_box_shaped_invariants(self, m):
        d, left, right, right_inv = dense_smith(m)
        assert matmul(matmul(left, m), right) == d
        assert_diagonal_chain(d)
        assert matmul(right, right_inv) == identity_matrix(len(right))
        # group builds skip the left transform and get the rest unchanged
        assert dense_smith(m, with_left=False, raw=True) == (
            d, None, right, right_inv)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.integers(min_value=1, max_value=4).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=c, max_size=c),
                min_size=r, max_size=r))))
    def test_against_minor_gcd_oracle(self, m):
        d, _, _ = smith_normal_form(m)
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        expected = invariant_factors_by_minor_gcd(m)
        assert [x for x in diag if x] == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda r: st.integers(min_value=1, max_value=8).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=c, max_size=c),
                min_size=r, max_size=r))))
    def test_against_sympy_invariant_factors(self, m):
        # up to 8 x 8, where the minor-gcd oracle is too slow
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        d, _, _ = smith_normal_form(m)
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        expected = normalforms.invariant_factors(sympy.Matrix(m),
                                                 domain=sympy.ZZ)
        assert diag == [abs(int(x)) for x in expected]


def _pinned_matrices():
    """About 500 seeded matrices of four kinds (dense; sparse in [-2, 2]
    with up to four times more rows than columns; multiples of 3; large
    sparse entries) and every level relation matrix of A12 [] A12 and
    A24 [] A24."""
    rng = random.Random(17)
    out = []
    for k in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        kind = k % 4
        if kind == 0:
            entry = lambda: rng.randint(-9, 9)
        elif kind == 1:
            rows = rng.randint(1, 4 * cols)
            entry = lambda: rng.choice((0, 0, 0, -2, -1, 1, 2))
        elif kind == 2:
            entry = lambda: 3 * rng.randint(-5, 5)
        else:
            entry = lambda: rng.choice((0, 0, 0, rng.randint(-10**6, 10**6)))
        out.append([[entry() for _ in range(cols)] for _ in range(rows)])
    for n in (12, 24):
        box = box_product(burnside(n), burnside(n))
        out.extend(box.level(d).relations for d in box.group.divisors)
    return out


# sha256 of the transforms below, as the elimination returned them when
# this test was written: the pivot order fixes ``right``, and with it
# the order of ``elements()`` and every printed coordinate
PINNED_SMITH_SHA256 = (
    "8e4474dc948a69605dd1ccbca0ce3e4e46693fc37a62834f23e23bae45cd6b8a")


def smith_digest(matrices):
    h = hashlib.sha256()
    for m in matrices:
        h.update(repr(dense_smith(m)).encode())
        h.update(repr(dense_smith(m, with_left=False, raw=True)).encode())
    return h.hexdigest()


class TestPinnedTransforms:
    def test_smith_transforms_unchanged(self):
        assert smith_digest(_pinned_matrices()) == PINNED_SMITH_SHA256


class TestFgAbGroup:
    def test_invariant_factor_normalization(self):
        g = FgAbGroup(2, [[2, 0], [0, 3]])
        assert g.invariant_factors == (6,)

    def test_element_equality_through_reduction(self):
        g = FgAbGroup(2, [[2, 2], [0, 4]])
        assert g.equal((1, 1), (3, 3))
        assert not g.equal((1, 0), (0, 1))
        assert g.is_zero(g.add((1, 3), (1, 3)))
        assert not g.is_zero(g.add((1, 1), (1, 3)))

    def test_enumeration_matches_order(self):
        g = FgAbGroup(2, [[2, 0], [0, 3]])
        elems = list(g.elements())
        assert len(elems) == g.order() == 6
        canon = {g.canonical(e) for e in elems}
        assert len(canon) == 6

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=1, max_value=4),
                     min_size=n, max_size=n),
            st.lists(st.lists(st.integers(min_value=-6, max_value=6),
                              min_size=n, max_size=n),
                     max_size=4))))
    def test_elements_are_distinct_and_exhaustive(self, data):
        # c_i e_i rows make the presentation finite; the rest mix it up
        bounds, extra = data
        n = len(bounds)
        rels = [[c if j == i else 0 for j in range(n)]
                for i, c in enumerate(bounds)] + extra
        rng = random.Random(sum(bounds))
        rng.shuffle(rels)
        g = FgAbGroup(n, rels)
        elems = list(g.elements())
        assert len(elems) == g.order()
        canon = [g.canonical(e) for e in elems]
        assert len(set(canon)) == g.order()
        # enumeration runs over canonical coordinates in lexicographic order
        assert canon == list(product(*(range(d) for d in g._dvec)))

    def test_free_group_infinite(self):
        assert FgAbGroup.free(2).order() is None

    def test_json_round_trip(self):
        g = FgAbGroup(3, [[2, 0, 4], [0, 6, 0]])
        h = FgAbGroup.from_json(g.to_json())
        assert h.invariant_factors == g.invariant_factors
        assert h.ngens == g.ngens



def _mixed_presentation(ngens, factors, ops, extra):
    """Diagonal rows for the factors (0 adds a free generator, 1 a unit
    one), generators mixed by the unimodular column operations
    col_j += c col_i in ``ops``, then ``extra`` rows appended."""
    rows = [[f if j == i else 0 for j in range(ngens)]
            for i, f in enumerate(factors) if f]
    for i, j, c in ops:
        if i != j:
            for row in rows:
                row[j] += c * row[i]
    return rows + [list(r) for r in extra]


presentations = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from((0, 1, 1, 2, 3, 4, 6, 9)),
                 min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                           st.integers(0, max(n - 1, 0)),
                           st.integers(-3, 3)), max_size=8),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 max_size=2),
        st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                 min_size=2, max_size=4)))


def canonical_by_full_transform(rel, ngens, x):
    """The canonical form straight from ``_smith``: (x right) mod d over
    every column, unit columns included."""
    if rel:
        d, _left, right, _rinv = dense_smith(rel, with_left=False)
        dvec = [d[i][i] if i < len(rel) else 0 for i in range(ngens)]
    else:
        right, dvec = identity_matrix(ngens), [0] * ngens
    z = [sum(x[k] * right[k][i] for k in range(ngens))
         for i in range(ngens)]
    return tuple(zi % di if di else zi for zi, di in zip(z, dvec))


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(presentations)
    def test_matches_full_transform(self, case):
        # the group keeps only the live (d_i != 1) columns; the old
        # formula over all columns must give the same forms
        n, factors, ops, extra, xs = case
        rel = _mixed_presentation(n, factors, ops, extra)
        g = FgAbGroup(n, rel)
        for x in xs:
            want = canonical_by_full_transform(rel, n, x)
            assert g.canonical(x) == want
            assert g.is_zero(x) == (not any(want))
        for x, y in zip(xs, xs[1:]):
            assert g.equal(x, y) == (g.canonical(x) == g.canonical(y))
            # shifting by relations changes nothing
            shifted = list(x)
            for row in rel:
                shifted = [a + 2 * b for a, b in zip(shifted, row)]
            assert g.equal(x, shifted)
            assert g.canonical(shifted) == g.canonical(x)

    def test_no_generators(self):
        g = FgAbGroup(0)
        assert g.canonical(()) == ()
        assert g.is_zero(())
        assert list(g.elements()) == [()]

    def test_all_unit_columns(self):
        g = FgAbGroup(2, [[1, 1], [0, 1]])
        assert g.is_trivial()
        assert g.canonical((5, -7)) == (0, 0)
        assert list(g.elements()) == [(0, 0)]

    def test_wrong_length_rejected(self):
        g = FgAbGroup(2, [[2, 0]])
        for call in (g.canonical, g.is_zero):
            with pytest.raises(ValueError):
                call((1,))
        with pytest.raises(ValueError):
            g.equal((1, 0), (1,))


def hom_check_by_images(source, target, matrix):
    """The relation check on full images: each relation of the source
    pushed through the whole matrix and reduced in the target.  Returns
    the message of the first failure, or None."""
    for rel in source.relations:
        if not target.is_zero(vecmat(rel, matrix)):
            return "map does not preserve relations: %r" % (rel,)
    return None


class TestHoms:
    def test_ill_defined_rejected(self):
        z2 = FgAbGroup.from_invariant_factors([2])
        z = FgAbGroup.free(1)
        try:
            AbHom(z2, z, [[1]])
        except ValueError:
            pass
        else:
            raise AssertionError("2-torsion cannot map to Z by 1")

    def test_composition(self):
        z = FgAbGroup.free(1)
        f = AbHom(z, z, [[2]])
        g = AbHom(z, z, [[3]])
        assert g.compose(f).matrix == ((6,),)

    @pytest.mark.parametrize("factors", [(), (0,), (4, 6, 0), (3, 9),
                                         (0, 0, 2)])
    def test_power_is_iterated_compose(self, factors):
        # a random endomorphism of Z/f_1 + ... : entry (i, j) must be
        # a multiple of f_j / gcd(f_i, f_j), and 0 from torsion to Z
        g = FgAbGroup.from_invariant_factors(factors)
        rng = random.Random(len(factors))
        mat = [[rng.randint(-2, 2) * (fj // gcd(fi, fj)) if fj
                else (rng.randint(-2, 2) if not fi else 0)
                for fj in factors] for fi in factors]
        f = AbHom(g, g, mat)
        want = AbHom.identity(g)
        for j in range(13):
            assert f.power(j).matrix == want.matrix, j
            want = f.compose(want)
        with pytest.raises(ValueError):
            f.power(-1)

    def test_internal_constructors_match_public(self):
        g = FgAbGroup.from_invariant_factors([4, 2])
        f = AbHom(g, g, [[1, 1], [2, 1]])
        h = AbHom(g, g, [[3, 0], [0, 1]])
        cases = [
            (f.compose(h), matmul(h.matrix, f.matrix)),
            (f.add(h), [[4, 1], [2, 2]]),
            (f.sub(h), [[-2, 1], [2, 0]]),
            (f.scale_by(3), [[3, 3], [6, 3]]),
            (AbHom.identity(g), identity_matrix(2)),
            (AbHom.zero(g, g), [[0, 0], [0, 0]]),
            (AbHom.scalar(g, 5), [[5, 0], [0, 5]]),
            (f.power(3), matmul(matmul(f.matrix, f.matrix), f.matrix)),
        ]
        for got, mat in cases:
            assert got.matrix == AbHom(g, g, mat).matrix
            assert all(type(row) is tuple for row in got.matrix)
            with pytest.raises(AttributeError):
                got.matrix = ()

    @settings(max_examples=200, deadline=None)
    @given(presentations.filter(lambda case: case[0] > 0), presentations,
           st.data())
    def test_check_matches_image_oracle(self, src, tgt, data):
        source = FgAbGroup(src[0], _mixed_presentation(*src[:4]))
        target = FgAbGroup(tgt[0], _mixed_presentation(*tgt[:4]))
        entries = st.lists(st.integers(-6, 6), min_size=tgt[0],
                           max_size=tgt[0])
        matrix = data.draw(st.lists(entries, min_size=src[0],
                                    max_size=src[0]))
        # scaling by 0 or a multiple of every torsion order makes many
        # of the maps well defined
        c = data.draw(st.sampled_from((1, 1, 0, 2, 3, 36)))
        matrix = [[c * x for x in row] for row in matrix]
        try:
            AbHom(source, target, matrix)
        except ValueError as exc:
            got = str(exc)
        else:
            got = None
        assert got == hom_check_by_images(source, target, matrix)

    def test_zero_generator_source(self):
        # empty relation rows map to zero in any target
        empty = FgAbGroup(0, [[]])
        z = FgAbGroup.free(1)
        assert AbHom(empty, z, []).matrix == ()

    def test_equal_decides_modulo_relations(self):
        g = FgAbGroup.from_invariant_factors([4, 0])
        f = AbHom(g, g, [[1, 0], [0, 1]])
        assert f.equal(AbHom(g, g, [[5, 0], [4, 1]]))
        assert not f.equal(AbHom(g, g, [[1, 0], [0, 2]]))
        assert not f.equal(AbHom(g, g, [[3, 0], [0, 1]]))

    def test_preimage(self):
        z = FgAbGroup.free(2)
        z2 = FgAbGroup.from_invariant_factors([2, 2])
        h = AbHom(z, z2, [[1, 0], [1, 1]])
        y = (1, 1)
        x = preimage(h, y)
        assert x is not None and z2.equal(h.apply(x), y)
        assert preimage(AbHom(z, z, [[2, 0], [0, 2]]), (1, 0)) is None


factor_lists = st.lists(st.sampled_from((0, 1, 1, 2, 3, 4, 6, 9)),
                        max_size=4)


def _diagonal_group(draw, factors):
    """Z/f_1 + ... on one generator per factor (0 free, 1 trivial), its
    relation rows the non-zero diagonal ones followed by random integer
    combinations of them, so that rows need not be diagonal."""
    diag = [[f if j == i else 0 for j in range(len(factors))]
            for i, f in enumerate(factors) if f]
    rows = list(diag)
    for coeffs in draw(st.lists(st.lists(st.integers(-2, 2),
                                         min_size=len(diag),
                                         max_size=len(diag)), max_size=2)):
        rows.append([sum(c * row[j] for c, row in zip(coeffs, diag))
                     for j in range(len(factors))])
    return FgAbGroup(len(factors), rows)


def _random_map(draw, fa, fb):
    """A random well-defined matrix Z/fa_i + ... -> Z/fb_j + ...: entry
    (i, j) is a multiple of fb_j / gcd(fa_i, fb_j), and 0 from torsion
    to Z; with whole rows of zeros now and then.  Units and zeros are
    drawn most, so that rows with a single entry +-1 are common."""
    entries = st.sampled_from((0, 0, 1, -1, 1, -1, 2, -3))
    matrix = []
    for fi in fa:
        if draw(st.integers(0, 4)) == 0:
            matrix.append([0] * len(fb))
            continue
        matrix.append([draw(entries) * (fj // gcd(fi, fj)) if fj
                       else (draw(entries) if not fi else 0)
                       for fj in fb])
    return matrix


def _mod_relations(draw, matrix, group):
    """The matrix with random multiples of the group's relations added
    to its rows: the same map, other rows."""
    out = []
    for row in matrix:
        row = list(row)
        for rel in group.relations:
            c = draw(st.integers(-2, 2))
            row = [a + c * b for a, b in zip(row, rel)]
        out.append(row)
    return out


class TestSparseAgainstDense:
    """Every operation on the sparse rows of ``AbHom`` against the dense
    matrices of ``dense.py``, on random groups with free, torsion and
    trivial summands, zero-generator groups and all-zero rows."""

    @settings(max_examples=150, deadline=None)
    @given(factor_lists, factor_lists, factor_lists, st.data())
    def test_operations_match_dense_reference(self, fa, fb, fc, data):
        draw = data.draw
        a, b, c = (_diagonal_group(draw, f) for f in (fa, fb, fc))
        mf = _random_map(draw, fa, fb)
        mf2 = draw(st.sampled_from((
            _random_map(draw, fa, fb), _mod_relations(draw, mf, b), mf)))
        mg = _random_map(draw, fb, fc)
        me = _random_map(draw, fa, fa)
        f, f2, g, e = (AbHom(s, t, m) for s, t, m in (
            (a, b, mf), (a, b, mf2), (b, c, mg), (a, a, me)))
        scale = draw(st.integers(-3, 3))
        j = draw(st.integers(0, 5))
        power = identity_matrix(len(fa))
        for _ in range(j):
            power = matmul(power, me)
        # a product through zero generators has no rows to give its width
        cases = [
            (g.compose(f), matmul(mf, mg) if fb else [[0] * len(fc)
                                                      for _ in fa]),
            (f.add(f2), [[x + y for x, y in zip(r1, r2)]
                         for r1, r2 in zip(mf, mf2)]),
            (f.sub(f2), [[x - y for x, y in zip(r1, r2)]
                         for r1, r2 in zip(mf, mf2)]),
            (f.scale_by(scale), [[scale * x for x in row] for row in mf]),
            (e.power(j), power),
            (AbHom.identity(a), identity_matrix(len(fa))),
            (AbHom.zero(a, b), [[0] * len(fb) for _ in fa]),
            (AbHom.scalar(a, scale), [[scale if i == k else 0
                                       for k in range(len(fa))]
                                      for i in range(len(fa))]),
        ]
        for got, want in cases:
            assert got.matrix == tuple(map(tuple, want))
            again = AbHom(got.source, got.target, got.matrix)
            assert again.to_json() == got.to_json()
        x = tuple(draw(st.lists(st.integers(-5, 5), min_size=len(fa),
                                max_size=len(fa))))
        assert f.apply(x) == (tuple(vecmat(x, mf)) if fa
                              else (0,) * len(fb))
        assert f.equal(f2) == all(b.is_zero([p - q for p, q in zip(r1, r2)])
                                  for r1, r2 in zip(mf, mf2))
        assert f.is_zero_hom() == all(map(b.is_zero, mf))


class TestCokernelKernel:
    def test_mult_by_three(self):
        z = FgAbGroup.free(1)
        c, proj = cokernel(AbHom(z, z, [[3]]))
        assert c.invariant_factors == (3,)
        assert proj.apply((1,)) == (1,)

    def test_identity_cokernel_trivial(self):
        z2 = FgAbGroup.free(2)
        c, _ = cokernel(AbHom.identity(z2))
        assert c.is_trivial()

    def test_sublattice_inclusion(self):
        # 2Z + 0 inside Z^2 has cokernel Z/2 + Z
        z = FgAbGroup.free(1)
        z2 = FgAbGroup.free(2)
        c, _ = cokernel(AbHom(z, z2, [[2, 0]]))
        assert c.invariant_factors == (2, 0)

    def test_kernel_of_projection_to_quotient(self):
        z = FgAbGroup.free(1)
        z3 = FgAbGroup.from_invariant_factors([3])
        h = AbHom(z, z3, [[1]])
        k, incl = kernel(h)
        assert k.invariant_factors == (0,)
        assert z3.is_zero(h.apply(incl.apply((1,))))

    def test_cokernel_kernel_round_trip(self):
        rng = random.Random(7)
        z3 = FgAbGroup.free(3)
        for _ in range(15):
            mat = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            h = AbHom(z3, z3, mat)
            k, incl = kernel(h)
            c, proj = cokernel(h)
            # the projection kills the image
            for i in range(3):
                img = h.apply(tuple(1 if j == i else 0 for j in range(3)))
                assert c.is_zero(proj.apply(img))
            # the kernel maps to zero
            for i in range(k.ngens):
                v = incl.apply(tuple(1 if j == i else 0
                                     for j in range(k.ngens)))
                assert z3.is_zero(h.apply(v))

    def test_image(self):
        z = FgAbGroup.free(1)
        img, incl = image(AbHom(z, z, [[4]]))
        assert img.invariant_factors == (0,)
        c, _ = cokernel(incl)
        assert c.invariant_factors == (4,)


class TestTensor:
    def test_coprime_orders_vanish(self):
        t, _ = tensor(FgAbGroup.from_invariant_factors([2]),
                      FgAbGroup.from_invariant_factors([3]))
        assert t.is_trivial()

    def test_unit(self):
        g = FgAbGroup.from_invariant_factors([4, 0])
        t, pair = tensor(FgAbGroup.free(1), g)
        assert t.invariant_factors == g.invariant_factors

    def test_gcd_of_invariant_factors(self):
        t, _ = tensor(FgAbGroup.from_invariant_factors([9]),
                      FgAbGroup.from_invariant_factors([3]))
        assert t.invariant_factors == (3,)

    def test_symmetry_and_associativity_on_invariants(self):
        specs = ([2], [6, 0], [4])
        groups = [FgAbGroup.from_invariant_factors(s) for s in specs]
        ab, _ = tensor(groups[0], groups[1])
        ba, _ = tensor(groups[1], groups[0])
        assert ab.invariant_factors == ba.invariant_factors
        ab_c, _ = tensor(ab, groups[2])
        bc, _ = tensor(groups[1], groups[2])
        a_bc, _ = tensor(groups[0], bc)
        assert ab_c.invariant_factors == a_bc.invariant_factors

    def test_symmetry_canonical_map_commutes_with_pairings(self):
        a = FgAbGroup.from_invariant_factors([6, 0])
        b = FgAbGroup.from_invariant_factors([4])
        ab, pair_ab = tensor(a, b)
        ba, pair_ba = tensor(b, a)
        rows = []
        for i in range(a.ngens):
            for j in range(b.ngens):
                x = tuple(int(t == i) for t in range(a.ngens))
                y = tuple(int(t == j) for t in range(b.ngens))
                rows.append(pair_ba(y, x))
        swap = AbHom(ab, ba, rows)
        assert is_isomorphism(swap)
        rng = random.Random(9)
        for _ in range(10):
            x = a.random_element(rng, 3)
            y = b.random_element(rng, 3)
            assert ba.equal(swap.apply(pair_ab(x, y)), pair_ba(y, x))

    def test_pairing_bilinear(self):
        a = FgAbGroup.from_invariant_factors([6])
        b = FgAbGroup.free(1)
        t, pair = tensor(a, b)
        lhs = pair((2,), (3,))
        rhs = t.add(pair((1,), (3,)), pair((1,), (3,)))
        assert t.equal(lhs, rhs)


class TestQuotients:
    def test_sign_coinvariants(self):
        z = FgAbGroup.free(1)
        q, proj = quotient_by_endomorphism_family(z, [AbHom(z, z, [[-1]])])
        assert q.invariant_factors == (2,)

    def test_trivial_family(self):
        g = FgAbGroup.from_invariant_factors([4])
        q, _ = quotient_by_endomorphism_family(g, [AbHom.identity(g)])
        assert q.invariant_factors == (4,)

    def test_added_relations_keep_generators(self):
        g = FgAbGroup(2, [[4, 0]])
        q, proj = quotient(g, [[0, 0], [0, 6], [0, 0]])
        assert q.relations == ((4, 0), (0, 6))
        assert q.invariant_factors == (2, 12)
        assert proj.source is g and proj.target is q
        assert proj.matrix == ((1, 0), (0, 1))

    def test_cokernel_stores_no_zero_rows(self):
        z2 = FgAbGroup.free(2)
        c, _ = cokernel(AbHom(z2, z2, [[0, 0], [0, 3]]))
        assert c.relations == ((0, 3),)
        assert c.invariant_factors == (3, 0)


class TestDirectSumAndIso:
    def test_direct_sum(self):
        total, injs, projs = direct_sum(FgAbGroup.from_invariant_factors([2]),
                                        FgAbGroup.free(1))
        assert total.invariant_factors == (2, 0)
        x = injs[0].apply((1,))
        assert projs[0].apply(x) == (1,)
        assert projs[1].apply(x) == (0,)

    def test_is_isomorphism(self):
        z = FgAbGroup.free(2)
        assert is_isomorphism(AbHom(z, z, [[1, 1], [0, 1]]))
        assert not is_isomorphism(AbHom(z, z, [[2, 0], [0, 1]]))
        z6 = FgAbGroup.from_invariant_factors([6])
        z2x3 = FgAbGroup(2, [[2, 0], [0, 3]])
        h = AbHom(z6, z2x3, [[1, 1]])
        assert is_isomorphism(h)
