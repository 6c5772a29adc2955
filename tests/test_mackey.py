"""Tests for Mackey functors over cyclic groups."""

import time
from functools import cache
from math import gcd

import pytest
from dense import identity_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from mackey_reference import validate_comparable

from wittlab.abgroups import (AbHom, FgAbGroup, smith_normal_form, tensor,
                              unit_vector)
from wittlab.eqwitt import equivariant_witt
from wittlab.errors import (ActionOrderInvalid, GroupMismatch,
                            MackeyAxiomFailure, NotASubgroup)
from wittlab.mackey import (CyclicGroupSpec, MackeyFunctor, MackeyMap,
                            box_associativity_map, box_product,
                            box_symmetry_map, box_unit_map, burnside,
                            burnside_basis_vector, divisors,
                            fixed_point_mackey, geometric_fixed_points,
                            prime_steps, quotient, restrict_to_subgroup,
                            weyl_coinvariants, zeta)
from wittlab.rings import ModularRing
from wittlab.tambara import constant_tambara


def sign_z_over_c2():
    z = FgAbGroup.free(1)
    return fixed_point_mackey(z, AbHom(z, z, [[-1]]), 2)


def const_f3_over_c2():
    f3 = FgAbGroup.from_invariant_factors([3])
    return fixed_point_mackey(f3, AbHom.identity(f3), 2)


def perm6():
    """Z^3 permuted cyclically over C_6: the Weyl action is not trivial."""
    z3 = FgAbGroup.free(3)
    return fixed_point_mackey(
        z3, AbHom(z3, z3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]), 6)


BATTERY = None


def battery():
    global BATTERY
    if BATTERY is None:
        BATTERY = {
            "A2": burnside(2),
            "A6": burnside(6),
            "constF3": const_f3_over_c2(),
            "signZ": sign_z_over_c2(),
        }
    return BATTERY


def res_by_double_cosets(box, d, dsub):
    """Matrix of res from level d to level dsub of a box product, from
    the double coset formula with direct, uncached factor maps."""
    left, right = box.factors
    N = box.group.N
    rows = []
    for (e, i, j) in box.symbols[d]:
        g = gcd(e, dsub)
        x = left.res_map(e, g).apply(unit_vector(left.level(e).ngens, i))
        y = right.res_map(e, g).apply(unit_vector(right.level(e).ngens, j))
        row = [0] * len(box.symbols[dsub])
        # C_d / C_e C_dsub has d g / (e dsub) cosets, represented by the
        # powers of the generator of C_d
        for t in range(d * g // (e * dsub)):
            shift = t * (N // d)
            part = box.pure_tensor(dsub, g,
                                   left.weyl[g].power(shift).apply(x),
                                   right.weyl[g].power(shift).apply(y))
            row = [a + b for a, b in zip(row, part)]
        rows.append(tuple(row))
    return tuple(rows)


class TestCyclicGroupSpec:
    def test_divisors(self):
        assert CyclicGroupSpec(12).divisors == (1, 2, 3, 4, 6, 12)

    def test_divisors_match_trial_division(self):
        for n in range(1, 2001):
            assert list(divisors(n)) == \
                [d for d in range(1, n + 1) if n % d == 0], n

    def test_large_prime_power_builds_fast(self):
        # the divisors come from the prime factors, not a loop over 1..N
        start = time.process_time()
        spec = CyclicGroupSpec(3 ** 30)
        assert time.process_time() - start < 0.1
        assert spec.divisors == tuple(3 ** i for i in range(31))

    def test_covering_pairs(self):
        assert set(CyclicGroupSpec(6).covering_pairs()) == {
            (1, 2), (1, 3), (2, 6), (3, 6)}


class TestBurnside:
    def test_levels_are_free_on_orbits(self):
        a = burnside(6)
        assert [a.level(d).ngens for d in (1, 2, 3, 6)] == [1, 2, 2, 4]
        a.validate()

    def test_n2_maps(self):
        a = burnside(2)
        # res([C2/e]) = 2, res([C2/C2]) = 1 down on level 1
        assert a.res[(2, 1)].apply(burnside_basis_vector(2, 1)) == (2,)
        assert a.res[(2, 1)].apply(burnside_basis_vector(2, 2)) == (1,)
        # tr(1) = [C2/e]
        assert a.tr[(1, 2)].apply((1,)) == burnside_basis_vector(2, 1)

    def test_n1_is_constant_z(self):
        a = burnside(1)
        assert a.level(1).invariant_factors == (0,)

    def test_double_coset_at_bottom(self):
        a = burnside(2)
        rt = a.res_map(2, 1).compose(a.tr_map(1, 2))
        assert rt.matrix == ((2,),)

    def test_weyl_trivial(self):
        a = burnside(6)
        for d in divisors(6):
            assert a.weyl[d].equal(AbHom.identity(a.level(d)))


class TestFixedPoints:
    def test_constant_f3(self):
        c = const_f3_over_c2()
        c.validate()
        assert c.level(1).invariant_factors == (3,)
        assert c.level(2).invariant_factors == (3,)
        assert c.res[(2, 1)].equal(AbHom.identity(c.level(1)))
        assert c.tr[(1, 2)].equal(AbHom.scalar(c.level(1), 2))

    def test_sign_action(self):
        s = sign_z_over_c2()
        s.validate()
        assert s.level(1).invariant_factors == (0,)
        assert s.level(2).is_trivial()

    def test_tr_then_res_is_orbit_sum(self):
        # on the fixed-point functor of Z^2 with swap action
        z2 = FgAbGroup.free(2)
        swap = AbHom(z2, z2, [[0, 1], [1, 0]])
        m = fixed_point_mackey(z2, swap, 2)
        m.validate()
        rt = m.res_map(2, 1).compose(m.tr_map(1, 2))
        expected = AbHom.identity(m.level(1)).add(m.weyl[1])
        assert rt.equal(expected)

    def test_invalid_action_order(self):
        z = FgAbGroup.free(1)
        doubling = AbHom(z, z, [[2]])
        with pytest.raises(ActionOrderInvalid):
            fixed_point_mackey(z, doubling, 2)


class TestBoxProduct:
    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            box_product(burnside(2), burnside(6))

    def test_every_battery_functor_validates(self):
        for m in battery().values():
            m.validate()

    @pytest.mark.parametrize("name", ["A6", "constF3", "signZ"])
    def test_unit_isomorphism(self, name):
        m = battery()[name]
        unit = burnside(m.N)
        bx = box_product(unit, m)
        bx.validate()
        u = box_unit_map(bx, m)
        assert u.is_levelwise_isomorphism()

    def test_symmetry(self):
        m, n = battery()["constF3"], battery()["signZ"]
        bx = box_product(m, n)
        bx.validate()
        sym = box_symmetry_map(bx, box_product(n, m))
        assert sym.is_levelwise_isomorphism()
        a6 = battery()["A6"]
        bx6 = box_product(a6, a6)
        sym6 = box_symmetry_map(bx6, box_product(a6, a6))
        assert sym6.is_levelwise_isomorphism()

    def test_associativity_over_c2(self):
        a2, c, s = battery()["A2"], battery()["constF3"], battery()["signZ"]
        left = box_product(box_product(a2, c), s)
        right = box_product(a2, box_product(c, s))
        assoc = box_associativity_map(left, right)
        assert assoc.is_levelwise_isomorphism()

    def test_associativity_over_c6(self):
        a6 = battery()["A6"]
        left = box_product(box_product(a6, a6), a6)
        right = box_product(a6, box_product(a6, a6))
        assoc = box_associativity_map(left, right)
        assert assoc.is_levelwise_isomorphism()

    def test_bottom_level_is_tensor(self):
        m, n = battery()["constF3"], battery()["signZ"]
        bx = box_product(m, n)
        t, pair = tensor(m.level(1), n.level(1))
        # the canonical map from the tensor presentation
        gens = []
        for i in range(m.level(1).ngens):
            for j in range(n.level(1).ngens):
                x = tuple(1 if a == i else 0
                          for a in range(m.level(1).ngens))
                y = tuple(1 if b == j else 0
                          for b in range(n.level(1).ngens))
                gens.append(bx.pure_tensor(1, 1, x, y))
        hom = AbHom(t, bx.level(1), gens)
        from wittlab.abgroups import is_isomorphism
        assert is_isomorphism(hom)

    def test_restriction_commutes_with_box(self):
        a6 = battery()["A6"]
        big = box_product(a6, a6)
        restricted = restrict_to_subgroup(big, 2)
        boxed = box_product(restrict_to_subgroup(a6, 2),
                            restrict_to_subgroup(a6, 2))
        comps = {d: AbHom(restricted.level(d), boxed.level(d),
                          identity_matrix(restricted.level(d).ngens))
                 for d in (1, 2)}
        m = MackeyMap(restricted, boxed, comps)
        assert m.is_levelwise_isomorphism()


    @pytest.mark.parametrize("name", ["A12", "W12", "perm6"])
    def test_restriction_matches_double_coset_formula(self, name):
        if name == "A12":
            m = burnside(12)
        elif name == "W12":
            m = equivariant_witt(constant_tambara(ModularRing(9), 4),
                                 3, 1).green.mackey
        else:
            m = perm6()
        box = box_product(m, m)
        for (dsub, d) in box.group.covering_pairs():
            assert box.res[(d, dsub)].matrix == \
                res_by_double_cosets(box, d, dsub), (dsub, d)

    def test_relation_invariant_factors_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        box = box_product(burnside(12), burnside(12))
        sizes = []
        for d in box.group.divisors:
            rel = box.level(d).relations
            if not rel:
                continue  # a free level
            sizes.append((len(rel), len(rel[0])))
            dmat, _, _ = smith_normal_form(rel)
            diag = [dmat[i][i] for i in range(min(len(rel), len(rel[0])))]
            expected = normalforms.invariant_factors(sympy.Matrix(rel),
                                                     domain=sympy.ZZ)
            assert diag == [abs(int(x)) for x in expected], d
        assert max(sizes) == (136, 70)

    def test_burnside_48(self):
        # A [] A = A: level d is free on the tau(d) orbits C_d/C_e
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        box = box_product(burnside(48), burnside(48))
        for d in box.group.divisors:
            level = box.level(d)
            assert level.invariant_factors == (0,) * len(divisors(d)), d
            rel = level.relations
            if not rel:
                continue
            dmat, _, _ = smith_normal_form(rel)
            diag = [dmat[i][i] for i in range(min(len(rel), len(rel[0])))]
            expected = normalforms.invariant_factors(sympy.Matrix(rel),
                                                     domain=sympy.ZZ)
            assert diag == [abs(int(x)) for x in expected], d
        assert len(box.level(48).relations) == 620
        box.validate()


class TestValidation:
    def test_tripled_transfer_is_rejected(self):
        data = burnside(6).to_json()
        data["tr"]["1->2"]["matrix"] = [[3, 0]]
        m = MackeyFunctor.from_json(data)
        with pytest.raises(MackeyAxiomFailure, match="tr transitivity at 6"):
            m.validate()

    @pytest.mark.parametrize("N, level, weyl, message", [
        pytest.param(2, (0,), [[0]], "weyl[1] not invertible", id="Z-zero"),
        pytest.param(2, (4,), [[2]], "weyl[1] not invertible", id="Z4-two"),
        pytest.param(3, (0,), [[-1]],
                     "weyl[1] does not have order dividing 3", id="Z-sign"),
        pytest.param(2, (5,), [[2]],
                     "weyl[1] does not have order dividing 2", id="Z5-two"),
        pytest.param(4, (0, 0), [[0, 1], [-1, 0]], None, id="Z2-rotation"),
    ])
    def test_weyl_order_and_invertibility(self, N, level, weyl, message):
        # the order test runs first; the isomorphism test then only
        # picks which of the two messages is raised
        group = FgAbGroup.from_invariant_factors(level)
        m = MackeyFunctor(N, {d: group for d in divisors(N)},
                          {(d, dsub): AbHom.identity(group)
                           for (dsub, d) in CyclicGroupSpec(N)
                           .covering_pairs()},
                          {(dsub, d): AbHom.scalar(group, d // dsub)
                           for (dsub, d) in CyclicGroupSpec(N)
                           .covering_pairs()},
                          {1: AbHom(group, group, weyl)})
        if message is None:
            with pytest.raises(MackeyAxiomFailure,
                               match="res and weyl do not commute"):
                m.validate()
        else:
            with pytest.raises(MackeyAxiomFailure) as info:
                m.validate()
            assert str(info.value) == message

    def test_map_not_commuting_with_res_is_rejected(self):
        a2 = burnside(2)
        comps = {1: AbHom.identity(a2.level(1)),
                 2: AbHom(a2.level(2), a2.level(2), [[0, 1], [1, 0]])}
        with pytest.raises(MackeyAxiomFailure,
                           match="does not commute with res at"):
            MackeyMap(a2, a2, comps)


LAW_FUNCTORS = {
    "A12": lambda: burnside(12),
    "A36": lambda: burnside(36),
    "perm6": perm6,
    "W12": lambda: equivariant_witt(constant_tambara(ModularRing(9), 4),
                                    3, 1).green.mackey,
    "constF3": const_f3_over_c2,
    "signZ": sign_z_over_c2,
}


# functors with a covering pair along both 2 and 3, free or torsion
SCALED = ["A12", "A36", "perm6", "W12"]


@cache
def law_functor(name):
    return LAW_FUNCTORS[name]()


def edited(M, res=None, tr=None, weyl=None):
    """M with some of its stored maps replaced."""
    return MackeyFunctor(M.group, M.levels, {**M.res, **(res or {})},
                         {**M.tr, **(tr or {})}, {**M.weyl, **(weyl or {})})


def along_prime(maps, q, c):
    """The maps of the covering pairs with quotient q, scaled by c;
    ``maps`` is keyed like ``res`` or ``tr`` of a Mackey functor."""
    return {pair: f.scale_by(c) for pair, f in maps.items()
            if max(pair) == min(pair) * q}


def verdict(check, M):
    """None when check(M) passes, else the failure message, with the
    pair of a double coset failure left out."""
    try:
        check(M)
    except MackeyAxiomFailure as exc:
        message = str(exc)
        return ("double coset law fails" if message.startswith(
            "double coset law fails") else message)
    return None


class TestCoveringPairValidation:
    """validate decides the double coset law on covering pairs; the
    reference decides it on every comparable pair."""

    @pytest.mark.parametrize("name", SCALED)
    @pytest.mark.parametrize("q", [2, 3])
    def test_transfers_scaled_along_a_prime_fail_the_law(self, name, q):
        # scaling every transfer along q keeps transitivity and
        # Weyl-equivariance, and breaks res tr on each pair along q
        bad = edited(law_functor(name), tr=along_prime(
            law_functor(name).tr, q, 2))
        for check in (lambda m: m.validate(), validate_comparable):
            with pytest.raises(MackeyAxiomFailure) as info:
                check(bad)
            assert str(info.value).startswith("double coset law fails")

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(SCALED),
           q=st.sampled_from([2, 3]), c=st.integers(-6, 6))
    def test_scaled_transfers_against_the_reference(self, name, q, c):
        M = law_functor(name)
        bad = edited(M, tr=along_prime(M.tr, q, c))
        # the law now fails exactly where (c - 1) res tr is not zero
        fails = any(not M.res[(d, e)].compose(M.tr[(e, d)]).scale_by(
            c - 1).is_zero_hom() for (e, d) in M.group.covering_pairs()
            if d == e * q)
        expected = "double coset law fails" if fails else None
        assert verdict(validate_comparable, bad) == expected
        assert verdict(lambda m: m.validate(), bad) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_verdict_matches_the_reference(self, data):
        M = law_functor(data.draw(st.sampled_from(sorted(LAW_FUNCTORS))))
        c = data.draw(st.integers(-3, 3))
        pair = data.draw(st.sampled_from(M.group.covering_pairs()))
        d = data.draw(st.sampled_from(M.group.divisors))
        q = data.draw(st.sampled_from(prime_steps(M.N)))
        bad = data.draw(st.sampled_from([
            lambda: edited(M, tr={pair: M.tr[pair].scale_by(c)}),
            lambda: edited(M, res={pair[::-1]: M.res[pair[::-1]]
                                   .scale_by(c)}),
            lambda: edited(M, tr=along_prime(M.tr, q, c)),
            lambda: edited(M, res=along_prime(M.res, q, c)),
            lambda: edited(M, weyl={d: M.weyl[d].power(abs(c))}),
        ]))()
        assert verdict(lambda m: m.validate(), bad) == \
            verdict(validate_comparable, bad)

    def test_battery_passes_both(self):
        for name in LAW_FUNCTORS:
            M = law_functor(name)
            assert M.validate() and validate_comparable(M)

    def test_a_failure_is_named_by_a_covering_pair(self):
        M = burnside(9)
        bad = edited(M, tr={(3, 9): M.tr[(3, 9)].scale_by(2)})
        with pytest.raises(MackeyAxiomFailure) as info:
            bad.validate()
        assert str(info.value) == "double coset law fails at (3, 9)"
        with pytest.raises(MackeyAxiomFailure) as info:
            validate_comparable(bad)
        assert str(info.value) == "double coset law fails at (1, 9)"

    def test_validate_builds_no_composite(self, monkeypatch):
        box = box_product(burnside(36), burnside(36))

        def refuse(*args):
            raise AssertionError("validate built a composite map")

        monkeypatch.setattr(MackeyFunctor, "res_map", refuse)
        monkeypatch.setattr(MackeyFunctor, "tr_map", refuse)
        monkeypatch.setattr(CyclicGroupSpec, "comparable_pairs", refuse)
        assert box.validate()


class TestRestrictAndZeta:
    def test_restrict_burnside(self):
        a6 = burnside(6)
        a2 = restrict_to_subgroup(a6, 2)
        a2.validate()
        ref = burnside(2)
        comps = {d: AbHom(a2.level(d), ref.level(d),
                          identity_matrix(a2.level(d).ngens))
                 for d in (1, 2)}
        m = MackeyMap(a2, ref, comps)
        assert m.is_levelwise_isomorphism()

    def test_restrict_to_full_group(self):
        a6 = burnside(6)
        same = restrict_to_subgroup(a6, 6)
        assert same.level(6) is a6.level(6)
        assert same.weyl[1].equal(a6.weyl[1])

    def test_restrict_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            restrict_to_subgroup(burnside(6), 4)

    def test_zeta_trivial(self):
        a6 = burnside(6)
        z = zeta(a6, 1)
        assert z.level(6) is a6.level(6)

    def test_zeta_reindexes(self):
        z = zeta(burnside(6), 2)
        assert z.N == 3
        assert z.level(1).invariant_factors == (0, 0)
        z.validate()


class TestGeometricFixedPoints:
    def test_burnside_brauer_quotient(self):
        phi, proj = geometric_fixed_points(burnside(3), 3)
        level = phi.level(1)
        assert level.invariant_factors == (0,)
        assert level.is_zero(burnside_basis_vector(3, 1))
        fixed_class = level.canonical(burnside_basis_vector(3, 3))
        assert any(fixed_class)
        # [C_3/C_3] generates: sending 1 -> [C_3/C_3] is an isomorphism
        z = FgAbGroup.free(1)
        gen = AbHom(z, level, [burnside_basis_vector(3, 3)])
        from wittlab.abgroups import is_isomorphism
        assert is_isomorphism(gen)

    def test_trivial_subgroup(self):
        a6 = burnside(6)
        phi, proj = geometric_fixed_points(a6, 1)
        for d in divisors(6):
            assert phi.level(d).invariant_factors == \
                a6.level(d).invariant_factors

    def test_projection_surjective(self):
        phi, proj = geometric_fixed_points(burnside(6), 2)
        assert proj.is_levelwise_surjection()

    def test_monoidal_on_burnside_pair(self):
        # Phi(A [] A) and Phi(A) [] Phi(A) for A = burnside(3)
        a3 = burnside(3)
        bx = box_product(a3, a3)
        phi_box, _ = geometric_fixed_points(bx, 3)
        phi_a, _ = geometric_fixed_points(a3, 3)
        boxed_phi = box_product(phi_a, phi_a)
        # the canonical comparison sends symbols with 3 | e to the
        # corresponding symbol of the quotients, the rest to zero
        rows = []
        for (e, i, j) in bx.symbols[3]:
            if e % 3 == 0:
                rows.append(boxed_phi.pure_tensor(
                    1, e // 3,
                    tuple(1 if a == i else 0
                          for a in range(phi_a.level(e // 3).ngens)),
                    tuple(1 if b == j else 0
                          for b in range(phi_a.level(e // 3).ngens))))
            else:
                rows.append((0,) * boxed_phi.level(1).ngens)
        hom = AbHom(phi_box.level(1), boxed_phi.level(1), rows)
        from wittlab.abgroups import is_isomorphism
        assert is_isomorphism(hom)

    def test_composite_order_rejected(self):
        with pytest.raises(ValueError):
            geometric_fixed_points(burnside(6), 6)


class TestQuotient:
    def test_no_added_relations(self):
        a6 = burnside(6)
        q, proj = quotient(a6, a6.levels)
        q.validate()
        assert proj.source is a6 and proj.target is q
        assert proj.is_levelwise_isomorphism()

    def test_relation_that_does_not_descend(self):
        # killing level 1 but not level 3: tr 1 -> 3 sends the killed
        # generator to [C_3/C_1], which is not zero
        a3 = burnside(3)
        levels = {1: FgAbGroup(1, [[1]]), 3: a3.level(3)}
        with pytest.raises(ValueError, match="does not preserve relations"):
            quotient(a3, levels)


class TestWeylCoinvariants:
    def test_trivial_action(self):
        a6 = burnside(6)
        for d in divisors(6):
            q, proj = weyl_coinvariants(a6, d)
            assert q.invariant_factors == a6.level(d).invariant_factors

    def test_sign_action(self):
        s = sign_z_over_c2()
        q, proj = weyl_coinvariants(s, 1)
        assert q.invariant_factors == (2,)


class TestJson:
    def test_round_trip(self):
        a6 = burnside(6)
        data = a6.to_json()
        back = MackeyFunctor.from_json(data)
        back.validate()
        for d in divisors(6):
            assert back.level(d).invariant_factors == \
                a6.level(d).invariant_factors
        assert back.res[(6, 3)].matrix == a6.res[(6, 3)].matrix

    def test_covering_keys_only(self):
        data = burnside(6).to_json()
        assert set(data["res"]) == {"1<-2", "1<-3", "2<-6", "3<-6"}
        assert set(data["tr"]) == {"1->2", "1->3", "2->6", "3->6"}
