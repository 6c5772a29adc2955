"""Tests for the equivariant and classical Witt complex checkers."""

import warnings

import pytest

from wittlab import eqwitt, wittcomplex
from wittlab.abgroups import AbHom, FgAbGroup, unit_vector
from wittlab.cli import family_to_json, witt_complex_from_json
from wittlab.eqwitt import equivariant_witt, restriction_r
from wittlab.errors import (EvenPrime, MalformedData, NotApplicable,
                            PrimeDividesN)
from wittlab.rings import IntegerRing, ModularRing, parse_ring
from wittlab.tambara import burnside_tambara, constant_tambara
from wittlab.witt import WittRing
from wittlab.wittcomplex import (_first_difference, check_classical,
                                 check_equivariant, degree_zero_family,
                                 specialize_n1, with_identity_differential,
                                 with_scaled_transfer)


def family_const_f3_n2(S=1):
    return degree_zero_family(constant_tambara(ModularRing(3), 2), 3, S)


def family_const_f3_n1(S=2):
    return degree_zero_family(constant_tambara(ModularRing(3), 1), 3, S)


def family_burnside_n1(S=2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return degree_zero_family(burnside_tambara(1), 3, S)


class TestEquivariantPass:
    def test_constant_f3_n2(self):
        report = check_equivariant(family_const_f3_n2())
        assert report.passed, report

    def test_constant_f3_n1_tower(self):
        report = check_equivariant(family_const_f3_n1())
        assert report.passed, report

    def test_burnside_n1(self):
        data = family_burnside_n1()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = check_equivariant(data)
        assert report.passed, report

    def test_axioms_reported_in_definition_order(self):
        report = check_equivariant(family_const_f3_n2())
        names = [r.name for r in report.results]
        assert names == [
            "compatibility isomorphisms", "d^2 = 0", "Leibniz rule",
            "lambda r = r lambda", "d r = r d", "res tr = [L:H]",
            "res d tr = d", "F d lambda lift rule", "lambda is a ring map"]

    def test_empty_tower_vacuous(self):
        report = check_equivariant(family_const_f3_n1(S=0))
        assert report.passed


class TestEquivariantGuards:
    def test_even_prime_rejected(self):
        data = degree_zero_family(constant_tambara(ModularRing(3), 1), 2, 1)
        with pytest.raises(EvenPrime):
            check_equivariant(data)

    def test_p_divides_n_rejected(self):
        # build a family-shaped object by hand with clashing parameters
        data = family_const_f3_n2()
        data.n = 3
        with pytest.raises(PrimeDividesN):
            check_equivariant(data)

    def test_p_locality_enforced_on_finite_carriers(self):
        data = degree_zero_family(constant_tambara(ModularRing(4), 1), 3, 1)
        with pytest.raises(MalformedData):
            check_equivariant(data)

    def test_infinite_carrier_warns(self):
        data = family_burnside_n1(S=1)
        with pytest.warns(UserWarning):
            check_equivariant(data)

    def test_negative_tower_length_rejected(self):
        with pytest.raises(MalformedData, match="S = -1 is negative"):
            degree_zero_family(constant_tambara(ModularRing(3), 1), 3, -1)


class TestEquivariantViolations:
    def test_scaled_transfer_fails_res_tr(self):
        bad = with_scaled_transfer(family_const_f3_n2(), 1, (3, 6), 2)
        report = check_equivariant(bad)
        assert not report.passed
        failure = report.failures()[0]
        assert failure.name == "res tr = [L:H]"
        assert failure.witness["pair"] == [3, 6]
        # the witness re-evaluates to a violated equation
        tower = bad.towers[1]
        mk = tower.green0.mackey
        e, d = failure.witness["pair"]
        comp = mk.res_map(d, e).compose(mk.tr_map(e, d))
        gen = failure.witness["generator"]
        lhs = comp.matrix[gen]
        unit = tuple(1 if i == gen else 0
                     for i in range(mk.level(e).ngens))
        rhs = mk.level(e).scale(d // e, unit)
        assert not mk.level(e).equal(lhs, rhs)
        assert list(lhs) == failure.witness["lhs"]

    def test_violation_reports_are_deterministic(self):
        bad1 = with_scaled_transfer(family_const_f3_n2(), 1, (3, 6), 2)
        bad2 = with_scaled_transfer(family_const_f3_n2(), 1, (3, 6), 2)
        assert check_equivariant(bad1).to_json() == \
            check_equivariant(bad2).to_json()

    def test_compat_that_is_not_a_ring_map_fails(self):
        # -1 is an isomorphism of Mackey functors but sends 1 to -1: the
        # Green-map check rejects it with a typed error, reported as a
        # failed axiom
        data = family_const_f3_n1(S=1)
        comps = data.compat[(1, 0)][0]
        data.compat[(1, 0)] = {0: {d: f.scale_by(-1)
                                   for d, f in comps.items()}}
        report = check_equivariant(data)
        failure = report.failures()[0]
        assert failure.name == "compatibility isomorphisms"
        assert failure.witness["reason"] == "unit not preserved at level 1"

    def test_lambda_that_is_not_multiplicative_fails(self):
        # over Z, level 3 of tower 1 is W_2(Z) on 1 and V(1), with
        # V(1)^2 = 3 V(1); lambda = 1 on 1 and V(1) -> V(1) + 1 keeps 1
        # and the relations but sends V(1)^2 to 3 V(1) + 3, not
        # (V(1) + 1)^2 = 5 V(1) + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = degree_zero_family(constant_tambara(IntegerRing(), 1),
                                      3, 1)
            lam = data.lam[1][3]
            data.lam[1][3] = AbHom(lam.source, lam.target, [[1, 0], [1, 1]])
            report = check_equivariant(data)
        witness = report.failures()[-1].witness
        assert report.failures()[-1].name == "lambda is a ring map"
        assert witness == {"tower": 1, "level": 3, "generators": [1, 1],
                           "lhs": [3, 3], "rhs": [1, 5]}
        # the witness re-evaluates to the violated equation
        green = data.towers[1].green0
        f = data.lam[1][3]
        i, j = witness["generators"]
        assert list(f.apply(green.multiply(3, unit_vector(2, i),
                                           unit_vector(2, j)))) == \
            witness["lhs"]
        assert list(green.multiply(3, f.matrix[i], f.matrix[j])) == \
            witness["rhs"]

    def test_identity_differential_breaks_leibniz(self):
        bad = with_identity_differential(family_const_f3_n1(S=1), 1)
        report = check_equivariant(bad)
        assert not report.passed
        names = {f.name for f in report.failures()}
        assert "Leibniz rule" in names
        leib = next(f for f in report.failures()
                    if f.name == "Leibniz rule")
        # d(x*y) = x*y but x*dy + dx*y = 2*x*y
        tower = bad.towers[leib.witness["tower"]]
        d = leib.witness["level"]
        x = tuple(leib.witness["x"])
        y = tuple(leib.witness["y"])
        dd = bad.differential(leib.witness["tower"], 0, d)
        lhs = dd.apply(tower.multiply(d, 0, x, 0, y))
        rhs = tower.level(1, d).add(
            tower.multiply(d, 1, dd.apply(x), 0, y),
            tower.multiply(d, 0, x, 1, dd.apply(y)))
        assert not tower.level(1, d).equal(lhs, rhs)


class TestSpecializeN1:
    def test_requires_n1(self):
        with pytest.raises(NotApplicable):
            specialize_n1(family_const_f3_n2())

    def test_f3_family_passes_classical(self):
        cdata = specialize_n1(family_const_f3_n1())
        report = check_classical(cdata)
        assert report.passed, report

    def test_burnside_family_passes_classical(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cdata = specialize_n1(family_burnside_n1())
            report = check_classical(cdata)
        assert report.passed, report

    def test_single_ring_tower_vacuous(self):
        cdata = specialize_n1(family_const_f3_n1(S=0))
        report = check_classical(cdata)
        assert report.passed

    def test_violation_propagates(self):
        bad = with_scaled_transfer(family_const_f3_n1(), 2, (3, 9), 2)
        eq_report = check_equivariant(bad)
        assert not eq_report.passed
        cdata = specialize_n1(bad)
        report = check_classical(cdata)
        assert not report.passed
        names = {f.name for f in report.failures()}
        assert "F V = p" in names
        fv = next(f for f in report.failures() if f.name == "F V = p")
        assert fv.witness["lhs"] != fv.witness["rhs"]


class TestClassicalDirect:
    def test_even_prime(self):
        data = degree_zero_family(constant_tambara(ModularRing(3), 1), 3, 1)
        cdata = specialize_n1(data)
        cdata.p = 2
        with pytest.raises(EvenPrime):
            check_classical(cdata)

    def test_w_f3_with_zero_differential(self):
        cdata = specialize_n1(family_const_f3_n1(S=2))
        report = check_classical(cdata)
        assert report.passed
        names = [r.name for r in report.results]
        assert "F V = p" in names
        assert "F d V = d" in names
        assert "lambda is a strict pro-map" in names


class TestReportShape:
    def test_json_round_trip_fields(self):
        report = check_equivariant(family_const_f3_n2())
        data = report.to_json()
        assert data["status"] == "PASS"
        assert all(a["status"] == "PASS" for a in data["axioms"])

    def test_failure_carries_witness(self):
        bad = with_scaled_transfer(family_const_f3_n2(), 1, (3, 6), 2)
        data = check_equivariant(bad).to_json()
        assert data["status"] == "FAIL"
        failing = [a for a in data["axioms"] if a["status"] == "FAIL"]
        assert failing and "witness" in failing[0]


class TestInjectorsLeaveInputAlone:
    def test_identity_differential_does_not_touch_its_input(self):
        f = degree_zero_family(constant_tambara(ModularRing(3), 1), 3, 2)
        with_identity_differential(f, 1)
        assert f.D == 0
        assert sorted(f.r_maps[2]) == [0]
        assert f.d_maps == {}
        assert check_equivariant(f).passed
        bad = with_scaled_transfer(f, 2, (3, 9), 2)
        names = [r.name for r in check_equivariant(bad).failures()]
        # lambda = id no longer commutes with the scaled transfer
        assert names == ["res tr = [L:H]", "lambda is a ring map"]

    def test_shared_restriction_maps_stay_unchanged(self):
        # restriction_r keeps one GreenMap per Witt functor, and the
        # injected copies share the functors of their input
        f = degree_zero_family(constant_tambara(ModularRing(3), 1), 3, 2)
        kept = {s: restriction_r(f.witt_tower[s]) for s in (1, 2)}
        before = {s: {d: h.matrix for d, h in r.components.items()}
                  for s, r in kept.items()}
        for bad in (with_identity_differential(f, 1),
                    with_scaled_transfer(f, 2, (3, 9), 2)):
            assert not check_equivariant(bad).passed
        for s, r in kept.items():
            assert restriction_r(f.witt_tower[s]) is r
            assert {d: h.matrix for d, h in r.components.items()} \
                == before[s]
        assert check_equivariant(f).passed


def count_witt_builds(monkeypatch):
    """The (p, k) of every equivariant_witt call from here on."""
    calls = []

    def counted(R, p, k):
        calls.append((p, k))
        return equivariant_witt(R, p, k)

    monkeypatch.setattr(eqwitt, "equivariant_witt", counted)
    monkeypatch.setattr(wittcomplex, "equivariant_witt", counted)
    return calls


class TestFamilyBuildsEachTowerOnce:
    """r of a family lands in the family's own Witt functors, so each
    W_{C_{p^s n}}(R) is built once."""

    def test_degree_zero_family(self, monkeypatch):
        calls = count_witt_builds(monkeypatch)
        f = degree_zero_family(constant_tambara(ModularRing(3), 1), 3, 4)
        assert calls == [(3, s) for s in range(5)]
        for s in range(1, 5):
            assert restriction_r(f.witt_tower[s]).target_witt \
                is f.witt_tower[s - 1]
        assert check_equivariant(f).passed
        assert len(calls) == 5

    def test_family_read_from_json(self, monkeypatch):
        obj = family_to_json(family_const_f3_n2(S=2))
        calls = count_witt_builds(monkeypatch)
        f = witt_complex_from_json(obj)
        for s in (1, 2):
            assert restriction_r(f.witt_tower[s]).target_witt \
                is f.witt_tower[s - 1]
        assert check_equivariant(f).passed
        assert calls == [(3, s) for s in range(3)]


class TestSpecializeShapes:
    @pytest.mark.parametrize("ring", ["F3", "Z/9"])
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_degree_one_of_one_tower_is_malformed(self, ring, s):
        f = degree_zero_family(constant_tambara(parse_ring(ring), 1), 3, 2)
        with pytest.raises(MalformedData,
                           match=r"tower \d in degree 1 .* B_\d"):
            specialize_n1(with_identity_differential(f, s))

    def test_first_difference_of_unlike_shapes_is_empty(self):
        a, b = FgAbGroup(1), FgAbGroup(2)
        assert _first_difference(AbHom.identity(a),
                                 AbHom.identity(b)) == {}


def _eq_sides(data, name, w):
    """Both sides of an equivariant hom law at the witness generator, and
    the group they live in."""
    g, pnu = w["generator"], data.p ** data.nu
    if name == "compatibility isomorphisms":
        s, small = w["towers"]
        d = w["level"]
        x = unit_vector(data.towers[s].level(0, d).ngens, g)
        target = data.towers[small].level(1, d)
        f1 = data.compat[(s, small)].get(1, {}).get(d)
        dx = data.differential(s, 0, d).apply(x)
        return (data.differential(small, 0, d).apply(
                    data.compat[(s, small)][0][d].apply(x)),
                target.zero() if f1 is None else f1.apply(dx), target)
    s, q = w["tower"], w.get("degree", 0)
    tower = data.towers[s]
    if name == "d r = r d":
        d = w["level"]
        x = unit_vector(tower.level(q, d * pnu).ngens, g)
        return (data.differential(s - data.nu, q, d).apply(
                    data.restriction(s, q, d).apply(x)),
                data.restriction(s, q + 1, d).apply(
                    data.differential(s, q, d * pnu).apply(x)),
                data.towers[s - data.nu].level(q + 1, d))
    e, d = w["pair"]
    x = unit_vector(tower.level(q, e).ngens, g)
    if name == "res tr = [L:H]":
        mk = tower.degree(q)
        return (mk.res_map(d, e).apply(mk.tr_map(e, d).apply(x)),
                mk.level(e).scale(d // e, x), mk.level(e))
    assert name == "res d tr = d"
    return (tower.degree(q + 1).res_map(d, e).apply(
                data.differential(s, q, d).apply(
                    tower.degree(q).tr_map(e, d).apply(x))),
            data.differential(s, q, e).apply(x), tower.level(q + 1, e))


LAMBDA_LAWS = {"lambda is a strict pro-map": ("restr", -1, "restriction"),
               "lambda F = F lambda": ("F", -1, "frobenius"),
               "lambda V = V lambda": ("V", 1, "verschiebung")}


def _cl_sides(cdata, name, w):
    """Both sides of a classical hom law at the witness generator."""
    s, g = w["ring"], w["generator"]
    if name == "F V = p":
        q = w["degree"]
        x = unit_vector(cdata.level(s, q).ngens, g)
        return (cdata.F[s + 1][q].apply(cdata.V[s][q].apply(x)),
                cdata.level(s, q).scale(cdata.p, x), cdata.level(s, q))
    attr, step, op = LAMBDA_LAWS[name]
    x = unit_vector(cdata.witt_pres[s].group.ngens, g)
    witt = getattr(WittRing(cdata.p, max(s, s + step), cdata.ring_spec), op)
    image = cdata.witt_pres[s + step].encode(witt(cdata.witt_pres[s].gens[g]))
    return (getattr(cdata, attr)[s][0].apply(cdata.lam[s].apply(x)),
            cdata.lam[s + step].apply(image), cdata.level(s + step, 0))


def _doubled(cdata, attr):
    """The classical data with attr[2][0] doubled."""
    maps = dict(getattr(cdata, attr))
    maps[2] = dict(maps[2])
    maps[2][0] = maps[2][0].scale_by(2)
    setattr(cdata, attr, maps)
    return cdata


class TestHomLawWitnesses:
    """Every hom-law failure names a generator on which the two sides,
    recomputed from the data, really differ."""

    @pytest.mark.parametrize("ring", ["F3", "Z/9"])
    def test_witness_generators_separate_the_sides(self, ring):
        def family():
            return degree_zero_family(
                constant_tambara(parse_ring(ring), 1), 3, 2)
        eq_faults = [with_identity_differential(family(), 0),
                     with_identity_differential(family(), 1),
                     with_scaled_transfer(family(), 2, (3, 9), 2)]
        cl_faults = [specialize_n1(eq_faults[2]),
                     _doubled(specialize_n1(family()), "restr"),
                     _doubled(specialize_n1(family()), "F")]
        seen = set()
        for data, check, sides in (
                [(d, check_equivariant, _eq_sides) for d in eq_faults]
                + [(c, check_classical, _cl_sides) for c in cl_faults]):
            for failure in check(data).failures():
                w = failure.witness
                if "generator" not in w:
                    continue
                lhs, rhs, group = sides(data, failure.name, w)
                assert group.canonical(lhs) != group.canonical(rhs)
                assert group.canonical(lhs) == group.canonical(w["lhs"])
                assert group.canonical(rhs) == group.canonical(w["rhs"])
                seen.add(failure.name)
        assert {"d r = r d", "res d tr = d"} | set(LAMBDA_LAWS) <= seen
