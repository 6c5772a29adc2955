"""Tests for the equivariant and classical Witt complex checkers."""

import warnings

import pytest

from wittlab.errors import (EvenPrime, MalformedData, NotApplicable,
                            PrimeDividesN)
from wittlab.rings import IntegerRing, ModularRing
from wittlab.tambara import burnside_tambara, constant_tambara
from wittlab.wittcomplex import (check_classical, check_equivariant,
                                 degree_zero_family, specialize_n1,
                                 with_identity_differential,
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
            "res d tr = d", "F d lambda lift rule"]

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
