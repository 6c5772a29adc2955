"""Tests of the benchmark's own oracles, verifiers and tracer.

    python3 -m pytest -q perfbench/tests

Every oracle is shown a right answer, which it must accept, and a
perturbed one, which it must reject.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import oracles as orc  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wittlab import eqwitt, tambara  # noqa: E402
from wittlab.abgroups import FgAbGroup  # noqa: E402
from wittlab.rings import IntegerRing, ModularRing  # noqa: E402
from wittlab.witt import WittRing  # noqa: E402


# -- ghost oracle

def test_ghost_round_trip_and_non_integral_vector():
    coords = [5, -3, 7]
    assert orc.from_ghost(3, orc.ghost(3, coords)) == coords
    ws = orc.ghost(3, coords)
    ws[1] += 1                       # not in the image of the ghost map
    with pytest.raises(ArithmeticError):
        orc.from_ghost(3, ws)


def test_add_over_z_known_value():
    # (1, 0) + (1, 0) = (2, -2) in W_2(Z) at p = 3
    assert orc.witt_mismatch(3, None, "add", [2, -2], [1, 0], [1, 0]) is None
    assert orc.witt_mismatch(3, None, "add", [2, -1], [1, 0], [1, 0])


@pytest.mark.parametrize("p,k,ring", [(3, 3, IntegerRing()),
                                      (2, 4, ModularRing(4)),
                                      (5, 2, ModularRing(25)),
                                      (3, 3, ModularRing(9))])
@pytest.mark.parametrize("op", ["add", "sub", "mul", "neg", "scalar_mul",
                                "frobenius", "verschiebung", "norm"])
def test_oracle_accepts_wittlab_and_rejects_perturbed(p, k, ring, op):
    wr = WittRing(p, k, ring)
    m = getattr(ring, "modulus", None)
    x, y, v = [2, -1, 3, 1][:k], [1, 4, -2, 5][:k], [3, 2, 1][:k - 1]
    if m is not None:
        x, y, v = ([c % m for c in t] for t in (x, y, v))
    if op == "verschiebung":
        got = wr.verschiebung(WittRing(p, k - 1, ring).vector(v))
        args = (v,)
    elif op == "scalar_mul":
        got = wr.scalar_mul(3, wr.vector(x))
        args = (x, None, 3)
    elif op in ("add", "sub", "mul"):
        got = getattr(wr, op)(wr.vector(x), wr.vector(y))
        args = (x, y)
    else:
        got = getattr(wr, op)(wr.vector(x))
        args = (x,)
    coords = list(got.coords)
    assert orc.witt_mismatch(p, m, op, coords, *args) is None
    coords[-1] += 1
    assert orc.witt_mismatch(p, m, op, coords, *args) is not None


def test_verschiebung_and_norm_of_teichmueller():
    assert orc.expected_witt(5, "verschiebung", [4, 2]) == [0, 4, 2]
    assert orc.witt_mismatch(5, None, "verschiebung", [1, 4, 2], [4, 2])
    # the norm sends Teichmueller vectors to Teichmueller vectors
    assert orc.expected_witt(3, "norm", [7, 0]) == [7, 0, 0]
    assert orc.witt_mismatch(3, None, "norm", [7, 0, 1], [7, 0])


def test_fv_is_multiplication_by_p():
    x = [2, 5, -1]
    assert orc.expected_witt(3, "FV", x) == orc.expected_witt(
        3, "scalar_mul", x, n=3)


# -- invariant factors and tensor products

def test_invariant_factors_from_sympy():
    assert orc.invariant_factors([[2, 0], [0, 3]], 2) == (6,)
    assert orc.invariant_factors([[2, 0]], 2) == (2, 0)
    assert orc.invariant_factors([], 2) == (0, 0)
    assert orc.invariant_factors([[4, 6], [6, 9]], 2) != (2, 0)


def test_group_check_rejects_a_wrong_invariant_factor():
    group = FgAbGroup(3, [[2, 4, 0], [0, 6, 9]])
    assert workloads._group_errors("g", group) == []

    class Perturbed:
        ngens = group.ngens
        relations = group.relations
        invariant_factors = group.invariant_factors[:-1] + (5,)

    assert workloads._group_errors("g", Perturbed())


def test_tensor_factors():
    assert orc.tensor_factors((9,), (3,)) == (3,)
    assert orc.tensor_factors((0,), (4,)) == (4,)
    assert orc.tensor_factors((2, 0), (0,)) == (2, 0)
    assert orc.tensor_factors((4, 6), (6,)) == (2, 6)
    assert orc.tensor_factors((4, 6), (6,)) != (12,)
    assert orc.cyclic_to_chain([4, 6, 0, 9, 1]) == (6, 36, 0)


# -- command-line verifiers

def test_classical_cli_verifier():
    pt = {"p": 3, "k": 2, "spec": "Z/9", "modulus": 9}
    item = {"x": [1, 0], "y": [1, 0], "v": [0]}
    verify = workloads.WittArith()._cli_verifier(pt, "add", item)
    # (1, 0) + (1, 0) = (2, -2) over Z, with ghost (2, 2)
    good = {"coords": [2, 7], "ghost": [2, 2]}
    assert verify(0, json.dumps(good)) == []
    assert verify(0, json.dumps({"coords": [2, 8], "ghost": [2, 2]}))
    assert verify(0, json.dumps({"coords": [2, 7], "ghost": [2, 5]}))
    assert verify(1, json.dumps(good))


def test_eqwitt_cli_verifier():
    verify = workloads.EqwittSweep._cli_verifier("F3", 1, 3, 1)
    out = {"levels": {"C3/C1": {"invariant_factors": [3]},
                      "C3/C3": {"invariant_factors": [9]}},
           "lift": {}, "oracle": {"C3/C1": "PASS", "C3/C3": "PASS"}}
    assert verify(0, json.dumps(out)) == []
    out["levels"]["C3/C3"] = {"invariant_factors": [3, 3]}
    assert verify(0, json.dumps(out))
    out["levels"]["C3/C3"] = {"invariant_factors": [9]}
    out["oracle"]["C3/C3"] = "FAIL"
    assert verify(0, json.dumps(out))


def test_box_and_check_cli_verifiers():
    verify = workloads.MackeySnf._box_verifier(
        lambda d: (0,) * orc.divisor_count(d))
    out = {"levels": {"1": {"invariant_factors": [0]},
                      "2": {"invariant_factors": [0, 0], "ngens": 3,
                            "relations": [[1, -1, 0]]}}}
    assert verify(0, json.dumps(out)) == []
    out["levels"]["2"]["relations"] = [[2, -1, 0], [0, 0, 3]]
    assert verify(0, json.dumps(out))
    check = workloads.MackeySnf._check_verifier(1, "res tr = [L:H]")
    report = {"status": "FAIL",
              "axioms": [{"axiom": "d^2 = 0", "status": "PASS"},
                         {"axiom": "res tr = [L:H]", "status": "FAIL"}]}
    assert check(1, json.dumps(report)) == []
    report["axioms"][1]["axiom"] = "Leibniz rule"
    assert check(1, json.dumps(report))


def test_eqwitt_identification_rejects_a_wrong_level():
    R = tambara.constant_tambara(ModularRing(3), 1)
    W = eqwitt.equivariant_witt(R, 3, 1)
    ledger = workloads.Ledger()
    workloads.EqwittSweep._check_identification("F3", 1, 3, 1, W, "F3",
                                                ledger)
    assert ledger.errors == []
    # the same levels read as W_{C_3}(Z) must be rejected
    workloads.EqwittSweep._check_identification("Z", 1, 3, 1, W, "Z",
                                                ledger)
    assert ledger.errors


# -- batched timing and tracer

def test_measure_ops_flags_a_changing_answer():
    state = {"n": 0}

    def flaky():
        state["n"] += 1
        return 1, state["n"] > 50
    ledger = workloads.Ledger()
    rates, first = worker.measure_ops(
        [workloads.OpCase("flaky", flaky)], 0.05, ledger, speed.Sampler(),
        min_batch=0.001)
    assert rates["flaky"] > 0 and first == [False]
    assert ledger.errors


def test_tracer_wraps_from_imports_and_restores():
    original = tambara.norm_functor
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert eqwitt.norm_functor is tambara.norm_functor
        assert tambara.norm_functor is not original
        R = tambara.constant_tambara(ModularRing(3), 1)
        eqwitt.equivariant_witt(R, 3, 1)
        layers = tr.layer_metrics()
        assert layers["tambara.present_calls"] == 2
        assert layers["tambara.present_elements"] == 3 + 9
        assert layers["abgroups.snf_calls"] > 0
        assert 0 < tr.covered_s()
    finally:
        tr.uninstall()
    assert tambara.norm_functor is original
    assert eqwitt.norm_functor is original


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tr = tracer_mod.Tracer(clock=lambda: next(ticks))
    tr._enter("outer")
    tr._enter("inner")
    tr._exit()
    tr._exit()
    assert tr.span("inner").self_s == 2.0
    assert tr.span("outer").self_s == 8.0
    assert tr.covered_s() == 10.0


# -- core-speed rescaling

def test_rescale_takes_out_probes_and_scales_to_reference():
    ref = speed.REFERENCE_PROBE_S
    assert speed.scale([]) == 1.0
    assert speed.rescale(2.0, []) == 2.0
    # a core twice as slow as the reference: half the seconds
    probes = [2 * ref] * 10
    assert abs(speed.rescale(1.0 + sum(probes), probes) - 0.5) < 1e-12
    # the slowest tenth of the probes is dropped
    assert speed.trimmed_mean([1.0] * 9 + [100.0]) == 1.0


def test_probed_cli_matches_python_m_wittlab(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(BENCH),
                                                   "src"))
    args = ["classical", "--p", "3", "--k", "3", "--ring", "Z/9",
            "--op", "mul", "--x", "1,2,3", "--y", "4,5,6"]
    plain = subprocess.run([sys.executable, "-m", "wittlab"] + args,
                           env=env, capture_output=True, text=True)
    out = tmp_path / "probes.json"
    probed = subprocess.run([sys.executable,
                             os.path.join(BENCH, "probed.py"), str(out)]
                            + args, env=env, capture_output=True, text=True)
    assert probed.returncode == plain.returncode == 0
    assert probed.stdout == plain.stdout
    assert isinstance(speed.read_samples(str(out)), list)
    bad = subprocess.run([sys.executable, os.path.join(BENCH, "probed.py"),
                          str(out), "classical", "--p", "4", "--k", "2",
                          "--op", "add", "--x", "1,0", "--y", "1,0"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 1
