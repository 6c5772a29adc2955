"""CLI tests: documented flows, exit codes, deterministic output."""

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import wittlab
from wittlab.abgroups import FgAbGroup
from wittlab.cli import family_to_json, main, witt_complex_from_json
from wittlab.mackey import burnside
from wittlab.rings import ModularRing, parse_ring
from wittlab.tambara import burnside_tambara, constant_tambara
from wittlab.witt import WittRing
from wittlab.wittcomplex import degree_zero_family


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digit_limit():
    """Python's limit on int <-> str conversion, None where it has none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


@contextlib.contextmanager
def unlimited_digits():
    """Lift the limit on int <-> str conversion inside the block."""
    limit = digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestClassical:
    def test_add_example(self, capsys):
        code, out, _ = run(capsys, ["classical", "--p", "3", "--k", "3",
                                    "--ring", "Z", "--op", "add",
                                    "--x", "1,0,0", "--y", "1,0,0"])
        assert code == 0
        data = json.loads(out)
        assert data["coords"][:2] == [2, -2]
        assert data["ghost"] == [2, 2, 2]

    def test_fv_is_multiplication_by_p(self, capsys):
        code, out, _ = run(capsys, ["classical", "--p", "3", "--k", "2",
                                    "--op", "FV", "--x", "1,0"])
        assert code == 0
        data = json.loads(out)
        assert data["coords"] == [3, -8]
        assert data["ghost"] == [3, 3]

    def test_finite_ring(self, capsys):
        code, out, _ = run(capsys, ["classical", "--p", "3", "--k", "2",
                                    "--ring", "F3", "--op", "mul",
                                    "--x", "1,1", "--y", "2,0"])
        assert code == 0
        assert len(json.loads(out)["coords"]) == 2

    def test_length_40_over_z4(self, capsys):
        # far past any universal-polynomial build
        ring = ModularRing(4)
        wr = WittRing(2, 40, ring)
        rng = random.Random(40)
        x, y, z = (wr.vector([rng.randrange(4) for _ in range(40)])
                   for _ in range(3))
        code, out, _ = run(capsys, [
            "classical", "--p", "2", "--k", "40", "--ring", "Z/4",
            "--op", "mul", "--x", ",".join(map(str, x.coords)),
            "--y", ",".join(map(str, y.coords))])
        assert code == 0
        assert json.loads(out)["coords"] == list(wr.mul(x, y).coords)
        assert wr.mul(x, wr.add(y, z)) == \
            wr.add(wr.mul(x, y), wr.mul(x, z))
        longer = WittRing(2, 41, ring)
        assert longer.frobenius(longer.verschiebung(x)) == \
            wr.scalar_mul(2, x)

    @pytest.mark.parametrize("p, k, op, x, y", [
        (7, 6, "mul", "2,3,4,5,6,7", "1,1,1,1,1,1"),
        (3, 9, "add", ",".join(["9"] * 9), ",".join(["9"] * 9))])
    def test_integers_past_the_conversion_limit(self, capsys, p, k, op, x,
                                                y):
        # the answer has integers of more than 4300 digits, which Python
        # does not print by default: main lifts the limit while it runs
        # and restores it on return
        limit = digit_limit()
        code, out, err = run(capsys, ["classical", "--p", str(p), "--k",
                                      str(k), "--ring", "Z", "--op", op,
                                      "--x", x, "--y", y])
        assert (code, err) == (0, "")
        assert digit_limit() == limit

        def ghost(coords):
            return [sum(p ** i * coords[i] ** p ** (n - i)
                        for i in range(n + 1)) for n in range(k)]

        with unlimited_digits():
            data = json.loads(out)
        pair = zip(ghost([int(c) for c in x.split(",")]),
                   ghost([int(c) for c in y.split(",")]))
        want = [a * b if op == "mul" else a + b for a, b in pair]
        assert max(map(abs, want)) > 10 ** 4300
        assert data["ghost"] == want
        assert ghost(data["coords"]) == want

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, ["classical", "--p", "3"])
        assert code == 2

    def test_computation_error_exit_1(self, capsys):
        code, _, err = run(capsys, ["classical", "--p", "4", "--k", "2",
                                    "--op", "add", "--x", "1,0",
                                    "--y", "1,0"])
        assert code == 1
        assert "error" in json.loads(err)

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, ["--format", "table", "classical",
                                    "--p", "3", "--k", "1", "--op",
                                    "ghost", "--x", "5"])
        assert code == 0
        assert "ghost" in out


ADD_P3_K2 = ["classical", "--p", "3", "--k", "2", "--ring", "Z",
             "--op", "add", "--x", "1,0", "--y", "1,0"]


class TestPolynomialDiskCache:
    """Files an older version left under WITTLAB_CACHE_DIR are ignored.

    The arithmetic no longer reads or writes polynomial files: the
    result is rebuilt from the inputs, and a leftover file is left as
    it was.
    """

    @pytest.mark.parametrize("content", [
        "[1, 2]", '"polys"', "7", "{", '{"p": 3, "k": 2}'])
    def test_malformed_file_is_rebuilt(self, capsys, tmp_path, monkeypatch,
                                       content):
        monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
        path = tmp_path / "witt-polys-p3-k2.json"
        path.write_text(content)
        code, out, _ = run(capsys, ADD_P3_K2)
        assert code == 0
        assert json.loads(out)["coords"] == [2, -2]
        assert path.read_text() == content
        assert [f.name for f in tmp_path.iterdir()] == [path.name]


class TestMackeyAndBox:
    def test_show_round_trip(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(burnside(6).to_json()))
        code, out, _ = run(capsys, ["mackey", "show", "--file", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 6
        assert data["levels"]["6"]["invariant_factors"] == [0, 0, 0, 0]

    def test_show_reads_a_long_invariant_factor(self, capsys, tmp_path):
        # 4,401 digits, past Python's default limit on int <-> str
        digits = "1" + "0" * 4400
        path = tmp_path / "long.json"
        path.write_text(
            '{"N": 1, "levels": {"1": {"invariant_factors": [%s]}}, '
            '"res": {}, "tr": {}, "weyl": {"1": {"matrix": [[1]]}}}'
            % digits)
        code, out, err = run(capsys, ["mackey", "show", "--file", str(path)])
        assert (code, err) == (0, "")
        with unlimited_digits():
            data = json.loads(out)
        assert data["levels"]["1"]["invariant_factors"] == [10 ** 4400]

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, ["mackey", "show", "--file",
                                  "/no/such/file.json"])
        assert code == 2

    def test_invalid_functor_exit_1(self, capsys, tmp_path):
        data = burnside(2).to_json()
        data["res"]["1<-2"]["matrix"] = [[5], [1]]  # violates double coset
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, ["mackey", "show", "--file", str(path)])
        assert code == 1
        assert "error" in json.loads(err)

    def test_invalid_functor_exit_1_under_optimize(self, tmp_path):
        # validation must not rely on assert, which python -O strips
        data = burnside(6).to_json()
        data["tr"]["1->2"]["matrix"] = [[3, 0]]  # breaks tr transitivity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(wittlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "wittlab", "mackey", "show",
             "--file", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "MackeyAxiomFailure: tr transitivity at 6"}

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
    def test_double_coset_failure_names_a_covering_pair(self, tmp_path,
                                                         flags):
        # doubling tr from level 3 to 9 breaks the law at (1, 9) and at
        # (3, 9); validate decides it on covering pairs, so names (3, 9)
        data = burnside(9).to_json()
        tr = data["tr"]["3->9"]
        tr["matrix"] = [[2 * x for x in row] for row in tr["matrix"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(wittlab.__file__))
        proc = subprocess.run(
            [sys.executable] + flags + ["-m", "wittlab"] + MACKEY_SHOW
            + [str(path)], capture_output=True, text=True, env=env,
            timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == json.dumps({
            "error": "MackeyAxiomFailure: double coset law fails at (3, 9)"
        }) + "\n"

    def test_box(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(burnside(2).to_json()))
        code, out, _ = run(capsys, ["box", "--a", str(a), "--b", str(a)])
        assert code == 0
        data = json.loads(out)
        # A [] A = A: level ranks 1 and 2
        assert data["levels"]["1"]["invariant_factors"] == [0]
        assert data["levels"]["2"]["invariant_factors"] == [0, 0]


# exit code, stdout length and stdout sha256 of ``box`` as recorded
# before relation rows went sparse: the rows, the Smith transforms and
# with them every printed coordinate must come out the same
BOX_OUTPUTS = [
    pytest.param(lambda: burnside(12), lambda: burnside(12),
                 0, 308533, "f30e0e4fb2f2cca8c245c9c5451bcfc2"
                 "584a121e5207495f250ea8a00cc76f01", id="A12-A12"),
    pytest.param(lambda: burnside(24), lambda: burnside(24),
                 0, 1674000, "112cb404aad8d4d4c0ee3db067f53f6d"
                 "db2a004963a1e3e72aaf9043dc351c52", id="A24-A24"),
    pytest.param(lambda: burnside(12),
                 lambda: constant_tambara(parse_ring("Z/9"), 12).mackey,
                 0, 40452, "df49ae74b32d58b3ddb01ba964f4c901"
                 "ca38c349176f08340165b0ea99dac33e", id="A12-Z9"),
]


class TestBoxOutputBytes:
    @pytest.mark.parametrize("left, right, code, size, digest", BOX_OUTPUTS)
    def test_stdout_unchanged(self, capsys, tmp_path, left, right, code,
                              size, digest):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(left().to_json()))
        b.write_text(json.dumps(right().to_json()))
        got, out, _ = run(capsys, ["box", "--a", str(a), "--b", str(b)])
        data = out.encode()
        assert (got, len(data), hashlib.sha256(data).hexdigest()) == (
            code, size, digest)


# exit code, stdout length and stdout sha256 of Witt-tower commands as
# recorded while the tower tables were computed by Witt arithmetic: the
# closed forms on the basis V^j(1) must print the same bytes
TOWER_OUTPUTS = [
    pytest.param(["eqwitt", "--ring", "Z", "--p", "3", "--k", "13"], None,
                 0, 30989, "4481a924e7954c32f07d6f09297ce86f"
                 "b25afc620d08f452cde085f228c942b9", id="eqwitt-Z-k13"),
    pytest.param(["eqwitt", "--ring", "F3", "--n", "2", "--p", "3",
                  "--k", "3"], None,
                 0, 5319, "1f55af1e0bf4d0c2f67daea882ef6197"
                 "a33a31eb67aa39a9a40d197e27417afa", id="eqwitt-F3-n2-k3"),
    pytest.param(["eqwitt", "--ring", "Z/25", "--n", "2", "--p", "5",
                  "--k", "2"], None,
                 0, 9143, "1e902540de8daf21d96af42dcc75b234"
                 "67144829e22e273c7b4bdcd797a06af2", id="eqwitt-Z25-n2-p5"),
    pytest.param(["eqwitt", "--ring", "Z/4", "--p", "2", "--k", "9"], None,
                 0, 20240, "922cb719fdce1baa405de7206ce9094f"
                 "590753a2f588c35ac2ae86e986f69d64", id="eqwitt-Z4-p2-k9"),
    pytest.param(["norm", "--p", "3", "--k", "3", "--input"],
                 lambda: constant_tambara(ModularRing(9), 2).to_json(),
                 0, 12227, "ece17582493729736474cf521d6f85f5"
                 "d3b8522c9b75e195f7408aeab7e28576", id="norm-Z9-C2-k3"),
    pytest.param(["check", "witt-complex", "--file"],
                 lambda: family_to_json(degree_zero_family(
                     constant_tambara(ModularRing(3), 4), 3, 3)),
                 0, 675, "e56d95cb91c29ad98799e899e07eef93"
                 "32437b02169f7e8e996e0e0630b86a7e", id="check-F3-C4-S3"),
]


class TestTowerOutputBytes:
    @pytest.mark.parametrize("args, make, code, size, digest",
                             TOWER_OUTPUTS)
    def test_stdout_unchanged(self, capsys, tmp_path, args, make, code,
                              size, digest):
        if make is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(make()))
            args = args + [str(path)]
        got, out, _ = run(capsys, args)
        data = out.encode()
        assert (got, len(data), hashlib.sha256(data).hexdigest()) == (
            code, size, digest)


def _mackey(**edits):
    data = burnside(2).to_json()
    data.update(edits)
    return data


def _family(**edits):
    data = family_to_json(degree_zero_family(
        constant_tambara(ModularRing(3), 2), 3, 1))
    data.update(edits)
    return data


def _family_z9(**edits):
    data = family_to_json(degree_zero_family(
        constant_tambara(ModularRing(9), 2), 3, 1))
    data.update(edits)
    return data


def _family_base_n(n):
    data = _family()
    data["base"]["N"] = n
    return data


def _edited(data, path, value):
    """data with the entry at a path of keys replaced by value."""
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _without(data, path):
    """data with the entry at a path of keys deleted."""
    node = data
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


def _family_n1(ring="F3"):
    return family_to_json(degree_zero_family(
        constant_tambara(parse_ring(ring), 1), 3, 1))


MUL_0 = ["E", "0", "degrees", "0", "mul"]
MUL_1 = MUL_0 + ["1"]
ONE_1 = ["E", "0", "degrees", "0", "one", "1"]


MACKEY_SHOW = ["mackey", "show", "--file"]
NORM_INPUT = ["norm", "--p", "3", "--k", "1", "--input"]
EQWITT_INPUT = ["eqwitt", "--p", "3", "--k", "1", "--input"]
CHECK_FILE = ["check", "witt-complex", "--file"]


class TestMalformedFiles:
    """A file of the wrong shape exits 1 with one JSON error line that
    names it: no traceback, and no float silently truncated."""

    @pytest.mark.parametrize("args, make", [
        pytest.param(MACKEY_SHOW, lambda: [1, 2], id="mackey-list"),
        pytest.param(NORM_INPUT, lambda: [1, 2], id="norm-list"),
        pytest.param(EQWITT_INPUT, lambda: [1, 2], id="eqwitt-list"),
        pytest.param(CHECK_FILE, lambda: [1, 2], id="check-list"),
        pytest.param(MACKEY_SHOW, lambda: _mackey(levels=[1]),
                     id="mackey-levels-list"),
        pytest.param(MACKEY_SHOW, lambda: _mackey(res=None),
                     id="mackey-res-null"),
        pytest.param(MACKEY_SHOW, lambda: _mackey(N=2.5),
                     id="mackey-float-N"),
        pytest.param(CHECK_FILE, lambda: _family(E=[1]), id="family-E-list"),
        pytest.param(CHECK_FILE, lambda: _family(**{"lambda": None}),
                     id="family-lambda-null"),
        pytest.param(CHECK_FILE, lambda: _family(r=[1]), id="family-r-list"),
        pytest.param(CHECK_FILE, lambda: _family(p=3.5), id="family-float-p"),
        pytest.param(CHECK_FILE, lambda: _family_base_n(2.0),
                     id="family-float-base-N"),
        pytest.param(NORM_INPUT,
                     lambda: {"norm_class": "burnside", "N": 2.5},
                     id="tambara-float-N"),
        pytest.param(NORM_INPUT,
                     lambda: {"norm_class": "burnside", "N": float("inf")},
                     id="tambara-infinite-N"),
        pytest.param(NORM_INPUT, lambda: {"norm_class": "burnside", "N": True},
                     id="tambara-bool-N"),
        pytest.param(NORM_INPUT, lambda: {"norm_class": "burnside", "N": "2"},
                     id="tambara-string-N"),
        pytest.param(MACKEY_SHOW, lambda: _mackey(N=True), id="mackey-bool-N"),
        pytest.param(MACKEY_SHOW, lambda: _mackey(N="2"),
                     id="mackey-string-N"),
        pytest.param(CHECK_FILE, lambda: _family(p="3"), id="family-string-p"),
        pytest.param(CHECK_FILE, lambda: _family(S=True), id="family-bool-S"),
        pytest.param(CHECK_FILE, lambda: _family(D="0"), id="family-string-D"),
        pytest.param(CHECK_FILE,
                     lambda: {"base": {"norm_class": "constant:F3", "N": 1},
                              "p": "3", "S": True},
                     id="short-family-string-p-bool-S"),
        pytest.param(CHECK_FILE,
                     lambda: {"base": {"norm_class": "constant:F3", "N": 1},
                              "p": 3, "S": -1},
                     id="short-family-negative-S"),
        pytest.param(CHECK_FILE,
                     lambda: {"base": {"norm_class": "constant:F3", "N": 1},
                              "p": 3, "S": -1, "E": {}},
                     id="family-negative-S"),
        pytest.param(CHECK_FILE, lambda: _family_z9(S=0),
                     id="family-r-key-above-S"),
        pytest.param(CHECK_FILE, lambda: _family(r={"0": {"0": {}}}),
                     id="family-r-key-below-nu"),
        pytest.param(CHECK_FILE, lambda: _family(compat={"1,2": {"0": {}}}),
                     id="family-compat-key-above-S"),
        pytest.param(CHECK_FILE, lambda: _family(compat={"-1,0": {"0": {}}}),
                     id="family-compat-key-negative"),
        pytest.param(CHECK_FILE, lambda: _family(d={"2,0": {}}),
                     id="family-d-key-above-S"),
        pytest.param(MACKEY_SHOW, lambda: _edited(
            burnside(2).to_json(), ["levels", "1"],
            {"invariant_factors": ["0"]}), id="mackey-string-factor"),
        pytest.param(MACKEY_SHOW, lambda: _edited(
            burnside(2).to_json(), ["res", "1<-2", "matrix"],
            [["2"], [True]]), id="mackey-string-bool-matrix"),
        pytest.param(MACKEY_SHOW, lambda: _edited(
            burnside(2).to_json(), ["levels", "1"],
            {"invariant_factors": [0], "ngens": True, "relations": [[False]]}),
            id="mackey-bool-presentation"),
        pytest.param(CHECK_FILE, lambda: _edited(_family_n1(), MUL_1,
                                                 [[[True]]]),
                     id="family-bool-mul"),
        pytest.param(CHECK_FILE, lambda: _edited(_family_n1(), MUL_1,
                                                 [[["1"]]]),
                     id="family-string-mul"),
    ])
    def test_exit_1_with_json_error(self, capsys, tmp_path, args, make):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make()))
        code, out, err = run(capsys, args + [str(path)])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        last = json.loads(err.strip().splitlines()[-1])
        assert list(last) == ["error"]
        assert last["error"].startswith("MalformedData: ")
        assert str(path) in last["error"]

    # a family holds each map table at exactly the divisor keys of its
    # group, in degree 0, for the base's n; the error names the file,
    # the table and the key
    @pytest.mark.parametrize("make, where", [
        pytest.param(lambda: _family(d={"1,1": {}}),
                     "d key '1,1': degree 1 is not 0", id="d-degree-1"),
        pytest.param(lambda: _family(d={"0,5": {}}),
                     "d key '0,5': degree 5 is not 0", id="d-degree-5"),
        pytest.param(lambda: _family(n=5), "n = 5 is not base N = 2",
                     id="n-not-base-N"),
        pytest.param(lambda: _edited(_family(), ["lambda", "0", "99"],
                                     {"matrix": [[1]]}),
                     "lambda 0: unknown key '99'", id="lambda-key-99"),
        pytest.param(lambda: _edited(_family(), ["r", "1", "0", "99"],
                                     {"matrix": [[1]]}),
                     "r 1: unknown key '99'", id="r-key-99"),
        pytest.param(lambda: _without(_family(), ["lambda", "1", "3"]),
                     "lambda 1: missing key '3'", id="lambda-missing-key"),
        pytest.param(lambda: _without(_family(), ["compat", "1,0", "0",
                                                  "2"]),
                     "compat 1,0: missing key '2'", id="compat-missing-key"),
        pytest.param(lambda: _family(d={"0,0": {"1": {"matrix": [[]]}}}),
                     "d 0,0: missing key '2'", id="d-missing-key"),
        pytest.param(lambda: _family(r={"x": {"0": {}}}),
                     "r key 'x' is not of the form s", id="r-key-x"),
        pytest.param(lambda: _family(compat={"1": {"0": {}}}),
                     "compat key '1' is not of the form s,t",
                     id="compat-key-1"),
        pytest.param(lambda: _family(d={"a,b": {}}),
                     "d key 'a,b' is not of the form s,q", id="d-key-a-b"),
        pytest.param(lambda: _edited(_family(), MUL_0 + ["x"], [[[1]]]),
                     "mul: unknown key 'x'", id="mul-key-x"),
        pytest.param(lambda: _edited(_family(), MUL_0 + ["99"], [[[1]]]),
                     "mul: unknown key '99'", id="mul-key-99"),
    ])
    def test_family_table_exit_1_naming_the_key(self, capsys, tmp_path,
                                                  make, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make()))
        code, out, err = run(capsys, CHECK_FILE + [str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "MalformedData: malformed %s: %s" % (path, where)}


class TestFamilyShapes:
    """Ring tables of the wrong shape and maps in a degree other than 0
    are MalformedData naming where they are: one JSON error line, no
    traceback and no report."""

    @pytest.mark.parametrize("make, where", [
        pytest.param(lambda: _edited(_family_n1(), MUL_1, [[[1, 0]]]),
                     "mul at level 1", id="mul-long-product"),
        pytest.param(lambda: _edited(_family_n1(), MUL_1, [[[1]], [[1]]]),
                     "mul at level 1", id="mul-two-rows"),
        pytest.param(lambda: _edited(_family_n1(), MUL_1, [[]]),
                     "mul at level 1", id="mul-empty-row"),
        pytest.param(lambda: _edited(_family_n1(), MUL_1, []),
                     "mul at level 1", id="mul-empty"),
        pytest.param(lambda: _edited(_family_n1(), ONE_1, [1, 0]),
                     "one at level 1", id="one-two-entries"),
        pytest.param(lambda: _edited(_family(), ["r", "1", "1"], "garbage"),
                     "r key '1': degree '1'", id="r-degree-1"),
        pytest.param(lambda: _edited(_family(), ["compat", "1,0", "7"],
                                     [True, "x"]),
                     "compat key '1,0': degree '7'", id="compat-degree-7"),
    ])
    def test_exit_1_naming_the_entry(self, capsys, tmp_path, make, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make()))
        code, out, err = run(capsys, CHECK_FILE + [str(path)])
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error.startswith("MalformedData: malformed %s: " % path)
        assert where in error


class TestNorm:
    def test_burnside_input(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(burnside_tambara(2).to_json()))
        code, out, _ = run(capsys, ["norm", "--input", str(path),
                                    "--p", "3", "--k", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 6
        assert data["norm_class"] == "burnside"

    def test_constant_input(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(
            constant_tambara(ModularRing(3), 2).to_json()))
        code, out, _ = run(capsys, ["norm", "--input", str(path),
                                    "--p", "3", "--k", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["levels"]["3"]["invariant_factors"] == [9]


class TestEqwitt:
    def test_z9_example(self, capsys):
        code, out, _ = run(capsys, ["eqwitt", "--ring", "F3", "--n", "2",
                                    "--p", "3", "--k", "1"])
        assert code == 0
        data = json.loads(out)
        level_json = data["levels"]["C6/C3"]
        assert level_json["invariant_factors"] == [9]
        # lift outputs are coordinates in the basis V^j(1); compare them
        # as elements of the level, a copy of Z/9 generated by 1
        level = FgAbGroup(level_json["ngens"], level_json["relations"])
        lifts = {tuple(e["input"]): e["output"] for e in data["lift"]["1"]}
        for a, c in ((0, 0), (1, 1), (2, -1)):
            expected = [c] + [0] * (level.ngens - 1)
            assert level.canonical(lifts[(a,)]) == level.canonical(expected)

    def test_oracle_flag(self, capsys):
        code, out, _ = run(capsys, ["eqwitt", "--ring", "F3", "--n", "2",
                                    "--p", "3", "--k", "1", "--oracle"])
        assert code == 0
        data = json.loads(out)
        assert set(data["oracle"].values()) == {"PASS"}

    def test_oracle_passes_at_every_level_k4(self, capsys):
        code, out, _ = run(capsys, ["eqwitt", "--ring", "F3", "--p", "3",
                                    "--k", "4", "--oracle"])
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert len(oracle) == 5
        assert set(oracle.values()) == {"PASS"}

    def test_deterministic_output(self, capsys):
        args = ["eqwitt", "--ring", "F3", "--n", "2", "--p", "3",
                "--k", "1", "--oracle"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2

    def test_requires_ring_or_input(self, capsys):
        code, _, err = run(capsys, ["eqwitt", "--p", "3", "--k", "1"])
        assert code == 1
        assert "error" in json.loads(err)


class TestCheck:
    def test_family_file_passes(self, capsys, tmp_path):
        data = degree_zero_family(constant_tambara(ModularRing(3), 2), 3, 1)
        path = tmp_path / "e.json"
        path.write_text(json.dumps(family_to_json(data)))
        code, out, _ = run(capsys, ["check", "witt-complex", "--file",
                                    str(path)])
        assert code == 0
        assert json.loads(out)["status"] == "PASS"

    def test_auto_family_with_classical(self, capsys, tmp_path):
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(
            {"base": {"norm_class": "constant:F3", "N": 1},
             "p": 3, "S": 2}))
        code, out, _ = run(capsys, ["check", "witt-complex", "--file",
                                    str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "PASS"
        assert data["classical"]["status"] == "PASS"

    def test_tampered_transfer_fails(self, capsys, tmp_path):
        data = degree_zero_family(constant_tambara(ModularRing(3), 2), 3, 1)
        obj = family_to_json(data)
        mat = obj["E"]["1"]["degrees"]["0"]["tr"]["3->6"]["matrix"]
        obj["E"]["1"]["degrees"]["0"]["tr"]["3->6"]["matrix"] = \
            [[2 * x for x in row] for row in mat]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["check", "witt-complex", "--file",
                                    str(path)])
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "FAIL"
        failing = [a for a in report["axioms"] if a["status"] == "FAIL"]
        assert failing[0]["axiom"] == "res tr = [L:H]"
        # res tr of the first generator is 2 * 2, not the index 2
        assert failing[0]["witness"] == {
            "tower": 1, "degree": 0, "pair": [3, 6], "generator": 0,
            "lhs": [4, 0], "rhs": [2, 0]}

    def test_lambda_that_breaks_a_relation_exits_1(self, capsys, tmp_path):
        # (3, -1) is a relation of level 3 of tower 1; [[1, 0], [0, 0]]
        # sends it to 3 e_0, which is not zero there
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_edited(
            _family(), ["lambda", "1", "3", "matrix"], [[1, 0], [0, 0]])))
        code, out, err = run(capsys, CHECK_FILE + [str(path)])
        assert (code, out) == (1, "")
        # the error names the file, the table and the key
        assert json.loads(err) == {
            "error": "MalformedData: malformed %s: lambda 1 matrix 3: map "
                     "does not preserve relations: (3, -1)" % path}

    @pytest.mark.parametrize("ring, matrix, lhs", [
        ("F3", [[0]], [0]), ("Z/9", [[2]], [2])])
    def test_lambda_that_is_not_a_ring_map_fails(self, capsys, tmp_path,
                                                 ring, matrix, lhs):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_edited(
            _family_n1(ring), ["lambda", "1", "1", "matrix"], matrix)))
        code, out, _ = run(capsys, CHECK_FILE + [str(path)])
        assert code == 1
        report = json.loads(out)
        failing = [a for a in report["axioms"] if a["status"] == "FAIL"]
        assert failing == [{
            "axiom": "lambda is a ring map", "status": "FAIL",
            "witness": {"tower": 1, "level": 1, "generators": [],
                        "lhs": lhs, "rhs": [1]}}]

    def test_lambda_that_is_not_a_green_map_fails(self, capsys, tmp_path):
        # over Z at n = 2, [[1, 0], [0, 0]] at levels 3 and 6 of tower 1
        # sends V(1) to 0: a ring endomorphism of W_2(Z) at each level
        # that keeps lambda r = r lambda, as r(V(1)) = 0; but res from 3
        # to 1 sends V(1) to 3, so lambda does not commute with res
        data = family_to_json(degree_zero_family(
            constant_tambara(parse_ring("Z"), 2), 3, 1))
        for d in ("3", "6"):
            _edited(data, ["lambda", "1", d, "matrix"], [[1, 0], [0, 0]])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, CHECK_FILE + [str(path)])
        assert code == 1
        failing = [a for a in json.loads(out)["axioms"]
                   if a["status"] == "FAIL"]
        assert failing == [{
            "axiom": "lambda is a ring map", "status": "FAIL",
            "witness": {"tower": 1, "reason": "component does not commute "
                                              "with res at (1, 3)"}}]

    def test_warnings_are_json_lines(self, capsys, tmp_path):
        path = tmp_path / "burnside.json"
        path.write_text(json.dumps(
            {"base": {"norm_class": "burnside", "N": 1}, "p": 3, "S": 1}))
        code, out, err = run(capsys, CHECK_FILE + [str(path)])
        assert code == 0
        assert json.loads(out)["status"] == "PASS"
        lines = [json.loads(line) for line in err.splitlines()]
        assert lines and all(list(line) == ["warning"] for line in lines)
        assert "infinite carrier" in lines[0]["warning"]
        assert ".py" not in err

    def test_round_trip_through_loader(self, tmp_path):
        data = degree_zero_family(constant_tambara(ModularRing(3), 2), 3, 1)
        obj = family_to_json(data)
        rebuilt = witt_complex_from_json(json.loads(json.dumps(obj)))
        from wittlab.wittcomplex import check_equivariant
        assert check_equivariant(rebuilt).passed


class TestRejectionsUnderOptimize:
    """No validation may rely on assert, which python -O strips."""

    @pytest.mark.parametrize("command, make, status, error", [
        pytest.param(MACKEY_SHOW, lambda: _edited(
            burnside(2).to_json(), ["res", "1<-2", "matrix"],
            [["2"], [True]]), None, "MalformedData: malformed ",
            id="mackey-string-bool-matrix"),
        pytest.param(CHECK_FILE, lambda: _edited(
            _family(), ["lambda", "1", "3", "matrix"], [[1, 0], [0, 0]]),
            None, "MalformedData: malformed ",
            id="family-lambda-breaks-relation"),
        pytest.param(CHECK_FILE, lambda: _edited(
            _family_n1(), ["lambda", "1", "1", "matrix"], [[0]]),
            "FAIL", None, id="family-lambda-not-unital"),
    ])
    def test_rejections_survive_optimize(self, tmp_path, command, make,
                                         status, error):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make()))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(wittlab.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "wittlab"] + command + [str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        if status is None:
            assert proc.stdout == ""
            assert json.loads(proc.stderr)["error"].startswith(error)
        else:
            assert json.loads(proc.stdout)["status"] == status
