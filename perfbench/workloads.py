"""The three workloads.

Each workload builds its inputs from a seed (``build``), produces its
results in process (``solve``), offers batched queries on the built
results (``op_cases``), names the command-line runs it times
(``commands``), and checks every result (``check``) against the
computations in ``oracles`` or against properties the method must have.

wittlab functions are always looked up through their module at call
time (``eqwitt.equivariant_witt``), so that the tracer's wrappers apply.
"""

import itertools
import json
import os
import random
import warnings

from wittlab import cli, eqwitt, mackey, rings, tambara, witt, wittcomplex

import oracles as orc


class Ledger:
    """Operations attempted, operations that raised, and wrong answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, label, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append("%s raised %s: %s"
                               % (label, type(exc).__name__, exc))
            return None

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)


class OpCase:
    """One case of batched queries.  ``run_round`` performs the same
    whole round of queries every time and returns (queries, outputs)."""

    def __init__(self, name, run_round):
        self.name = name
        self.run_round = run_round


class Command:
    """A ``python -m wittlab`` run and the check of its output.
    ``verify(returncode, stdout)`` returns a list of error strings."""

    def __init__(self, argv, verify):
        self.argv = list(argv)
        self.verify = verify


def _rng(seed, *tag):
    return random.Random("%s|%s" % (seed, "|".join(map(str, tag))))


def _modulus(ring):
    return getattr(ring, "modulus", None)


def _factor_errors(label, got, relations, ngens):
    """Invariant factors of a presented group agree with sympy."""
    want = orc.invariant_factors(relations, ngens)
    if tuple(got) != want:
        return ["%s: invariant factors %s, sympy says %s"
                % (label, tuple(got), want)]
    return []


def _group_errors(label, group):
    return _factor_errors(label, group.invariant_factors, group.relations,
                          group.ngens)


def _level_json_errors(label, data):
    """The same for a group in the CLI's JSON (diagonal ones carry no
    relations and are their own normal form)."""
    if "relations" not in data:
        return []
    return _factor_errors(label, data["invariant_factors"],
                          data["relations"], data["ngens"])


def _load_output(rc, stdout, want_rc=0):
    if rc != want_rc:
        return None, ["exit code %d, expected %d" % (rc, want_rc)]
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, ["output is not JSON: %s" % exc]


# ---------------------------------------------------------------------------
# witt-arith: classical W_k(A)

# (p, k, ring, pool size).  (5, 4) over Z/25 is the universal-polynomial
# wall; the others load the same code at a cost near interpreter start-up.
WITT_POINTS = (
    (5, 4, "Z/25", 1),
    (3, 3, "Z", 4),
    (5, 3, "F5", 4),
    (3, 4, "Z/9", 4),
    (2, 5, "Z/4", 4),
)
# operations of one query round; sub and scalar_mul are add-composites
ROUND_OPS = ("add", "mul", "neg", "frobenius", "verschiebung", "norm")


class WittArith:
    name = "witt-arith"

    def _coords(self, rng, ring, length):
        m = _modulus(ring)
        if m is not None:
            return [rng.randrange(m) for _ in range(length)]
        # fixed bit length, so the cost does not depend on the seed
        return [rng.choice((1, -1)) * rng.randrange(128, 256)
                for _ in range(length)]

    def build(self, seed, workdir):
        points = []
        for p, k, spec, size in WITT_POINTS:
            ring = rings.parse_ring(spec)
            rng = _rng(seed, "witt", p, k, spec)
            pool = [{"x": self._coords(rng, ring, k),
                     "y": self._coords(rng, ring, k),
                     "v": self._coords(rng, ring, k - 1)}
                    for _ in range(size)]
            points.append({"p": p, "k": k, "spec": spec, "ring": ring,
                           "modulus": _modulus(ring), "pool": pool,
                           "wr": witt.WittRing(p, k, ring),
                           "short": witt.WittRing(p, k - 1, ring)})
        return {"points": points}

    def _apply(self, pt, op, item):
        wr = pt["wr"]
        x = wr.vector(item["x"])
        if op in ("add", "sub", "mul"):
            return getattr(wr, op)(x, wr.vector(item["y"]))
        if op == "scalar_mul":
            return wr.scalar_mul(3, x)
        if op == "verschiebung":
            return wr.verschiebung(pt["short"].vector(item["v"]))
        return getattr(wr, op)(x)

    def solve(self, inp, ledger):
        results = []
        for pt in inp["points"]:
            item = pt["pool"][0]
            out = {}
            for op in ("add", "sub", "mul", "neg", "scalar_mul",
                       "frobenius", "verschiebung", "norm"):
                w = ledger.run("%s %s" % (op, pt["spec"]),
                               self._apply, pt, op, item)
                out[op] = None if w is None else list(w.coords)
            results.append(out)
        return results

    def op_cases(self, inp, results):
        cases = []
        for pt in inp["points"]:
            def run_round(pt=pt):
                outs = []
                for item in pt["pool"]:
                    for op in ROUND_OPS:
                        outs.append(tuple(self._apply(pt, op, item).coords))
                return len(outs), outs
            cases.append(OpCase("W_%d(%s) p=%d" % (pt["k"], pt["spec"],
                                                   pt["p"]), run_round))
        return cases

    def _mismatch(self, pt, op, got, item):
        x, y, v = item["x"], item["y"], item["v"]
        if op == "verschiebung":
            return orc.witt_mismatch(pt["p"], pt["modulus"], op, got, v)
        return orc.witt_mismatch(pt["p"], pt["modulus"], op, got, x, y, 3)

    def check(self, inp, results, references, ledger):
        for pt, out, ref in zip(inp["points"], results, references):
            for op, got in out.items():
                if got is not None:
                    bad = self._mismatch(pt, op, got, pt["pool"][0])
                    ledger.expect(bad is None, "solve: %s" % bad)
            outs = iter(ref)
            for item in pt["pool"]:
                for op in ROUND_OPS:
                    bad = self._mismatch(pt, op, list(next(outs)), item)
                    ledger.expect(bad is None, "query: %s" % bad)

    def commands(self, inp, workdir):
        plan = (("Z/25", "add"), ("Z/4", "mul"), ("Z/9", "norm"),
                ("Z", "FV"), ("F5", "sub"))
        cmds = []
        for spec, op in plan:
            pt = next(q for q in inp["points"] if q["spec"] == spec)
            item = pt["pool"][0]
            argv = ["classical", "--p", str(pt["p"]), "--k", str(pt["k"]),
                    "--ring", spec, "--op", op,
                    "--x=" + ",".join(map(str, item["x"]))]
            if op in ("add", "sub", "mul"):
                argv.append("--y=" + ",".join(map(str, item["y"])))
            cmds.append(Command(argv, self._cli_verifier(pt, op, item)))
        return cmds

    def _cli_verifier(self, pt, op, item):
        def verify(rc, stdout):
            out, errs = _load_output(rc, stdout)
            if errs:
                return errs
            p, m = pt["p"], pt["modulus"]
            want = orc.expected_witt(p, op, item["x"], item["y"])
            errs = []
            if out["coords"] != orc.reduce_coords(want, m):
                errs.append("coords %s, expected %s" % (
                    out["coords"], orc.reduce_coords(want, m)))
            if out["ghost"] != orc.reduce_coords(orc.ghost(p, want), m):
                errs.append("ghost %s does not match the coordinates"
                            % out["ghost"])
            return errs
        return verify


# ---------------------------------------------------------------------------
# eqwitt-sweep: equivariant Witt vectors of constant and Burnside functors

# (base, n, p, k): a sweep over k on F_3, Z/9 and Z/6 at p = 5, Z, one
# n > 1 case, and Burnside functors.  F_3 at k >= 4 is left out: it
# takes over 120 s with the enumerating presenter.
EQ_CASES = (
    ("F3", 1, 3, 1), ("F3", 1, 3, 2), ("F3", 1, 3, 3),
    ("Z/9", 1, 3, 1), ("Z/9", 1, 3, 2),
    ("Z/6", 1, 5, 1), ("Z/6", 1, 5, 2),
    ("Z", 1, 3, 1), ("Z", 1, 3, 2), ("Z", 1, 3, 3),
    ("F3", 2, 3, 2),
    ("burnside", 1, 3, 3), ("burnside", 2, 3, 2), ("burnside", 1, 2, 3),
)


def _identified(spec, p, k, d, factors):
    """The paper's identification at a level d = p^k m: F_p gives
    Z/p^(k+1), Z/m a group of order m^(k+1), Z a free group of rank
    k+1.  Burnside levels are A(C_d), free of rank tau(d)."""
    factors = tuple(factors)
    if spec == "burnside":
        return factors == (0,) * orc.divisor_count(d)
    if spec == "Z":
        return factors == (0,) * (k + 1)
    if spec.startswith("F"):
        return factors == (p ** (k + 1),)
    order = 1
    for f in factors:
        order *= f
    return order == int(spec[2:]) ** (k + 1)


def _base_functor(spec, n):
    if spec == "burnside":
        return tambara.burnside_tambara(n)
    return tambara.constant_tambara(rings.parse_ring(spec), n)


def _base_pool(level, rng):
    """All elements of a finite base level; else a fixed set of small
    vectors.  The seed only orders them, so the cost is seed-free."""
    order = level.order()
    if order is not None and order <= 256:
        pool = [tuple(v) for v in level.elements()]
    elif level.ngens == 1:
        pool = [(-3,), (-2,), (2,), (3,)]
    else:
        pool = list(itertools.product((-1, 1, 2), repeat=level.ngens))
    rng.shuffle(pool)
    return pool


class EqwittSweep:
    name = "eqwitt-sweep"

    def build(self, seed, workdir):
        bases = {}
        for spec, n, _p, _k in EQ_CASES:
            if (spec, n) not in bases:
                R = _base_functor(spec, n)
                pools = {m: _base_pool(R.green.level(m),
                                       _rng(seed, "eq", spec, n, m))
                         for m in R.group.divisors}
                bases[(spec, n)] = (R, pools)
        path = os.path.join(workdir, "burnside2.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"norm_class": "burnside", "N": 2}, fh)
        return {"bases": bases, "burnside2": path}

    @staticmethod
    def _lift_round(W, r, pools):
        outs = []
        p_nu = W.p ** W.nu
        for m, pool in sorted(pools.items()):
            top = W.p ** W.k * m
            for a in pool:
                lift = eqwitt.multiplicative_lift(W, a, m)
                image = None
                if r is not None:
                    image = r.components[top // p_nu].apply(lift)
                outs.append((tuple(lift), image))
        return outs

    def solve(self, inp, ledger):
        results = []
        for spec, n, p, k in EQ_CASES:
            R, pools = inp["bases"][(spec, n)]
            label = "%s n=%d p=%d k=%d" % (spec, n, p, k)
            W = ledger.run("equivariant_witt " + label,
                           eqwitt.equivariant_witt, R, p, k)
            r = lifts = None
            if W is not None:
                if k >= W.nu:
                    r = ledger.run("restriction_r " + label,
                                   eqwitt.restriction_r, W)
                lifts = ledger.run("lifts " + label, self._lift_round,
                                   W, r, pools)
            results.append({"label": label, "W": W, "r": r,
                            "lifts": lifts})
        return results

    def op_cases(self, inp, results):
        cases = []
        for (spec, n, _p, _k), res in zip(EQ_CASES, results):
            if res["W"] is None:
                continue
            pools = inp["bases"][(spec, n)][1]

            def run_round(W=res["W"], r=res["r"], pools=pools):
                outs = self._lift_round(W, r, pools)
                return len(outs) * (2 if r is not None else 1), outs
            cases.append(OpCase(res["label"], run_round))
        return cases

    def check(self, inp, results, references, ledger):
        refs = iter(references)
        for (spec, n, p, k), res in zip(EQ_CASES, results):
            W, label = res["W"], res["label"]
            if W is None:
                continue
            R, pools = inp["bases"][(spec, n)]
            ref = next(refs)
            ledger.expect(ref == res["lifts"],
                          "%s: repeated lifts differ from the first" % label)
            for d in W.group.divisors:
                for err in _group_errors("%s level %d" % (label, d),
                                         W.level(d)):
                    ledger.errors.append(err)
            self._check_identification(spec, n, p, k, W, label, ledger)
            self._check_lifts(R, W, pools, label, ledger)

    @staticmethod
    def _check_identification(spec, n, p, k, W, label, ledger):
        for d in W.group.divisors:
            if spec == "burnside" or d % p ** k == 0:
                got = W.level(d).invariant_factors
                ledger.expect(_identified(spec, p, k, d, got),
                              "%s level %d: %s breaks the identification"
                              % (label, d, got))

    @staticmethod
    def _check_lifts(R, W, pools, label, ledger):
        for m, pool in sorted(pools.items()):
            top = W.p ** W.k * m
            level = W.level(top)
            lift = {a: eqwitt.multiplicative_lift(W, a, m) for a in pool}
            one = eqwitt.multiplicative_lift(W, R.green.one[m], m)
            ledger.expect(level.equal(one, W.green.one[top]),
                          "%s: lift of 1 is not 1" % label)
            for i, a in enumerate(pool):
                for b in pool[i:]:
                    ab = R.green.multiply(m, a, b)
                    prod = W.green.multiply(top, lift[a], lift[b])
                    ledger.expect(
                        level.equal(eqwitt.multiplicative_lift(W, ab, m),
                                    prod),
                        "%s: lift(%s * %s) != lift * lift" % (label, a, b))
                ok, _ = eqwitt.check_lift_power(W, a, m)
                ledger.expect(ok, "%s: lift power rule fails at %s"
                              % (label, a))
                if W.n == 1:
                    ok, _ = eqwitt.check_r_lift_identity(W, a)
                    ledger.expect(ok, "%s: r^k([a]) != a at %s"
                                  % (label, a))

    def commands(self, inp, workdir):
        return [
            Command(["eqwitt", "--ring", "Z/9", "--p", "3", "--k", "1"],
                    self._cli_verifier("Z/9", 1, 3, 1)),
            Command(["eqwitt", "--ring", "Z/6", "--p", "5", "--k", "2"],
                    self._cli_verifier("Z/6", 1, 5, 2)),
            Command(["eqwitt", "--ring", "F3", "--p", "3", "--k", "2",
                     "--oracle"], self._cli_verifier("F3", 1, 3, 2)),
            Command(["eqwitt", "--ring", "Z", "--p", "3", "--k", "3"],
                    self._cli_verifier("Z", 1, 3, 3)),
            Command(["eqwitt", "--input", inp["burnside2"], "--p", "3",
                     "--k", "2"], self._cli_verifier("burnside", 2, 3, 2)),
        ]

    @staticmethod
    def _cli_verifier(spec, n, p, k):
        def verify(rc, stdout):
            out, errs = _load_output(rc, stdout)
            if errs:
                return errs
            N = p ** k * n
            levels = out["levels"]
            for label, data in levels.items():
                errs += _level_json_errors(label, data)
            for d in range(1, N + 1):
                if N % d == 0 and (spec == "burnside" or d % p ** k == 0):
                    got = levels["C%d/C%d" % (N, d)]["invariant_factors"]
                    if not _identified(spec, p, k, d, got):
                        errs.append("level %d: %s" % (d, got))
            if spec.startswith("Z/") and len(out["lift"]["1"]) != \
                    int(spec[2:]):
                errs.append("lift table does not cover %s" % spec)
            if "oracle" in out and set(out["oracle"].values()) != {"PASS"}:
                errs.append("nerve oracle: %s" % out["oracle"])
            return errs
        return verify


# ---------------------------------------------------------------------------
# mackey-snf: box products, coinvariants, geometric fixed points, checkers

BOX_ORDERS = (12, 24, 36)
NERVE_CASES = (("F3", 1, 3, 1), ("F3", 1, 3, 2), ("Z/9", 1, 3, 1),
               ("F3", 2, 3, 1), ("burnside", 2, 3, 1))
FAMILIES = (("F3", 1, 3, 2), ("Z/9", 1, 3, 1), ("Z", 1, 3, 2),
            ("burnside", 1, 3, 2), ("F3", 2, 3, 1), ("burnside", 2, 3, 1))
# small towers for geometric fixed points and Weyl coinvariants
TOWERS = (("F3", 1, 3, 2), ("Z/9", 1, 3, 1), ("burnside", 2, 3, 1))


class MackeySnf:
    name = "mackey-snf"

    def build(self, seed, workdir):
        burn = {N: mackey.burnside(N) for N in BOX_ORDERS}
        bases = {}
        for spec, n, _p, _k in NERVE_CASES + FAMILIES + TOWERS:
            if (spec, n) not in bases:
                bases[(spec, n)] = _base_functor(spec, n)
        # the torsion functor: constant Z/9 over C_4, normed below
        bases[("Z/9", 4)] = _base_functor("Z/9", 4)
        files = {}

        def dump(name, obj):
            files[name] = os.path.join(workdir, name + ".json")
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

        dump("a12", burn[12].to_json())
        dump("a24", burn[24].to_json())
        dump("c12", tambara.constant_tambara(rings.parse_ring("Z/9"), 12)
             .mackey.to_json())
        dump("family", {"base": {"norm_class": "constant:F3", "N": 1},
                        "p": 3, "S": 2})
        bad = cli.family_to_json(wittcomplex.degree_zero_family(
            bases[("F3", 2)], 3, 1))
        tr = bad["E"]["1"]["degrees"]["0"]["tr"]["3->6"]
        tr["matrix"] = [[2 * x for x in row] for row in tr["matrix"]]
        dump("bad_family", bad)
        return {"burnside": burn, "bases": bases, "files": files,
                "seed": seed}

    def solve(self, inp, ledger):
        run = ledger.run
        burn, bases = inp["burnside"], inp["bases"]
        res = {"boxes": {}, "groups": [], "nerve": {}, "reports": {},
               "faults": {}}
        for N in BOX_ORDERS:
            res["boxes"][N] = run("box A_%d" % N, mackey.box_product,
                                  burn[N], burn[N])
        W12 = run("W torsion", eqwitt.equivariant_witt,
                  bases[("Z/9", 4)], 3, 1)
        if W12 is not None:
            res["torsion"] = W12.green.mackey
            res["boxes"]["WxW"] = run("box W x W", mackey.box_product,
                                      W12.green.mackey, W12.green.mackey)
            res["boxes"]["AxW"] = run("box A x W", mackey.box_product,
                                      burn[12], W12.green.mackey)
        for spec, n, p, k in TOWERS:
            W = run("tower", eqwitt.equivariant_witt, bases[(spec, n)], p, k)
            if W is None:
                continue
            phi = run("phi", mackey.geometric_fixed_points,
                      W.green.mackey, p)
            if phi is not None:
                res["groups"] += [("phi %s level %d" % (spec, d),
                                   phi[0].level(d))
                                  for d in phi[0].group.divisors]
            for d in W.group.divisors:
                q = run("coinvariants", mackey.weyl_coinvariants,
                        W.norm.mackey, d)
                if q is not None:
                    res["groups"].append(("coinv %s level %d" % (spec, d),
                                          q[0]))
        for m in (2, 3, 4, 9):
            phi = run("phi A_36", mackey.geometric_fixed_points,
                      burn[36], m)
            if phi is not None:
                res["groups"] += [("phi^%d A_36 level %d" % (m, d),
                                   phi[0].level(d))
                                  for d in phi[0].group.divisors]
        for case in NERVE_CASES:
            spec, n, p, k = case
            res["nerve"][case] = run("nerve", eqwitt.nerve_comparison,
                                     bases[(spec, n)], p, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for case in FAMILIES:
                spec, n, p, S = case
                data = run("family", wittcomplex.degree_zero_family,
                           bases[(spec, n)], p, S)
                if data is None:
                    continue
                reps = [run("check_equivariant",
                            wittcomplex.check_equivariant, data)]
                if n == 1:
                    cdata = run("specialize_n1", wittcomplex.specialize_n1,
                                data)
                    reps.append(run("check_classical",
                                    wittcomplex.check_classical, cdata))
                res["reports"][case] = reps
                # injected faults, keyed by the axiom they break
                if case == ("F3", 2, 3, 1):
                    bad = wittcomplex.with_scaled_transfer(data, 1, (3, 6), 2)
                    res["faults"]["res tr = [L:H]"] = run(
                        "check_equivariant", wittcomplex.check_equivariant,
                        bad)
                if case == ("F3", 1, 3, 2):
                    bad = wittcomplex.with_identity_differential(data, 1)
                    res["faults"]["Leibniz rule"] = run(
                        "check_equivariant", wittcomplex.check_equivariant,
                        bad)
        return res

    def _queries(self, box, seed, label):
        """A fixed pool of element queries on the top level of a box."""
        rng = _rng(seed, "mackey", label)
        N = box.group.N
        top = box.level(N)
        q = min(f for f in range(2, N + 1) if N % f == 0)
        low = box.level(N // q)
        e = box.group.divisors[len(box.group.divisors) // 2]
        left, right = box.factors
        rels = [list(r) for r in top.relations]
        pool = []
        for _ in range(6):
            x = [rng.randint(-5, 5) for _ in range(top.ngens)]
            shift = [0] * top.ngens
            for _ in range(2):
                if rels:
                    c = rng.choice((-2, -1, 1, 2))
                    row = rng.choice(rels)
                    shift = [s + c * r for s, r in zip(shift, row)]
            pool.append({
                "x": tuple(x), "x2": tuple(a + b for a, b in zip(x, shift)),
                "low": tuple(rng.randint(-5, 5) for _ in range(low.ngens)),
                "e": e,
                "xe": tuple(rng.randint(-3, 3)
                            for _ in range(left.level(e).ngens)),
                "xe2": tuple(rng.randint(-3, 3)
                             for _ in range(left.level(e).ngens)),
                "ye": tuple(rng.randint(-3, 3)
                            for _ in range(right.level(e).ngens))})
        return {"N": N, "res": box.res[(N, N // q)],
                "tr": box.tr[(N // q, N)], "pool": pool}

    def op_cases(self, inp, results):
        cases = []
        for label, box in results["boxes"].items():
            if box is None:
                continue
            qs = self._queries(box, inp["seed"], label)
            results.setdefault("queries", {})[label] = qs

            def run_round(box=box, qs=qs):
                top = box.level(qs["N"])
                outs = []
                for item in qs["pool"]:
                    outs.append((
                        top.canonical(item["x"]),
                        top.equal(item["x"], item["x2"]),
                        qs["res"].apply(item["x"]),
                        qs["tr"].apply(item["low"]),
                        box.pure_tensor(qs["N"], item["e"], item["xe"],
                                        item["ye"])))
                return 5 * len(outs), outs
            cases.append(OpCase("box %s" % label, run_round))
        return cases

    def check(self, inp, results, references, ledger):
        expect = ledger.expect
        boxes = results["boxes"]
        for label, box in boxes.items():
            if box is None:
                continue
            for d in box.group.divisors:
                ledger.errors += _group_errors("box %s level %d"
                                               % (label, d), box.level(d))
            left, right = box.factors
            want = orc.tensor_factors(left.level(1).invariant_factors,
                                      right.level(1).invariant_factors)
            expect(box.level(1).invariant_factors == want,
                   "box %s: level 1 is not the tensor product" % label)
        for N in BOX_ORDERS:
            box = boxes[N]
            if box is None:
                continue
            for d in box.group.divisors:
                want = (0,) * orc.divisor_count(d)
                expect(box.level(d).invariant_factors == want,
                       "A_%d box A_%d level %d is not A(C_%d)"
                       % (N, N, d, d))
        if boxes.get("AxW") is not None:
            W = results["torsion"]
            for d in W.group.divisors:
                expect(boxes["AxW"].level(d).invariant_factors
                       == W.level(d).invariant_factors,
                       "A box W level %d differs from W" % d)
            expect(mackey.box_unit_map(boxes["AxW"], W)
                   .is_levelwise_isomorphism(), "box unit map is not iso")
        for label in (12, "WxW"):
            box = boxes.get(label)
            if box is not None:
                expect(mackey.box_symmetry_map(box, box)
                       .is_levelwise_isomorphism(),
                       "box %s: symmetry map is not iso" % label)
        for label, group in results["groups"]:
            ledger.errors += _group_errors(label, group)
        for case, comparison in results["nerve"].items():
            expect(comparison is not None and all(comparison.values()),
                   "nerve comparison fails for %s: %s" % (case, comparison))
        for case, reps in results["reports"].items():
            for rep in reps:
                expect(rep is not None and rep.passed,
                       "good family %s fails: %r" % (case, rep))
        for axiom, rep in results["faults"].items():
            names = [] if rep is None else [f.name for f in rep.failures()]
            expect(axiom in names, "injected fault in %s: checker names %s"
                   % (axiom, names))
        self._check_queries(results, references, expect)

    @staticmethod
    def _check_queries(results, references, expect):
        for (label, box), ref in zip(
                [(lb, b) for lb, b in results["boxes"].items()
                 if b is not None], references):
            qs = results["queries"][label]
            top = box.level(qs["N"])
            for item, (canon, eq, res, tr, pt) in zip(qs["pool"], ref):
                expect(canon == top.canonical(item["x2"]) and eq,
                       "box %s: canonical form changes by a relation"
                       % label)
                expect(list(res) == orc.vecmat(item["x"], qs["res"].matrix),
                       "box %s: res.apply is wrong" % label)
                expect(list(tr) == orc.vecmat(item["low"], qs["tr"].matrix),
                       "box %s: tr.apply is wrong" % label)
                e, N = item["e"], qs["N"]
                a = box.pure_tensor(N, e, item["xe2"], item["ye"])
                s = box.pure_tensor(N, e, tuple(
                    u + v for u, v in zip(item["xe"], item["xe2"])),
                    item["ye"])
                expect(list(s) == [u + v for u, v in zip(pt, a)],
                       "box %s: pure_tensor is not bilinear" % label)

    def commands(self, inp, workdir):
        f = inp["files"]
        return [
            Command(["box", "--a", f["a24"], "--b", f["a24"]],
                    self._box_verifier(lambda d: (0,) * orc.divisor_count(d))),
            Command(["box", "--a", f["a12"], "--b", f["c12"]],
                    self._box_verifier(lambda d: (9,))),
            Command(["check", "witt-complex", "--file", f["family"]],
                    self._check_verifier(0, None)),
            Command(["check", "witt-complex", "--file", f["bad_family"]],
                    self._check_verifier(1, "res tr = [L:H]")),
        ]

    @staticmethod
    def _box_verifier(expected):
        def verify(rc, stdout):
            out, errs = _load_output(rc, stdout)
            if errs:
                return errs
            for key, data in out["levels"].items():
                errs += _level_json_errors("level " + key, data)
                if tuple(data["invariant_factors"]) != expected(int(key)):
                    errs.append("level %s: %s" % (key,
                                                  data["invariant_factors"]))
            return errs
        return verify

    @staticmethod
    def _check_verifier(want_rc, failing_axiom):
        def verify(rc, stdout):
            out, errs = _load_output(rc, stdout, want_rc)
            if errs:
                return errs
            failing = [a["axiom"] for a in out["axioms"]
                       if a["status"] == "FAIL"]
            if failing_axiom is None:
                if out["status"] != "PASS" or failing:
                    errs.append("good family fails: %s" % failing)
                if out.get("classical", {}).get("status") != "PASS":
                    errs.append("classical check does not pass")
            elif failing[:1] != [failing_axiom]:
                errs.append("checker names %s, expected %s"
                            % (failing, failing_axiom))
            return errs
        return verify


WORKLOADS = {w.name: w for w in (WittArith(), EqwittSweep(), MackeySnf())}
