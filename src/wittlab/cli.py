"""Command-line front end.

Subcommands: classical, mackey, box, norm, eqwitt, check.  All numeric
output is exact; JSON objects are emitted with divisor keys as decimal
strings in ascending numeric order, so identical flags and inputs give
byte-identical output.  Exit codes: 0 success, 1 computation or
validation failure, 2 usage errors (including missing files).
"""

import argparse
import json
import random
import sys
import warnings
from functools import partial

from . import abgroups, eqwitt, mackey, tambara, wittcomplex
from .abgroups import _json_int, _json_keys
from .errors import MalformedData, WittlabError
from .mackey import MackeyFunctor, divisors
from .rings import parse_ring
from .witt import WittRing


def _emit(obj, fmt="json"):
    if fmt == "table":
        for line in _tabulate(obj):
            print(line)
    else:
        print(json.dumps(obj, indent=2))


def _tabulate(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                yield "%s%s:" % (prefix, key)
                yield from _tabulate(val, prefix + "  ")
            else:
                yield "%s%s: %s" % (prefix, key, val)
    elif isinstance(obj, list):
        yield "%s%s" % (prefix, obj)
    else:
        yield "%s%s" % (prefix, obj)


def _load_json(path):
    def no_float(text):
        # no wittlab schema holds a float; int() would truncate one
        raise MalformedData("non-integer number %s in %s" % (text, path))

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=no_float,
                             parse_constant=no_float)
    except FileNotFoundError:
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": "invalid JSON in %s: %s" % (path, exc)}),
              file=sys.stderr)
        raise SystemExit(2)


def _from_file(path, build):
    """build(JSON of the file); a value of the wrong JSON type, which
    surfaces as a TypeError or AttributeError, and a MalformedData of the
    build raise MalformedData naming the file."""
    data = _load_json(path)
    try:
        return build(data)
    except (TypeError, AttributeError, MalformedData) as exc:
        raise MalformedData("malformed %s: %s" % (path, exc))


def _parse_coords(text, ring, expected):
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != expected:
        raise ValueError("expected %d coordinates, got %d"
                         % (expected, len(parts)))
    return [ring.from_int(int(p)) for p in parts]


# ---------------------------------------------------------------------------
# classical


def _cmd_classical(args):
    ring = parse_ring(args.ring)
    wr = WittRing(args.p, args.k, ring)
    op = args.op
    result = None
    if op in ("add", "sub", "mul"):
        x = wr.vector(_parse_coords(args.x, ring, args.k))
        y = wr.vector(_parse_coords(args.y, ring, args.k))
        result = getattr(wr, op)(x, y)
    elif op == "neg":
        result = wr.neg(wr.vector(_parse_coords(args.x, ring, args.k)))
    elif op == "R":
        result = wr.restriction(wr.vector(_parse_coords(args.x, ring,
                                                        args.k)))
    elif op == "F":
        result = wr.frobenius(wr.vector(_parse_coords(args.x, ring,
                                                      args.k)))
    elif op == "V":
        shorter = WittRing(args.p, args.k - 1, ring)
        result = wr.verschiebung(
            shorter.vector(_parse_coords(args.x, ring, args.k - 1)))
    elif op == "FV":
        # F(V(x)) = p.x, through length k + 1
        x = wr.vector(_parse_coords(args.x, ring, args.k))
        longer = WittRing(args.p, args.k + 1, ring)
        result = longer.frobenius(longer.verschiebung(x))
    elif op == "teichmuller":
        a = _parse_coords(args.x, ring, 1)[0]
        result = wr.teichmuller(a)
    elif op == "norm":
        x = wr.vector(_parse_coords(args.x, ring, args.k))
        result = wr.norm(x)
    elif op == "ghost":
        x = wr.vector(_parse_coords(args.x, ring, args.k))
        ghost = wr.ghost(x)
        _emit({"p": args.p, "k": args.k, "ring": args.ring, "op": op,
               "coords": [repr_el(c) for c in x.coords],
               "ghost": [repr_el(g) for g in ghost]}, args.format)
        return 0
    else:
        raise ValueError("unknown op %r" % op)
    out_ring = WittRing(result.params.p, result.params.k, ring)
    _emit({"p": args.p, "k": result.params.k, "ring": args.ring, "op": op,
           "coords": [repr_el(c) for c in result.coords],
           "ghost": [repr_el(g) for g in out_ring.ghost(result)]},
          args.format)
    return 0


def repr_el(x):
    return x if isinstance(x, int) else repr(x)


# ---------------------------------------------------------------------------
# mackey / box


def _cmd_mackey(args):
    m = _from_file(args.file, MackeyFunctor.from_json)
    m.validate()
    _emit(m.to_json(), args.format)
    return 0


def _cmd_box(args):
    a = _from_file(args.a, MackeyFunctor.from_json)
    b = _from_file(args.b, MackeyFunctor.from_json)
    a.validate()
    b.validate()
    box = mackey.box_product(a, b)
    box.validate()
    _emit(box.to_json(), args.format)
    return 0


# ---------------------------------------------------------------------------
# tambara inputs


def _cmd_norm(args):
    R = _from_file(args.input, tambara.tambara_from_json)
    rng = random.Random(args.seed)
    out = tambara.norm_functor(R, args.p, args.k)
    out.green.validate_green()
    out.validate_tambara(rng)
    _emit(out.to_json(), args.format)
    return 0


# ---------------------------------------------------------------------------
# equivariant Witt vectors


def _cmd_eqwitt(args):
    if args.input:
        R = _from_file(args.input, tambara.tambara_from_json)
    elif args.ring:
        spec = parse_ring(args.ring)
        R = tambara.constant_tambara(spec, args.n)
    else:
        raise ValueError("eqwitt needs --input or --ring")
    W = eqwitt.equivariant_witt(R, args.p, args.k)
    group_order = W.group.N
    out = {
        "group": "C%d" % group_order,
        "params": {"n": W.n, "p": W.p, "k": W.k, "nu": W.nu},
        "levels": {},
        "F": {},
        "V": {},
        "lift": {},
    }
    for d in W.group.divisors:
        out["levels"][W.orbit_label(d)] = W.level(d).to_json()
    for d in W.group.divisors:
        if d % W.p == 0:
            out["F"][str(d)] = W.frobenius_map(d).to_json()
            out["V"][str(d)] = W.verschiebung_map(d).to_json()
    for m in divisors(W.n):
        base_level = R.green.level(m)
        if base_level.order() is not None and base_level.order() <= 256:
            table = []
            for a in base_level.elements():
                lift = eqwitt.multiplicative_lift(W, a, m)
                table.append({"input": list(a), "output": list(lift)})
            out["lift"][str(m)] = table
    if args.oracle:
        comparison = eqwitt.nerve_comparison(R, args.p, args.k)
        out["oracle"] = {W.orbit_label(d): ("PASS" if ok else "FAIL")
                         for d, ok in sorted(comparison.items())}
        if not all(comparison.values()):
            _emit(out, args.format)
            return 1
    _emit(out, args.format)
    return 0


# ---------------------------------------------------------------------------
# witt-complex checking


def family_to_json(data):
    """Serialize a degree-zero Witt complex family."""
    if data.D != 0:
        raise WittlabError("only degree-zero families serialize to JSON")
    out = {
        "p": data.p, "n": data.n, "S": data.S, "D": 0,
        "base": {"norm_class": data.base.norm_class.tag, "N": data.n},
        "E": {}, "d": {}, "r": {}, "lambda": {}, "compat": {},
    }
    for s in range(data.S + 1):
        out["E"][str(s)] = {"degrees": {
            "0": data.towers[s].green0.to_json()}}
        out["lambda"][str(s)] = {
            str(d): data.lam[s][d].to_json()
            for d in data.towers[s].group.divisors}
    for s in range(data.nu, data.S + 1):
        out["r"][str(s)] = {"0": {
            str(d): data.restriction(s, 0, d).to_json()
            for d in data.towers[s - data.nu].group.divisors}}
    for (s, smaller), per_degree in sorted(data.compat.items()):
        out["compat"]["%d,%d" % (s, smaller)] = {"0": {
            str(d): h.to_json() for d, h in sorted(per_degree[0].items())}}
    for (s, q), maps in sorted(data.d_maps.items()):
        entries = {str(d): h.to_json() for d, h in sorted(maps.items())
                   if not h.is_zero_hom()}
        if entries:
            out["d"]["%d,%d" % (s, q)] = entries
    return out


def _hom_table(name, table, group, source, target):
    """{d: AbHom from source(d) to target(d)} read from a
    ``{"<d>": {"matrix": ...}}`` table keyed by exactly the divisors of
    ``group``.  A missing or unknown key, a malformed matrix, or one that
    does not preserve relations, is MalformedData naming the table and
    the key."""
    homs = {}
    for key in _json_keys(table, name, [str(d) for d in group.divisors]):
        d = int(key)
        label = "%s matrix %s" % (name, key)
        matrix = _json_int(table[key]["matrix"], label, 2)
        try:
            homs[d] = abgroups.AbHom(source(d), target(d), matrix)
        except ValueError as exc:
            raise MalformedData("%s: %s" % (label, exc))
    return homs


def _degree_zero(table, key, per_degree):
    """The degree-0 maps of an ``r`` or ``compat`` entry, which holds
    no other degree: only degree-zero families load from JSON."""
    for degree in per_degree:
        if degree != "0":
            raise MalformedData("%s key %r: degree %r is not 0"
                                % (table, key, degree))
    return per_degree["0"]


def _tower_key(table, key, S, form, low=0):
    """The integers of a key of the family's ``table`` written in the
    ``form`` "s", "s,t" or "s,q", where the towers s and t lie in
    low..S; any other key is MalformedData naming it."""
    fields = key.split(",")
    if len(fields) != len(form.split(",")) or not all(
            field.isdecimal() for field in fields):
        raise MalformedData("%s key %r is not of the form %s"
                            % (table, key, form))
    ints = tuple(map(int, fields))
    for letter, s in zip(form.split(","), ints):
        if letter != "q" and not low <= s <= S:
            raise MalformedData("%s key %r names tower %d outside %d..%d"
                                % (table, key, s, low, S))
    return ints


def witt_complex_from_json(obj):
    """Rebuild checker input from a file; the Witt towers themselves
    are reconstructed from the base tag."""
    base = tambara.tambara_from_json(obj["base"])
    p = _json_int(obj["p"], "p")
    S = _json_int(obj["S"], "S")
    if _json_int(obj.get("D", 0), "D") != 0:
        raise WittlabError("only degree-zero families load from JSON")
    if _json_int(obj.get("n", base.group.N), "n") != base.group.N:
        raise MalformedData("n = %r is not base N = %d"
                            % (obj["n"], base.group.N))
    if "E" not in obj:
        return wittcomplex.degree_zero_family(base, p, S)
    witt_tower = [eqwitt.equivariant_witt(base, p, s) for s in range(S + 1)]
    towers = [wittcomplex.GradedTower(tambara.green_from_json(
        obj["E"][str(s)]["degrees"]["0"])) for s in range(S + 1)]
    lam = {s: _hom_table("lambda %d" % s, obj["lambda"][str(s)],
                         towers[s].group, witt_tower[s].green.level,
                         partial(towers[s].level, 0))
           for s in range(S + 1)}
    nu = eqwitt.multiplicative_order(p, base.group.N)
    for s in range(nu, S + 1):
        eqwitt._restriction_r(witt_tower[s], witt_tower[s - nu])
    r_maps = {}
    for key, per_degree in obj.get("r", {}).items():
        (s,) = _tower_key("r", key, S, "s", nu)
        maps = _degree_zero("r", key, per_degree)
        r_maps[s] = {0: _hom_table(
            "r %s" % key, maps, towers[s - nu].group,
            lambda d: towers[s].level(0, d * p ** nu),
            partial(towers[s - nu].level, 0))}
    compat = {}
    for key, per_degree in obj.get("compat", {}).items():
        s, smaller = _tower_key("compat", key, S, "s,t")
        maps = _degree_zero("compat", key, per_degree)
        compat[(s, smaller)] = {0: _hom_table(
            "compat %s" % key, maps, towers[smaller].group,
            partial(towers[s].level, 0), partial(towers[smaller].level, 0))}
    d_maps = {}
    for key, maps in obj.get("d", {}).items():
        s, q = _tower_key("d", key, S, "s,q")
        if q != 0:
            raise MalformedData("d key %r: degree %d is not 0" % (key, q))
        d_maps[(s, q)] = _hom_table("d %s" % key, maps, towers[s].group,
                                    partial(towers[s].level, q),
                                    partial(towers[s].level, q + 1))
    return wittcomplex.WittComplexData(
        base, p, S, 0, towers, witt_tower, d_maps=d_maps, r_maps=r_maps,
        lam=lam, compat=compat,
        classical_base=wittcomplex.classical_bridge(base, witt_tower))


def _cmd_check(args):
    if args.target != "witt-complex":
        raise ValueError("unknown check target %r" % args.target)
    data = _from_file(args.file, witt_complex_from_json)
    report = wittcomplex.check_equivariant(data)
    out = report.to_json()
    if data.n == 1 and data.classical_base is not None and report.passed:
        classical = wittcomplex.check_classical(
            wittcomplex.specialize_n1(data))
        out["classical"] = classical.to_json()
        if not classical.passed:
            _emit(out, args.format)
            return 1
    _emit(out, args.format)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wittlab",
        description="Exact computations with p-typical and equivariant "
                    "Witt vectors over cyclic groups.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for property sampling")
    parser.add_argument("--format", choices=("json", "table"),
                        default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classical", help="classical p-typical Witt vectors")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--ring", default="Z")
    c.add_argument("--op", required=True,
                   choices=("add", "sub", "mul", "neg", "R", "F", "V",
                            "FV", "teichmuller", "norm", "ghost"))
    c.add_argument("--x", required=True)
    c.add_argument("--y")
    c.set_defaults(func=_cmd_classical)

    m = sub.add_parser("mackey", help="inspect a Mackey functor file")
    msub = m.add_subparsers(dest="mackey_command", required=True)
    show = msub.add_parser("show")
    show.add_argument("--file", required=True)
    show.set_defaults(func=_cmd_mackey)

    b = sub.add_parser("box", help="box product of two Mackey functors")
    b.add_argument("--a", required=True)
    b.add_argument("--b", required=True)
    b.set_defaults(func=_cmd_box)

    n = sub.add_parser("norm", help="norm a supported Tambara functor")
    n.add_argument("--input", required=True)
    n.add_argument("--p", type=int, required=True)
    n.add_argument("--k", type=int, required=True)
    n.set_defaults(func=_cmd_norm)

    e = sub.add_parser("eqwitt", help="equivariant Witt vectors")
    e.add_argument("--input")
    e.add_argument("--ring")
    e.add_argument("--n", type=int, default=1)
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--oracle", action="store_true",
                   help="compare against the twisted-nerve H0 oracle")
    e.set_defaults(func=_cmd_eqwitt)

    k = sub.add_parser("check", help="axiom checkers")
    k.add_argument("target", choices=("witt-complex",))
    k.add_argument("--file", required=True)
    k.set_defaults(func=_cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # integers of any size are read and printed exactly here; callers in
    # the same process keep Python's limit on int <-> str conversion
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if set_digits else None
    with warnings.catch_warnings():
        # a library warning becomes one JSON line, like an error
        warnings.showwarning = lambda message, *_: print(
            json.dumps({"warning": str(message)}), file=sys.stderr)
        try:
            if set_digits:
                set_digits(0)
            return args.func(args)
        except SystemExit as exc:
            return exc.code if exc.code is not None else 2
        except (WittlabError, ValueError, KeyError) as exc:
            print(json.dumps({"error": "%s: %s"
                              % (type(exc).__name__, exc)}),
                  file=sys.stderr)
            return 1
        finally:
            if set_digits:
                set_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
