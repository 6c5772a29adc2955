"""Run-time spans around wittlab's layer entry points.

Nothing under src/ changes: ``Tracer.install`` replaces chosen functions
and methods of the wittlab modules by timing wrappers.  A module-level
function is replaced under every name that refers to it in any wittlab
module, so a name bound by ``from .x import y`` is wrapped where it is
looked up.  Targets that a later version of wittlab no longer has are
skipped, and their metrics read 0.

Hot leaf helpers (ring carrier arithmetic, ``ring_pow``, ``vecmat``)
are not wrapped: a wrapper costs about a microsecond per call, which
would swamp them.  Their time is part of their caller's self time.

Every timing is CPU time of the calling thread (``time.thread_time``;
the process clock moves in 4 ms steps while the speed probe's timer is
armed).  A span's self time is its duration minus the time of the spans
it encloses.
"""

import functools
import importlib
import inspect
import sys
import time

WITT_OPS = ("add", "sub", "mul", "neg", "scalar_mul", "frobenius",
            "verschiebung", "norm")

# (module, attribute path, span name)
TARGETS = (
    [("rings", "IntPolynomial.evaluate", "rings.evaluate"),
     ("witt", "UniversalWittPolynomials.__init__", "witt.poly_build")]
    + [("witt", "WittRing." + op, "witt.op") for op in WITT_OPS]
    + [("witt", "WittRing.elements", "witt.elements"),
       ("tambara", "present_witt_ring", "tambara.present"),
       ("tambara", "norm_functor", "tambara.norm_functor"),
       ("tambara", "TambaraFunctor.internal_norm", "tambara.internal_norm"),
       ("abgroups", "smith_normal_form", "abgroups.snf"),
       ("abgroups", "invert_unimodular", "abgroups.unimod_inv"),
       ("abgroups", "FgAbGroup.__init__", "abgroups.group_build"),
       ("abgroups", "AbHom.__init__", "abgroups.hom_check"),
       ("abgroups", "FgAbGroup.canonical", "abgroups.canonical"),
       ("abgroups", "is_isomorphism", "abgroups.iso"),
       ("abgroups", "kernel", "abgroups.derived"),
       ("abgroups", "cokernel", "abgroups.derived"),
       ("abgroups", "image", "abgroups.derived"),
       ("abgroups", "preimage", "abgroups.derived"),
       ("mackey", "BoxProduct.__init__", "mackey.box"),
       ("mackey", "weyl_coinvariants", "mackey.coinv"),
       ("mackey", "geometric_fixed_points", "mackey.phi"),
       ("eqwitt", "equivariant_witt", "eqwitt.build"),
       ("eqwitt", "restriction_r", "eqwitt.r"),
       ("eqwitt", "multiplicative_lift", "eqwitt.lift"),
       ("eqwitt", "hh0_via_nerve", "eqwitt.nerve"),
       ("eqwitt", "nerve_comparison", "eqwitt.nerve"),
       ("wittcomplex", "degree_zero_family", "wittcomplex.family"),
       ("wittcomplex", "check_equivariant", "wittcomplex.check"),
       ("wittcomplex", "check_classical", "wittcomplex.check"),
       ("wittcomplex", "specialize_n1", "wittcomplex.check")])

# per-layer metrics, in the order they are reported: (name, unit)
PER_LAYER = (
    ("rings.evaluate_calls", "count"),
    ("rings.evaluate_s", "s"),
    ("witt.poly_build_s", "s"),
    ("witt.poly_terms", "count"),
    ("witt.op_calls", "count"),
    ("witt.op_s", "s"),
    ("tambara.present_calls", "count"),
    ("tambara.present_s", "s"),
    ("tambara.present_elements", "count"),
    ("tambara.norm_functor_s", "s"),
    ("tambara.internal_norm_calls", "count"),
    ("tambara.internal_norm_s", "s"),
    ("abgroups.snf_calls", "count"),
    ("abgroups.snf_s", "s"),
    ("abgroups.snf_cells", "count"),
    ("abgroups.snf_max_bits", "bits"),
    ("abgroups.unimod_inv_s", "s"),
    ("abgroups.group_builds", "count"),
    ("abgroups.hom_checks_s", "s"),
    ("abgroups.canonical_calls", "count"),
    ("abgroups.canonical_s", "s"),
    ("mackey.box_s", "s"),
    ("mackey.box_relations", "count"),
    ("mackey.coinv_s", "s"),
    ("mackey.phi_s", "s"),
    ("eqwitt.build_s", "s"),
    ("eqwitt.r_s", "s"),
    ("eqwitt.lift_calls", "count"),
    ("eqwitt.lift_s", "s"),
    ("eqwitt.nerve_s", "s"),
    ("wittcomplex.family_s", "s"),
    ("wittcomplex.check_s", "s"),
    ("wittcomplex.axioms_checked", "count"),
    ("cli.process_s", "s"),
    ("cli.import_s", "s"),
    ("trace.solve_s", "s"),
    ("trace.span_share", "ratio"),
)


class SpanStats:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span table keyed by span name, plus exact counters."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self._stack = []      # [name, start, child time]
        self._restore = []    # (owner, attribute, original)

    # -- recording

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def active(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def _exit(self):
        now = self.clock()
        name, start, child = self._stack.pop()
        dur = now - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.self_s += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def reset(self):
        self.stats = {}
        self.counters = {}

    def covered_s(self):
        """CPU time inside any span since the last reset."""
        return sum(st.self_s for st in self.stats.values())

    # -- wrapping

    def _wrap(self, func, name):
        tracer = self
        after = _AFTER.get(name)
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                produced = 0
                for item in func(*args, **kwargs):
                    produced += 1
                    yield item
                if tracer.active("tambara.present"):
                    tracer.count("tambara.present_elements", produced)
            return gen_wrapper

        if name == "abgroups.hom_check":
            # only AbHom(..., check=True) does work worth a span
            @functools.wraps(func)
            def hom_wrapper(*args, **kwargs):
                check = kwargs.get("check", args[4] if len(args) > 4
                                   else True)
                if not check:
                    return func(*args, **kwargs)
                tracer._enter(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._exit()
            return hom_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                # bookkeeping is kept out of the enclosing span
                start = tracer.clock()
                after(tracer, args, out)
                if tracer._stack:
                    tracer._stack[-1][2] += tracer.clock() - start
            return out
        return wrapper

    def install(self):
        """Wrap every target present in the loaded wittlab."""
        modules = [importlib.import_module("wittlab." + m)
                   for m in ("rings", "witt", "abgroups", "mackey",
                             "tambara", "eqwitt", "wittcomplex", "cli")]
        modules.append(importlib.import_module("wittlab"))
        for mod_name, path, span in TARGETS:
            module = sys.modules["wittlab." + mod_name]
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            original = None if owner is None else \
                owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, span)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapped)

    def _replace(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting

    def span(self, name):
        return self.stats.get(name, SpanStats())

    def layer_metrics(self):
        """Per-layer metrics from the spans and counters of this run
        (cli.*, trace.* are filled in by the caller)."""
        s = self.span
        c = self.counters.get
        return {
            "rings.evaluate_calls": s("rings.evaluate").calls,
            "rings.evaluate_s": s("rings.evaluate").self_s,
            "witt.poly_build_s": s("witt.poly_build").self_s,
            "witt.poly_terms": c("witt.poly_terms", 0),
            "witt.op_calls": s("witt.op").calls,
            "witt.op_s": s("witt.op").self_s,
            "tambara.present_calls": s("tambara.present").calls,
            "tambara.present_s": s("tambara.present").self_s,
            "tambara.present_elements": c("tambara.present_elements", 0),
            "tambara.norm_functor_s": s("tambara.norm_functor").self_s,
            "tambara.internal_norm_calls": s("tambara.internal_norm").calls,
            "tambara.internal_norm_s": s("tambara.internal_norm").self_s,
            "abgroups.snf_calls": s("abgroups.snf").calls,
            "abgroups.snf_s": s("abgroups.snf").self_s,
            "abgroups.snf_cells": c("abgroups.snf_cells", 0),
            "abgroups.snf_max_bits": c("abgroups.snf_max_bits", 0),
            "abgroups.unimod_inv_s": s("abgroups.unimod_inv").self_s,
            "abgroups.group_builds": s("abgroups.group_build").calls,
            "abgroups.hom_checks_s": s("abgroups.hom_check").self_s,
            "abgroups.canonical_calls": s("abgroups.canonical").calls,
            "abgroups.canonical_s": s("abgroups.canonical").self_s,
            "mackey.box_s": s("mackey.box").self_s,
            "mackey.box_relations": c("mackey.box_relations", 0),
            "mackey.coinv_s": s("mackey.coinv").self_s,
            "mackey.phi_s": s("mackey.phi").self_s,
            "eqwitt.build_s": s("eqwitt.build").self_s,
            "eqwitt.r_s": s("eqwitt.r").self_s,
            "eqwitt.lift_calls": s("eqwitt.lift").calls,
            "eqwitt.lift_s": s("eqwitt.lift").self_s,
            "eqwitt.nerve_s": s("eqwitt.nerve").self_s,
            "wittcomplex.family_s": s("wittcomplex.family").self_s,
            "wittcomplex.check_s": s("wittcomplex.check").self_s,
            "wittcomplex.axioms_checked": c("wittcomplex.axioms_checked", 0),
        }

    def table(self):
        """Every span with its calls and self time, for the trace file."""
        return {name: {"calls": st.calls, "self_s": st.self_s}
                for name, st in sorted(self.stats.items())}


# counters read from a call's arguments and result, outside its span

def _after_poly_build(tracer, args, _out):
    polys = args[0]
    terms = 0
    for family in ("sums", "products", "negations", "frobenius", "norms"):
        for f in getattr(polys, family, ()):
            terms += len(f.terms)
    tracer.count("witt.poly_terms", terms)


def _after_snf(tracer, args, out):
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    tracer.count("abgroups.snf_cells", rows * cols)
    bits = 0
    for matrix in out[:3]:
        for row in matrix:
            for x in row:
                b = abs(x).bit_length()
                if b > bits:
                    bits = b
    tracer.maximum("abgroups.snf_max_bits", bits)


def _after_box(tracer, args, _out):
    box = args[0]
    tracer.count("mackey.box_relations",
                 sum(len(box.level(d).relations)
                     for d in box.group.divisors))


def _after_check(tracer, _args, out):
    results = getattr(out, "results", None)
    if results is not None:
        tracer.count("wittcomplex.axioms_checked", len(results))


_AFTER = {
    "witt.poly_build": _after_poly_build,
    "abgroups.snf": _after_snf,
    "mackey.box": _after_box,
    "wittcomplex.check": _after_check,
}
