"""One fresh interpreter of a benchmark run; started by run.py.

--phase setup   import wittlab and build the workload's inputs, then exit.
--phase work    build the inputs, then time the solve, the batched
                queries and the peak memory, then check every answer.

Either phase prints one JSON line.  Times are CPU seconds of this
process, rescaled to a reference core speed by the probe in speed.py:
the work is single-threaded pure Python with no I/O, so on an idle core
CPU time equals wall time, and neither the time the shared machine gives
to other processes nor the slowdown their work causes is counted.
"""

import time

import speed

# The work runs on this, the only thread.  Its CPU clock stays exact
# while the probe's SIGPROF timer is armed; process_time then reads a
# tick-sampled value that moves in 4 ms steps.
clock = time.thread_time
SAMPLER = speed.Sampler().start(speed.SETUP_PROBE_EVERY)
SETUP_START = clock()
import wittlab  # noqa: E402,F401  (timed first: the import a user pays)
IMPORT_CPU = clock() - SETUP_START - sum(SAMPLER.samples)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def measure_ops(cases, seconds, ledger, sampler, min_batch=0.02, slices=4):
    """Rates of whole query rounds, timed in batches of at least
    ``min_batch`` CPU seconds.  Cases take turns in ``slices`` passes
    with an equal CPU budget each.  A case's rate is the median over its
    batches, rescaled by the probes that ran during them.  Returns (rate
    per case, first round's outputs per case)."""
    rates = {c.name: [] for c in cases}
    probes = {c.name: [] for c in cases}
    first = {}
    budget = seconds / (len(cases) * slices)
    live = list(cases)
    for _ in range(slices):
        for case in list(live):
            spent = 0.0
            while spent < budget:
                ops = 0
                outs = []
                mark = sampler.mark()
                start = clock()
                try:
                    while True:
                        n, out = case.run_round()
                        ops += n
                        outs.append(out)
                        elapsed = clock() - start
                        if elapsed >= min_batch:
                            break
                except Exception as exc:  # counted, and the case dropped
                    ledger.attempted += 1
                    ledger.failed += 1
                    ledger.errors.append("queries %s raised %s: %s" % (
                        case.name, type(exc).__name__, exc))
                    live.remove(case)
                    break
                batch_probes = sampler.since(mark)
                probes[case.name] += batch_probes
                ledger.attempted += ops
                spent += elapsed
                rates[case.name].append(ops / (elapsed - sum(batch_probes)))
                ref = first.setdefault(case.name, outs[0])
                if any(out != ref for out in outs):
                    ledger.errors.append("queries %s: a repeated round "
                                         "gave another answer" % case.name)
    per_case = {}
    for name, r in rates.items():
        if r:
            per_case[name] = statistics.median(r) / speed.scale(probes[name])
    return per_case, [first[c.name] for c in cases if c.name in first]


def guard_polynomial_cache(ledger):
    """Flag any universal-polynomial family read from a disk cache.

    The environment has no WITTLAB_CACHE_DIR, so none should be; a read
    would turn the polynomial build into a file load.  Versions of
    wittlab without the disk cache need no guard.
    """
    from wittlab import witt
    load = getattr(witt, "_load_from_disk", None)
    if load is None:
        return

    def guarded(p, k):
        value = load(p, k)
        if value is not None:
            ledger.errors.append("witt-polys-p%d-k%d.json was read" % (p, k))
        return value
    witt._load_from_disk = guarded


def geometric_mean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--phase", choices=("setup", "work"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.workdir)
    setup_cpu = clock() - SETUP_START - sum(SAMPLER.samples)
    if args.phase == "setup":
        SAMPLER.stop()
        print(json.dumps({"setup_cpu": setup_cpu, "import_cpu": IMPORT_CPU,
                          "probes": SAMPLER.samples}))
        return 0
    SAMPLER.start()

    ledger = workloads.Ledger()
    guard_polynomial_cache(ledger)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
        tracer.reset()
    mark = SAMPLER.mark()
    start = clock()
    results = wl.solve(inputs, ledger)
    solve_cpu = clock() - start
    solve_s = speed.rescale(solve_cpu, SAMPLER.since(mark))
    out = {"solve_s": solve_s, "solve_cpu_s": solve_cpu}
    cases = wl.op_cases(inputs, results)
    if tracer:
        covered = tracer.covered_s()
        # one deterministic round per case, so that counts are exact
        references = []
        for case in cases:
            done = ledger.run("queries " + case.name, case.run_round)
            references.append(done and done[1])
        tracer.uninstall()
        scale = solve_s / solve_cpu  # per-layer times in the same units
        layers = tracer.layer_metrics()
        out["layers"] = {key: value * scale if key.endswith("_s") else value
                         for key, value in layers.items()}
        out["layers"]["trace.solve_s"] = solve_s
        out["layers"]["trace.span_share"] = covered / solve_cpu
        out["spans"] = tracer.table()
    else:
        rates, references = measure_ops(cases, args.seconds, ledger,
                                        SAMPLER)
        out["ops_per_s"] = geometric_mean(rates.values()) if rates else 0.0
        out["case_rates"] = rates
    SAMPLER.stop()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = clock()
    wl.check(inputs, results, references, ledger)
    out["check_s"] = clock() - start
    out.update(attempted=ledger.attempted, failed=ledger.failed,
               errors=ledger.errors[:20], n_errors=len(ledger.errors))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
