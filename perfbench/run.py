"""wittlab benchmark: three workloads, checked answers, CPU-time metrics.

    python3 perfbench/run.py --workload witt-arith --seed 1 --seconds 4 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run it from anywhere inside a source checkout: wittlab is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Result and trace files go to ``perfbench/work/``.  See README.md.
"""

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("witt-arith", "eqwitt-sweep", "mackey-snf")
SETUP_SAMPLES = 11
CHILD_TIMEOUT = 150

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("solve_s", "s"),
              ("ops_per_s", "ops/s"), ("peak_rss_mb", "MB"))


def child_env():
    """Fresh interpreters get wittlab from src/, a fixed hash seed, and
    no persistent polynomial cache or trace switch."""
    env = dict(os.environ)
    for key in ("WITTLAB_CACHE_DIR", "WITTLAB_TRACE", "PYTHONOPTIMIZE",
                "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(argv, env):
    """Run one child to completion; returns (CPU seconds, returncode,
    stdout, stderr).  Children run one at a time, so the growth of the
    reaped-children rusage is this child's own CPU time."""
    before = children_cpu()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    return children_cpu() - before, proc.returncode, proc.stdout, proc.stderr


def last_json(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def run_workload(name, seed, seconds, trace):
    workdir = os.path.join(HERE, "work", name)
    os.makedirs(workdir, exist_ok=True)
    env = child_env()
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace),
              "--workdir", workdir]
    problems = []

    # CPU times are rescaled to the reference core speed with the probes
    # that ran in the same processes, pooled over the phase (speed.py)
    setup_cpu, setup_probes, import_cpu = [], [], []
    for _ in range(SETUP_SAMPLES):
        _, rc, out, err = run_child(worker + ["--phase", "setup"], env)
        if rc != 0:
            raise RuntimeError("setup failed:\n" + err[-2000:])
        report = last_json(out)
        setup_cpu.append(report["setup_cpu"])
        setup_probes += report["probes"]
        import_cpu.append(report["import_cpu"])
    setup_scale = speed.scale(setup_probes)

    import workloads  # after the setup runs: this imports wittlab
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed, workdir)
    attempted = failed = 0
    cold_cpu, cold_probes = [], []
    probe_file = os.path.join(workdir, "probes.json")
    for cmd in wl.commands(inputs, workdir):
        attempted += 1
        cpu, rc, out, err = run_child(
            [sys.executable, os.path.join(HERE, "probed.py"), probe_file]
            + cmd.argv, env)
        probes = speed.read_samples(probe_file)
        cold_cpu.append(cpu - sum(probes))
        cold_probes += probes
        if rc not in (0, 1) or "Traceback (most recent call last)" in err:
            failed += 1  # a crash gives no answer to check
            continue
        problems += ["wittlab %s: %s" % (" ".join(cmd.argv), e)
                     for e in cmd.verify(rc, out)]
    cold_scale = speed.scale(cold_probes)

    _, rc, out, err = run_child(worker + ["--phase", "work"], env)
    if rc != 0:
        raise RuntimeError("worker failed:\n" + err[-2000:])
    work = last_json(out)
    problems += work["errors"]
    if work["n_errors"] > len(work["errors"]):
        problems.append("... %d more" % (work["n_errors"]
                                         - len(work["errors"])))
    result = {"correct": not problems,
              "attempted": attempted + work["attempted"],
              "failed": failed + work["failed"]}
    if trace:
        layers = dict(work["layers"])
        layers["cli.process_s"] = statistics.mean(cold_cpu) * cold_scale
        layers["cli.import_s"] = statistics.median(import_cpu) * setup_scale
        import tracer
        result["metrics"] = {key: {"value": layers[key], "unit": unit}
                             for key, unit in tracer.PER_LAYER}
        with open(os.path.join(HERE, "work", "trace-%s-seed%d.json"
                               % (name, seed)), "w") as fh:
            json.dump({"spans": work["spans"], "layers": layers}, fh,
                      indent=1, sort_keys=True)
    else:
        values = {"setup_s": statistics.median(setup_cpu) * setup_scale,
                  "cold_s": sum(cold_cpu) * cold_scale,
                  "solve_s": work["solve_s"],
                  "ops_per_s": work["ops_per_s"],
                  "peak_rss_mb": work["peak_rss_mb"]}
        result["metrics"] = {key: {"value": values[key], "unit": unit}
                             for key, unit in END_TO_END}
    result["problems"] = problems
    result["case_rates"] = work.get("case_rates", {})
    result["check_s"] = work["check_s"]
    result["cpu_s"] = {"setup": statistics.median(setup_cpu),
                       "cold": sum(cold_cpu), "solve": work["solve_cpu_s"]}
    return result


def summary(name, result):
    parts = ["%s %.6g %s" % (key, m["value"], m["unit"])
             for key, m in result["metrics"].items()]
    head = "%-13s attempted %d failed %d correct %s" % (
        name, result["attempted"], result["failed"],
        str(result["correct"]).lower())
    return head + "\n  " + "\n  ".join(parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "wittlab", "__init__.py")):
        print("perfbench: no wittlab sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # bytecode is compiled once, outside every timed region
    compileall.compile_dir(os.path.join(SRC, "wittlab"), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        started = time.monotonic()
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace)
        results[name]["wall_s"] = time.monotonic() - started
        print(summary(name, results[name]))
        for problem in results[name]["problems"]:
            print("  PROBLEM " + problem)
    with open(os.path.join(HERE, "work", "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    if len(names) == 1:
        r = results[names[0]]
        line = {k: r[k] for k in ("correct", "attempted", "failed",
                                  "metrics")}
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {"%s.%s" % (n, k): m
                            for n, r in results.items()
                            for k, m in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
