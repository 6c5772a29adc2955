"""Core-speed probe: rescales CPU time to a reference core speed.

On a shared machine the CPU time of fixed work still varies: a core
whose sibling hyperthread, caches or memory bus are busy with another
tenant's work runs the same instructions more slowly.  On the 2-vCPU
machine the reference figures come from, the CPU time of an identical
solve moved by up to 30 % between runs minutes apart.

A ``Sampler`` runs a fixed probe loop from a SIGPROF handler every
``PROBE_EVERY`` CPU seconds of the process and records each probe's
thread CPU time.  The probe is interpreter work of the same kind as
wittlab's (big-integer arithmetic, tuple-keyed dicts, calls), so it slows
down with the work around it.  A measured CPU time ``t`` taken while
probes ``q_1..q_n`` ran is reported as

    (t - sum q_i) * REFERENCE_PROBE_S / trimmed_mean(q_i)

that is, as the CPU seconds the work would take on a core where one
probe takes ``REFERENCE_PROBE_S``.  That constant is near the probe's
typical time on the reference machine, so reported times stay close to
its CPU seconds.  On that machine the rescaling cut the run-to-run
spread of a 5 s and a 16 s solve from about 10 % to 2-3 %.

The probe costs about 1 % of the CPU time it samples; that share is
taken out before rescaling.
"""

import json
import os
import signal
import statistics
import time

PROBE_EVERY = 0.025
# set-up lasts about 30 ms of CPU, so it is probed more densely
SETUP_PROBE_EVERY = 0.003
REFERENCE_PROBE_S = 0.0003
TRIM = 0.1


def probe():
    acc = 0
    table = {}
    rows = [[(i * j) % 7 - 3 for j in range(12)] for i in range(12)]
    for i in range(60):
        x = (i * 2654435761) % 1000003
        acc += pow(x, 7, 10 ** 40 + 7) % 97
        key = (i % 17, x % 13)
        table[key] = table.get(key, 0) + acc
        src, dst = rows[i % 12], (i + 5) % 12
        q = src[0] % 3 - 1
        rows[dst] = [a - q * b for a, b in zip(rows[dst], src)]
    return acc


def trimmed_mean(samples):
    """Mean after dropping the largest ``TRIM`` share (probes that a
    page fault or a cold cache made slow)."""
    kept = sorted(samples)[:max(1, int(len(samples) * (1 - TRIM)))]
    return statistics.mean(kept)


class Sampler:
    """Probe durations of this process, taken every PROBE_EVERY CPU s."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        start = time.thread_time()
        probe()
        self.samples.append(time.thread_time() - start)

    def start(self, every=PROBE_EVERY):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, every, every)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self):
        return len(self.samples)

    def since(self, mark):
        return self.samples[mark:]


def scale(samples):
    """Factor from CPU seconds of the core the probes ran on to seconds
    on the reference core; 1 when no probe ran."""
    if not samples:
        return 1.0
    return REFERENCE_PROBE_S / trimmed_mean(samples)


def rescale(cpu_s, samples):
    """CPU seconds at the reference speed; ``samples`` are the probes
    that ran inside ``cpu_s``."""
    return (cpu_s - sum(samples)) * scale(samples)


def write_at_exit(sampler, path):
    """Write the probes to ``path`` when the process exits."""
    import atexit

    def dump():
        sampler.stop()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sampler.samples, fh)
    atexit.register(dump)


def read_samples(path):
    with open(path, encoding="utf-8") as fh:
        samples = json.load(fh)
    os.remove(path)
    return samples
