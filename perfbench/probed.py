"""``python -m wittlab ARGS`` with the core-speed probe running.

    python3 perfbench/probed.py PROBES.json ARGS...

Runs wittlab's command line exactly as ``python -m wittlab ARGS`` does,
and writes the probe durations to PROBES.json when the process exits.
"""

import runpy
import sys

import speed

if __name__ == "__main__":
    speed.write_at_exit(speed.Sampler().start(), sys.argv[1])
    sys.argv = ["wittlab"] + sys.argv[2:]
    runpy.run_module("wittlab", run_name="__main__", alter_sys=True)
