"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

Imports proxcycle (and with it numpy), builds the workload's maps and
configs, then prints "ready" and exits.  The parent times the span from
starting this interpreter to reading that line:

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports proxcycle)

name, seed = sys.argv[1], int(sys.argv[2])
workloads.WORKLOADS[name](ROOT, seed, "").setup()
print("ready", flush=True)
