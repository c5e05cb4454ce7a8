"""Set-up probe: one fresh process that imports qembed, generates a
workload's inputs from the seed, writes them and builds the config, then
prints `ready`. run.py times it from spawn to that line (setup_s).

Usage: python3 perfbench/prepare.py <workload> <seed> <directory>
"""
from __future__ import annotations

import sys
from pathlib import Path

import machine


def main(argv: list[str]) -> int:
    name, seed, directory = argv
    machine.bootstrap()
    import workloads

    workloads.WORKLOADS[name].prepare(int(seed), Path(directory))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
