"""Regenerate ``reference.json``: the expected output digests of every
workload for every input slot, and the packet throughputs behind
``fluid_tput_err``.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Recomputes the named workloads (all by default) and merges them into
the existing file.  Run it only when a change is meant to alter the
simulator's outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as wl

PATH = Path(__file__).resolve().parent / "reference.json"


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or wl.WORKLOADS
    reference = (json.loads(PATH.read_text()) if PATH.exists()
                 else {"pool": wl.POOL, "workloads": {},
                       "packet_tput": {}})
    if reference["pool"] != wl.POOL:
        raise SystemExit(f"{PATH} was made for pool {reference['pool']}")
    for name in names:
        units, tput = {}, {}
        for slot in range(wl.POOL):
            inputs = wl.setup(name, slot)
            outputs = [output for spec in inputs.specs
                       for output in wl.run_spec(spec, inputs)]
            units[str(slot)] = wl.digests(outputs)
            if name in wl.PACKET_WORKLOADS:
                tput[str(slot)] = wl.throughputs(outputs)
            print(f"{name} slot {slot}: {len(outputs)} units",
                  file=sys.stderr, flush=True)
        reference["workloads"][name] = units
        if tput:
            reference["packet_tput"][name] = tput
        PATH.write_text(json.dumps(reference, indent=1, sort_keys=True)
                        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
