"""Pin the optimum of every pooled benchmark instance with the subset DP.

The pins come from held_karp_forward, the unpruned oracle, so the solver
under test never grades itself. Rewrites perfbench/pins.json:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys

from srcpath import use_checkout_src

use_checkout_src()

from prtrp.instance import absorb_repair_durations  # noqa: E402
from prtrp.oracle import held_karp_forward  # noqa: E402

import workloads  # noqa: E402


def pinned_optimum(inst) -> int:
    return held_karp_forward(absorb_repair_durations(inst)).objective


def main() -> int:
    pins = {}
    for name in ("exact", "relaxed", "small-batch"):
        for fam, n, s in workloads.pool(name):
            inst = workloads.make_instance(fam, n, s)
            pins[inst.name] = pinned_optimum(inst)
            print(inst.name, pins[inst.name], flush=True)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
