"""Recompute the oracle digests pinned for the default seed.

    python3 perfbench/pin.py

Run it after a change that deliberately alters a generator or a
predictor; review the diff of ``perfbench/pinned.json`` like any other
golden file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import host, inputs, oracle  # noqa: E402
from perfbench.run import WORKLOADS, make_workload  # noqa: E402


def main() -> int:
    host.use_source_tree()
    blocks = {}
    for name in WORKLOADS:
        workload = make_workload(name, oracle.DEFAULT_SEED, host.WORK / f"pin-{name}")
        try:
            workload.setup(None)
            factories, traces, cuts = workload.oracle_inputs()
            expects, _, problems = oracle.compute(factories, traces, cuts, None)
        finally:
            workload.close()
        if problems:
            raise SystemExit(f"{name}: {problems}")
        blocks[name] = oracle.pin_block(
            workload.spec.sizes(), inputs.fingerprints(traces), expects
        )
        print(f"pinned {name}: {len(expects)} cells")
    oracle.PINS.write_text(json.dumps(blocks, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
