"""Regenerate ``reference.json``: per-point hashes at the default seed.

    python3 perfbench/make_reference.py

Computes every point the workloads evaluate, serially and in this
process, with the pure oracle (``oracle``) and the trained default model
(``learned``).  Regenerate only when results are meant to change; the
workloads compare against this table on ``--seed 42``.
"""

from __future__ import annotations

import json

import benchlib
from benchlib import DEFAULT_SEED, REFERENCE, WORK_SCALE, cross


def main() -> None:
    benchlib.import_repro()
    from campaign import LEARNED_MIXES, ORACLE_MIXES, learned_context, oracle_context
    from campaign import serial_pass

    oracle, _, _ = serial_pass(oracle_context(DEFAULT_SEED), cross(ORACLE_MIXES))
    learned, _, _ = serial_pass(learned_context(DEFAULT_SEED), cross(LEARNED_MIXES))
    table = {
        "seed": DEFAULT_SEED,
        "work_scale": WORK_SCALE,
        "points": {
            "oracle": dict(sorted(oracle.items())),
            "learned": dict(sorted(learned.items())),
        },
    }
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(oracle)} oracle and {len(learned)} learned hashes")


if __name__ == "__main__":
    main()
