"""Record the verdicts the benchmark checks its runs against.

    python3 perfbench/record_reference.py [complex_sweep] [real_sweep] [solve_certify]

Runs every recorded input of every seed slot serially and writes
``perfbench/reference/<name>.json``: the input spec, then per slot one entry
per operation with a digest of the key columns and the verdict columns
packed as hex. Record only at a commit whose verdicts are trusted (these were
recorded at the seed commit); re-recording to make a failing run pass would
defeat the check. Takes about half an hour on a 2-core machine.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

from workloads import (COMPLEX_GRID, REAL_GRID, REFERENCE_DIR, SEED_SLOTS, SOLVE_CERTIFY,
                       VERDICT_COLUMNS, Grid, record_solve_certify, record_sweep)

HERE = Path(__file__).resolve().parent
SPECS = {"complex_sweep": COMPLEX_GRID, "real_sweep": REAL_GRID, "solve_certify": SOLVE_CERTIFY}


def main(names: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    for name in names or sorted(SPECS):
        spec = SPECS[name]
        record = record_sweep if isinstance(spec, Grid) else record_solve_certify
        slots = {}
        for slot in range(SEED_SLOTS):
            slots[str(slot)] = record(spec, slot, HERE / "out" / "record" / name)
            print(f"{name}: slot {slot} recorded", flush=True)
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(
            {"spec": asdict(spec), "columns": VERDICT_COLUMNS, "slots": slots}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
