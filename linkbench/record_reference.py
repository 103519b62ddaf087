"""Record the reference error rates that `run.py` checks outputs against.

    python3 linkbench/record_reference.py

Runs every point of every workload at a large trial count on REFERENCE_SEED, which
shares no draws with any benchmark seed, and rewrites reference.json.  Rerun
it only when the expected error rates change; the benchmark's Wilson-band
check tolerates the draws themselves changing.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import checks
from run import BLAS_ENV, BLAS_THREADS, OUT_ROOT, SRC, _git_revision
from workloads import REFERENCE_SEED, WORKLOADS

REFERENCE_TRIALS = {"fom-small": 20000, "fom-large": 4000, "ofdm": 20000}


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import fomlink.cli as cli

    out = OUT_ROOT / "reference"
    out.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for name, trials in REFERENCE_TRIALS.items():
        rates = recorded[name] = {}
        for point in WORKLOADS[name].points:
            scenario, csv_path = out / "point.json", out / "point.csv"
            scenario.write_text(json.dumps(point.scenario(trials, REFERENCE_SEED)))
            if cli.main(["simulate", "--config", str(scenario), "--out", str(csv_path)]) != 0:
                print(f"record_reference: {point.key} failed", file=sys.stderr)
                return 1
            row = checks.parse_row(csv_path.read_text(encoding="utf-8"))
            rates[point.key] = {"trials": trials, **{rate: float(row[rate]) for rate in checks.RATES}}
            print(name, point.key, rates[point.key], flush=True)
    document = {"seed": REFERENCE_SEED, "git_revision": _git_revision(), "workloads": recorded}
    (Path(__file__).resolve().parent / "reference.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
