"""Output checks on `fomlink simulate` metrics CSVs.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import math

RATES = ("index_error_rate", "symbol_error_rate", "block_error_rate", "bit_error_rate")

# Two rates agree with the reference when their Wilson intervals at this z
# overlap.  z = 5 keeps a false alarm below 1e-6 per comparison, while a
# wrong engine (a swapped decision, a mis-scaled noise level) still moves the
# rates at the noisy points far outside the band.
Z = 5.0


def parse_row(csv_text: str) -> dict[str, str]:
    """The single data row of a one-point metrics CSV, as strings."""
    lines = [line for line in csv_text.splitlines() if line and not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if len(rows) != 1:
        raise ValueError(f"expected one data row, got {len(rows)}")
    return rows[0]


def wilson(errors: float, trials: int, z: float = Z) -> tuple[float, float]:
    """Wilson score interval for errors/trials; ``errors`` may be fractional.

    Not `fomlink.scenario.wilson_interval`: the checks must not rest on the
    code they check.
    """
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(max(p * (1.0 - p), 0.0) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def check_reference(row: dict[str, str], reference: dict) -> list[str]:
    """Every rate within the binomial tolerance of the recorded reference rate.

    Bit errors within a block are correlated, so the bit rate is compared as
    if it came from ``trials`` independent draws, which only widens its band.
    """
    trials = int(row["trials"])
    failures = []
    for rate in RATES:
        got, want = float(row[rate]), reference[rate]
        lo, hi = wilson(got * trials, trials)
        ref_lo, ref_hi = wilson(want * reference["trials"], reference["trials"])
        if hi < ref_lo or lo > ref_hi:
            failures.append(f"{rate} {got:g} outside the z={Z:g} band of reference {want:g}")
    return failures


def check_noiseless(row: dict[str, str]) -> list[str]:
    if float(row["es_n0_db"]) != math.inf:
        return []
    return [f"noiseless {rate} is {row[rate]}" for rate in RATES if float(row[rate]) != 0.0]


def check_agreement(row: dict[str, str], other: dict[str, str]) -> list[str]:
    """Two detectors that must decide identically report identical rates."""
    return [
        f"{rate} {row[rate]} ({row['detector']}) != {other[rate]} ({other['detector']})"
        for rate in RATES
        if row[rate] != other[rate]
    ]


def check_identical(text: str, expected: str, what: str) -> list[str]:
    return [] if text == expected else [f"CSV differs from {what}"]
