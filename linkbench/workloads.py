"""The benchmark's workloads: fixed Monte-Carlo cells run through `fomlink simulate`.

Every cell uses oversample 8 and B = delta_f = R = 1 with power-of-two square
QAM.  A cell is one detector/mode setting swept over one axis; the benchmark
writes one scenario file per sweep point, so each `simulate` call is one
point and the timing loop can sample every point several times in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

# Scenario seed = SEED_STRIDE * --seed.  Trial t draws from default_rng(seed + t),
# so seeds closer together than the trials per point share draws; the stride
# keeps every benchmark seed (and the reference seed) apart.
SEED_STRIDE = 1_000_000
REFERENCE_SEED = 500_000

_SYSTEM = {"bandwidth_hz": 1.0, "delta_f_hz": 1.0, "symbol_rate": 1.0, "carrier_hz": 1e6, "oversample": 8}
_SNR = (0.0, 5.0, 10.0, 15.0, None)  # None is the noiseless channel
_IMPAIRED = {"es_n0_db": 10.0, "phase_rotation": 0.1, "carrier_freq_error": 0.01}


def _system(n: int, m: int) -> dict:
    return {"n": n, "m": m, **_SYSTEM}


@dataclass(frozen=True)
class Cell:
    name: str
    base: dict  # every scenario key except trials, seed and sweep
    axis: str
    values: tuple


@dataclass(frozen=True)
class Point:
    cell: Cell
    value: float | None

    @property
    def key(self) -> str:
        shown = "noiseless" if self.value is None else format(self.value, "g")
        return f"{self.cell.name}@{self.cell.axis}={shown}"

    def scenario(self, trials: int, seed: int) -> dict:
        return {**self.cell.base, "trials": trials, "seed": seed, "sweep": {self.cell.axis: [self.value]}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[Cell, ...]
    # Trials per timed call: short calls give each point many timing samples.
    trials: int
    # Each point is also run once at this many trials with --workers 1 and
    # once with --workers 2, untimed; the two CSVs must match.
    pool_trials: int | None = None
    # Cell pairs that see the same draws and must agree decision for decision.
    agree: tuple[tuple[str, str], ...] = ()

    @property
    def points(self) -> list[Point]:
        return [Point(cell, value) for cell in self.cells for value in cell.values]


def _fom_small_cells() -> tuple[Cell, ...]:
    base = {"system": _system(8, 4), "channel": _IMPAIRED, "mode": "fom"}
    return (
        Cell("joint-ml", {**base, "detector": "joint-ml"}, "es_n0_db", _SNR),
        Cell("joint-ml-dft", {**base, "detector": "joint-ml"}, "df_t", (0.1, 0.25, 0.5, 1.0)),
        Cell("two-stage", {**base, "detector": "two-stage"}, "es_n0_db", _SNR),
        Cell("oracle", {**base, "detector": "oracle"}, "es_n0_db", _SNR),
    )


def _ofdm_cell(index_mode: str) -> Cell:
    ofdm = {"n_subcarriers": 64, "spacing_hz": 1.0, "m": 16, "cp_len": 16, "index_mode": index_mode}
    base = {"system": _system(64, 16), "channel": _IMPAIRED, "detector": "joint-ml", "mode": "ofdm", "ofdm": ofdm}
    return Cell(index_mode, base, "es_n0_db", (5.0, 10.0, 15.0, None))


def _large_cell(n: int, m: int, snrs: tuple) -> Cell:
    base = {"system": _system(n, m), "channel": {"es_n0_db": snrs[0]}, "detector": "joint-ml", "mode": "fom"}
    return Cell(f"joint-ml-{n}x{m}", base, "es_n0_db", snrs)


# More than one 1024-trial engine chunk, or the engine's thread pool never
# starts; the second chunk is kept short to bound the run's untimed work.
_POOL_TRIALS = 1280

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fom-small",
            "n=8, m=4 tone bank on four detector cells; per-trial Python overhead dominates",
            _fom_small_cells(),
            128,
            pool_trials=_POOL_TRIALS,
            agree=(("joint-ml", "oracle"),),
        ),
        # Run by hand, not listed in BENCHMARK.json: ten-run sets of it spread
        # 17-21% (quartile distance over median) on a shared 2-vCPU VM.
        Workload(
            "fom-large",
            "joint-ml at 64x64 and the 128x256 design point; matched filter and slicing loop dominate",
            (_large_cell(64, 64, (15.0, 20.0, 25.0)), _large_cell(128, 256, (20.0, 25.0, 30.0))),
            32,
        ),
        Workload(
            "ofdm",
            "64-subcarrier single-active and single-silent frames with phase rotation and CFO; same engine loop, FFT modem",
            (_ofdm_cell("single-active"), _ofdm_cell("single-silent")),
            128,
            pool_trials=_POOL_TRIALS,
        ),
    )
}
