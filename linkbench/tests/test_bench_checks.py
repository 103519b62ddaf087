from dataclasses import replace

import pytest

import checks
import fomlink.cli
from run import Bench
from workloads import WORKLOADS, Workload

CSV = (
    "# fomlink 0.1.0\n"
    "# scenario: {{}}\n"
    "mode,detector,n,m,es_n0_db,df_t,trials,index_error_rate,symbol_error_rate,"
    "block_error_rate,bit_error_rate,mean_runner_up_margin,seed\n"
    "fom,{detector},8,4,{snr},1,2000,{rate},0.01,0.02,0.005,1.5,0\n"
)


def row(detector="joint-ml", snr="10", rate="0.015"):
    return checks.parse_row(CSV.format(detector=detector, snr=snr, rate=rate))


REFERENCE = {"trials": 20000, "index_error_rate": 0.015, "symbol_error_rate": 0.01, "block_error_rate": 0.02, "bit_error_rate": 0.005}


class TestChecks:
    def test_parse_row_needs_exactly_one_row(self):
        with pytest.raises(ValueError):
            checks.parse_row("mode,detector\n")

    def test_reference_band(self):
        assert checks.check_reference(row(rate="0.02"), REFERENCE) == []
        assert checks.check_reference(row(rate="0.2"), REFERENCE) != []
        assert checks.check_reference(row(rate="0.05"), REFERENCE) != []

    def test_reference_band_at_zero_rate_allows_a_rare_error(self):
        zero = dict.fromkeys(checks.RATES, 0.0) | {"trials": 20000}
        rare = checks.parse_row(CSV.format(detector="joint-ml", snr="15", rate="0.0005").replace("0.01,0.02,0.005", "0,0.0005,0"))
        assert checks.check_reference(rare, zero) == []

    def test_noiseless_must_be_error_free(self):
        clean = checks.parse_row(CSV.format(detector="joint-ml", snr="inf", rate="0").replace("0.01,0.02,0.005", "0,0,0"))
        assert checks.check_noiseless(clean) == []
        assert checks.check_noiseless(row(snr="inf")) != []
        assert checks.check_noiseless(row(snr="10")) == []

    def test_agreement(self):
        assert checks.check_agreement(row(), row(detector="oracle")) == []
        assert checks.check_agreement(row(), row(detector="oracle", rate="0.0155")) != []

    def test_identical(self):
        assert checks.check_identical("a,b\n", "a,b\n", "x") == []
        assert checks.check_identical("a,b\n", "a,c\n", "x") == ["CSV differs from x"]

    def test_wilson_contains_the_observed_rate(self):
        lo, hi = checks.wilson(30, 1000)
        assert lo < 0.03 < hi
        assert checks.wilson(0, 100)[0] == 0.0


class CorruptingCli:
    """fomlink's CLI, but ``corrupt(call_number, argv, text)`` may rewrite each CSV it writes."""

    def __init__(self, corrupt):
        self.corrupt = corrupt
        self.count = 0

    def main(self, argv):
        code = fomlink.cli.main(argv)
        out = argv[argv.index("--out") + 1]
        with open(out, encoding="utf-8") as handle:
            text = handle.read()
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(self.corrupt(self.count, argv, text))
        self.count += 1
        return code


def tiny_workload(pool_trials=None):
    cells = tuple(
        replace(cell, values=(10.0, None)) for cell in WORKLOADS["fom-small"].cells if cell.name in ("joint-ml", "oracle")
    )
    return Workload("tiny", "test", cells, trials=64, pool_trials=pool_trials, agree=(("joint-ml", "oracle"),))


def reference_from(bench):
    return {
        key: {"trials": 64, **{rate: float(checks.parse_row(text)[rate]) for rate in checks.RATES}}
        for key, text in bench.first_csv["timed"].items()
    }


def run_bench(tmp_path, corrupt, kinds=("timed", "timed"), pool_trials=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    bench = Bench(CorruptingCli(corrupt), tiny_workload(pool_trials), seed=11, out=tmp_path)
    for kind in kinds:
        for point in bench.points:
            bench.run_point(point, kind)
    return bench


def failed_points(reasons):
    return sum(1 for messages in reasons.values() if messages)


def keep(count, argv, text):
    return text


def bump_rate(text):
    """Replace the index error rate of the data row with 0.5."""
    head, data = text.rstrip("\n").rsplit("\n", 1)
    fields = data.split(",")
    fields[7] = "0.5"
    return head + "\n" + ",".join(fields) + "\n"


class TestBenchChecks:
    def test_clean_run_passes(self, tmp_path):
        bench = run_bench(tmp_path, keep, kinds=("timed", "traced", "timed"))
        reasons = bench.check_failures(reference_from(bench))
        assert reasons == {p.key: [] for p in bench.points}
        assert len(bench.calls) == 12

    def test_oracle_disagreement_fails_both_detectors(self, tmp_path):
        def corrupt(count, argv, text):
            return bump_rate(text) if ",oracle," in text else text

        bench = run_bench(tmp_path, keep)
        reference = reference_from(bench)
        bench = run_bench(tmp_path / "bad", corrupt)
        reasons = bench.check_failures(reference)
        assert any("!=" in r for r in reasons["joint-ml@es_n0_db=10"])
        assert any("!=" in r for r in reasons["oracle@es_n0_db=10"])

    def test_errors_at_a_noiseless_point_fail(self, tmp_path):
        def corrupt(count, argv, text):
            return bump_rate(text) if ",inf," in text else text

        bench = run_bench(tmp_path, corrupt)
        reasons = bench.check_failures(reference_from(bench))
        assert any("noiseless" in r for r in reasons["joint-ml@es_n0_db=noiseless"])

    def test_rates_outside_the_reference_band_fail(self, tmp_path):
        bench = run_bench(tmp_path, keep)
        reference = reference_from(bench)
        reference["joint-ml@es_n0_db=10"]["symbol_error_rate"] = 0.9
        reasons = bench.check_failures(reference)
        assert any("symbol_error_rate" in r for r in reasons["joint-ml@es_n0_db=10"])
        assert reasons["oracle@es_n0_db=10"] == []

    def test_missing_reference_fails(self, tmp_path):
        bench = run_bench(tmp_path, keep)
        assert all(r == ["64 trials: no reference rates recorded"] for r in bench.check_failures({}).values())

    def test_traced_output_must_match_untraced(self, tmp_path):
        points = len(tiny_workload().points)

        def corrupt(count, argv, text):
            return text.replace("# fomlink", "#  fomlink") if count >= points else text

        bench = run_bench(tmp_path, corrupt, kinds=("timed", "traced"))
        reasons = bench.check_failures(reference_from(bench))
        assert all(r == ["CSV differs from the untraced run"] for r in reasons.values())

    def test_output_must_not_depend_on_the_worker_count(self, tmp_path):
        def corrupt(count, argv, text):
            return text + "\n" if argv[argv.index("--workers") + 1] == "2" else text

        bench = run_bench(tmp_path, keep, kinds=("timed",))
        reference = reference_from(bench)
        bench = run_bench(tmp_path / "bad", corrupt, kinds=("timed", "pool-1", "pool-2"), pool_trials=1100)
        reasons = bench.check_failures(reference)
        assert all(r == ["CSV differs from the run with --workers 1"] for r in reasons.values())

    def test_pool_output_is_checked_against_the_reference(self, tmp_path):
        def corrupt(count, argv, text):
            return bump_rate(text) if argv[2].endswith("-pool.json") else text

        bench = run_bench(tmp_path, keep, kinds=("timed",))
        reference = reference_from(bench)
        bench = run_bench(tmp_path / "bad", corrupt, kinds=("timed", "pool-1", "pool-2"), pool_trials=1100)
        reasons = bench.check_failures(reference)
        assert any(r.startswith("1100 trials: noiseless") for r in reasons["joint-ml@es_n0_db=noiseless"])
        assert any(r.startswith("1100 trials: index_error_rate") for r in reasons["joint-ml@es_n0_db=10"])
        assert not any(r.startswith("64 trials") for messages in reasons.values() for r in messages)

    def test_repeated_runs_must_match(self, tmp_path):
        points = len(tiny_workload().points)

        def corrupt(count, argv, text):
            return text.replace(",11\n", ",12\n") if count >= points else text

        bench = run_bench(tmp_path, corrupt)
        reasons = bench.check_failures(reference_from(bench))
        assert all(r == ["CSV differs from the first run of this point"] for r in reasons.values())

    def test_a_failing_command_counts_as_failed(self, tmp_path):
        class Failing:
            def main(self, argv):
                return 1

        bench = Bench(Failing(), tiny_workload(), seed=11, out=tmp_path)
        for point in bench.points:
            bench.run_point(point, "timed")
        reasons = bench.check_failures({})
        assert failed_points(reasons) == len(bench.calls) == len(bench.points)
        assert all("timed call exit code 1" in r for r in reasons.values())
