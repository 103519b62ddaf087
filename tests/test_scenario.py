"""Scenario parsing, the Monte-Carlo harness, and metrics output."""

import io
import json
import math

import numpy as np
import pytest

from fomlink.phy import BasebandSignal, detect_joint_ml
from fomlink.scenario import (
    METRICS_HEADER,
    Scenario,
    ScenarioError,
    run_monte_carlo,
    scenario_from_dict,
    scenario_from_json,
    validate_scenario_or_config,
    wilson_interval,
    write_metrics_csv,
)
from fomlink.system import build_frequency_plan


def scenario_dict(**overrides):
    data = {
        "system": {
            "n": 8,
            "m": 4,
            "bandwidth_hz": 1.0,
            "delta_f_hz": 1.0,
            "symbol_rate": 1.0,
            "carrier_hz": 1e6,
            "oversample": 8,
        },
        "channel": {"es_n0_db": 10.0},
        "detector": "joint-ml",
        "trials": 64,
        "seed": 42,
    }
    data.update(overrides)
    return data


def render_csv(scenario, rows):
    buf = io.StringIO()
    write_metrics_csv(rows, scenario, buf)
    return buf.getvalue()


class TestParsing:
    def test_minimal_scenario(self):
        s = scenario_from_dict(scenario_dict())
        assert s.system.n == 8
        assert s.detector == "joint-ml"
        assert s.mode == "fom"
        assert s.sweep is None
        assert s.zero_pad_factor == 16

    def test_json_text_entry_point(self):
        s = scenario_from_json(json.dumps(scenario_dict(trials=5)))
        assert s.trials == 5

    def test_null_snr_means_noiseless(self):
        s = scenario_from_dict(scenario_dict(channel={"es_n0_db": None}))
        assert s.channel.es_n0_db == math.inf

    def test_round_trips_through_to_dict(self):
        s = scenario_from_dict(scenario_dict(sweep={"es_n0_db": [0, 5, None]}))
        again = scenario_from_dict(s.to_dict())
        assert again == s

    def test_sweep_axes(self):
        s = scenario_from_dict(scenario_dict(sweep={"df_t": [0.1, 0.5, 1.0]}))
        assert s.sweep.axis == "df_t"
        assert s.sweep.values == (0.1, 0.5, 1.0)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (dict(detector="viterbi"), "detector must be one of"),
            (dict(mode="otfs"), "mode must be one of"),
            (dict(trials=0), "trials"),
            (dict(trials=2.5), "trials"),
            (dict(trials=True), "trials"),
            (dict(seed=-1), "seed"),
            (dict(seed=2**64), "seed"),
            (dict(zero_pad_factor=0), "zero_pad_factor"),
            (dict(sweep={"es_n0_db": []}), "sweep values"),
            (dict(sweep={"df_t": [0.5, -1.0]}), "df_t sweep values"),
            (dict(sweep={"power": [1]}), "sweep axis"),
            (dict(sweep={"es_n0_db": [1], "df_t": [1]}), "exactly one axis"),
            (dict(channel={"es_n0_db": "quiet"}), "es_n0_db"),
            (dict(channel={}), "missing channel keys"),
            (dict(channel={"es_n0_db": 1, "fading": "rayleigh"}), "unknown channel keys"),
            (dict(extra_field=1), "unknown scenario keys"),
            (dict(channel={"es_n0_db": -1e308}), "es_n0_db"),
        ],
    )
    def test_rejects_malformed(self, mutate, needle):
        with pytest.raises(ScenarioError, match=needle):
            scenario_from_dict(scenario_dict(**mutate))

    def test_missing_top_level_key(self):
        data = scenario_dict()
        del data["seed"]
        with pytest.raises(ScenarioError, match="missing scenario keys: seed"):
            scenario_from_dict(data)

    def test_system_errors_surface(self):
        data = scenario_dict()
        data["system"]["n"] = 3
        with pytest.raises(ScenarioError, match="invalid system config"):
            scenario_from_dict(data)

    def test_unknown_system_key(self):
        data = scenario_dict()
        data["system"]["bandwdith_hz"] = 1.0
        with pytest.raises(ScenarioError, match="unknown system config keys"):
            scenario_from_dict(data)

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="malformed JSON"):
            scenario_from_json("{not json")

    def test_swept_df_t_configs_are_validated(self):
        # 0.001 * symbol_rate shrinks the band so far that the sample budget
        # stays fine, but a negative value must be caught up front.
        with pytest.raises(ScenarioError):
            scenario_from_dict(scenario_dict(sweep={"df_t": [1.0, 0.0]}))


class TestOfdmMode:
    def test_derives_frame_from_system(self):
        s = scenario_from_dict(scenario_dict(mode="ofdm", trials=16))
        assert s.ofdm is None
        rows = run_monte_carlo(s)
        assert rows[0].mode == "ofdm"
        assert rows[0].n == 8

    def test_explicit_frame(self):
        data = scenario_dict(
            mode="ofdm",
            ofdm={"n_subcarriers": 16, "spacing_hz": 1.0, "m": 4, "cp_len": 2, "index_mode": "single-silent"},
        )
        data["system"]["n"] = 16
        s = scenario_from_dict(data)
        assert s.ofdm.n_subcarriers == 16
        assert s.ofdm.index_mode == "single-silent"

    def test_impairs_frames_shorter_than_a_tone_interval(self):
        # 4 subcarriers and no prefix: 4 samples, below the tone link's 8-sample minimum.
        channel = {"es_n0_db": None, "phase_rotation": 0.1, "carrier_freq_error": 0.01}
        ofdm = {"n_subcarriers": 4, "spacing_hz": 1.0, "m": 4}
        data = scenario_dict(mode="ofdm", trials=32, channel=channel, ofdm=ofdm)
        data["system"]["n"] = 4
        s = scenario_from_dict(data)
        row = run_monte_carlo(s)[0]
        assert row.n == 4
        assert row.block_error_rate == 0.0

    def test_requires_joint_ml(self):
        with pytest.raises(ScenarioError, match="joint-ml"):
            scenario_from_dict(scenario_dict(mode="ofdm", detector="two-stage"))

    def test_rejects_df_t_sweep(self):
        with pytest.raises(ScenarioError, match="fom mode"):
            scenario_from_dict(scenario_dict(mode="ofdm", sweep={"df_t": [0.5, 1.0]}))

    def test_underivable_frame_is_an_error(self):
        data = scenario_dict(mode="ofdm")
        data["system"]["delta_f_hz"] = 0.5
        with pytest.raises(ScenarioError, match="delta_f"):
            scenario_from_dict(data)


class TestValidateEntryPoint:
    def test_bare_config(self):
        report = validate_scenario_or_config(scenario_dict()["system"])
        assert report.ok

    def test_bare_config_hard_error(self):
        data = scenario_dict()["system"]
        data["m"] = 5
        report = validate_scenario_or_config(data)
        assert any("m must be" in e for e in report.hard_errors)

    def test_full_scenario(self):
        report = validate_scenario_or_config(scenario_dict())
        assert report.ok

    def test_scenario_level_error(self):
        report = validate_scenario_or_config(scenario_dict(detector="guesswork"))
        assert any("detector" in e for e in report.hard_errors)

    def test_system_warnings_pass_through(self):
        data = scenario_dict()
        data["system"].update(delta_f_hz=1e6, carrier_hz=100e6, bandwidth_hz=20e6, symbol_rate=1e6, n=2)
        report = validate_scenario_or_config(data)
        assert report.hard_errors == []
        assert report.soft_warnings

    def test_both_layers_report(self):
        data = scenario_dict(detector="guesswork")
        data["system"]["n"] = 3
        report = validate_scenario_or_config(data)
        assert len(report.hard_errors) >= 2


class TestWilson:
    def test_contains_the_point_estimate(self):
        lo, hi = wilson_interval(13, 100)
        assert lo < 0.13 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_all_errors(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert lo > 0.9

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestMonteCarlo:
    def test_noiseless_run_is_error_free(self):
        s = scenario_from_dict(scenario_dict(channel={"es_n0_db": None}, trials=200))
        row = run_monte_carlo(s)[0]
        assert row.index_error_rate == 0.0
        assert row.symbol_error_rate == 0.0
        assert row.block_error_rate == 0.0
        assert row.bit_error_rate == 0.0
        assert row.mean_runner_up_margin > 0.0
        assert row.trials == 200
        assert row.es_n0_db == math.inf

    def test_block_rate_dominates_componentwise_rates(self):
        s = scenario_from_dict(scenario_dict(trials=2000, channel={"es_n0_db": 3.0}))
        row = run_monte_carlo(s)[0]
        assert row.block_error_rate >= row.index_error_rate
        assert row.block_error_rate >= row.symbol_error_rate
        assert row.block_error_rate <= row.index_error_rate + row.symbol_error_rate
        assert 0.0 < row.bit_error_rate < row.block_error_rate

    def test_deterministic_given_seed(self):
        s = scenario_from_dict(scenario_dict(trials=2500, sweep={"es_n0_db": [5.0, 10.0]}))
        first = render_csv(s, run_monte_carlo(s))
        second = render_csv(s, run_monte_carlo(s))
        assert first == second

    def test_worker_count_does_not_change_the_bytes(self):
        s = scenario_from_dict(scenario_dict(trials=2500, sweep={"es_n0_db": [5.0, 10.0]}))
        serial = render_csv(s, run_monte_carlo(s, workers=1))
        threaded = render_csv(s, run_monte_carlo(s, workers=4))
        assert serial == threaded

    def test_different_seed_changes_outcomes(self):
        a = scenario_from_dict(scenario_dict(trials=500, channel={"es_n0_db": 0.0}))
        b = scenario_from_dict(scenario_dict(trials=500, channel={"es_n0_db": 0.0}, seed=43))
        row_a = run_monte_carlo(a)[0]
        row_b = run_monte_carlo(b)[0]
        assert (row_a.index_error_rate, row_a.mean_runner_up_margin) != (
            row_b.index_error_rate,
            row_b.mean_runner_up_margin,
        )

    def test_snr_sweep_decreases_until_the_floor(self):
        s = scenario_from_dict(scenario_dict(trials=4000, sweep={"es_n0_db": [0, 5, 10, 15, 20]}))
        rows = run_monte_carlo(s, workers=4)
        rates = [r.index_error_rate for r in rows]
        for a, b in zip(rates, rates[1:]):
            assert b <= a
            if b > 0.0:
                assert b < a

    def test_offset_step_sweep_is_monotone_with_separated_endpoints(self):
        trials = 10_000
        s = scenario_from_dict(scenario_dict(trials=trials, sweep={"df_t": [0.1, 0.25, 0.5, 1.0]}))
        rows = run_monte_carlo(s, workers=4)
        assert [r.df_t for r in rows] == [0.1, 0.25, 0.5, 1.0]
        rates = [r.index_error_rate for r in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        lo_wide, _ = wilson_interval(round(rates[0] * trials), trials)
        _, hi_tight = wilson_interval(round(rates[-1] * trials), trials)
        assert hi_tight < lo_wide

    @pytest.mark.parametrize("m,snrs", [(4, (4.0, 6.0, 8.0)), (16, (12.0, 14.0, 16.0)), (64, (18.0, 20.0, 22.0))])
    def test_single_transmitter_ser_matches_square_qam(self, m, snrs):
        # With n = 1 only the slicer decides: square-QAM SER = 1 - (1 - p)^2,
        # p = (1 - 1/sqrt(m)) * erfc(sqrt(3 * Es/N0 / (2 * (m - 1)))) (Proakis).
        trials = 3000
        system = {**scenario_dict()["system"], "n": 1, "m": m}
        s = scenario_from_dict(scenario_dict(system=system, trials=trials, sweep={"es_n0_db": list(snrs)}))
        for row in run_monte_carlo(s):
            p = (1 - 1 / math.sqrt(m)) * math.erfc(math.sqrt(3 * 10 ** (row.es_n0_db / 10) / (2 * (m - 1))))
            lo, hi = wilson_interval(round(row.symbol_error_rate * trials), trials)
            assert lo <= 1 - (1 - p) ** 2 <= hi, (row.es_n0_db, row.symbol_error_rate, 1 - (1 - p) ** 2)

    def test_ofdm_rows(self):
        s = scenario_from_dict(scenario_dict(mode="ofdm", trials=300, channel={"es_n0_db": 15.0}))
        row = run_monte_carlo(s)[0]
        assert row.mode == "ofdm"
        assert row.df_t == 1.0
        assert 0.0 <= row.index_error_rate < 0.2

    def test_rejects_bad_worker_count(self):
        s = scenario_from_dict(scenario_dict(trials=4))
        with pytest.raises(ValueError):
            run_monte_carlo(s, workers=0)


class TestOutputs:
    def test_csv_layout(self):
        s = scenario_from_dict(scenario_dict(trials=32, sweep={"es_n0_db": [5.0, 10.0]}))
        text = render_csv(s, run_monte_carlo(s))
        lines = text.splitlines()
        assert lines[0].startswith("# fomlink ")
        assert lines[1].startswith("# scenario: {")
        assert lines[2] == METRICS_HEADER
        assert len(lines) == 5
        for line in lines[3:]:
            fields = line.split(",")
            assert len(fields) == len(METRICS_HEADER.split(","))
            assert fields[0] == "fom"
            assert fields[1] == "joint-ml"
            assert fields[-1] == "42"
        # The embedded scenario is valid JSON and round-trips.
        embedded = json.loads(lines[1].removeprefix("# scenario: "))
        assert scenario_from_dict(embedded) == s

    def test_signal_dump(self, tmp_path):
        s = scenario_from_dict(scenario_dict(trials=16, channel={"es_n0_db": None}))
        out = tmp_path / "dump.csv"
        with out.open("w") as fh:
            run_monte_carlo(s, dump_signals=fh)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# fomlink ")
        assert lines[1] == "t,re,im"
        separators = [ln for ln in lines if ln.startswith("# block ")]
        assert len(separators) == 8
        assert "index_bits=" in separators[0] and "symbol_bits=" in separators[0]
        samples_per_block = 8 * 8  # oversample 8, unit band plus seven steps
        data_lines = [ln for ln in lines[2:] if not ln.startswith("#")]
        assert len(data_lines) == 8 * samples_per_block
        t, re, im = data_lines[0].split(",")
        assert t == "0"
        float(re), float(im)

    def test_dump_shows_the_counted_draws(self):
        s = scenario_from_dict(scenario_dict(trials=8, channel={"es_n0_db": 0.0}))
        buf = io.StringIO()
        row = run_monte_carlo(s, dump_signals=buf)[0]
        config = s.system
        plan = build_frequency_plan(config)
        errors = 0
        for block in buf.getvalue().split("# block ")[1:]:
            header, *data = block.splitlines()
            index_bits = header.split("index_bits=")[1].split()[0]
            samples = np.array([complex(float(re), float(im)) for _, re, im in (ln.split(",") for ln in data)])
            signal = BasebandSignal(samples=samples, sample_rate=config.sample_rate, duration=1.0 / config.symbol_rate)
            errors += detect_joint_ml(signal, plan, config.m).k_hat != 1 + int(index_bits, 2)
        assert errors > 0
        assert errors == row.index_error_rate * s.trials

    def test_adjacent_seeds_draw_independent_streams(self):
        def dumped_blocks(seed):
            s = scenario_from_dict(scenario_dict(trials=4, seed=seed))
            buf = io.StringIO()
            run_monte_carlo(s, dump_signals=buf)
            return [block.split(" ", 1)[1] for block in buf.getvalue().split("# block ")[1:]]

        # Per-trial seeds (seed + t) made seed 42's trial 1 replay seed 43's trial 0.
        assert dumped_blocks(42)[1] != dumped_blocks(43)[0]

    def test_dump_covers_only_the_first_sweep_point(self, tmp_path):
        s = scenario_from_dict(scenario_dict(trials=4, sweep={"es_n0_db": [None, 0.0]}))
        out = tmp_path / "dump.csv"
        with out.open("w") as fh:
            run_monte_carlo(s, dump_signals=fh)
        lines = out.read_text().splitlines()
        separators = [ln for ln in lines if ln.startswith("# block ")]
        assert len(separators) == 4
