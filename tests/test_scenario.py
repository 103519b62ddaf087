"""Scenario parsing, the Monte-Carlo harness, and metrics output."""

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import fomlink.scenario
import fomlink.system
from fomlink.cli import main
from fomlink.phy import DETECTORS, ES_N0_FLOOR_DB, BasebandSignal, ChannelSpec, detect_joint_ml, synthesize_block
from fomlink.scenario import (
    METRICS_HEADER,
    Scenario,
    ScenarioError,
    Sweep,
    _points,
    run_monte_carlo,
    scenario_from_dict,
    scenario_from_json,
    validate_scenario_or_config,
    wilson_interval,
    write_metrics_csv,
)
from fomlink.system import SystemConfig, build_frequency_plan, validate_config
from builders import all_blocks, link_config, rate_band, scenario_data
from references import (
    biorthogonal_block_error,
    ml_block_error_bounds,
    noncoherent_cfo_index_error,
    noncoherent_fsk_index_error,
    noncoherent_qam_index_error,
    ofdm_single_silent_index_error,
    ofdm_single_silent_qam_index_error,
    overlapping_bpsk_errors,
    overlapping_noncoherent_index_error,
    qpsk_rotation_errors,
    tone_correlation,
    two_stage_index_error,
)


def render_csv(scenario, rows):
    buf = io.StringIO()
    write_metrics_csv(rows, scenario, buf)
    return buf.getvalue()


class TestParsing:
    def test_minimal_scenario(self):
        s = scenario_from_dict(scenario_data())
        assert s.system.n == 8
        assert s.detector == "joint-ml"
        assert s.mode == "fom"
        assert s.sweep is None
        assert s.zero_pad_factor == 16

    def test_json_text_entry_point(self):
        s = scenario_from_json(json.dumps(scenario_data(trials=5)))
        assert s.trials == 5

    def test_null_snr_means_noiseless(self):
        s = scenario_from_dict(scenario_data(channel={"es_n0_db": None}))
        assert s.channel.es_n0_db == math.inf
        assert Sweep("es_n0_db", [None, 5]).values == (math.inf, 5.0)

    def test_round_trips_through_to_dict(self):
        s = scenario_from_dict(scenario_data(sweep={"es_n0_db": [0, 5, None]}))
        again = scenario_from_dict(s.to_dict())
        assert again == s

    def test_sweep_axes(self):
        s = scenario_from_dict(scenario_data(sweep={"df_t": [0.1, 0.5, 1.0]}))
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
            (dict(zero_pad_factor=2.5), "zero_pad_factor must be an integer >= 1, got 2.5"),
            (dict(zero_pad_factor=True), "zero_pad_factor must be an integer >= 1, got True"),
            (dict(zero_pad_factor="2"), "zero_pad_factor must be an integer >= 1, got '2'"),
            (dict(sweep={"es_n0_db": []}), "sweep values"),
            (dict(sweep={"df_t": [0.5, -1.0]}), "df_t sweep values"),
            (dict(sweep={"power": [1]}), "sweep axis"),
            (dict(sweep={"es_n0_db": [1], "df_t": [1]}), "exactly one axis"),
            (dict(channel={"es_n0_db": "quiet"}), "es_n0_db"),
            (dict(channel={}), "missing channel keys"),
            (dict(channel={"es_n0_db": 1, "fading": "rayleigh"}), "unknown channel keys"),
            (dict(extra_field=1), "unknown scenario keys"),
            (dict(channel={"es_n0_db": -1e308}), "es_n0_db"),
            (dict(channel={"es_n0_db": -2060.0}), "es_n0_db must be a number >= -1000"),
        ],
    )
    def test_rejects_malformed(self, mutate, needle):
        with pytest.raises(ScenarioError, match=needle):
            scenario_from_dict(scenario_data(**mutate))

    def test_missing_top_level_key(self):
        data = scenario_data()
        del data["seed"]
        with pytest.raises(ScenarioError, match="missing scenario keys: seed"):
            scenario_from_dict(data)

    def test_system_errors_surface(self):
        data = scenario_data()
        data["system"]["n"] = 3
        with pytest.raises(ScenarioError, match="invalid system config"):
            scenario_from_dict(data)

    def test_unknown_system_key(self):
        data = scenario_data()
        data["system"]["bandwdith_hz"] = 1.0
        with pytest.raises(ScenarioError, match="unknown system config keys"):
            scenario_from_dict(data)

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="malformed JSON"):
            scenario_from_json("{not json")
        with pytest.raises(ScenarioError, match="malformed JSON: nested deeper than the decoder's depth limit"):
            scenario_from_json("[" * 100_000)
        with pytest.raises(ScenarioError, match=r"malformed JSON: Exceeds the limit \(4300 digits\)"):
            scenario_from_json('{"trials": ' + "1" * 5000 + "}")

    @pytest.mark.parametrize("axis", ["es_n0_db", "df_t"])
    def test_an_empty_sweep_has_one_message(self, axis):
        with pytest.raises(ScenarioError) as parsed:
            scenario_from_dict(scenario_data(sweep={axis: []}))
        with pytest.raises(ScenarioError) as built:
            Sweep(axis, ())
        assert str(parsed.value) == str(built.value) == "sweep values must be a non-empty list"

    def test_a_replaced_scenario_is_checked_again(self):
        s = scenario_from_dict(scenario_data())
        with pytest.raises(ScenarioError, match="ofdm mode supports only the joint-ml detector"):
            replace(s, mode="ofdm", detector="oracle")

    def test_each_point_gets_its_config_and_es_n0(self):
        s = scenario_from_dict(scenario_data(sweep={"es_n0_db": [0, 5, None]}))
        assert [es_n0_db for _, es_n0_db in _points(s)] == [0.0, 5.0, math.inf]
        assert all(config is s.system for config, _ in _points(s))
        swept = scenario_from_dict(scenario_data(sweep={"df_t": [0.5, 1.0]}))
        assert [(config.delta_f_hz, es_n0_db) for config, es_n0_db in _points(swept)] == [(0.5, 10.0), (1.0, 10.0)]
        assert _points(scenario_from_dict(scenario_data())) == [(s.system, 10.0)]

    def test_swept_df_t_configs_are_validated(self):
        # 0.001 * symbol_rate shrinks the band so far that the sample budget
        # stays fine, but a negative value must be caught up front.
        with pytest.raises(ScenarioError):
            scenario_from_dict(scenario_data(sweep={"df_t": [1.0, 0.0]}))


class TestOfdmMode:
    def test_derives_frame_from_system(self):
        s = scenario_from_dict(scenario_data(mode="ofdm", trials=16))
        assert s.ofdm is None
        rows = run_monte_carlo(s)
        assert rows[0].mode == "ofdm"
        assert rows[0].n == 8

    def test_explicit_frame(self):
        data = scenario_data(
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
        data = scenario_data(mode="ofdm", trials=32, channel=channel, ofdm=ofdm)
        data["system"]["n"] = 4
        s = scenario_from_dict(data)
        row = run_monte_carlo(s)[0]
        assert row.n == 4
        assert row.block_error_rate == 0.0

    def test_requires_joint_ml(self):
        with pytest.raises(ScenarioError, match="joint-ml"):
            scenario_from_dict(scenario_data(mode="ofdm", detector="two-stage"))

    def test_rejects_df_t_sweep(self):
        with pytest.raises(ScenarioError, match="fom mode"):
            scenario_from_dict(scenario_data(mode="ofdm", sweep={"df_t": [0.5, 1.0]}))

    def test_underivable_frame_is_an_error(self):
        data = scenario_data(mode="ofdm")
        data["system"]["delta_f_hz"] = 0.5
        with pytest.raises(ScenarioError, match="delta_f"):
            scenario_from_dict(data)


class TestValidateEntryPoint:
    def test_bare_config(self):
        report = validate_scenario_or_config(scenario_data()["system"])
        assert report.ok

    def test_bare_config_hard_error(self):
        data = scenario_data()["system"]
        data["m"] = 5
        report = validate_scenario_or_config(data)
        assert any("m must be" in e for e in report.hard_errors)

    def test_full_scenario(self):
        report = validate_scenario_or_config(scenario_data())
        assert report.ok

    def test_scenario_level_error(self):
        report = validate_scenario_or_config(scenario_data(detector="guesswork"))
        assert any("detector" in e for e in report.hard_errors)

    def test_system_warnings_pass_through(self):
        data = scenario_data()
        data["system"].update(delta_f_hz=1e6, carrier_hz=100e6, bandwidth_hz=20e6, symbol_rate=1e6, n=2)
        report = validate_scenario_or_config(data)
        assert report.hard_errors == []
        assert report.soft_warnings

    @pytest.mark.parametrize(
        "overrides, configs",
        [({}, 1), ({"sweep": {"df_t": [0.25, 0.5, 1.0]}}, 4), ({"mode": "ofdm"}, 1), ({"detector": "guesswork"}, 1)],
    )
    def test_validate_checks_each_config_once(self, overrides, configs, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config)
            return validate_config(config)

        for module in (fomlink.scenario, fomlink.system):
            monkeypatch.setattr(module, "validate_config", counted)
        validate_scenario_or_config(scenario_data(**overrides))
        assert len(calls) == configs

    def test_both_layers_report(self):
        data = scenario_data(detector="guesswork")
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
    @pytest.mark.parametrize(
        "n, overrides",
        [(8, {"detector": d}) for d in DETECTORS]
        + [(n, {"mode": "ofdm", "ofdm": {"n_subcarriers": n, "spacing_hz": 1.0, "m": 4, "index_mode": mode}})
           for n, mode in ((8, "single-active"), (8, "single-silent"), (256, "single-silent"))],
        ids=[*DETECTORS, "single-active", "single-silent", "single-silent-n256"],
    )
    def test_the_lowest_es_n0_db_runs_with_finite_margins(self, n, overrides):
        # RuntimeWarning is an error under pytest, so an overflow anywhere in a kernel fails the run.
        data = scenario_data(system=link_config(n=n).to_dict(), channel={"es_n0_db": ES_N0_FLOOR_DB}, trials=16, **overrides)
        (row,) = run_monte_carlo(scenario_from_dict(data))
        assert math.isfinite(row.mean_runner_up_margin) and row.mean_runner_up_margin >= 0.0
        assert 0.0 <= row.bit_error_rate <= row.block_error_rate <= 1.0

    def test_noiseless_run_is_error_free(self):
        s = scenario_from_dict(scenario_data(channel={"es_n0_db": None}, trials=200))
        row = run_monte_carlo(s)[0]
        assert row.index_error_rate == 0.0
        assert row.symbol_error_rate == 0.0
        assert row.block_error_rate == 0.0
        assert row.bit_error_rate == 0.0
        assert row.mean_runner_up_margin > 0.0
        assert row.trials == 200
        assert row.es_n0_db == math.inf

    def test_block_rate_dominates_componentwise_rates(self):
        s = scenario_from_dict(scenario_data(trials=2000, channel={"es_n0_db": 3.0}))
        row = run_monte_carlo(s)[0]
        assert row.block_error_rate >= row.index_error_rate
        assert row.block_error_rate >= row.symbol_error_rate
        assert row.block_error_rate <= row.index_error_rate + row.symbol_error_rate
        assert 0.0 < row.bit_error_rate < row.block_error_rate

    # Index, symbol, block and bit error counts over 3000 impaired trials
    # (phase 0.1 rad, CFO 0.01 R), as recorded once each chunk drew its payloads first:
    # a change to any draw or decision moves them.  Integers only, so BLAS
    # rounding of the margins cannot make this brittle.
    @pytest.mark.parametrize(
        "detector, ofdm, counts",
        [
            ("joint-ml", None, [965, 819, 1044, 2719]),
            ("two-stage", None, [1766, 1405, 1831, 4899]),
            ("oracle", None, [965, 819, 1044, 2719]),
            ("joint-ml", "single-active", [782, 1556, 1638, 3900]),
            ("joint-ml", "single-silent", [893, 96, 930, 2039]),
        ],
    )
    def test_impaired_error_counts_are_pinned(self, detector, ofdm, counts):
        trials = 3000
        data = scenario_data(
            detector=detector,
            trials=trials,
            seed=2024,
            channel={"es_n0_db": 5.0, "phase_rotation": 0.1, "carrier_freq_error": 0.01},
        )
        if ofdm is not None:
            data["system"].update(n=16, m=16)
            data.update(
                mode="ofdm",
                channel={**data["channel"], "es_n0_db": 8.0},
                ofdm={"n_subcarriers": 16, "spacing_hz": 1.0, "m": 16, "cp_len": 4, "index_mode": ofdm},
            )
        row = run_monte_carlo(scenario_from_dict(data))[0]
        bits = (row.n - 1).bit_length() + (row.m - 1).bit_length()
        rates = (row.index_error_rate, row.symbol_error_rate, row.block_error_rate, row.bit_error_rate * bits)
        assert [round(rate * trials) for rate in rates] == counts

    def test_deterministic_given_seed(self):
        s = scenario_from_dict(scenario_data(trials=2500, sweep={"es_n0_db": [5.0, 10.0]}))
        first = render_csv(s, run_monte_carlo(s))
        second = render_csv(s, run_monte_carlo(s))
        assert first == second

    def test_worker_count_does_not_change_the_bytes(self):
        s = scenario_from_dict(scenario_data(trials=2500, sweep={"es_n0_db": [5.0, 10.0]}))
        serial = render_csv(s, run_monte_carlo(s, workers=1))
        threaded = render_csv(s, run_monte_carlo(s, workers=4))
        assert serial == threaded

    def test_different_seed_changes_outcomes(self):
        a = scenario_from_dict(scenario_data(trials=500, channel={"es_n0_db": 0.0}))
        b = scenario_from_dict(scenario_data(trials=500, channel={"es_n0_db": 0.0}, seed=43))
        row_a = run_monte_carlo(a)[0]
        row_b = run_monte_carlo(b)[0]
        assert (row_a.index_error_rate, row_a.mean_runner_up_margin) != (
            row_b.index_error_rate,
            row_b.mean_runner_up_margin,
        )

    def test_snr_sweep_decreases_until_the_floor(self):
        s = scenario_from_dict(scenario_data(trials=4000, sweep={"es_n0_db": [0, 5, 10, 15, 20]}))
        rows = run_monte_carlo(s, workers=4)
        rates = [r.index_error_rate for r in rows]
        for a, b in zip(rates, rates[1:]):
            assert b <= a
            if b > 0.0:
                assert b < a

    def test_offset_step_sweep_is_monotone_with_separated_endpoints(self):
        trials = 10_000
        s = scenario_from_dict(scenario_data(trials=trials, sweep={"df_t": [0.1, 0.25, 0.5, 1.0]}))
        rows = run_monte_carlo(s, workers=4)
        assert [r.df_t for r in rows] == [0.1, 0.25, 0.5, 1.0]
        rates = [r.index_error_rate for r in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        lo_wide, _ = rate_band(rates[0], trials)
        _, hi_tight = rate_band(rates[-1], trials)
        assert hi_tight < lo_wide

    @pytest.mark.parametrize("m,snrs", [(4, (4.0, 6.0, 8.0)), (16, (12.0, 14.0, 16.0)), (64, (18.0, 20.0, 22.0))])
    def test_single_transmitter_ser_matches_square_qam(self, m, snrs):
        # With n = 1 only the slicer decides: square-QAM SER = 1 - (1 - p)^2,
        # p = (1 - 1/sqrt(m)) * erfc(sqrt(3 * Es/N0 / (2 * (m - 1)))) (Proakis).
        trials = 3000
        system = {**scenario_data()["system"], "n": 1, "m": m}
        s = scenario_from_dict(scenario_data(system=system, trials=trials, sweep={"es_n0_db": list(snrs)}))
        for row in run_monte_carlo(s):
            p = (1 - 1 / math.sqrt(m)) * math.erfc(math.sqrt(3 * 10 ** (row.es_n0_db / 10) / (2 * (m - 1))))
            lo, hi = rate_band(row.symbol_error_rate, trials)
            assert lo <= 1 - (1 - p) ** 2 <= hi, (row.es_n0_db, row.symbol_error_rate, 1 - (1 - p) ** 2)

    def test_the_biorthogonal_reference_reduces_to_bpsk_and_qpsk(self):
        for es_n0_db in (0.0, 3.0, 6.0):
            es_n0 = 10 ** (es_n0_db / 10)
            q = 0.5 * math.erfc(math.sqrt(es_n0 / 2))
            assert biorthogonal_block_error(1, es_n0_db) == pytest.approx(0.5 * math.erfc(math.sqrt(es_n0)), rel=1e-6)
            assert biorthogonal_block_error(2, es_n0_db) == pytest.approx(1 - (1 - q) ** 2, rel=1e-6)

    @pytest.mark.parametrize("n, m", [(2, 2), (8, 2), (8, 4)])
    def test_joint_ml_block_error_is_coherent_biorthogonal(self, n, m):
        # At delta_f * T = 1 the tones are orthogonal, so BPSK on n tones is the
        # biorthogonal set in n dimensions, and QPSK (a 45-degree-rotated
        # biorthogonal pair on each tone) the one in 2n.  z = 3.29 is the
        # two-sided 99.9% band, wide enough for nine points on one fixed seed.
        trials = 4000
        system = {**scenario_data()["system"], "n": n, "m": m}
        s = scenario_from_dict(scenario_data(system=system, trials=trials, sweep={"es_n0_db": [0.0, 3.0, 6.0]}))
        for row in run_monte_carlo(s):
            want = biorthogonal_block_error(n if m == 2 else 2 * n, row.es_n0_db)
            lo, hi = rate_band(row.block_error_rate, trials, z=3.29)
            assert lo <= want <= hi, (row.es_n0_db, row.block_error_rate, want)

    def test_noncoherent_index_error_is_noncoherent_fsk_under_rotation(self):
        # At delta_f * T = 1 the tones are orthogonal and QPSK has one
        # amplitude, so argmax |c_k| errs exactly as noncoherent orthogonal
        # 8-FSK, whatever the phase.
        trials = 10_000
        rotated = {"es_n0_db": 6.0, "phase_rotation": math.pi / 4}
        s = scenario_from_dict(
            scenario_data(detector="noncoherent", trials=trials, channel=rotated, sweep={"es_n0_db": [2.0, 4.0, 6.0]})
        )
        for row in run_monte_carlo(s):
            want = noncoherent_fsk_index_error(8, row.es_n0_db)
            lo, hi = rate_band(row.index_error_rate, trials)
            assert lo <= want <= hi, (row.es_n0_db, row.index_error_rate, want)
        # The coherent rule assumes the phase is known: the same rotation costs it index errors.
        still, turned = (
            run_monte_carlo(scenario_from_dict(scenario_data(trials=trials, channel=channel)))[0].index_error_rate
            for channel in ({"es_n0_db": 6.0}, rotated)
        )
        _, hi_still = rate_band(still, trials)
        lo_turned, _ = rate_band(turned, trials)
        assert hi_still < lo_turned

    @pytest.mark.parametrize("phase_rotation", [0.0, math.pi / 4])
    def test_ofdm_single_active_index_error_is_noncoherent_fsk(self, phase_rotation):
        # The orthonormal DFT maps the active subcarrier and the noise onto
        # independent bins, and QPSK has one amplitude, so the argmax-energy
        # index errs exactly as noncoherent orthogonal 8-FSK at the bin Es/N0.
        trials = 10_000
        channel = {"es_n0_db": 6.0, "phase_rotation": phase_rotation}
        s = scenario_from_dict(
            scenario_data(mode="ofdm", trials=trials, channel=channel, sweep={"es_n0_db": [2.0, 4.0, 6.0]})
        )
        for row in run_monte_carlo(s):
            want = noncoherent_fsk_index_error(8, row.es_n0_db)
            lo, hi = rate_band(row.index_error_rate, trials)
            assert lo <= want <= hi, (row.es_n0_db, row.index_error_rate, want)

    def test_the_qam_reference_reduces_to_fsk_for_one_amplitude(self):
        for es_n0_db in (0.0, 6.0, 12.0):
            assert noncoherent_qam_index_error(8, 4, es_n0_db) == pytest.approx(noncoherent_fsk_index_error(8, es_n0_db), rel=1e-12)

    @pytest.mark.parametrize("mode, detector", [("fom", "noncoherent"), ("ofdm", "joint-ml")])
    @pytest.mark.parametrize("m", [16, 64])
    def test_multi_amplitude_qam_index_error_is_exact(self, mode, detector, m):
        # At delta_f * T = 1 the tones (and the OFDM bins) are orthogonal and
        # the index decision sees only |c_k|, so from 16-QAM on, where the
        # points have several amplitudes, each point's index errs as n-FSK at
        # its own energy.  There the one-amplitude n-FSK rate lies far
        # outside the band, so a wrong amplitude or calibration would show.
        trials = 4000
        system = {**scenario_data()["system"], "m": m}
        channel = {"es_n0_db": 10.0, "phase_rotation": 0.7}
        s = scenario_from_dict(
            scenario_data(mode=mode, detector=detector, system=system, trials=trials, channel=channel, sweep={"es_n0_db": [10.0, 14.0]})
        )
        for row in run_monte_carlo(s):
            want = noncoherent_qam_index_error(8, m, row.es_n0_db)
            lo, hi = rate_band(row.index_error_rate, trials, z=3.29)
            assert lo <= want <= hi, (row.es_n0_db, row.index_error_rate, want)
            assert not lo <= noncoherent_fsk_index_error(8, row.es_n0_db) <= hi

    def test_the_single_silent_reference_reduces_to_binary_fsk(self):
        # One silent bin against one active bin is noncoherent binary FSK.
        for es_n0_db in (0.0, 3.0, 6.0):
            assert ofdm_single_silent_index_error(2, es_n0_db) == pytest.approx(
                noncoherent_fsk_index_error(2, es_n0_db), rel=1e-5
            )

    @pytest.mark.parametrize("m", [2, 4, 16, 64])
    def test_ofdm_single_silent_index_error_is_exact(self, m):
        # The index is picked from bin energies, which the rotation leaves
        # alone, and every active bin repeats the sent point a, so the index
        # errs as with unit-modulus symbols at |a|^2 Es/N0.  BPSK and QPSK have
        # one amplitude; from 16-QAM on the rate is averaged over the points,
        # and from 6 dB the one-amplitude rate lies outside the band.
        trials = 4000
        system = {**scenario_data()["system"], "m": m}
        ofdm = {"n_subcarriers": 8, "spacing_hz": 1.0, "m": m, "index_mode": "single-silent"}
        channel = {"es_n0_db": 2.0, "phase_rotation": 0.3}
        s = scenario_from_dict(
            scenario_data(mode="ofdm", system=system, ofdm=ofdm, trials=trials, channel=channel, sweep={"es_n0_db": [2.0, 4.0, 6.0, 8.0]})
        )
        for row in run_monte_carlo(s):
            one_amplitude = ofdm_single_silent_index_error(8, row.es_n0_db)
            want = one_amplitude if m < 16 else ofdm_single_silent_qam_index_error(8, m, row.es_n0_db)
            lo, hi = rate_band(row.index_error_rate, trials, z=3.29)
            assert lo <= want <= hi, (row.es_n0_db, row.index_error_rate, want)
            if m >= 16 and row.es_n0_db >= 6.0:
                assert not lo <= one_amplitude <= hi, (row.es_n0_db, row.index_error_rate, one_amplitude)

    @pytest.mark.parametrize(
        "n, m, df_t, carrier_freq_error, es_n0_db",
        [
            (4, 4, 1, 0.0, 6.0),
            (8, 4, 1, 0.25, 6.0),
            (4, 4, 2, 0.25, 6.0),  # the bin halfway between two offsets snaps to the lower one
            (4, 16, 1, 0.25, 10.0),
            (8, 16, 1, 0.0, 10.0),
            (4, 4, 1, 0.25, 14.0),
            (8, 16, 1, 0.25, 14.0),
        ],
    )
    def test_unpadded_two_stage_index_error_is_exact(self, n, m, df_t, carrier_freq_error, es_n0_db):
        # Unpadded, the FFT bins are independent and each offset sits on a
        # bin; the carrier error moves the tone off it and leaks into the
        # neighbours.  At unit symbol rate a bin is 1 Hz.
        trials = 4000
        channel = {"es_n0_db": es_n0_db, "phase_rotation": 0.4, "carrier_freq_error": carrier_freq_error}
        system = link_config(n=n, m=m, df_t=df_t).to_dict()
        s = scenario_from_dict(scenario_data(system=system, detector="two-stage", zero_pad_factor=1, trials=trials, channel=channel))
        row = run_monte_carlo(s)[0]
        want = two_stage_index_error(n, m, es_n0_db, s.system.samples_per_symbol, df_t, carrier_freq_error)
        lo, hi = rate_band(row.index_error_rate, trials, z=3.29)
        assert lo <= want <= hi, (row.index_error_rate, want)

    def test_the_cfo_reference_reduces_to_fsk_without_an_error(self):
        for n, m, es_n0_db in ((4, 4, 6.0), (8, 16, 10.0)):
            want = noncoherent_qam_index_error(n, m, es_n0_db)
            assert noncoherent_cfo_index_error(n, m, es_n0_db, 8 * n) == pytest.approx(want, abs=2e-4)
            assert noncoherent_cfo_index_error(n, m, es_n0_db, n) == pytest.approx(want, abs=2e-4)

    @pytest.mark.parametrize(
        "mode, detector, n, m, carrier_freq_error, es_n0_db, phase_rotation",
        [
            ("fom", "noncoherent", 4, 4, 0.4, 12.0, 0.0),
            ("fom", "noncoherent", 4, 16, 0.25, 10.0, 0.5),
            ("fom", "noncoherent", 8, 4, 0.1, 6.0, 0.7),
            ("fom", "noncoherent", 8, 16, 0.3, 14.0, 0.0),
            ("ofdm", "joint-ml", 8, 4, 0.4, 12.0, 0.3),
            ("ofdm", "joint-ml", 16, 4, 0.25, 10.0, 0.0),
        ],
    )
    def test_noncoherent_index_error_under_cfo_is_exact(self, mode, detector, n, m, carrier_freq_error, es_n0_db, phase_rotation):
        # The CFO phasor restarts with every interval, so at integer df_t a
        # carrier error of delta bins only leaks each tone (each OFDM bin) into
        # the other outputs by the Dirichlet kernel; the outputs stay
        # independent, and the index, the largest of them, ignores the phase.
        # At unit symbol rate (and unit OFDM spacing) a bin is 1 Hz.
        trials = 4000
        channel = {"es_n0_db": es_n0_db, "phase_rotation": phase_rotation, "carrier_freq_error": carrier_freq_error}
        system = link_config(n=n, m=m).to_dict()
        s = scenario_from_dict(scenario_data(mode=mode, detector=detector, system=system, trials=trials, channel=channel))
        row = run_monte_carlo(s)[0]
        samples = s.system.samples_per_symbol if mode == "fom" else n
        want = noncoherent_cfo_index_error(n, m, es_n0_db, samples, 1, carrier_freq_error)
        lo, hi = rate_band(row.index_error_rate, trials, z=3.29)
        assert lo <= want <= hi, (row.index_error_rate, want)

    def test_the_rotation_reference_is_biorthogonal_at_zero_phase(self):
        for n, es_n0_db in ((4, 6.0), (8, 12.0)):
            assert qpsk_rotation_errors(n, es_n0_db, 0.0)[1] == pytest.approx(biorthogonal_block_error(2 * n, es_n0_db), rel=1e-9)

    @pytest.mark.parametrize(
        "detector, n, phase_rotation, es_n0_db",
        [
            ("joint-ml", 4, 0.3, 6.0),
            ("joint-ml", 8, 0.6, 10.0),
            ("oracle", 4, 0.7, 12.0),
        ],
    )
    def test_coherent_errors_under_rotation_are_exact(self, detector, n, phase_rotation, es_n0_db):
        # The coherent rules assume the phase is known: a turned QPSK point
        # drifts toward its neighbours' quadrants and shrinks its own tone's
        # |Re c| + |Im c| against the others'.
        trials = 4000
        channel = {"es_n0_db": es_n0_db, "phase_rotation": phase_rotation}
        s = scenario_from_dict(scenario_data(detector=detector, system=link_config(n=n).to_dict(), trials=trials, channel=channel))
        row = run_monte_carlo(s)[0]
        for rate, want in zip((row.index_error_rate, row.block_error_rate), qpsk_rotation_errors(n, es_n0_db, phase_rotation)):
            lo, hi = rate_band(rate, trials, z=3.29)
            assert lo <= want <= hi, (rate, want)

    def test_the_overlapping_tone_references_reduce_to_orthogonal_tones(self):
        # At df_t = 1 the link's two tones are orthogonal, rho = 0 up to rounding.
        system = link_config(n=2, df_t=1.0)
        rho = tone_correlation(system.delta_f_hz, system.samples_per_symbol, system.sample_rate)
        assert abs(rho) < 1e-12
        for es_n0_db in (2.0, 6.0, 10.0, 14.0):
            assert overlapping_noncoherent_index_error(4, es_n0_db, rho) == pytest.approx(noncoherent_fsk_index_error(2, es_n0_db), abs=1e-6)
            assert overlapping_bpsk_errors(es_n0_db, rho)[1] == pytest.approx(biorthogonal_block_error(2, es_n0_db), abs=1e-6)

    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("df_t", [0.1, 0.25, 0.5, 0.75])
    def test_noncoherent_index_error_on_two_overlapping_tones_is_exact(self, m, df_t):
        # Below df_t = 1 the two tones overlap with correlation rho, which the
        # link's own S samples at rate fs set, and argmax |c_k| errs as binary
        # noncoherent detection of non-orthogonal signals, whatever the phase.
        trials = 4000
        channel = {"es_n0_db": 6.0, "phase_rotation": 0.7}
        system = link_config(n=2, m=m, df_t=df_t).to_dict()
        s = scenario_from_dict(
            scenario_data(detector="noncoherent", system=system, trials=trials, channel=channel, sweep={"es_n0_db": [6.0, 10.0, 14.0]})
        )
        rho = tone_correlation(s.system.delta_f_hz, s.system.samples_per_symbol, s.system.sample_rate)
        for row in run_monte_carlo(s):
            want = overlapping_noncoherent_index_error(m, row.es_n0_db, rho)
            lo, hi = rate_band(row.index_error_rate, trials, z=3.29)
            assert lo <= want <= hi, (row.es_n0_db, row.index_error_rate, want)

    @pytest.mark.parametrize("detector", ["joint-ml", "oracle"])
    @pytest.mark.parametrize("df_t", [0.1, 0.25, 0.5, 0.75])
    def test_coherent_bpsk_errors_on_two_overlapping_tones_are_exact(self, detector, df_t):
        # The two BPSK outputs Re(c_k) / S are jointly normal with correlation
        # Re rho, so the index and block rates are one integral each.
        trials = 4000
        system = link_config(n=2, m=2, df_t=df_t).to_dict()
        s = scenario_from_dict(scenario_data(detector=detector, system=system, trials=trials, sweep={"es_n0_db": [2.0, 6.0, 10.0]}))
        rho = tone_correlation(s.system.delta_f_hz, s.system.samples_per_symbol, s.system.sample_rate)
        for row in run_monte_carlo(s):
            for rate, want in zip((row.index_error_rate, row.block_error_rate), overlapping_bpsk_errors(row.es_n0_db, rho)):
                lo, hi = rate_band(rate, trials, z=3.29)
                assert lo <= want <= hi, (row.es_n0_db, rate, want)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("df_t", [0.1, 0.25, 0.5, 0.75])
    def test_joint_ml_block_error_lies_between_the_ml_bounds_at_slight_offsets(self, m, df_t):
        # Below df_t = 1 the tones overlap and no closed form exists; the ML
        # block error lies between the nearest-neighbour and union bounds of
        # the n*m transmitted blocks.  The union bound is nearly tight at
        # 14 dB, so the interval is held to them, never the point estimate.
        trials = 3000
        system = {**scenario_data()["system"], "m": m, "delta_f_hz": df_t}
        s = scenario_from_dict(scenario_data(system=system, trials=trials, sweep={"es_n0_db": [6.0, 10.0, 14.0]}))
        plan = build_frequency_plan(s.system)
        signals = [synthesize_block(block, plan, s.system).samples for block, _, _ in all_blocks(8, m)]
        for row in run_monte_carlo(s):
            lower, upper = ml_block_error_bounds(signals, row.es_n0_db)
            lo, hi = rate_band(row.block_error_rate, trials, z=3.29)
            assert lo <= upper and lower <= hi, (row.es_n0_db, row.block_error_rate, lower, upper)

    @pytest.mark.parametrize("df_t", [0.5, 1.0])
    def test_joint_ml_block_error_lies_between_the_ml_bounds_for_16_qam(self, df_t):
        # 16-QAM's points have three amplitudes; the bounds come from all
        # n*m = 128 blocks, at offsets that overlap (0.5) and that do not (1).
        trials = 3000
        system = {**scenario_data()["system"], "m": 16, "delta_f_hz": df_t}
        s = scenario_from_dict(scenario_data(system=system, trials=trials, sweep={"es_n0_db": [14.0, 16.0, 18.0]}))
        plan = build_frequency_plan(s.system)
        signals = [synthesize_block(block, plan, s.system).samples for block, _, _ in all_blocks(8, 16)]
        for row in run_monte_carlo(s):
            lower, upper = ml_block_error_bounds(signals, row.es_n0_db)
            lo, hi = rate_band(row.block_error_rate, trials, z=3.29)
            assert lo <= upper and lower <= hi, (row.es_n0_db, row.block_error_rate, lower, upper)

    def test_ofdm_rows(self):
        s = scenario_from_dict(scenario_data(mode="ofdm", trials=300, channel={"es_n0_db": 15.0}))
        row = run_monte_carlo(s)[0]
        assert row.mode == "ofdm"
        assert row.df_t == 1.0
        assert 0.0 <= row.index_error_rate < 0.2

    def test_rejects_bad_worker_count(self):
        s = scenario_from_dict(scenario_data(trials=4))
        with pytest.raises(ValueError):
            run_monte_carlo(s, workers=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"system": {**scenario_data()["system"], "n": 3}},
            {"system": {**scenario_data()["system"], "oversample": 1}},
            {"mode": "ofdm", "detector": "two-stage"},
            {"sweep": {"df_t": [1.0, 1e6]}},
            {"detector": "two-stage", "zero_pad_factor": 10**6},
            {"trials": 0},
            {"trials": 2.5},
            {"trials": True},
            {"seed": -1},
            {"seed": 2**64},
            {"mode": "otfs"},
            {"detector": "viterbi"},
            {"zero_pad_factor": 0},
            {"zero_pad_factor": 2.5},
            {"sweep": {"es_n0_db": [-1e308]}},
            {"sweep": {"es_n0_db": [10.0, -2060.0]}},
            {"sweep": {"df_t": [0.5, -1.0]}},
        ],
    )
    def test_runner_validates_a_scenario_built_directly(self, overrides):
        data = scenario_data(**overrides)
        with pytest.raises(ScenarioError) as parsed:
            scenario_from_dict(data)
        # The same fields, built without scenario_from_dict's checks: the record checks itself.
        with pytest.raises(ScenarioError) as ran:
            Scenario(
                system=SystemConfig.from_dict(data["system"]),
                channel=ChannelSpec(es_n0_db=data["channel"]["es_n0_db"]),
                detector=data["detector"],
                trials=data["trials"],
                seed=data["seed"],
                mode=data.get("mode", "fom"),
                sweep=Sweep(*next(iter(data["sweep"].items()))) if "sweep" in data else None,
                zero_pad_factor=data.get("zero_pad_factor", 16),
            )
        assert str(ran.value) == str(parsed.value)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("channel", None, "channel must be ChannelSpec, got NoneType"),
            ("sweep", {"df_t": [1.0]}, "sweep must be Sweep or None, got dict"),
            ("system", scenario_data()["system"], "system must be SystemConfig, got dict"),
        ],
        ids=["channel-None", "sweep-dict", "system-dict"],
    )
    def test_runner_rejects_fields_that_are_not_records(self, field, value, message):
        # The parser always builds records; a scenario built in code may not.
        scenario = scenario_from_dict(scenario_data())
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            replace(scenario, **{field: value})

    @pytest.mark.parametrize(
        "overrides, points",
        [({}, 1), ({"sweep": {"df_t": [0.25, 0.5, 1.0]}}, 4), ({"mode": "ofdm"}, 1), ({"detector": "noncoherent"}, 1)],
    )
    def test_simulate_validates_each_point_once(self, overrides, points, tmp_path, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config)
            return validate_config(config)

        for module in (fomlink.scenario, fomlink.system):
            monkeypatch.setattr(module, "validate_config", counted)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_data(trials=2, **overrides)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == points


class TestOutputs:
    def test_csv_layout(self):
        s = scenario_from_dict(scenario_data(trials=32, sweep={"es_n0_db": [5.0, 10.0]}))
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

    def test_int_channel_values_write_the_parsed_csv(self):
        data = scenario_data(trials=16, channel={"es_n0_db": 10, "phase_rotation": 0, "carrier_freq_error": 0})
        parsed = scenario_from_dict(data)
        built = Scenario(SystemConfig.from_dict(data["system"]), ChannelSpec(10, 0, 0), "joint-ml", trials=16, seed=42)
        assert built == parsed
        assert render_csv(built, run_monte_carlo(built)) == render_csv(parsed, run_monte_carlo(parsed))

    @pytest.mark.parametrize("mode", ["fom", "ofdm"])
    def test_a_channel_replaced_with_none_writes_the_null_csv(self, mode):
        parsed = scenario_from_dict(scenario_data(trials=16, mode=mode, channel={"es_n0_db": None}))
        built = scenario_from_dict(scenario_data(trials=16, mode=mode))
        built = replace(built, channel=replace(built.channel, es_n0_db=None))
        assert built == parsed
        assert render_csv(built, run_monte_carlo(built)) == render_csv(parsed, run_monte_carlo(parsed))

    def test_signal_dump(self, tmp_path):
        s = scenario_from_dict(scenario_data(trials=16, channel={"es_n0_db": None}))
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
        s = scenario_from_dict(scenario_data(trials=8, channel={"es_n0_db": 0.0}))
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
            s = scenario_from_dict(scenario_data(trials=4, seed=seed))
            buf = io.StringIO()
            run_monte_carlo(s, dump_signals=buf)
            return [block.split(" ", 1)[1] for block in buf.getvalue().split("# block ")[1:]]

        # Per-trial seeds (seed + t) made seed 42's trial 1 replay seed 43's trial 0.
        assert dumped_blocks(42)[1] != dumped_blocks(43)[0]

    def test_dump_covers_only_the_first_sweep_point(self, tmp_path):
        s = scenario_from_dict(scenario_data(trials=4, sweep={"es_n0_db": [None, 0.0]}))
        out = tmp_path / "dump.csv"
        with out.open("w") as fh:
            run_monte_carlo(s, dump_signals=fh)
        lines = out.read_text().splitlines()
        separators = [ln for ln in lines if ln.startswith("# block ")]
        assert len(separators) == 4
