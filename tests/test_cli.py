"""Command line entry points, exercised through main()."""

import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fomlink.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from builders import scenario_data

ROOT = Path(__file__).resolve().parents[1]


def nested_scenario_file(tmp_path, field, depth):
    """A scenario file whose ``field`` (top-level, system's ``n`` or channel's ``es_n0_db``) holds its value inside ``depth`` arrays."""
    data = scenario_data()
    node = data["system"] if field == "n" else data["channel"] if field == "es_n0_db" else data
    value, node[field] = json.dumps(node[field]), "@"
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(data).replace('"@"', "[" * depth + value + "]" * depth))
    return path


def scenario_file(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_data(**overrides)))
    return path


class TestEfficiency:
    def test_single_point_to_stdout(self, capsys):
        assert main(["efficiency", "--m", "256", "--n", "128", "--eta", "0.01"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# fomlink ")
        assert lines[1] == "m,n,eta,gamma_ee,gamma_se,e0,es"
        fields = lines[2].split(",")
        assert fields[:3] == ["256", "128", "0.01"]
        assert fields[3] == "0.533333333"
        assert fields[4] == "1.85643564"

    def test_comma_list_and_range(self, capsys):
        assert main(["efficiency", "--m", "4,16", "--n", "1:64:7"]) == EXIT_OK
        rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 14
        n_column = [float(r.split(",")[1]) for r in rows[:7]]
        assert n_column[0] == 1.0
        assert n_column[-1] == 64.0

    def test_preset_to_file(self, tmp_path):
        out = tmp_path / "fig4a.csv"
        assert main(["efficiency", "--fig4a", "--out", str(out)]) == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 96

    def test_preset_with_absolute_rates(self, tmp_path):
        out = tmp_path / "fig4a.csv"
        assert main(["efficiency", "--fig4a", "--symbol-rate", "1e6", "--bandwidth", "1e6", "--out", str(out)]) == EXIT_OK
        first = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
        assert first.split(",")[5] != ""

    def test_conflicting_presets(self, capsys):
        assert main(["efficiency", "--fig4a", "--fig5"]) == EXIT_INVALID
        assert "at most one preset" in capsys.readouterr().err

    def test_preset_plus_axis(self, capsys):
        assert main(["efficiency", "--fig4a", "--m", "4"]) == EXIT_INVALID

    def test_missing_axes(self, capsys):
        assert main(["efficiency"]) == EXIT_INVALID

    def test_two_swept_axes(self, capsys):
        assert main(["efficiency", "--m", "4", "--n", "2,4", "--eta", "0.01,0.1"]) == EXIT_INVALID
        assert "not both" in capsys.readouterr().err

    def test_bad_axis_value(self, capsys):
        assert main(["efficiency", "--m", "notanumber"]) == EXIT_INVALID
        assert "--m" in capsys.readouterr().err

    def test_a_range_needs_three_parts(self, capsys):
        assert main(["efficiency", "--m", "1:2"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert "ranges are start:stop:steps" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "axes, needle",
        [
            (["--m", "2:4096:1000000000000"], "at most 4194304"),
            (["--m", "2:4096:4194305"], "at most 4194304"),
            (["--m", "2:4096:3000", "--n", "1:128:2000"], "6000000 points exceeds 4194304"),
            (["--m", "2:4096:3000", "--eta", "0:1:2000"], "6000000 points exceeds 4194304"),
        ],
    )
    def test_oversized_ranges_are_refused_before_allocation(self, capsys, axes, needle):
        assert main(["efficiency", *axes]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert needle in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "axes",
        [
            ["--m", "4", "--n", "inf"],
            ["--m", "inf"],
            ["--m", "4", "--eta", "1e400"],
            ["--m", "1e400:2:3"],
            ["--m", "4", "--n", "1:1e400:3"],
            ["--m", "4", "--eta=-1e308:1e308:3"],
            ["--m", "4", "--n", "nan"],
            ["--fig4a", "--symbol-rate", "inf", "--bandwidth", "1"],
            ["--fig4a", "--symbol-rate", "1", "--bandwidth", "1e400"],
            ["--m", "4", "--symbol-rate", "1e308", "--bandwidth", "1e-10"],
        ],
    )
    def test_non_finite_inputs_exit_invalid(self, capsys, axes):
        assert main(["efficiency", *axes]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "axes",
        [
            ["--m", "1"],
            ["--m", "4", "--eta", "-1"],
            ["--m", "4", "--n", "inf"],
            ["--m", "4", "--eta", "1e300", "--symbol-rate", "1", "--bandwidth", "1e10"],
            ["--m", "4", "--n", ""],
            ["--m", "4", "--n", "2,4", "--eta", ""],
            ["--fig4a", "--m", ""],
            ["--m", "4", "--symbol-rate", "1e308", "--bandwidth", "1e-10"],
        ],
    )
    def test_a_rejected_grid_leaves_the_out_file_as_it_was(self, tmp_path, axes):
        out = tmp_path / "grid.csv"
        out.write_text("an earlier grid\n")
        assert main(["efficiency", *axes, "--out", str(out)]) == EXIT_INVALID
        assert out.read_bytes() == b"an earlier grid\n"

    def test_rows_stream_to_the_out_file(self, tmp_path):
        # The peak of a 100k-point grid stays within a fixed margin of a 10k-point one.
        out = str(tmp_path / "grid.csv")
        assert main(["efficiency", "--m", "4", "--out", out]) == EXIT_OK  # builds the cached parser untraced

        def peak(m_steps):
            tracemalloc.start()
            try:
                assert main(["efficiency", "--m", f"2:4096:{m_steps}", "--n", "1:128:100", "--eta", "0.01", "--out", out]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100), peak(1000)
        assert len(Path(out).read_text().splitlines()) == 2 + 100_000
        assert large - small < 256 * 1024, (small, large)


class TestSimulate:
    def test_end_to_end(self, tmp_path, capsys):
        config = scenario_file(tmp_path)
        assert main(["simulate", "--config", str(config)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("mode,detector,")
        fields = lines[3].split(",")
        assert fields[0] == "fom"
        assert int(fields[6]) == 64

    def test_deterministic_output_file(self, tmp_path):
        config = scenario_file(tmp_path, trials=300)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--config", str(config), "--out", str(out_b), "--workers", "4"]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_of_a_non_object_reports_the_schema_error(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text("[1]")
        errors = []
        for seed in ([], ["--seed", "3"]):
            assert main(["simulate", "--config", str(config), *seed]) == EXIT_INVALID
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: scenario must be a JSON object, got list\n"

    def test_seed_override_changes_output(self, tmp_path):
        config = scenario_file(tmp_path, trials=300, channel={"es_n0_db": 0.0})
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--config", str(config), "--out", str(out_b), "--seed", "7"]) == EXIT_OK
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_signal_dump_file(self, tmp_path, capsys):
        config = scenario_file(tmp_path, trials=8)
        dump = tmp_path / "dump.csv"
        assert main(["simulate", "--config", str(config), "--dump-signals", str(dump)]) == EXIT_OK
        capsys.readouterr()
        assert dump.read_text().splitlines()[1] == "t,re,im"

    def test_every_sweep_point_sees_the_same_payloads(self, tmp_path, capsys):
        # A noiseless trial draws no noise, yet it sends what a noisy one
        # sends: each chunk draws its payloads before any trial's noise.
        headers = []
        for es_n0_db in (None, 5.0):
            config = scenario_file(tmp_path, trials=64, channel={"es_n0_db": es_n0_db})
            dump = tmp_path / "dump.csv"
            assert main(["simulate", "--config", str(config), "--dump-signals", str(dump)]) == EXIT_OK
            headers.append([line for line in dump.read_text().splitlines() if line.startswith("# block")])
        capsys.readouterr()
        assert len(headers[0]) == 8
        assert headers[0] == headers[1]

    def test_zero_workers_leave_the_out_and_dump_files_as_they_were(self, tmp_path, capsys):
        config = scenario_file(tmp_path, trials=8)
        out, dump = tmp_path / "metrics.csv", tmp_path / "dump.csv"
        out.write_text("earlier metrics\n")
        dump.write_text("earlier dump\n")
        argv = ["simulate", "--config", str(config), "--out", str(out), "--dump-signals", str(dump), "--workers", "0"]
        assert main(argv) == EXIT_INVALID
        assert "--workers must be >= 1, got 0" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier metrics\n" and dump.read_bytes() == b"earlier dump\n"

    @pytest.mark.parametrize(
        "text",
        ["{oops", "[" * 100_000, '{"a":' * 100_000, '{"trials": ' + "1" * 5000 + "}"],
        ids=["unclosed", "deep-array", "deep-object", "5000-digit-integer"],
    )
    def test_malformed_json(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        for command in ("simulate", "validate"):
            assert main([command, "--config", str(path)]) == EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith("error: malformed JSON: ") and "Traceback" not in err

    def test_deep_nesting_that_decodes_gets_the_field_message(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_data()).replace('"seed": 42', '"seed": ' + "[" * 500 + "]" * 500))
        assert main(["simulate", "--config", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: seed must be an unsigned 64-bit integer, got [[[")
        assert main(["validate", "--config", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().out.startswith("ERROR: seed must be an unsigned 64-bit integer, got [[[")

    @pytest.mark.parametrize("field", ["seed", "detector", "trials", "n", "es_n0_db"])
    def test_every_nesting_depth_exits_with_a_message(self, tmp_path, capsys, field):
        # Past the decoder's depth cap, and through the band under the interpreter's recursion limit
        # where a field's error message, taking the repr of the nested value, used to raise RecursionError.
        for depth in range(1, 1001):
            path = nested_scenario_file(tmp_path, field, depth)
            assert main(["validate", "--config", str(path)]) == EXIT_INVALID, depth
            out, err = capsys.readouterr()
            assert (out + err).startswith(("ERROR: ", "error: malformed JSON: ")), depth
            assert main(["simulate", "--config", str(path)]) == EXIT_INVALID, depth
            assert capsys.readouterr().err.startswith("error: "), depth

    @pytest.mark.parametrize("depth", [511, 512, 990])
    def test_nesting_around_the_cap_in_a_fresh_interpreter(self, tmp_path, depth):
        # The recursion band moves with the call depth at which the config is decoded, so also run the
        # module as a script: "seed" inside the scenario object nests depth + 1 levels, and 512 decode.
        path = nested_scenario_file(tmp_path, "seed", depth)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        message = "seed must be an unsigned 64-bit integer, got [[[" if depth < 512 else "malformed JSON: nested deeper"
        for command in ("validate", "simulate"):
            proc = subprocess.run(
                [sys.executable, "-m", "fomlink.cli", command, "--config", str(path)], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == EXIT_INVALID and "Traceback" not in proc.stderr, proc.stderr
            assert message in proc.stdout + proc.stderr

    def test_invalid_scenario(self, tmp_path, capsys):
        config = scenario_file(tmp_path, detector="magic")
        assert main(["simulate", "--config", str(config)]) == EXIT_INVALID
        assert "detector" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_ofdm_scenario(self, tmp_path, capsys):
        config = scenario_file(tmp_path, mode="ofdm", trials=32)
        assert main(["simulate", "--config", str(config)]) == EXIT_OK
        assert "ofdm,joint-ml" in capsys.readouterr().out


class TestSharedParser:
    """main() parses every call with one parser built once per process."""

    def test_options_do_not_reach_the_next_call(self, tmp_path):
        config = scenario_file(tmp_path, trials=300, channel={"es_n0_db": 0.0})
        out = [tmp_path / f"{i}.csv" for i in range(3)]
        dump = tmp_path / "dump.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out[0])]) == EXIT_OK
        argv = ["simulate", "--config", str(config), "--out", str(out[1]), "--seed", "7", "--dump-signals", str(dump)]
        assert main(argv) == EXIT_OK
        dump.unlink()
        assert main(["simulate", "--config", str(config), "--out", str(out[2])]) == EXIT_OK
        assert out[2].read_bytes() == out[0].read_bytes() != out[1].read_bytes()
        assert not dump.exists()

    def test_validate_after_a_failing_simulate_exits_on_its_own_input(self, tmp_path, capsys):
        good = scenario_file(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario_data(detector="magic")))
        assert main(["simulate", "--config", str(bad)]) == EXIT_INVALID
        assert main(["validate", "--config", str(good)]) == EXIT_OK
        with pytest.raises(SystemExit):
            main(["simulate", "--workers", "2"])
        assert main(["validate", "--config", str(good)]) == EXIT_OK
        assert main(["validate", "--config", str(bad)]) == EXIT_INVALID
        assert "detector" in capsys.readouterr().out

    def test_calls_leave_no_cyclic_garbage(self, tmp_path, capsys):
        config = scenario_file(tmp_path, trials=4)
        out = tmp_path / "out.csv"
        assert main(["validate", "--config", str(config)]) == EXIT_OK
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                assert main(["validate", "--config", str(config)]) == EXIT_OK
                assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestValidate:
    def test_clean_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "n": 128,
                    "m": 256,
                    "bandwidth_hz": 20e6,
                    "delta_f_hz": 15e3,
                    "symbol_rate": 15e3,
                    "carrier_hz": 2e9,
                }
            )
        )
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "OK"

    def test_warnings_keep_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "m": 4,
                    "bandwidth_hz": 20e6,
                    "delta_f_hz": 1e6,
                    "symbol_rate": 1e6,
                    "carrier_hz": 100e6,
                }
            )
        )
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "WARNING:" in out
        assert "OK (with warnings)" in out

    def test_hard_errors_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "n": 3,
                    "m": 4,
                    "bandwidth_hz": 20e6,
                    "delta_f_hz": 15e3,
                    "symbol_rate": 15e3,
                    "carrier_hz": 2e9,
                }
            )
        )
        assert main(["validate", "--config", str(path)]) == EXIT_INVALID
        assert "ERROR:" in capsys.readouterr().out

    def test_bare_config_with_n_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**scenario_data()["system"], "n": 2**1024}))
        assert main(["validate", "--config", str(path)]) == EXIT_INVALID
        assert "ERROR: n * m = " in capsys.readouterr().out

    def test_full_scenario_validates(self, tmp_path, capsys):
        # The toy link trades a wide expansion for unit rates; that is a
        # warning, not an error.
        config = scenario_file(tmp_path)
        assert main(["validate", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().endswith("OK (with warnings)")

    def test_every_df_t_point_warns_once_in_sweep_order(self, tmp_path, capsys):
        # Clean at df_t = 0.5; at 2 and 4, delta_f/carrier and delta_b/bandwidth exceed their limits.
        system = {"n": 8, "m": 4, "bandwidth_hz": 20, "delta_f_hz": 0.5, "symbol_rate": 1, "carrier_hz": 1000}
        config = scenario_file(tmp_path, system=system, sweep={"df_t": [0.5, 2, 4, 2]})
        assert main(["validate", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "WARNING: delta_f/carrier = 0.002 exceeds 0.001; offsets are not small relative to the carrier",
            "WARNING: delta_b/bandwidth = 0.7 exceeds 0.5; bandwidth expansion is not small relative to the band",
            "WARNING: delta_f/carrier = 0.004 exceeds 0.001; offsets are not small relative to the carrier",
            "WARNING: delta_b/bandwidth = 1.4 exceeds 0.5; bandwidth expansion is not small relative to the band",
            "OK (with warnings)",
        ]

    def test_a_system_error_is_listed_beside_another_record_error_with_its_text(self, tmp_path, capsys):
        # The ofdm spec's m error holds the system's m error word for word; both are shown.
        system = {**scenario_data()["system"], "m": 3}
        ofdm = {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 3, "index_mode": "single-active"}
        config = scenario_file(tmp_path, mode="ofdm", system=system, ofdm=ofdm)
        assert main(["validate", "--config", str(config)]) == EXIT_INVALID
        assert capsys.readouterr().out.splitlines() == [
            "ERROR: bad ofdm spec: m must be one of (2, 4, 16, 64, 256, 1024, 4096), got 3",
            "ERROR: m must be one of (2, 4, 16, 64, 256, 1024, 4096), got 3",
        ]

    def test_a_rejected_scenario_shows_only_its_systems_warnings(self, tmp_path, capsys):
        # The df_t points at 0.25, 1 and 4 warn of expansions 1.75, 7 and 28; the scenario is
        # rejected after checking them, so only its system's own warning (7) is shown.
        channel = {"es_n0_db": 10.0, "carrier_freq_error": 1e308}
        config = scenario_file(tmp_path, channel=channel, sweep={"df_t": [0.25, 1.0, 4.0]})
        assert main(["validate", "--config", str(config)]) == EXIT_INVALID
        assert capsys.readouterr().out.splitlines() == [
            "ERROR: carrier_freq_error = 1e+308 Hz overflows its phasor within one symbol interval",
            "WARNING: delta_b/bandwidth = 7 exceeds 0.5; bandwidth expansion is not small relative to the band",
        ]

    def test_scenario_error_reported(self, tmp_path, capsys):
        config = scenario_file(tmp_path, sweep={"both": [1]})
        assert main(["validate", "--config", str(config)]) == EXIT_INVALID
        assert "sweep axis" in capsys.readouterr().out


class TestInputBoundary:
    """Inputs that validate must reject, and that simulate must refuse with a message, not a traceback."""

    @pytest.mark.parametrize(
        "system,overrides,needle",
        [
            ({"m": 8}, {}, "m must be one of"),
            ({"m": 32}, {}, "m must be one of"),
            ({"bandwidth_hz": "INFINITY"}, {}, "bandwidth_hz"),
            ({"bandwidth_hz": True}, {}, "bandwidth_hz"),
            ({}, {"sweep": {"es_n0_db": [-1e308]}}, "es_n0_db"),
            ({}, {"channel": [1]}, "channel must be a JSON object, got list"),
            ({}, {"mode": "ofdm", "ofdm": 5}, "ofdm must be a JSON object, got int"),
            ({"n": 3}, {"mode": "ofdm"}, "n must be"),
            ({"oversample": 1}, {"mode": "ofdm", "ofdm": {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4}}, "oversample"),
            ({}, {"mode": "ofdm", "ofdm": {"n_subcarriers": 16, "spacing_hz": 1.0, "m": 4}}, "contradicts system"),
            ({}, {"mode": "ofdm", "ofdm": {"n_subcarriers": 8, "spacing_hz": 2.0, "m": 4}}, "contradicts system"),
            ({}, {"mode": "ofdm", "ofdm": {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 16}}, "contradicts system"),
            ({}, {"ofdm": {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4}}, "needs mode 'ofdm'"),
            ({}, {"detector": "two-stage", "zero_pad_factor": 5000000000000}, "zero_pad_factor"),
            ({}, {"detector": "two-stage", "zero_pad_factor": 2**10, "sweep": {"df_t": [1.0, 64.0]}}, "zero_pad_factor"),
            ({"n": 2**18, "m": 4096, "delta_f_hz": 1e-7}, {}, "n * m"),
            ({"m": 4096, "bandwidth_hz": 1024.0}, {"detector": "oracle"}, "oracle"),
            ({}, {"mode": "ofdm", "ofdm": {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4, "cp_len": 9}}, "cp_len"),
            ({}, {"mode": "ofdm", "ofdm": {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4, "cp_len": True}}, "cp_len"),
            ({}, {"channel": {"es_n0_db": 10.0, "phase_rotation": "1"}}, "phase_rotation"),
            ({}, {"channel": {"es_n0_db": 10.0, "carrier_freq_error": True}}, "carrier_freq_error"),
            ({}, {"sweep": {"df_t": [10**400]}}, "df_t sweep values must be positive numbers"),
            ({"n": 2**1024}, {}, "n * m"),
            ({}, {"channel": {"es_n0_db": 10.0, "carrier_freq_error": 1e308}}, "carrier_freq_error"),
            ({}, {"mode": "ofdm", "channel": {"es_n0_db": 10.0, "carrier_freq_error": 1e308}}, "carrier_freq_error"),
        ],
        ids=[
            "m-8",
            "m-32",
            "bandwidth-1e400",
            "bandwidth-true",
            "es_n0_db-noise-overflow",
            "channel-list",
            "ofdm-int",
            "ofdm-mode-n-3",
            "ofdm-mode-oversample-1",
            "ofdm-n_subcarriers-contradicts",
            "ofdm-spacing-contradicts",
            "ofdm-m-contradicts",
            "ofdm-object-in-fom-mode",
            "zero-pad-oversized",
            "zero-pad-oversized-at-swept-df_t",
            "slicing-table-oversized",
            "oracle-block-oversized",
            "cp_len-above-n_subcarriers",
            "cp_len-true",
            "phase_rotation-string",
            "carrier_freq_error-true",
            "df_t-beyond-float-range",
            "n-beyond-float-range",
            "carrier_freq_error-phasor-overflow",
            "ofdm-carrier_freq_error-phasor-overflow",
        ],
    )
    def test_both_commands_exit_invalid(self, tmp_path, capsys, system, overrides, needle):
        config = scenario_file(tmp_path, **overrides)
        data = json.loads(config.read_text())
        data["system"].update(system)
        # json.dumps cannot write 1e400; it parses to inf.
        config.write_text(json.dumps(data).replace('"INFINITY"', "1e400"))
        for command in ("validate", "simulate"):
            assert main([command, "--config", str(config)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert needle in captured.out + captured.err

    @pytest.mark.parametrize(
        "system",
        [{"oversample": "NAN"}, {"symbol_rate": 5e-324}, {"bandwidth_hz": 1e15, "carrier_hz": 1e18}, {"n": 3, "oversample": 1}],
        ids=["oversample-nan", "symbol_rate-5e-324", "oversized-filter-bank", "two-system-errors"],
    )
    def test_one_error_line_that_simulate_repeats(self, tmp_path, capsys, system):
        config = scenario_file(tmp_path)
        data = json.loads(config.read_text())
        data["system"].update(system)
        config.write_text(json.dumps(data).replace('"NAN"', "NaN"))
        assert main(["validate", "--config", str(config)]) == EXIT_INVALID
        errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("ERROR:")]
        assert len(errors) == 1
        assert main(["simulate", "--config", str(config)]) == EXIT_INVALID
        assert capsys.readouterr().err.strip() == "error: " + errors[0].removeprefix("ERROR: ")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"detector": "oracle", "channel": {"es_n0_db": -3050.0}},
            {"detector": "joint-ml", "channel": {"es_n0_db": -3075.0}},
            {"detector": "two-stage", "channel": {"es_n0_db": -3075.0}},
            {"mode": "ofdm", "ofdm": {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4}, "channel": {"es_n0_db": -3079.0}},
            {"mode": "ofdm", "ofdm": {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4, "index_mode": "single-silent"},
             "sweep": {"es_n0_db": [10.0, -2060.0]}},
        ],
        ids=["oracle", "joint-ml", "two-stage", "single-active", "single-silent-sweep"],
    )
    def test_an_es_n0_db_below_the_floor_is_one_error_line(self, tmp_path, capsys, overrides):
        # Each SNR has a finite noise power, but a kernel overflowed there before the floor.
        config = scenario_file(tmp_path, trials=16, **overrides)
        assert main(["validate", "--config", str(config)]) == EXIT_INVALID
        errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("ERROR:")]
        assert len(errors) == 1 and "es_n0_db must be a number >= -1000" in errors[0]
        assert main(["simulate", "--config", str(config)]) == EXIT_INVALID
        assert capsys.readouterr().err.strip() == "error: " + errors[0].removeprefix("ERROR: ")



_DELETE = object()
# Wrong JSON types, booleans, numeric strings, null, zero, negatives, values
# that overflow, and values at the size and prefix bounds.
_FUZZ_VALUES = (
    _DELETE, None, True, False, 0, -1, -2.5, 0.5, 1, 3, 9, 4096, 2**18, 1e-7, 1e308, 1e400, -1e400, 2**70, 2**1024, 10**400,
    5000000000000, "1", "x", "ofdm", "oracle", "two-stage", "single-silent", [], [1], {},
    {"df_t": [1.0, 64.0]}, {"es_n0_db": [None, 0]}, {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4},
)
_OFDM_FRAME = {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4, "cp_len": 2, "index_mode": "single-silent"}
_FUZZ_BASES = (
    scenario_data(trials=4),
    scenario_data(trials=4, mode="ofdm", ofdm=_OFDM_FRAME),
    scenario_data(trials=4, sweep={"df_t": [0.5, 1.0]}),
)
_FUZZ_BASE_IDS = ("fom", "ofdm", "fom-df_t")


def _paths(node, prefix=()):
    """Every key path in a scenario, plus optional and unknown keys at each level."""
    yield prefix
    if isinstance(node, dict):
        for key in {*node, "bogus"}:
            yield from _paths(node.get(key), prefix + (key,))


_FUZZ_PATHS = sorted(
    {p for base in _FUZZ_BASES for p in _paths({**base, "sweep": None, "zero_pad_factor": None, "mode": None})}
    | {("channel", "phase_rotation"), ("channel", "carrier_freq_error")}
)


def _replace(data, path, value):
    if not path:
        return None if value is _DELETE else copy.deepcopy(value)
    node = data
    for key in path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if isinstance(node, dict):
        if value is _DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = copy.deepcopy(value)
    return data


def _over_four_trials(data):
    """Edits the fuzz leaves out: more than 4 trials only makes a run slower."""
    trials = data.get("trials") if isinstance(data, dict) else None
    return isinstance(trials, int) and trials > 4


def _both_commands(tmp_path, data):
    """validate's exit code and stdout, then simulate's exit code, stderr and metrics CSV (None when it wrote none)."""
    config, metrics = tmp_path / "scenario.json", tmp_path / "metrics.csv"
    config.write_text(json.dumps(data))
    metrics.unlink(missing_ok=True)
    shown, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(shown):
        validated = main(["validate", "--config", str(config)])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        simulated = main(["simulate", "--config", str(config), "--out", str(metrics)])
    return validated, shown.getvalue(), simulated, err.getvalue(), metrics.read_text() if metrics.exists() else None


def _check_accepted_run(data, csv, edit):
    """One row per sweep point with the trials given and rates in [0, 1]; a clean noiseless integer df_t decodes exactly."""
    sweep = data.get("sweep")
    rows = [dict(zip(csv.splitlines()[2].split(","), line.split(","))) for line in csv.splitlines()[3:]]
    assert len(rows) == (len(next(iter(sweep.values()))) if sweep else 1), edit
    channel = data["channel"]
    clean = not channel.get("phase_rotation", 0) and not channel.get("carrier_freq_error", 0)
    for row in rows:
        assert int(row["trials"]) == data["trials"], edit
        rates = [float(row[f"{kind}_error_rate"]) for kind in ("index", "symbol", "block", "bit")]
        assert all(0.0 <= rate <= 1.0 for rate in rates), edit
        if clean and row["es_n0_db"] == "inf" and float(row["df_t"]).is_integer():
            assert rates == [0.0] * 4, edit


class TestSingleFieldEdits:
    """Every single-field edit of the fuzz bases (29 key paths x 33 values x 3 bases), checked in one table."""

    @pytest.mark.parametrize(
        "base, path",
        [(base, path) for base in _FUZZ_BASES for path in _FUZZ_PATHS],
        ids=[f"{name}-{'.'.join(path) or 'root'}" for name in _FUZZ_BASE_IDS for path in _FUZZ_PATHS],
    )
    def test_every_single_field_edit(self, tmp_path, base, path):
        for value in _FUZZ_VALUES:
            data = _replace(copy.deepcopy(base), path, value)
            if _over_four_trials(data):
                continue
            edit = f"{'.'.join(path)} = {'<deleted>' if value is _DELETE else repr(value)}"
            validated, shown, simulated, err, csv = _both_commands(tmp_path, data)
            assert validated in (EXIT_OK, EXIT_INVALID), edit
            assert simulated == validated, edit
            if validated == EXIT_OK:
                _check_accepted_run(data, csv, edit)
            elif isinstance(data, dict) and "system" in data:
                # Still a scenario: validate's first reason is the one simulate stops on.
                first = next(line for line in shown.splitlines() if line.startswith("ERROR: "))
                assert err == f"error: {first.removeprefix('ERROR: ')}\n", edit


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(_FUZZ_BASES),
        st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), st.sampled_from(_FUZZ_VALUES)), min_size=1, max_size=2),
    )
    def test_validate_predicts_simulate(self, base, edits):
        """No input raises, and validate's exit code is simulate's."""
        data = copy.deepcopy(base)
        for path, value in edits:
            data = _replace(data, path, value)
        trials = data.get("trials") if isinstance(data, dict) else None
        assume(not (isinstance(trials, int) and trials > 4))
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "scenario.json"
            config.write_text(json.dumps(data))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                validated = main(["validate", "--config", str(config)])
                simulated = main(["simulate", "--config", str(config), "--out", str(Path(tmp) / "metrics.csv")])
        assert validated in (EXIT_OK, EXIT_INVALID)
        assert simulated == validated
