"""Command line entry points, exercised through main()."""

import contextlib
import copy
import gc
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fomlink.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main


def scenario_data(**overrides):
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

    @pytest.mark.parametrize("axes", [["--m", "1"], ["--m", "4", "--eta", "-1"]])
    def test_a_rejected_grid_leaves_the_out_file_as_it_was(self, tmp_path, axes):
        out = tmp_path / "grid.csv"
        out.write_text("an earlier grid\n")
        assert main(["efficiency", *axes, "--out", str(out)]) == EXIT_INVALID
        assert out.read_bytes() == b"an earlier grid\n"


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

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["simulate", "--config", str(path)]) == EXIT_INVALID
        assert "malformed JSON" in capsys.readouterr().err

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
        [{"oversample": "NAN"}, {"symbol_rate": 5e-324}, {"bandwidth_hz": 1e15, "carrier_hz": 1e18}],
        ids=["oversample-nan", "symbol_rate-5e-324", "oversized-filter-bank"],
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



_DELETE = object()
# Wrong JSON types, booleans, numeric strings, null, zero, negatives, values
# that overflow, and values at the size and prefix bounds.
_FUZZ_VALUES = (
    _DELETE, None, True, False, 0, -1, -2.5, 0.5, 1, 3, 9, 4096, 2**18, 1e-7, 1e308, 1e400, -1e400, 2**70, 2**1024, 10**400,
    5000000000000, "1", "x", "ofdm", "oracle", "two-stage", "single-silent", [], [1], {},
    {"df_t": [1.0, 64.0]}, {"es_n0_db": [None, 0]}, {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4},
)
_OFDM_FRAME = {"n_subcarriers": 8, "spacing_hz": 1.0, "m": 4, "cp_len": 2, "index_mode": "single-silent"}
_FUZZ_BASES = (scenario_data(trials=4), scenario_data(trials=4, mode="ofdm", ofdm=_OFDM_FRAME))


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
    """Every single-field edit of both fuzz bases (29 key paths x 33 values x 2 bases), checked in one table."""

    @pytest.mark.parametrize(
        "base, path",
        [(base, path) for base in _FUZZ_BASES for path in _FUZZ_PATHS],
        ids=[f"{base.get('mode', 'fom')}-{'.'.join(path) or 'root'}" for base in _FUZZ_BASES for path in _FUZZ_PATHS],
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
