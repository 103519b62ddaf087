"""Command line entry points, exercised through main()."""

import json

import pytest

from fomlink.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main


def scenario_file(tmp_path, **overrides):
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
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
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
        ],
        ids=["m-8", "m-32", "bandwidth-1e400", "bandwidth-true", "es_n0_db-noise-overflow"],
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
