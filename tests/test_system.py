"""Frequency plan construction and config validation."""

import json

import pytest

from fomlink.system import (
    SystemConfig,
    build_frequency_plan,
    eta,
    validate_config,
)


def make_config(**overrides):
    params = dict(
        n=128,
        m=256,
        bandwidth_hz=20e6,
        delta_f_hz=15e3,
        symbol_rate=15e3,
        carrier_hz=2e9,
        oversample=4,
    )
    params.update(overrides)
    return SystemConfig(**params)


class TestFrequencyPlan:
    def test_four_transmitters_at_15_khz(self):
        plan = build_frequency_plan(make_config(n=4))
        assert plan.offsets == (0.0, 15000.0, 30000.0, 45000.0)
        assert plan.delta_b == 45000.0

    def test_128_transmitters_expansion(self):
        plan = build_frequency_plan(make_config(n=128))
        assert plan.delta_b == 1_905_000.0
        assert len(plan.offsets) == 128

    def test_single_transmitter_degenerates(self):
        plan = build_frequency_plan(make_config(n=1, delta_f_hz=123.0))
        assert plan.offsets == (0.0,)
        assert plan.delta_b == 0.0

    def test_offsets_are_closed_form_multiples(self):
        config = make_config(n=64, delta_f_hz=17.25e3)
        plan = build_frequency_plan(config)
        assert plan.offsets[0] == 0.0
        for k, offset in enumerate(plan.offsets):
            assert offset == k * config.delta_f_hz
        assert all(a < b for a, b in zip(plan.offsets, plan.offsets[1:]))

    def test_integer_step_gaps_are_exact(self):
        plan = build_frequency_plan(make_config(n=128, delta_f_hz=15e3))
        gaps = {b - a for a, b in zip(plan.offsets, plan.offsets[1:])}
        assert gaps == {15e3}

    def test_rejects_hard_invalid_config(self):
        with pytest.raises(ValueError, match="power-of-two"):
            build_frequency_plan(make_config(n=3))
        with pytest.raises(ValueError, match="delta_f_hz"):
            build_frequency_plan(make_config(delta_f_hz=0.0))


class TestEta:
    def test_reference_value(self):
        config = make_config()
        assert eta(config) == 0.09525

    def test_matches_plan_ratio_exactly(self):
        for n in (2, 8, 32, 128):
            config = make_config(n=n, delta_f_hz=13.7e3)
            plan = build_frequency_plan(config)
            assert eta(config) == plan.delta_b / config.bandwidth_hz

    def test_single_transmitter_is_zero(self):
        assert eta(make_config(n=1)) == 0.0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            eta(make_config(bandwidth_hz=0.0))


class TestValidation:
    def test_reference_config_is_clean(self):
        report = validate_config(make_config())
        assert report.hard_errors == []
        assert report.soft_warnings == []
        assert report.ok

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            (dict(n=3), "n must be"),
            (dict(n=0), "n must be"),
            (dict(m=3), "m must be"),
            (dict(m=1), "m must be"),
            (dict(bandwidth_hz=0.0), "bandwidth_hz"),
            (dict(bandwidth_hz=-1.0), "bandwidth_hz"),
            (dict(symbol_rate=0.0), "symbol_rate"),
            (dict(carrier_hz=0.0), "carrier_hz"),
            (dict(delta_f_hz=0.0), "delta_f_hz"),
            (dict(delta_f_hz=-5.0), "delta_f_hz"),
            (dict(oversample=1), "oversample"),
            (dict(m=8), "m must be"),
            (dict(bandwidth_hz=float("inf")), "bandwidth_hz"),
            (dict(bandwidth_hz=True), "bandwidth_hz"),
            (dict(delta_f_hz="wide"), "delta_f_hz"),
            (dict(oversample=float("nan")), "oversample"),
            (dict(symbol_rate=5e-324), "overflow"),
        ],
    )
    def test_hard_errors(self, overrides, needle):
        report = validate_config(make_config(**overrides))
        assert any(needle in msg for msg in report.hard_errors)
        assert not report.ok

    def test_zero_delta_f_allowed_for_single_transmitter(self):
        report = validate_config(make_config(n=1, delta_f_hz=0.0))
        assert report.hard_errors == []

    def test_too_few_samples_per_symbol(self):
        config = make_config(n=2, m=4, bandwidth_hz=1.0, delta_f_hz=0.1, symbol_rate=1.0, oversample=2)
        report = validate_config(config)
        assert any("samples per symbol" in msg for msg in report.hard_errors)

    def test_offset_to_carrier_warning_carries_ratio(self):
        config = make_config(n=2, delta_f_hz=1e6, carrier_hz=100e6, bandwidth_hz=20e6)
        report = validate_config(config)
        assert report.hard_errors == []
        assert any("0.01" in msg and "delta_f/carrier" in msg for msg in report.soft_warnings)

    def test_expansion_warning(self):
        config = make_config(n=128, delta_f_hz=200e3, bandwidth_hz=20e6, symbol_rate=200e3)
        report = validate_config(config)
        assert report.hard_errors == []
        assert any("delta_b/bandwidth" in msg for msg in report.soft_warnings)

    def test_single_transmitter_skips_offset_warnings(self):
        report = validate_config(make_config(n=1, delta_f_hz=1e12))
        assert report.soft_warnings == []

    def test_collects_multiple_errors(self):
        report = validate_config(make_config(n=5, m=9, bandwidth_hz=-1.0))
        assert len(report.hard_errors) >= 3


class TestDerivedRates:
    def test_sample_rate_includes_expansion(self):
        config = make_config(n=8, delta_f_hz=1.0, bandwidth_hz=1.0, symbol_rate=1.0, oversample=4)
        assert config.delta_b_hz == 7.0
        assert config.sample_rate == 32.0
        assert config.samples_per_symbol == 32

    def test_bit_counts(self):
        config = make_config(n=8, m=16)
        assert config.index_bit_count == 3
        assert config.symbol_bit_count == 4
        assert make_config(n=1).index_bit_count == 0


class TestJson:
    def test_round_trip(self):
        config = make_config()
        assert SystemConfig.from_json(config.to_json()) == config

    def test_unknown_key_is_an_error(self):
        data = make_config().to_dict()
        data["bandwidht_hz"] = 1.0
        with pytest.raises(ValueError, match="unknown system config keys: bandwidht_hz"):
            SystemConfig.from_dict(data)

    def test_missing_key_is_an_error(self):
        data = make_config().to_dict()
        del data["symbol_rate"]
        with pytest.raises(ValueError, match="missing system config keys: symbol_rate"):
            SystemConfig.from_dict(data)

    def test_oversample_defaults(self):
        data = make_config().to_dict()
        del data["oversample"]
        assert SystemConfig.from_dict(data).oversample == 4

    def test_from_json_text(self):
        text = json.dumps(make_config(n=4).to_dict())
        assert SystemConfig.from_json(text).n == 4

    @pytest.mark.parametrize(
        "text", ["{not json", "[" * 100_000, '{"n": ' + "1" * 5000 + "}"], ids=["unclosed", "deep-array", "5000-digit-integer"]
    )
    def test_text_that_does_not_decode_is_an_error(self, text):
        with pytest.raises(ValueError, match="malformed JSON"):
            SystemConfig.from_json(text)
