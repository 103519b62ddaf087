"""Closed-form efficiency ratios and grid sweeps."""

import io
import math
import types
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fomlink import analytics
from fomlink.analytics import (
    CSV_HEADER,
    GridSpec,
    PRESET_NAMES,
    energy_efficiency_ratio,
    fom_spectral_efficiency,
    grid_sweep,
    hybrid_ratios,
    min_tx_count,
    preset_grid,
    run_efficiency_grid,
    spectral_efficiency_ratio,
    symbol_spectral_efficiency,
    write_efficiency_csv,
)

POW2_M = [2, 4, 16, 64, 256, 1024, 4096]
POW2_N = [1, 2, 4, 8, 16, 32, 64, 128]


class TestEnergyRatio:
    def test_reference_values(self):
        assert energy_efficiency_ratio(256, 128) == pytest.approx(8 / 15, abs=1e-15)
        assert energy_efficiency_ratio(2, 2) == 0.5
        assert energy_efficiency_ratio(16, 1) == 1.0

    def test_bounded_and_tight_only_without_index_bits(self):
        for m in POW2_M:
            for n in POW2_N:
                r = energy_efficiency_ratio(m, n)
                assert 0.0 < r <= 1.0
                assert (r == 1.0) == (n == 1)

    def test_decreases_with_n(self):
        for m in POW2_M:
            ratios = [energy_efficiency_ratio(m, n) for n in POW2_N]
            assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_increases_with_m(self):
        ratios = [energy_efficiency_ratio(m, 128) for m in POW2_M]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    @given(
        st.sampled_from(POW2_M),
        st.sampled_from([n for n in POW2_N if n > 1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_defining_identity(self, m, n):
        r = energy_efficiency_ratio(m, n)
        assert abs(r * (1.0 + math.log2(n) / math.log2(m)) - 1.0) < 1e-12

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            energy_efficiency_ratio(1, 2)
        with pytest.raises(ValueError):
            energy_efficiency_ratio(4, 0)

    def test_accepts_non_power_of_two(self):
        # The closed forms are generic; only configs restrict to powers of two.
        assert energy_efficiency_ratio(3, 2) == pytest.approx(
            1.0 / (1.0 + math.log2(2) / math.log2(3)), rel=1e-14
        )


class TestPerSymbolEfficiencies:
    def test_baseline(self):
        assert symbol_spectral_efficiency(1e6, 16, 1e6) == 4.0
        assert symbol_spectral_efficiency(20e6, 256, 20e6) == 8.0

    def test_with_index_bits(self):
        got = fom_spectral_efficiency(1e6, 256, 128, 1e6, 1e4)
        assert got == pytest.approx(15 / 1.01, rel=1e-12)
        got = fom_spectral_efficiency(1e6, 4, 4, 1e6, 1e5)
        assert got == pytest.approx(4 / 1.1, rel=1e-12)

    def test_ratio_matches_quotient(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.choice(POW2_M))
            n = int(rng.choice(POW2_N))
            bandwidth = float(rng.uniform(1e5, 1e8))
            rate = float(rng.uniform(1e3, bandwidth))
            delta_b = float(rng.uniform(0.0, 0.5 * bandwidth))
            e0 = symbol_spectral_efficiency(rate, m, bandwidth)
            es = fom_spectral_efficiency(rate, m, n, bandwidth, delta_b)
            want = spectral_efficiency_ratio(m, n, delta_b / bandwidth)
            assert es / e0 == pytest.approx(want, rel=1e-12)


class TestSpectralRatio:
    def test_reference_value(self):
        got = spectral_efficiency_ratio(256, 128, 0.01)
        assert got == pytest.approx(1.8564356435643565, rel=1e-12)
        assert round(got, 2) == 1.86

    def test_small_m_large_n(self):
        got = spectral_efficiency_ratio(2, 128, 0.001)
        assert got == pytest.approx(8 / 1.001, rel=1e-12)

    def test_unity_threshold_matches_min_tx_count(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = int(rng.choice(POW2_M))
            n = int(rng.choice(POW2_N))
            expansion = float(rng.uniform(0.0, 0.2))
            gain = spectral_efficiency_ratio(m, n, expansion)
            assert (gain >= 1.0) == (n >= min_tx_count(m, expansion))

    def test_threshold_boundary_is_exact(self):
        # n == m**eta makes the ratio exactly one.
        m, n = 16, 4
        expansion = math.log2(n) / math.log2(m)
        assert abs(spectral_efficiency_ratio(m, n, expansion) - 1.0) < 1e-12
        assert min_tx_count(m, expansion) == pytest.approx(n, rel=1e-12)

    def test_min_tx_count_values(self):
        assert min_tx_count(4, 0.5) == pytest.approx(2.0, rel=1e-12)
        assert min_tx_count(256, 0.01) == pytest.approx(2 ** 0.08, rel=1e-12)
        assert type(min_tx_count(4, 100)) is float  # computed in floats, not as an integer power

    def test_decreases_with_expansion(self):
        vals = [spectral_efficiency_ratio(16, 8, x) for x in (0.0, 0.01, 0.05, 0.1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_expansion_equals_bit_ratio(self):
        assert spectral_efficiency_ratio(16, 8, 0.0) == pytest.approx(1.75, rel=1e-14)


class TestHybrid:
    def test_two_branch_qpsk_free_offsets(self):
        ee, se = hybrid_ratios(2, 2, 0.0)
        assert ee == pytest.approx(1 / 3, rel=1e-14)
        assert se == pytest.approx(3.0, rel=1e-14)

    def test_reference_point(self):
        ee, se = hybrid_ratios(256, 128, 0.01)
        assert ee == pytest.approx(1 / (1 + 14 / 8), rel=1e-12)
        assert se == pytest.approx((1 + 14 / 8) / 1.01, rel=1e-12)

    @given(
        st.sampled_from(POW2_M),
        st.sampled_from(POW2_N),
        st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_doubles_the_index_term(self, m, n, expansion):
        ee, se = hybrid_ratios(m, n, expansion)
        term = math.log2(n) / math.log2(m)
        assert abs(ee * (1.0 + 2.0 * term) - 1.0) < 1e-12
        assert abs(se * (1.0 + expansion) - (1.0 + 2.0 * term)) < 1e-12


class TestGrid:
    def test_vary_m_n_ordering_and_size(self):
        spec = GridSpec(m_values=POW2_M, n_values=POW2_N, eta_values=[0.01])
        points = grid_sweep(spec)
        assert len(points) == 56
        assert [p.m for p in points[:8]] == [2] * 8
        assert [p.n for p in points[:8]] == POW2_N
        lookup = {(p.m, p.n): p for p in points}
        ref = lookup[(256, 128)]
        assert ref.gamma_se == pytest.approx(1.8564356435643565, rel=1e-12)
        assert ref.gamma_ee == pytest.approx(8 / 15, rel=1e-12)
        assert ref.eta == 0.01

    def test_vary_m_eta(self):
        spec = GridSpec(
            m_values=[4, 16],
            n_values=[8],
            eta_values=[0.0, 0.1],
        )
        points = grid_sweep(spec)
        assert [(p.m, p.eta) for p in points] == [(4, 0.0), (4, 0.1), (16, 0.0), (16, 0.1)]
        assert all(p.n == 8 for p in points)

    def test_rate_columns_follow_the_link_budget(self):
        spec = GridSpec(
            m_values=[256],
            n_values=[128],
            eta_values=[0.01],
            symbol_rate=1e6,
            bandwidth_hz=1e6,
        )
        point = grid_sweep(spec)[0]
        assert point.e0 == pytest.approx(8.0, rel=1e-12)
        assert point.es == pytest.approx(15 / 1.01, rel=1e-12)

    def test_e0_es_absent_without_rates(self):
        spec = GridSpec(m_values=[4], n_values=[4], eta_values=[0.1])
        point = grid_sweep(spec)[0]
        assert point.e0 is None and point.es is None

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="either n_values or eta_values, not both"):
            GridSpec(m_values=[4], n_values=[4, 8], eta_values=[0.1, 0.2])
        with pytest.raises(ValueError, match="together"):
            GridSpec(m_values=[4], n_values=[4], eta_values=[0.1], symbol_rate=1e6)
        with pytest.raises(ValueError, match="grid of 4196352 points exceeds 4194304"):
            GridSpec(m_values=[4] * 2049, n_values=[4] * 2048, eta_values=[0.1])

    @pytest.mark.parametrize("axis", ["m_values", "n_values", "eta_values"])
    def test_an_empty_axis_is_refused(self, axis):
        with pytest.raises(ValueError, match=f"^{axis} must not be empty$"):
            GridSpec(**{"m_values": [4], "n_values": [4], "eta_values": [0.1], axis: []})

    def test_mode_follows_the_axes(self):
        assert "mode" not in {f.name for f in fields(GridSpec)}
        assert GridSpec(m_values=[4], n_values=[1, 2], eta_values=[0.1]).mode == "vary-m-n"
        assert GridSpec(m_values=[4], n_values=[2], eta_values=[0.1]).mode == "vary-m-n"
        assert GridSpec(m_values=[4], n_values=[2], eta_values=[0.1, 0.2]).mode == "vary-m-eta"
        assert [preset_grid(name).mode for name in ("fig4a", "fig4b", "fig5")] == ["vary-m-n", "vary-m-n", "vary-m-eta"]

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"m_values": [4, 1]}, "m must be finite and exceed 1, got 1"),
            ({"n_values": [2, 0.5]}, "n must be finite and at least 1, got 0.5"),
            ({"eta_values": [math.nan]}, "eta must be finite and nonnegative, got nan"),
            ({"eta_values": [-1.0], "symbol_rate": 1.0, "bandwidth_hz": 1.0}, "delta_b_hz must be finite and nonnegative, got -1.0"),
            ({"eta_values": [1e300], "symbol_rate": 1.0, "bandwidth_hz": 1e10}, "delta_b_hz must be finite and nonnegative, got inf"),
            ({"symbol_rate": math.inf, "bandwidth_hz": 1.0}, "symbol_rate and bandwidth_hz must be finite and positive"),
            ({"symbol_rate": 1e308, "bandwidth_hz": 1e-10}, "e0 and es must be finite, got inf and inf at m=4, n=2, eta=0.1"),
            ({"m_values": [2], "eta_values": [1.5], "symbol_rate": 1e308, "bandwidth_hz": 1e308}, "e0 and es must be finite, got 1.0 and nan at m=2, n=2, eta=1.5"),
            (
                {"m_values": [4, 2.0**40, 16], "n_values": [1, 8, 2], "eta_values": [0.0], "symbol_rate": 1e307, "bandwidth_hz": 0.25},
                "e0 and es must be finite, got inf and inf at m=1099511627776.0, n=8, eta=0.0",
            ),
            ({"eta_values": [10**400], "symbol_rate": 1.0, "bandwidth_hz": 1.0}, f"delta_b_hz must be finite and nonnegative, got {10**400}"),
            ({"eta_values": [10**400]}, f"eta must be finite and nonnegative, got {10**400}"),
            # The smallest e0 and es: a band B * (1 + eta) beyond the float range, or a rate product below it.
            ({"eta_values": [1.0], "symbol_rate": 1.0, "bandwidth_hz": 1e308}, "e0 and es must be positive, got 2e-308 and 0.0 at m=4, n=2, eta=1.0"),
            ({"eta_values": [0.5], "symbol_rate": 5e-324, "bandwidth_hz": 1e10}, "e0 and es must be positive, got 0.0 and 0.0 at m=4, n=2, eta=0.5"),
            (
                {"m_values": [4096, 2], "eta_values": [0.1, 1.0], "symbol_rate": 1.0, "bandwidth_hz": 1e308},
                "e0 and es must be positive, got 1e-308 and 0.0 at m=2, n=2, eta=1.0",
            ),
        ],
    )
    def test_every_value_is_checked_when_the_grid_is_built(self, overrides, needle):
        with pytest.raises(ValueError) as raised:
            GridSpec(**{"m_values": [4], "n_values": [2], "eta_values": [0.1], **overrides})
        assert str(raised.value) == needle

    def test_rates_are_held_to_the_rows_they_give(self):
        # R * (log2 m + log2 n) / B overflows here, but at eta = 1 no row does:
        # the largest e0 and es are both at the (largest m, largest n, smallest eta) point.
        (point,) = grid_sweep(GridSpec(m_values=[2], n_values=[2], eta_values=[1.0], symbol_rate=1e307, bandwidth_hz=0.1))
        assert point.e0 == pytest.approx(1e308, rel=1e-12) and point.es == pytest.approx(1e308, rel=1e-12)

    @pytest.mark.parametrize(
        "axes",
        [
            {"m_values": [1.5, 2, 7.3, 256, 4096], "n_values": [1, 3, 8, 128.5], "eta_values": [0.37]},
            {"m_values": [1.0001, 16, 1e300], "n_values": [77.7], "eta_values": [0.0, 1e-3, 0.5, 1e10]},
        ],
    )
    def test_the_walk_equals_the_public_functions(self, axes):
        spec = GridSpec(**axes, symbol_rate=3.7e6, bandwidth_hz=1.1e5)
        points = grid_sweep(spec)
        assert len(points) == len(spec.m_values) * len(spec.n_values) * len(spec.eta_values)
        for p in points:
            assert p.gamma_ee == energy_efficiency_ratio(p.m, p.n)
            assert p.gamma_se == spectral_efficiency_ratio(p.m, p.n, p.eta)
            assert p.e0 == symbol_spectral_efficiency(spec.symbol_rate, p.m, spec.bandwidth_hz)
            assert p.es == fom_spectral_efficiency(spec.symbol_rate, p.m, p.n, spec.bandwidth_hz, p.eta * spec.bandwidth_hz)

    @settings(max_examples=200, deadline=None)
    @given(
        m_values=st.lists(st.floats(1.0, 1e300, exclude_min=True), min_size=1, max_size=3),
        inner=st.lists(st.floats(1.0, 1e300), min_size=1, max_size=3),
        vary_eta=st.booleans(),
        symbol_rate=st.floats(5e-324, 1e308),
        bandwidth_hz=st.floats(5e-324, 1e308),
    )
    def test_rates_are_accepted_exactly_when_every_row_is_finite_and_positive(self, m_values, inner, vary_eta, symbol_rate, bandwidth_hz):
        # The inner axis is n, or eta (as inner - 1, so it starts at 0) with delta_b = eta * B kept in range.
        n_values, eta_values = ([2.0], [v - 1.0 for v in inner]) if vary_eta else (inner, [0.1])
        assume(max(eta_values) * bandwidth_hz <= 1e308)
        rates = types.SimpleNamespace(symbol_rate=symbol_rate, bandwidth_hz=bandwidth_hz)
        rows = [analytics._point(rates, m, n, eta) for m in m_values for n in n_values for eta in eta_values]
        good = all(0 < p.e0 < math.inf and 0 < p.es < math.inf for p in rows)
        try:
            spec = GridSpec(m_values, n_values, eta_values, symbol_rate, bandwidth_hz)
        except ValueError as error:
            assert str(error).startswith("e0 and es must be ") and not good
        else:
            assert good and grid_sweep(spec) == rows

    def test_writing_a_grid_checks_each_axis_value_once(self, monkeypatch):
        calls = dict.fromkeys((name for name in vars(analytics) if name.startswith("_check_")), 0)
        for name in calls:

            def counted(*args, _name=name, _check=getattr(analytics, name)):
                calls[_name] += 1
                return _check(*args)

            monkeypatch.setattr(analytics, name, counted)
        spec = GridSpec(m_values=[2, 4, 8, 16], n_values=[1, 2, 4], eta_values=[0.1], symbol_rate=1e6, bandwidth_hz=1e6)
        out = io.StringIO()
        run_efficiency_grid(spec, out)
        assert len(out.getvalue().splitlines()) == 2 + 12
        assert calls == {"_check_m": 4, "_check_n": 3, "_check_mn": 0, "_check_eta": 1, "_check_rates": 1, "_check_delta_b": 1}


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "function, args",
    [
        (energy_efficiency_ratio, (4, INF)),
        (energy_efficiency_ratio, (INF, 4)),
        (energy_efficiency_ratio, (4, NAN)),
        (spectral_efficiency_ratio, (4, 2, INF)),
        (spectral_efficiency_ratio, (INF, 2, 0.1)),
        (hybrid_ratios, (4, INF, 0.1)),
        (min_tx_count, (INF, 0.1)),
        (min_tx_count, (4, INF)),
        # Finite inputs whose power overflows a float, or that overflow one themselves.
        (min_tx_count, (1e300, 2.0)),
        (min_tx_count, (4, 1e300)),
        (min_tx_count, (2, 1100.0)),
        (min_tx_count, (4, 1000)),
        pytest.param(spectral_efficiency_ratio, (4, 2, 10**400), id="spectral_efficiency_ratio-4,2,10**400"),
        pytest.param(hybrid_ratios, (4, 2, 10**400), id="hybrid_ratios-4,2,10**400"),
        pytest.param(symbol_spectral_efficiency, (10**400, 4, 1.0), id="symbol_spectral_efficiency-10**400,4,1.0"),
        pytest.param(fom_spectral_efficiency, (1.0, 4, 2, 1.0, 10**400), id="fom_spectral_efficiency-1.0,4,2,1.0,10**400"),
        (symbol_spectral_efficiency, (INF, 4, 1.0)),
        (symbol_spectral_efficiency, (1.0, INF, 1.0)),
        (symbol_spectral_efficiency, (1.0, 4, INF)),
        (fom_spectral_efficiency, (1.0, 4, 2, INF, 0.0)),
        (fom_spectral_efficiency, (1.0, 4, 2, 1.0, INF)),
        (fom_spectral_efficiency, (NAN, 4, 2, 1.0, 0.0)),
        # Finite inputs whose e0 or es overflows to inf or underflows to 0.
        (symbol_spectral_efficiency, (1e308, 4096, 1e-10)),
        (fom_spectral_efficiency, (1e308, 4, 2, 1e-10, 0.0)),
        (fom_spectral_efficiency, (1.0, 4, 2, 1e308, 1e308)),
        (symbol_spectral_efficiency, (5e-324, 4, 1e10)),
    ],
    ids=lambda v: v.__name__ if callable(v) else ",".join(map(str, v)),
)
def test_non_finite_inputs_are_rejected(function, args):
    with pytest.raises(ValueError, match="finite"):
        function(*args)


def test_a_huge_integer_order_is_finite():
    assert energy_efficiency_ratio(2, 2**2000) == pytest.approx(1 / 2001, rel=1e-12)


class TestPresets:
    def test_names(self):
        assert set(PRESET_NAMES) == {"fig4a", "fig4b", "fig5"}

    def test_fig4a_shape(self):
        points = grid_sweep(preset_grid("fig4a"))
        assert len(points) == 12 * 8
        assert {p.eta for p in points} == {0.01}
        assert {p.m for p in points} == {float(2**k) for k in range(1, 13)}

    def test_fig4b_shape(self):
        points = grid_sweep(preset_grid("fig4b"))
        assert {p.eta for p in points} == {0.1}

    def test_fig5_is_log_spaced_in_eta(self):
        points = grid_sweep(preset_grid("fig5"))
        assert len(points) == 12 * 25
        assert all(p.n == 128 for p in points)
        etas = sorted({p.eta for p in points})
        assert len(etas) == 25
        assert etas[0] == pytest.approx(1e-3, rel=1e-9)
        assert etas[-1] == pytest.approx(1e-1, rel=1e-9)
        steps = np.diff(np.log10(etas))
        assert np.allclose(steps, steps[0], rtol=1e-6)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_grid("fig9")


class TestCsv:
    def test_layout(self, tmp_path):
        spec = GridSpec(m_values=[4], n_values=[1, 2], eta_values=[0.01])
        out = tmp_path / "grid.csv"
        with out.open("w") as fh:
            write_efficiency_csv(grid_sweep(spec), fh, comment="source: unit test")
        lines = out.read_text().splitlines()
        assert lines[0] == "# source: unit test"
        assert lines[1] == CSV_HEADER
        assert lines[1] == "m,n,eta,gamma_ee,gamma_se,e0,es"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "4" and first[1] == "1"
        assert first[5] == "" and first[6] == ""

    def test_nine_significant_digits(self, tmp_path):
        spec = GridSpec(
            m_values=[256], n_values=[128], eta_values=[0.01],
            symbol_rate=1e6, bandwidth_hz=1e6,
        )
        out = tmp_path / "grid.csv"
        with out.open("w") as fh:
            write_efficiency_csv(grid_sweep(spec), fh)
        row = out.read_text().splitlines()[-1].split(",")
        assert row[4] == "1.85643564"
        assert row[6] == "14.8514851"
