"""The package namespace: every public name, re-exported from the module that defines it."""

import importlib

import fomlink

MODULES = ("system", "analytics", "codec", "phy", "ofdm", "scenario")

PUBLIC = {
    "__version__",
    # system
    "SystemConfig",
    "FrequencyPlan",
    "ValidationReport",
    "build_frequency_plan",
    "validate_config",
    "eta",
    # analytics
    "EfficiencyPoint",
    "GridSpec",
    "energy_efficiency_ratio",
    "symbol_spectral_efficiency",
    "fom_spectral_efficiency",
    "spectral_efficiency_ratio",
    "min_tx_count",
    "hybrid_ratios",
    "grid_sweep",
    "preset_grid",
    "write_efficiency_csv",
    "run_efficiency_grid",
    # codec
    "DataBlock",
    "FrameResult",
    "frame_bits",
    "deframe",
    "map_index",
    "demap_index",
    "constellation",
    "map_symbol",
    "demap_symbol",
    "export_constellation_csv",
    # phy
    "BasebandSignal",
    "ChannelSpec",
    "DetectionResult",
    "synthesize_block",
    "awgn",
    "apply_phase_rotation",
    "apply_carrier_freq_error",
    "matched_filter_bank",
    "detect_joint_ml",
    "detect_noncoherent",
    "detect_two_stage",
    "brute_force_oracle",
    # ofdm
    "OfdmConfig",
    "OfdmFrame",
    "fom_to_ofdm_params",
    "modulate_frame",
    "demodulate_frame",
    "frame_awgn",
    # scenario
    "Scenario",
    "Sweep",
    "MetricsRow",
    "ScenarioError",
    "scenario_from_dict",
    "scenario_from_json",
    "run_monte_carlo",
    "write_metrics_csv",
    "wilson_interval",
}


def test_all_lists_the_public_names_once():
    assert set(fomlink.__all__) == PUBLIC
    assert len(fomlink.__all__) == len(PUBLIC)


def test_each_name_is_its_modules_own_object():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"fomlink.{name}")
        for attr in module.__all__:
            assert attr not in owners, f"{attr} is exported by two modules"
            owners[attr] = module
    assert set(owners) == PUBLIC - {"__version__"}
    for attr, module in owners.items():
        assert getattr(fomlink, attr) is getattr(module, attr)
        assert getattr(module, attr).__module__ == module.__name__
    assert fomlink.__version__ is importlib.import_module("fomlink._version").__version__
