"""RIS-assisted satellite downlink simulator and SJNR optimizer."""

from .scenario import (
    DEFAULT_CONFIG,
    Position3D,
    Scenario,
    ValidationError,
    db_to_linear,
    default_scenario,
    linear_to_db,
    load_config,
    noise_power_from,
    scenario_from_config,
)
from .channel import PhaseConfig, build_channel_set, identity_phases
from .link import SjnrReport, evaluate, lift
from .sdp_core import solve_unit_diag_sdp
from .optimizer import OptimizerSettings, OptResult, optimize, optimize_phases
from .harness import (
    CSV_HEADER,
    SweepSpec,
    baseline_identity,
    baseline_random_mean,
    fig2_spec,
    fig3_spec,
    fig4_spec,
    format_csv_rows,
    oracle_exhaustive,
    run_sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "DEFAULT_CONFIG",
    "OptResult",
    "OptimizerSettings",
    "PhaseConfig",
    "Position3D",
    "Scenario",
    "SjnrReport",
    "SweepSpec",
    "ValidationError",
    "baseline_identity",
    "baseline_random_mean",
    "build_channel_set",
    "db_to_linear",
    "default_scenario",
    "evaluate",
    "fig2_spec",
    "fig3_spec",
    "fig4_spec",
    "format_csv_rows",
    "identity_phases",
    "lift",
    "linear_to_db",
    "load_config",
    "noise_power_from",
    "optimize",
    "optimize_phases",
    "oracle_exhaustive",
    "run_sweep",
    "scenario_from_config",
    "solve_unit_diag_sdp",
    "write_sweep_csv",
    "__version__",
]
