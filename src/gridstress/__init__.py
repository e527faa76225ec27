"""gridstress: distribution-grid stress studies for EV charging.

Builds a campus-scale network model, solves AC power flow per
15-minute interval, layers projected EV charging load, PV generation
and load management on top, and reports branch-loading congestion.
"""

from .benchmark import BenchmarkBundle, build_benchmark
from .congestion import (
    CongestionHistogram,
    bin_loadings,
    congested_elements,
)
from .network import (
    Branch,
    Bus,
    CableType,
    Generator,
    Network,
    NominalLoad,
    Violation,
    cable_resistance,
    derive_impedances,
    to_per_unit,
    validate_network,
)
from .powerflow import (
    BranchFlow,
    PowerFlowSolution,
    branch_flows,
    build_ybus,
    solve_gauss_seidel,
    solve_newton_raphson,
    total_losses,
)
from .scenario import (
    LoadProfile,
    ParkingLot,
    ProfileBindings,
    Scenario,
    StaggerState,
    SweepResult,
    build_injections,
    ev_load_kw,
    normalize_profile,
    one_third_stagger,
    run_study,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkBundle",
    "Branch",
    "BranchFlow",
    "Bus",
    "CableType",
    "CongestionHistogram",
    "Generator",
    "LoadProfile",
    "Network",
    "NominalLoad",
    "ParkingLot",
    "PowerFlowSolution",
    "ProfileBindings",
    "Scenario",
    "StaggerState",
    "SweepResult",
    "Violation",
    "bin_loadings",
    "branch_flows",
    "build_benchmark",
    "build_injections",
    "build_ybus",
    "cable_resistance",
    "congested_elements",
    "derive_impedances",
    "ev_load_kw",
    "normalize_profile",
    "one_third_stagger",
    "run_study",
    "run_sweep",
    "solve_gauss_seidel",
    "solve_newton_raphson",
    "to_per_unit",
    "total_losses",
    "validate_network",
]
