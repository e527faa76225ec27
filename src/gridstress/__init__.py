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
    derive_impedances,
    to_per_unit,
    validate_network,
)
from .powerflow import (
    PowerFlowSolution,
    branch_flows,
    solve_newton_raphson,
)
from .scenario import (
    LoadProfile,
    ParkingLot,
    ProfileBindings,
    Scenario,
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
    "SweepResult",
    "Violation",
    "bin_loadings",
    "branch_flows",
    "build_benchmark",
    "build_injections",
    "congested_elements",
    "derive_impedances",
    "ev_load_kw",
    "normalize_profile",
    "one_third_stagger",
    "run_study",
    "run_sweep",
    "solve_newton_raphson",
    "to_per_unit",
    "validate_network",
]
