"""State-vector simulator for a two-photon spatial-polarization hyper-CNOT
gate mediated by charged-dot microcavity spins."""

__version__ = "0.1.0"

from .hilbert import (
    Register,
    StateVector,
    apply_operator,
    basis_index,
    basis_names,
    basis_state,
    fidelity_up_to_global_phase,
    reorder_registers,
    tensor_product,
    tensor_state,
)
from .cavity import (
    CavityParams,
    ReflectionPair,
    reflect_cold,
    reflect_hot,
    scatter_matrix,
)
from .optics import ElementKind, element_matrix
from .protocols import (
    BellAnalysis,
    ClusterStages,
    GateRun,
    HyperBellState,
    MeasurementRecord,
    TruthTableRow,
    analyze_hyper_bell,
    bell_decoding_table,
    evaluate_branches,
    expected_truth_table_output,
    hyper_bell_state,
    hyper_cnot_checkpoints,
    hyper_cnot_state,
    photon_registers,
    photon_state,
    prepare_cluster_stages,
    spin_readout,
    spin_register,
    truth_table,
    uniform_two_photon_state,
    ZeroSurvivalError,
)
from .analysis import (
    PerformancePoint,
    ReferenceCheckRow,
    ReferencePoint,
    REFERENCE_POINTS,
    REFERENCE_TOLERANCE,
    SweepResult,
    formula_performance,
    reference_check,
    simulated_performance,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
