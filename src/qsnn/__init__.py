"""Spiking quantum neurons as driven 3-qubit spin systems.

Simulation of excitation-parity and relative-phase neurons, their
constraint solvers and fidelity metrics, and the full/reduced Bell-state
comparison networks built from them.
"""

from . import core, errors, fidelity, network, neurons, parameters
from .core import (
    BELL_LABELS,
    BELL_VECTORS,
    DenseOperator,
    DriveTerm,
    MeasureResult,
    StateVector,
    StaticTerm,
    TimeDependentHamiltonian,
    apply_gate,
    bell_state,
    evolve,
    expectation,
    measure,
    propagator,
)
from .errors import (
    DegenerateOutcomeError,
    DimensionMismatchError,
    DuplicateTargetError,
    HierarchyViolationError,
    InvalidParamsError,
    NetworkValidationError,
    NonOrthonormalSubspaceError,
    NonPythagoreanError,
    NoRealSolutionError,
    NormDriftError,
    OutOfBoundsError,
    QsnnError,
)
from .fidelity import FidelityReport, average_fidelity, mc_average_fidelity
from .network import (
    BackActionReport,
    BellAmplitudes,
    NetworkSpec,
    back_action,
    bell_kernel,
    from_json,
    run,
    simulated_bell_kernel,
    template,
    to_json,
    validate,
)
from .neurons import (
    ExcNeuronParams,
    FinalLayerParams,
    NeuronSpec,
    PhaseNeuronParams,
    Trajectory,
    apply_neuron,
    build_hamiltonian,
    fidelity_report,
    ideal_unitary,
    make_spec,
    neuron_unitary,
    protocol_subspace,
    record_trajectory,
    spectrum_report,
)
from .parameters import (
    DetuningReport,
    TuneResult,
    detuning_report,
    make_final_params,
    pythagorean_triples,
    solve_exc,
    solve_final_beta,
    solve_phase,
    tune,
)

__version__ = "1.0.0"
