"""Gaussian-state simulator of broadband continuous-variable quantum teleportation."""

from cvteleport._version import __version__
from cvteleport.gaussian import (
    GaussianState,
    PhysicsError,
    VACUUM_VARIANCE,
    TWO_MODE_VACUUM_VARIANCE,
    apply_symplectic,
    beamsplitter,
    coherent_state,
    db_from_variance,
    impure_squeezed_vacuum,
    loss,
    rotate,
    symplectic_eigenvalues,
    tensor,
    vacuum,
    variance_from_db,
)
from cvteleport.sideband import (
    EntanglementVerdict,
    SidebandPair,
    delta_sq,
    is_entangled,
    sidebands_from_single_mode,
)
from cvteleport.teleporter import (
    CascadeStage,
    EprCorrelations,
    TeleportReport,
    TeleporterParams,
    cascade,
    coherent_fidelity,
    epr_correlations,
    make_epr,
    output_variances_pure,
    squeezing_threshold_db,
    teleport_analytic,
    teleport_mc,
)
from cvteleport.tomography import (
    GridSpec,
    PhaseScanTrace,
    QuadratureRecord,
    WignerGrid,
    WignerMoments,
    inverse_radon,
    sample_record,
    spectrum_trace,
    wigner_analytic,
    wigner_moments,
)
from cvteleport.harness import (
    CalibrationResult,
    ConfigError,
    ExperimentConfig,
    ReproRow,
    RunResult,
    benchmark_config,
    calibrate_losses,
    emit_config,
    format_repro_table,
    paper_repro,
    parse_config,
    run,
    scenario_files,
    write_files,
)
