"""Gaussian-state simulator of broadband continuous-variable quantum teleportation.

The public names are listed in ``__all__``.  Those of `tomography` (the
phase-scan traces, quadrature records and Wigner reconstruction) are
exported on first use, through the module ``__getattr__``: `tomography`
imports numpy, and the analytic path does not need it.  So ``import
cvteleport`` loads no numpy; ``from cvteleport import QuadratureRecord``,
``from cvteleport import *`` and ``dir(cvteleport)`` behave as if every
name were bound.  numpy is loaded only where arrays or random draws are
made: the Monte Carlo path, the tomography names, a state's ``mean`` and
``cov`` arrays, the public `GaussianState` constructor, `apply_symplectic`
and `symplectic_eigenvalues`.
"""

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

# exported by __getattr__, from `tomography`
_TOMOGRAPHY_NAMES = (
    "GridSpec", "PhaseScanTrace", "QuadratureRecord", "WignerGrid", "WignerMoments",
    "inverse_radon", "sample_record", "spectrum_trace", "wigner_analytic", "wigner_moments",
)

__all__ = [
    # gaussian
    "GaussianState", "PhysicsError", "VACUUM_VARIANCE", "TWO_MODE_VACUUM_VARIANCE",
    "apply_symplectic", "beamsplitter", "coherent_state", "db_from_variance",
    "impure_squeezed_vacuum", "loss", "rotate", "symplectic_eigenvalues", "tensor",
    "vacuum", "variance_from_db",
    # sideband
    "EntanglementVerdict", "delta_sq", "is_entangled", "sidebands_from_single_mode",
    # teleporter
    "CascadeStage", "EprCorrelations", "TeleportReport", "TeleporterParams", "cascade",
    "coherent_fidelity", "epr_correlations", "make_epr", "output_variances_pure",
    "squeezing_threshold_db", "teleport_analytic", "teleport_mc",
    # tomography
    *_TOMOGRAPHY_NAMES,
    # harness
    "CalibrationResult", "ConfigError", "ExperimentConfig", "ReproRow", "RunResult",
    "benchmark_config", "calibrate_losses", "emit_config", "format_repro_table",
    "paper_repro", "parse_config", "run", "scenario_files", "write_files",
]


def __getattr__(name: str):
    """A tomography name, or the `tomography` module itself, imported on first
    use (module docstring)."""
    if name == "tomography" or name in _TOMOGRAPHY_NAMES:
        from importlib import import_module  # `from . import` would ask this hook again

        tomography = import_module("cvteleport.tomography")
        return tomography if name == "tomography" else getattr(tomography, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "tomography", *_TOMOGRAPHY_NAMES})
