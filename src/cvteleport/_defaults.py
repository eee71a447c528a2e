"""Trace and tomography defaults that `harness.ExperimentConfig` declares.

They live apart from `tomography`, which imports numpy, so that reading a
config imports no numpy; `tomography` re-exports them under these names."""

DEFAULT_GRID_POINTS = 81
DEFAULT_GRID_PAD_SIGMAS = 4.5
DEFAULT_TRACE_POINTS = 240
DEFAULT_TRACE_AVERAGES = 30
