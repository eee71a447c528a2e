"""Phase-scanned noise-power traces, exact and with emulated averaging.

Reproduces the scanned-local-oscillator measurement: total noise power
(variance plus coherent signal) relative to vacuum while the homodyne phase
sweeps.  A coherent state of amplitude 3.5 peaks at 10 log10(1 + 4 * 3.5^2)
= 17.0 dB; the squeezed input oscillates between -6.2 and +12.0 dB with
period pi.  Traces are written as CSV next to this script.
"""

from pathlib import Path

import numpy as np

from cvteleport import (
    ExperimentConfig,
    coherent_state,
    impure_squeezed_vacuum,
    run,
    scenario_files,
    spectrum_trace,
    vacuum,
    write_files,
)

outdir = Path(__file__).parent

print("exact traces:")
for label, state in (
    ("vacuum", vacuum(1)),
    ("coherent alpha=3.5", coherent_state(3.5 + 0j)),
    ("squeezed -6.2/+12.0", impure_squeezed_vacuum(-6.2, 12.0)),
):
    trace = spectrum_trace(state)
    print(f"  {label:22s} min {trace.power_db.min():+8.3f} dB, "
          f"max {trace.power_db.max():+8.3f} dB")

print("\nfinite averaging (30 samples per point, like an averaged analyzer trace):")
rng = np.random.default_rng(5)
trace = spectrum_trace(vacuum(1), averages=30, rng=rng)
print(f"  vacuum scatter: std {trace.power_db.std():.2f} dB around 0")

config = ExperimentConfig(scenario="squeezed_x", trace_sampled=True, seed=11)
result = run(config, include_trace=True)
files = {"teleported_squeezed_trace.csv": scenario_files(result)["trace.csv"]}
[path] = write_files(outdir, files)
print(f"\nteleported squeezed-state trace written to {path.name}")
print(f"  output squeezing at theta=0: {result.report.vx_db:+.3f} dB")
