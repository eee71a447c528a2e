"""Walk through the teleportation protocol, step by step.

Builds the entangled resource and prints its correlations, then checks that
many simulated measure-and-displace shots reproduce the exact moments of the
analytic propagation.
"""

import numpy as np

from cvteleport import (
    TeleporterParams,
    coherent_state,
    epr_correlations,
    make_epr,
    teleport_analytic,
    teleport_mc,
)

params = TeleporterParams(
    input_state=coherent_state(3.5 + 0j),
    epr_sq_db=(-6.0, -6.0),
)

print("== resource preparation ==")
pair = make_epr(params)
corr = epr_correlations(pair)
print(f"Var(x_A - x_B) = {corr.var_x_diff:.4f}  ({corr.x_diff_db:+.2f} dB vs 1/2)")
print(f"Var(p_A + p_B) = {corr.var_p_sum:.4f}  ({corr.p_sum_db:+.2f} dB vs 1/2)")

print("\n== many shots vs exact propagation ==")
analytic = teleport_analytic(params)
empirical = teleport_mc(params, shots=200_000)
print(f"analytic:  Vx = {analytic.vx:.5f}, Vp = {analytic.vp:.5f}, "
      f"F = {analytic.fidelity_coherent:.5f}")
print(f"empirical: Vx = {empirical.vx:.5f}, Vp = {empirical.vp:.5f}, "
      f"F = {empirical.fidelity_coherent:.5f}  ({empirical.shots} shots)")
print(f"output mean: {np.round(empirical.output_state.mean, 3)} "
      "(unity gain preserves the input amplitude)")
