"""Sideband entanglement before and after teleportation.

A single squeezed RF mode is equivalently an entangled pair of upper and
lower sideband modes.  The criterion Delta_sq < 1 (sum of the normalized
variances of x+ + x- and p+ - p-) certifies that entanglement and equals the
normalized squeezed-quadrature noise power, so the criterion certifies
entanglement after the channel exactly when the output is still squeezed.
The criterion is sufficient, not necessary: the "certified" column reads
False where Delta_sq >= 1 certifies nothing.
"""

import numpy as np

from cvteleport import (
    TeleporterParams,
    delta_sq,
    impure_squeezed_vacuum,
    is_entangled,
    sidebands_from_single_mode,
    teleport_analytic,
)

input_state = impure_squeezed_vacuum(-6.2, 12.0)
pair_in = sidebands_from_single_mode(input_state)
print(f"input state -6.2/+12.0 dB: Delta_sq = {delta_sq(pair_in):.4f} "
      f"(measured 0.24 +/- 0.01)")

print("\nresource dB   Vx_out/vacuum   Delta_sq(out)   certified")
for r in (0.0, 0.2, 0.4, 0.55, 0.7, 0.9):
    sq_db = 10.0 * np.log10(np.exp(-2.0 * r))
    report = teleport_analytic(
        TeleporterParams(input_state=input_state, epr_sq_db=(sq_db, sq_db))
    )
    verdict = is_entangled(sidebands_from_single_mode(report.output_state))
    print(f"{sq_db:>11.2f}   {report.vx / 0.25:13.4f}   {report.delta_sq_out:13.4f}"
          f"   {str(verdict.entangled):>9}")

print("\nThe two columns cross 1 together: the squeezing criterion translates")
print("directly into the sideband entanglement criterion.")
