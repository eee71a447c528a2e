"""Loss calibration and the resulting noise budget.

Fits per-path source efficiencies so the simulated beam-pair correlations
match the measured -5.6 / -5.5 dB values, then runs the coherent and
squeezed scenarios with the fitted budget.  Also shows the alternative
placement of detection inefficiency as an explicit homodyne penalty with
compensated electronic gain, with the realized gains that Monte Carlo
shots measure.
"""

from cvteleport import (
    TeleporterParams,
    benchmark_config,
    calibrate_losses,
    coherent_state,
    teleport_analytic,
    teleport_mc,
)

print("== fitting source efficiencies ==")
fit = calibrate_losses((-5.6, -5.5), (-6.2, -6.2))
print(f"eta_source (p path, x path) = "
      f"({fit.eta_source[0]:.6f}, {fit.eta_source[1]:.6f})")
print(f"achieved correlations: {fit.achieved_x_db:.3f} / {fit.achieved_p_db:.3f} dB")

print("\n== calibrated coherent scenario ==")
report = teleport_analytic(benchmark_config("coherent").teleporter_params())
print(f"EPR correlations: {report.epr.x_diff_db:.2f} / {report.epr.p_sum_db:.2f} dB")
print(f"output variances: {report.vx_db:+.3f} / {report.vp_db:+.3f} dB "
      "(measured 2.0 / 2.3 dB)")
print(f"fidelity: {report.fidelity_coherent:.4f} (measured 0.76 +/- 0.02)")

print("\n== calibrated squeezed scenario ==")
report = teleport_analytic(benchmark_config("squeezed_x").teleporter_params())
print(f"output variances: {report.vx_db:+.3f} / {report.vp_db:+.3f} dB "
      "(measured -0.8 / 12.4 dB)")
print(f"squeezing survives teleportation: {report.vx_db < 0}")

print("\n== explicit homodyne inefficiency ==")
for eta_hom in (1.0, 0.98, 0.9):
    # a mean in both quadratures, so the shots measure both gains
    params = TeleporterParams(input_state=coherent_state(3.5 + 3.5j), eta_hom=eta_hom)
    report = teleport_analytic(params)
    gains = teleport_mc(params, 100_000).gains
    print(f"eta_hom = {eta_hom:4.2f}: Vx = {report.vx:.5f}, realized gains "
          f"({gains[0]:.3f}, {gains[1]:.3f})  "
          "(penalty (1 - eta)/(2 eta) per quadrature, gain compensated)")
