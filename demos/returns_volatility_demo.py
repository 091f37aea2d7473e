"""
Lag-m returns volatility in three equivalent forms
==================================================

Each trade is paired with its m-th predecessor; cost, volume, and price
ratios per record feed three algebraically identical expressions for the
returns volatility Sigma_q^2 = q(2) - q(1)^2:

  direct  - from the ratio aggregates q(n) = sum(qc^n)/sum(qv^n)
  r-form  - from weighted return means: r22 - r11^2 + 2 (r21 - r11)
  closed  - from per-record ratio means and dispersions

The script prints all three per lag on one window, plus the mean return
q(1) - 1. Agreement is at rounding level; sign can legitimately be
negative.

Run:  python3 demos/returns_volatility_demo.py
"""

from tickvol import (
    SimConfig,
    WindowSpec,
    build_returns,
    returns_moment,
    returns_volatility_report,
    select_window,
    simulate_trades,
)

series = simulate_trades(SimConfig(n_trades=3000, seed=42, sigma_step=0.015,
                                   volume_sigma=1.2, arrival_rate=4.0))
t0, t1 = series.span()
window = WindowSpec(center=(t0 + t1) / 2, width=(t1 - t0) / 2)

print(f"{'lag':>4} {'records':>8} {'mean ret':>10} {'direct':>13}"
      f" {'r-form':>13} {'closed':>13} {'neg':>4}")
for m in (1, 2, 5, 10, 50):
    records = select_window(build_returns(series, m), window)
    rep = returns_volatility_report(records)
    mean_return = returns_moment(records, 1) - 1.0  # q(1) - 1
    print(f"{m:>4} {rep.n_records:>8} {mean_return:>10.6f}"
          f" {rep.sigma_q2_direct:>13.4e} {rep.sigma_q2_rform:>13.4e}"
          f" {rep.sigma_q2_closed:>13.4e} {str(rep.negative_flag):>4}")

print("\nweighted return means for lag 1:")
records = select_window(build_returns(series, 1), window)
rep = returns_volatility_report(records)
print(f"  r11 = {rep.r11:+.6e}   (volume-ratio weighted mean return)")
print(f"  r21 = {rep.r21:+.6e}   (squared-weights mean return)")
print(f"  r22 = {rep.r22:+.6e}   (squared-weights mean squared return)")
