"""
Volume-weighted price moments over averaging windows
====================================================

Simulates a tick series, rolls an averaging window across it, and prints
the degree-n price moments p(n) = sum(C^n)/sum(V^n) next to the two
classical baselines: VWAP (which equals p(1)) and the plain arithmetic
mean of per-trade prices.

Run:  python3 demos/price_moments_demo.py
"""

from tickvol import (
    SimConfig,
    WindowSpec,
    rolling_moments,
    select_window,
    simple_average_price,
    simulate_trades,
    vwap,
)

series = simulate_trades(SimConfig(n_trades=2000, seed=7, sigma_step=0.01,
                                   volume_sigma=1.0, arrival_rate=2.0))
t0, t1 = series.span()
print(f"simulated {len(series)} trades over [{t0:.1f}, {t1:.1f}] seconds")

width = 100.0
records = rolling_moments(series, width=width, stride=width, degrees=[1, 2, 3])

print(f"\nrolling windows (width {width:.0f}s):")
print(f"{'center':>8} {'N':>5} {'p1 (=VWAP)':>12} {'p2':>12} {'p3':>14}")
for pm in records:
    if pm.empty:
        print(f"{pm.window.center:>8.1f} {0:>5}")
        continue
    print(f"{pm.window.center:>8.1f} {pm.n_trades:>5}"
          f" {pm.moment(1):>12.4f} {pm.moment(2):>12.2f} {pm.moment(3):>14.1f}")

# VWAP weights trades by volume; the simple average ignores volume.
# The gap between the two is the volume-price coupling in the window.
print("\nVWAP vs simple average (first 5 windows):")
for pm in records[:5]:
    view = select_window(series, WindowSpec(pm.window.center, width))
    if len(view) == 0:
        continue
    w = vwap(view)
    s = simple_average_price(view)
    print(f"  t={pm.window.center:>7.1f}  vwap={w:.5f}  simple={s:.5f}"
          f"  gap={s - w:+.5f}")
