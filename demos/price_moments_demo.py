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
    select_window,
    simple_average_price,
    simulate_trades,
    vwap,
    window_centers,
)
from tickvol.moments import moment_table

series = simulate_trades(SimConfig(n_trades=2000, seed=7, sigma_step=0.01,
                                   volume_sigma=1.0, arrival_rate=2.0))
t0, t1 = series.span()
print(f"simulated {len(series)} trades over [{t0:.1f}, {t1:.1f}] seconds")

# All windows at once, as `tickvol moments` computes them: the trade count
# of every window, and the columns C{n}, V{n}, p{n} = C{n}/V{n} of each
# degree over the non-empty windows.
width = 100.0
degrees = [1, 2, 3]
centers = window_centers(series, width=width, stride=width)
counts, table = moment_table(series, centers, width, degrees)

print(f"\nrolling windows (width {width:.0f}s):")
print(f"{'center':>8} {'N':>5} {'p1 (=VWAP)':>12} {'p2':>12} {'p3':>14}")
rows = zip(*(table[f"p{n}"].tolist() for n in degrees))
for center, count in zip(centers.tolist(), counts.tolist()):
    if count == 0:
        print(f"{center:>8.1f} {0:>5}")
        continue
    p1, p2, p3 = next(rows)
    print(f"{center:>8.1f} {count:>5} {p1:>12.4f} {p2:>12.2f} {p3:>14.1f}")

# VWAP weights trades by volume; the simple average ignores volume.
# The gap between the two is the volume-price coupling in the window.
print("\nVWAP vs simple average (first 5 windows):")
for center in centers[:5].tolist():
    view = select_window(series, WindowSpec(center, width))
    if len(view) == 0:
        continue
    w = vwap(view)
    s = simple_average_price(view)
    print(f"  t={center:>7.1f}  vwap={w:.5f}  simple={s:.5f}"
          f"  gap={s - w:+.5f}")
