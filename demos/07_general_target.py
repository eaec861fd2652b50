"""A target whose Hausdorff and box dimensions differ.

The paper extends the covering thresholds to a general set A on the
circle: no eventual covering for c below dim_H(A), eventual covering for
c above dim_B(A) + 1.  For the circle and for Cantor sets the two
dimensions agree, so only a set with dim_H < dim_B shows which one the
transition follows inside the band between them.

A = {0.5/k : k >= 1} is such a set: it is countable, so dim_H = 0, while
its points pile up at 0 with box dimension 1/2.  It is stood in for here
by 2000 intervals of length 5e-8 at 0.5/k, a custom target written to a
file, and compared at two horizons with a Cantor set of the same box
dimension (ratio 1/4, so dimension 1/2) and with 8 spread points
(dimension 0).  A scan gives the fraction of seeds eventually covered at
each c; a crossing estimate with an interval at each horizon is an open
item of ROADMAP.md, so for now the table is read by eye.
"""

import json
import os
import tempfile

from arccover import TrialConfig, parse_target, phase_scan

HORIZONS = (10 ** 4, 10 ** 5)
C_GRID = [0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.2]
TRIALS = 20

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "harmonic_points.json")
    with open(path, "w") as f:
        json.dump({"intervals": [[0.5 / k, 0.5 / k + 5e-8] for k in range(1, 2001)],
                   "beta": 0.5, "dim_H": 0.0}, f)
    targets = {
        "{0.5/k}, 2000 intervals": parse_target(f"custom:{path}"),
        "cantor:0.25:10": parse_target("cantor:0.25:10"),
        "8 spread points": parse_target("points:" + ",".join(str((k + 0.5) / 8)
                                                            for k in range(8))),
    }

print(f"fraction of {TRIALS} seeds eventually covered, logn:c, "
      f"at horizons {', '.join(f'{h:.0e}' for h in HORIZONS)}")
for name, target in targets.items():
    scans = [phase_scan(C_GRID, TrialConfig(seed=0, lengths=None, target=target, n_max=h),
                        TRIALS, jobs=2) for h in HORIZONS]
    print()
    print(f"== {name}: dim_H={target.dim_H:g}, dim_B={target.dim_B_upper:g}, "
          f"cover above c={scans[0].cover_threshold:g} ==")
    print(f"  {'c':>4} {'regime':>14} " + " ".join(f"{h:>8.0e}" for h in HORIZONS))
    for rows in zip(*(scan.rows for scan in scans)):
        fracs = " ".join(f"{row.eventually_covered_fraction:8.2f}" for row in rows)
        print(f"  {rows[0].c:4.1f} {rows[0].regime:>14} {fracs}")

print()
print("Each seed's verdict can only turn from uncovered to covered as c")
print("grows, so every column rises.  In the band, {0.5/k} is read against")
print("a set of dimension 0 and one of dimension 1/2; one horizon cannot say")
print("which dimension governs its transition, per-horizon crossings with")
print("intervals can (an open item of ROADMAP.md).")
