"""One seeded trial, step by step.

At each checkpoint n the process places arcs of the CURRENT length
ell(n) around all n centers drawn so far.  Because the length shrinks,
the covered set is not monotone in n: the circle can be covered at one
checkpoint and torn open at the next.  That non-nestedness is the whole
point of tracking coverage along a geometric checkpoint grid.
"""

import numpy as np

from arccover import (LogOverN, TrialConfig, make_circle, make_finite,
                      run_trial, measure)

cfg = TrialConfig(seed=12, lengths=LogOverN(1.05), target=make_circle(),
                  n_max=30_000, n_first_checkpoint=8)
trace = run_trial(cfg)

print(f"trial: target=circle, lengths=logn:1.05, seed={trace.seed}, "
      f"n_max={trace.n_max}")
print(f"{'n':>8} {'ell(n)':>12} {'covered':>8} {'uncovered':>12} {'pieces':>7}")
for i in range(0, trace.checkpoints.size, 4):
    print(f"{trace.checkpoints[i]:>8} {trace.ells[i]:>12.3e} "
          f"{str(bool(trace.covered[i])):>8} {trace.uncovered_measure[i]:>12.3e} "
          f"{trace.piece_count[i]:>7}")

flips = int(np.sum(trace.covered[:-1] & ~trace.covered[1:]))
print(f"\ncoverage flipped on->off {flips} time(s): E_n is not nested in n")
print(f"eventually covered (all checkpoints from {trace.n_tail_start}): "
      f"{trace.eventually_covered}; last failure at n={trace.last_failure_n}")

print()
print("== the residue at the horizon ==")
resid = run_trial(cfg, 1).tail_uncovered
print(f"uncovered measure at n_max: {measure(resid):.3e} in "
      f"{resid.component_count()} pieces")
resid5 = run_trial(cfg, 5).tail_uncovered
print(f"union over the last 5 checkpoints: {measure(resid5):.3e} "
      f"(windows only ever grow)")

print()
print("== a point target ==")
pt = TrialConfig(seed=12, lengths=LogOverN(1.05), target=make_finite([0.37]),
                 n_max=30_000, n_first_checkpoint=8)
pt_trace = run_trial(pt)
print(f"point 0.37 eventually covered: {pt_trace.eventually_covered} "
      f"(a point is covered iff some center sits within ell(n)/2 of it)")
