#!/usr/bin/env python3
# Descend the moment-information product over densities on a grid.
# Start from a bimodal mixture; the quasi-Newton descent over log g should
# flow to the matched q-Gaussian, driving the product down to the dimension.
# Its Sobolev metric keeps the iteration count from growing with the grid: it
# is within 1e-3 of the bound in about 20 iterations, and the approach to the
# tolerance 1e-5 below takes a few hundred (over 3000 under a diagonal metric),
# so the marks stop at 100.
# The product is that of the piecewise-linear interpolant, a density, so it
# never falls below the bound; a tolerance the descent cannot reach at a useful
# pace ends on a reported stall.
#
# Usage: python3 demos/minimize_product.py

from qfisher import GridSpec, densities, minimizer, zoo

Q, ALPHA = 1.5, 2.0
GRID = GridSpec.line(-10.0, 10.0, 513)

start = zoo.mixture_density(GRID, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
cfg = minimizer.MinimizationConfig(q=Q, alpha=ALPHA, max_iters=5000, tol=1e-5)
res = minimizer.minimize_q_fisher(start, cfg)

print(f"q = {Q}, alpha = {ALPHA}, {GRID.points[0]} grid points")
print(f"{'iter':>6} {'objective':>14}")
marks = [0, 1, 2, 5, 10, 20, 50, 100, len(res.objective_trace) - 1]
for i in sorted(set(m for m in marks if 0 <= m < len(res.objective_trace))):
    print(f"{i:6d} {res.objective_trace[i]:14.8f}")

fitted = densities.fit_q_gaussian(res.argmin, Q, ALPHA, 2.0)
print(f"\nfinal product        : {res.objective:.8f}  (bound: 1)")
print(f"iterations used      : {res.n_iters}  stopped on: {res.stop_reason}")
print(f"L1 gap to fitted q-Gaussian: {densities.l1_distance(res.argmin, fitted):.4f}")
