#!/usr/bin/env python3
# The chi^2 divergence between nearby members of a location family, rescaled
# by the squared parameter step, converges to the Fisher information.
# For N(theta, sigma^2) the target is 1/sigma^2.
#
# Usage: python3 demos/chi2_limit.py

import numpy as np

from qfisher import GridSpec, chi_beta_g
from qfisher.fisher import chi2_limit_check, gaussian_location_family

SIGMA = 1.3
GRID = GridSpec.line(-14.0, 14.0, 4096)

fam = gaussian_location_family(GRID, sigma=SIGMA)
g = fam.at(0.0)
target = 1.0 / SIGMA**2

print(f"Gaussian location family, sigma = {SIGMA}")
print(f"Fisher information 1/sigma^2 = {target:.10f}\n")
print(f"{'step t':>8}  {'chi2(f_t, f_0) / t^2':>22}")
for t in (0.8, 0.4, 0.2, 0.1, 0.05, 0.025):
    # symmetrize over +-t to cancel the odd error term
    val = 0.5 * (
        chi_beta_g(fam.at(t), g, g, 2.0)
        + chi_beta_g(fam.at(-t), g, g, 2.0)
    ) / t**2
    print(f"{t:8.3f}  {val:22.10f}")

rep = chi2_limit_check(fam, g, 0.0, beta=2.0)
print(f"\nextrapolated limit : {rep.limit:.10f}")
print(f"relative error     : {abs(rep.limit - target) / target:.2e}")
