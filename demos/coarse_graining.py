#!/usr/bin/env python3
"""Information never grows under coarse-graining.

Block-averaging a grid density is a stochastic map, so both the modified
chi^beta divergence and the Fisher matrix can only shrink under it. The
tables report the fine-minus-coarse gaps for seeded random densities;
every entry should be nonnegative.
"""

from qfisher import GridSpec, chi_beta_g, coarse_grain, zoo
from qfisher.fisher import ParametricFamily, fisher_matrix_data_processing

GRID = GridSpec.line(-10.0, 10.0, 1920)

print("divergence under block averaging (beta = 2)")
print(f"{'seed':>5} {'factor':>7} {'fine':>12} {'coarse':>12} {'gap':>12}")
for seed in range(4):
    f1, f2, g = zoo.random_triple(GRID, seed)
    for factor in (2, 4, 8):
        fine = chi_beta_g(f1, f2, g, 2.0)
        coarse = chi_beta_g(
            coarse_grain(f1, factor),
            coarse_grain(f2, factor),
            coarse_grain(g, factor),
            2.0,
        )
        print(f"{seed:5d} {factor:7d} {fine:12.6f} {coarse:12.6f} {fine - coarse:+12.2e}")

print("\nFisher information of the translation family (fine minus coarse)")
print(f"{'seed':>5} {'factor':>7} {'fine':>12} {'coarse':>12} {'eig margin':>12}")
for seed in range(4):
    _, _, g = zoo.random_triple(GRID, seed)
    fam = ParametricFamily(density_at=lambda t, d=g: d, theta_dim=1, kind="translation")
    for factor in (2, 4, 8):
        before, after, margin = fisher_matrix_data_processing(fam, g, 0.0, factor)
        print(f"{seed:5d} {factor:7d} {before.entries[0, 0]:12.6f} "
              f"{after.entries[0, 0]:12.6f} {margin:+12.2e}")
