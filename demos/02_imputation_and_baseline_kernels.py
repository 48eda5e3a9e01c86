"""The six imputation schemes and the kernels that need them.

Mean, LOCF and zero imputation (each optionally bias-corrected by stacking
the observation mask as extra attributes) turn an incomplete cohort into the
complete datasets required by the linear kernel and the global alignment
kernel.
"""
import numpy as np

from mtsk.cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
    train_test_split,
)
from mtsk.impute import ALL_SCHEMES, fit_imputer, impute, parse_scheme
from mtsk.kernels import fit_gak_params, gak_gram, gram_matrix

cohort = generate_synthetic_cohort(20, 60, 5, 20, 1.5, seed=0)
masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=1))
train, test = train_test_split(masked, 0.8, seed=2)
print(f"train {len(train)}, test {len(test)}, "
      f"missing fraction {masked.missing_fraction():.2f}\n")

row = train.values[0, 0]
obs = train.mask[0, 0] > 0
print("attribute 1 of one patient (x = missing):")
print("  raw   " + " ".join(f"{v:5.1f}" if o else "    x" for v, o in zip(row, obs)))
for scheme in ("mean", "locf", "zero"):
    spec = fit_imputer(train, *parse_scheme(scheme))
    filled = impute(spec, train).values[0, 0]
    print(f"  {scheme:5s} " + " ".join(f"{v:5.1f}" for v in filled))

print("\nGram matrices on each completed dataset:")
for scheme in ALL_SCHEMES:
    spec = fit_imputer(train, *parse_scheme(scheme))
    tri, tei = impute(spec, train), impute(spec, test)
    lin = gram_matrix("linear", tri, tei).validate()
    params = fit_gak_params(tri)
    gak = gak_gram(tri, params, tei).validate()
    print(f"  {scheme:8s} V'={tri.n_attributes:2d}  "
          f"linear gram {lin.gram.shape}, "
          f"gak sigma={params.sigma:7.1f} tri={params.triangular} "
          f"min off-diag {gak.gram[~np.eye(len(tri), dtype=bool)].min():.3f}")
print("\n(bias-corrected schemes double V; GAK grams are unit-diagonal by "
      "per-pair normalization)")
