"""Generate a synthetic postoperative cohort and hide cells three ways.

Controls follow stationary attribute baselines; cases add a ramp-then-plateau
response on half the attributes starting at a random onset day.  We then apply
each missingness mechanism and look at what it does to the observed data.
"""
import numpy as np

from mtsk.cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
    write_cohort,
)

cohort = generate_synthetic_cohort(
    n_cases=50, n_controls=150, n_attributes=5, n_days=20, effect_size=1.5, seed=0
)
print(f"cohort: {len(cohort)} samples, {cohort.n_attributes} attributes, "
      f"{cohort.window_length} days")

labels = np.array(cohort.labels())
X = cohort.values  # (N, V, T)
print("\nper-attribute means, cases vs controls (late window, days 16-20):")
late = X[..., 15:].mean(axis=2)
for v, name in enumerate(cohort.attribute_names):
    print(f"  {name}: case {late[labels == 1, v].mean():6.2f}   "
          f"control {late[labels == 0, v].mean():6.2f}")

print("\nmasking 30% of cells under each mechanism:")
for mech in (Missingness.MCAR, Missingness.MAR, Missingness.MNAR):
    masked = apply_missingness(cohort, MissingnessSpec(mech, 0.3, seed=1))
    Xm, Rm = masked.values, masked.mask
    obs_mean = Xm[Rm > 0].mean()
    hid_mean = Xm[Rm == 0].mean()
    print(f"  {mech.value}: missing fraction {masked.missing_fraction():.3f}, "
          f"observed mean {obs_mean:.2f}, hidden-cell true mean {hid_mean:.2f}")
print("(MNAR hides low values, so its observed mean sits above the hidden one)")

masked = apply_missingness(cohort, MissingnessSpec(Missingness.MAR, 0.3, seed=1))
write_cohort(masked, "cohort_mar30.csv")
print("\nwrote cohort_mar30.csv (long format: patient_id,label,day,attribute,value)")
