"""Train the time series cluster kernel on incomplete data and inspect it.

No imputation anywhere: each ensemble member fits a masked Gaussian mixture
on its own random view (time segment, attribute subset, sample subset), and
the kernel averages cosine similarities of posterior vectors.  Out-of-sample
columns come from the stored member parameters and training posteriors.
"""
import numpy as np

from mtsk.cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
    train_test_split,
)
from mtsk.tck import load_tck_model, save_tck_model, tck_test, tck_train

cohort = generate_synthetic_cohort(30, 90, 5, 20, 1.5, seed=0)
masked = apply_missingness(cohort, MissingnessSpec(Missingness.MAR, 0.4, seed=1))
train, test = train_test_split(masked, 0.8, seed=2)
print(f"train {len(train)}, test {len(test)}, 40% MAR missingness")

km, model = tck_train(train, Q=10, seed=3)
print(f"\nensemble: {len(model.members)} members "
      f"(Q={model.Q} initializations x components 2..{model.C})")
m = model.members[0]
print(f"first member: days {m.segment_start + 1}..{m.segment_start + m.segment_length}, "
      f"attributes {m.attributes.tolist()}, {len(m.train_subset)} samples, "
      f"G={m.q2}, prior strength {m.strength:.2f}")

K = km.gram
labels = np.array(train.labels())
same = K[np.ix_(labels == 1, labels == 1)].mean()
diff = K[np.ix_(labels == 1, labels == 0)].mean()
print(f"\ngram: diagonal all {K.diagonal().min():.0f}, "
      f"case-case mean {same:.3f} vs case-control mean {diff:.3f}")
eigs = np.linalg.eigvalsh(K)
print(f"PSD check: min eigenvalue {eigs[0]:.2e} (trace {np.trace(K):.0f})")

save_tck_model(model, "tck_model.npz")
reloaded = load_tck_model("tck_model.npz")
cross = tck_test(reloaded, test).cross
print(f"\nout-of-sample kernel from the reloaded model: {cross.shape}, "
      f"entries in [{cross.min():.3f}, {cross.max():.3f}]")
