"""Learned pattern similarity, step by step on a whole cohort.

A series becomes (segment window -> lagged value) rows; random
regression trees route those rows to terminal nodes; counting rows per node
gives a bag-of-words vector, and histogram intersection compares them.
"""
import numpy as np

from mtsk.cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
    train_test_split,
)
from mtsk.lps import lps_gram, lps_represent, lps_train

cohort = generate_synthetic_cohort(30, 90, 5, 20, 1.5, seed=0)
masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=1))
train, test = train_test_split(masked, 0.8, seed=2)

# Segment row s of patient 1 predicts day s + l + p - 1 of attribute 3 from
# days s .. s + l - 1 of attribute 1; the trees read these rows by their start.
l, p, v_pred, v_tgt = 4, 2, 0, 2
x = np.where(train.mask[0] > 0, train.values[0], np.nan)  # missing cells become NaN
rows = [(x[v_pred, s:s + l], x[v_tgt, s + l + p - 1])
        for s in range(train.window_length - l - p + 1)]
print(f"segment rows of patient 1 (l={l}, p={p}, attr 1 -> attr 3): {len(rows)} rows")
for s, (window, target) in enumerate(rows[:3]):
    print(f"  row {s}: {np.array2string(window, precision=2)} -> target {target:.2f}")
print(f"  {sum(int(np.isnan(w).sum()) for w, _ in rows)} missing predictor cells "
      "carried as NaN\n")

forest = lps_train(train, n_trees=60, seed=3)
sizes = [int((t.feature < 0).sum()) for t in forest.trees]  # a leaf has feature -1
print(f"forest: {len(forest.trees)} trees, {min(sizes)}-{max(sizes)} leaves each, "
      f"representation length {forest.representation_length}")

H = lps_represent(forest, train)  # one row per patient, one column block per tree
print(f"bag-of-words: block 0 of sample 1 = {H[0, :sizes[0]].tolist()}")

km = lps_gram(forest, train, test).validate()
print(f"kernel(sample1, sample2) = {km.gram[0, 1]:.4f}, "
      f"self-similarity = {km.gram[0, 0]:.4f}")
labels = np.array(train.labels())
same = km.gram[np.ix_(labels == 1, labels == 1)].mean()
diff = km.gram[np.ix_(labels == 1, labels == 0)].mean()
print(f"\ngram {km.gram.shape}: case-case mean {same:.3f} vs case-control {diff:.3f}; "
      f"cross {km.cross.shape}")
