"""Learned pattern similarity, step by step on a whole cohort.

A series becomes a matrix of (segment window -> lagged value) rows; random
regression trees route those rows to terminal nodes; counting rows per node
gives a bag-of-words vector, and histogram intersection compares them.
"""
import numpy as np

from mtsk.cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
    train_test_split,
)
from mtsk.lps import build_segment_matrix, lps_gram, lps_represent, lps_train

cohort = generate_synthetic_cohort(30, 90, 5, 20, 1.5, seed=0)
masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=1))
train, test = train_test_split(masked, 0.8, seed=2)

pred, tgt = build_segment_matrix(train, segment_length=4, lag=2, v_pred=0, v_tgt=2)
print("segment rows of the train cohort (l=4, p=2, attr 1 -> attr 3):")
print(f"  {pred.shape[1]} rows per patient; first row of patient 1 "
      f"{np.array2string(pred[0, 0], precision=2)} -> target {tgt[0, 0]:.2f}")
print(f"  {int(np.isnan(pred[0]).sum())} missing predictor cells of patient 1 carried as NaN\n")

forest = lps_train(train, n_trees=60, seed=3)
sizes = [t.n_leaves for t in forest.trees]
print(f"forest: {forest.n_trees} trees, {min(sizes)}-{max(sizes)} leaves each, "
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
