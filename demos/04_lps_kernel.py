"""Learned pattern similarity, step by step on one sample.

A series becomes a matrix of (segment window -> lagged value) rows; random
regression trees route those rows to terminal nodes; counting rows per node
gives a bag-of-words vector, and histogram intersection compares them.
"""
import numpy as np

from mtsk.cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
    train_test_split,
)
from mtsk.lps import build_segment_matrix, lps_gram, lps_kernel, lps_represent, lps_train

cohort = generate_synthetic_cohort(30, 90, 5, 20, 1.5, seed=0)
masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=1))
train, test = train_test_split(masked, 0.8, seed=2)

samples = train.samples  # per-patient views for the per-sample calls below
pred, tgt = build_segment_matrix(samples[0], segment_length=4, lag=2, v_pred=0, v_tgt=2)
print("segment matrix for one sample (l=4, p=2, attr 1 -> attr 3):")
print(f"  {pred.shape[0]} rows; first row {np.array2string(pred[0], precision=2)} "
      f"-> target {tgt[0]:.2f}")
print(f"  {int(np.isnan(pred).sum())} missing predictor cells carried as NaN\n")

forest = lps_train(train, n_trees=60, seed=3)
sizes = [t.n_leaves for t in forest.trees]
print(f"forest: {forest.n_trees} trees, {min(sizes)}-{max(sizes)} leaves each, "
      f"representation length {forest.representation_length}")

h0 = lps_represent(forest, samples[0])
h1 = lps_represent(forest, samples[1])
print(f"bag-of-words: block 0 of sample 1 = {h0.block(0).tolist()}")
print(f"kernel(sample1, sample2) = {lps_kernel(h0, h1):.4f}, "
      f"self-similarity = {lps_kernel(h0, h0):.4f}")

km = lps_gram(forest, train, test).validate()
labels = np.array(train.labels())
same = km.gram[np.ix_(labels == 1, labels == 1)].mean()
diff = km.gram[np.ix_(labels == 1, labels == 0)].mean()
print(f"\ngram {km.gram.shape}: case-case mean {same:.3f} vs case-control {diff:.3f}; "
      f"cross {km.cross.shape}")
