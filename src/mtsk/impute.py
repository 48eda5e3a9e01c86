"""Single imputation schemes for incomplete cohorts.

Three base methods (attribute mean, last observation carried forward,
zero) and a bias-corrected variant of each that stacks the observation
mask as extra attributes, giving the six complete datasets used by the
imputation-dependent kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import Cohort

BC_SUFFIX = "_obs"


class ImputationMethod(str, Enum):
    MEAN = "mean"
    LOCF = "locf"
    ZERO = "zero"


@dataclass
class ImputationSpec:
    """A fitted imputer: method, bias-correction flag and train attribute means."""

    method: ImputationMethod
    bias_correct: bool
    attribute_names: list[str]
    train_attribute_means: np.ndarray


def scheme_name(method: ImputationMethod, bias_correct: bool) -> str:
    return method.value + ("+bc" if bias_correct else "")


def parse_scheme(scheme: str) -> tuple[ImputationMethod, bool]:
    """Parse names like ``locf+bc`` into (method, bias_correct)."""
    base, plus, tail = scheme.partition("+")
    if plus and tail != "bc":
        raise ValueError(f"unknown imputation scheme {scheme!r}")
    try:
        return ImputationMethod(base), bool(plus)
    except ValueError:
        raise ValueError(f"unknown imputation scheme {scheme!r}") from None


ALL_SCHEMES = [scheme_name(m, bc) for m in ImputationMethod for bc in (False, True)]


def fit_imputer(
    train: Cohort, method: ImputationMethod, bias_correct: bool = False
) -> ImputationSpec:
    """Fit per-attribute means on the training set's observed cells only.

    The zero method never uses the means, so it tolerates attributes with
    no observations; mean and LOCF raise for them.
    """
    method = ImputationMethod(method)
    V = train.n_attributes
    if len(train) == 0:
        raise ValueError("cannot fit an imputer on an empty cohort")
    X, R = train.values, train.mask
    counts = R.sum(axis=(0, 2))  # per attribute
    sums = (X * R).sum(axis=(0, 2))
    if method != ImputationMethod.ZERO:
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            names = ", ".join(train.attribute_names[v] for v in empty)
            raise ValueError(f"attribute(s) with zero training observations: {names}")
    means = np.divide(sums, counts, out=np.zeros(V), where=counts > 0)
    return ImputationSpec(method, bool(bias_correct), list(train.attribute_names), means)


def _fill_locf(values: np.ndarray, mask: np.ndarray, means: np.ndarray) -> np.ndarray:
    T = values.shape[-1]
    # Index of the most recent observed day, -1 while none seen yet.
    last = np.maximum.accumulate(np.where(mask > 0, np.arange(T), -1), axis=-1)
    carried = np.take_along_axis(values, np.maximum(last, 0), axis=-1)
    return np.where(last >= 0, carried, means[:, None])


def impute(spec: ImputationSpec, cohort: Cohort) -> Cohort:
    """Produce a complete cohort; observed cells are never modified.

    With ``bias_correct`` the output doubles the attribute count by
    appending the original observation mask as a second block of
    time series (1 = observed, 0 = imputed).
    """
    if list(cohort.attribute_names) != spec.attribute_names:
        raise ValueError(
            "cohort attributes do not match the fitted imputer "
            f"({cohort.attribute_names} vs {spec.attribute_names}); "
            "bias-corrected output must not be imputed again"
        )
    out_names = list(spec.attribute_names)
    if spec.bias_correct:
        out_names += [name + BC_SUFFIX for name in spec.attribute_names]

    X, R = cohort.values, cohort.mask
    if spec.method == ImputationMethod.MEAN:
        filled = np.where(R > 0, X, spec.train_attribute_means[:, None])
    elif spec.method == ImputationMethod.LOCF:
        filled = _fill_locf(X, R, spec.train_attribute_means)
    else:
        filled = np.where(R > 0, X, 0.0)
    if spec.bias_correct:
        filled = np.concatenate([filled, R], axis=1)
    return Cohort._from_arrays(cohort.ids(), cohort.labels(), filled, np.ones_like(filled),
                               out_names)
