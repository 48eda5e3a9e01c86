"""Incomplete multivariate time series cohorts.

A cohort is a set of patients, each described by a V x T grid of values
(one row per attribute, one column per day) together with a binary
observation mask.  Missing cells are represented by mask = 0; whatever
value is stored underneath a masked cell must never influence any
computation.  A ``Cohort`` stores the whole set densely, as (N, V, T)
value and mask arrays, and every transform here works on those arrays.  A
per-patient ``MTSample`` is a plain record, checked by the cohort built from it.
"""
from __future__ import annotations

import csv
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

logger = logging.getLogger(__name__)

# Samples with fewer observed cells than this are excluded from cohorts.
MIN_OBSERVED_CELLS = 2

CSV_HEADER = ["patient_id", "label", "day", "attribute", "value"]


def _require_distinct(what: str, names) -> None:
    if repeated := [name for name, count in Counter(names).items() if count > 1]:
        raise ValueError(f"duplicate {what} {repeated[0]!r}")


class CohortFormatError(ValueError):
    """Raised when a cohort CSV file does not conform to the long format."""


@dataclass
class MTSample:
    """One patient: a V x T value grid, its observation mask and an optional label."""

    id: str
    values: np.ndarray
    mask: np.ndarray
    label: int | None = None


class Cohort:
    """A set of patients sharing attribute names and window length.

    Stored dense: ``values`` and ``mask`` are read-only float arrays of shape
    (N, V, T = ``window_length``), row i belonging to ``ids()[i]`` and ``labels()[i]``.
    ``Cohort(samples, attribute_names, window_length)`` builds one from ``MTSample``
    records, which it checks; ``samples`` gives those records back as views.
    """

    def __init__(self, samples: list[MTSample], attribute_names: list[str],
                 window_length: int):
        _require_distinct("attribute name", attribute_names)
        shape = (len(attribute_names), window_length)
        for s in samples:
            if (got := np.shape(s.values)) != shape or (got := np.shape(s.mask)) != shape:
                raise ValueError(f"sample {s.id!r} has shape {got}, cohort expects {shape}")
        values, mask = (np.array([getattr(s, a) for s in samples], dtype=float)
                        .reshape(len(samples), *shape) for a in ("values", "mask"))
        faults = np.array([~np.isin(mask, (0.0, 1.0)).all(axis=(1, 2)),
                           ~np.isfinite(values).all(axis=(1, 2)),
                           [s.label is not None and (np.asarray(s.label).dtype.kind not in "iu"
                                                     or np.ndim(s.label) or s.label not in (0, 1))
                            for s in samples]]).T
        if faults.any():  # the first fault, in this order, of the first sample with one
            i, k = divmod(int(faults.argmax()), 3)
            raise ValueError(f"sample {samples[i].id!r}: " + ("mask entries must be 0 or 1",
                             "values must be finite", "label must be 0, 1 or None")[k])
        vars(self).update(vars(Cohort._from_arrays(  # the array constructor's checks and fields
            [s.id for s in samples], [s.label for s in samples], values, mask, attribute_names)))

    @classmethod
    def _from_arrays(cls, ids, labels, values, mask, attribute_names) -> "Cohort":
        _require_distinct("sample id", ids)
        n_observed = mask.sum(axis=(1, 2))
        low = np.flatnonzero(n_observed < MIN_OBSERVED_CELLS)
        if low.size:
            raise ValueError(
                f"sample {ids[low[0]]!r} has {int(n_observed[low[0]])} observed cells, "
                f"minimum is {MIN_OBSERVED_CELLS}"
            )
        cohort = cls.__new__(cls)
        cohort.values = np.ascontiguousarray(values, dtype=float)
        cohort.mask = np.ascontiguousarray(mask, dtype=float)
        cohort.values.flags.writeable = False
        cohort.mask.flags.writeable = False
        cohort._ids = list(ids)
        cohort._labels = list(labels)
        cohort.attribute_names = list(attribute_names)
        return cohort

    def __reduce__(self):
        # Unpickle (e.g. in a sweep worker) through the array constructor: read-only again.
        return Cohort._from_arrays, (self._ids, self._labels, self.values, self.mask,
                                     self.attribute_names)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_names)

    @property
    def window_length(self) -> int:
        return self.values.shape[2]

    @property
    def samples(self) -> list[MTSample]:
        """One ``MTSample`` per patient, viewing the cohort's arrays."""
        return [
            MTSample(i, v, m, lab)
            for i, lab, v, m in zip(self._ids, self._labels, self.values, self.mask)
        ]

    def ids(self) -> list[str]:
        return list(self._ids)

    def labels(self) -> list[int | None]:
        return list(self._labels)

    @property
    def is_complete(self) -> bool:
        return bool(self.mask.all())

    def missing_fraction(self) -> float:
        return float(1.0 - self.mask.mean()) if self.mask.size else 0.0


def _keep_observed(ids, labels, values, mask, attribute_names, warning, *args):
    """The cohort of the rows with enough observed cells.  If a row is dropped, ``warning``
    is logged with ``args``, the number of rows dropped and the minimum."""
    keep = np.flatnonzero(mask.sum(axis=(1, 2)) >= MIN_OBSERVED_CELLS)
    cohort = Cohort._from_arrays([ids[i] for i in keep], [labels[i] for i in keep],
                                 values[keep], mask[keep], attribute_names)
    if keep.size < len(ids):
        logger.warning(warning, *args, len(ids) - keep.size, MIN_OBSERVED_CELLS)
    return cohort


class Missingness(str, Enum):
    MCAR = "mcar"
    MAR = "mar"
    MNAR = "mnar"


@dataclass(frozen=True)
class MissingnessSpec:
    """Which cells to hide: mechanism, marginal rate and seed."""

    mechanism: Missingness
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")


# ---------------------------------------------------------------------------
# File ingestion


_LABEL_CODES = {"0": 0, "1": 1, "NA": 2, "": 2}  # label code 2 stands for NA
_BATCH_RECORDS = 512  # records converted at once; batches of 8192 measured slower


def _check_record(raw: list[str], lineno: int) -> None:
    """Raise the parse fault of one non-blank data record, if it has one."""
    if len(raw) != 5:
        raise CohortFormatError(f"line {lineno}: expected 5 fields, got {len(raw)}")
    pid, label_txt, day_txt, _, val_txt = (f.strip() for f in raw)
    if not pid:
        raise CohortFormatError(f"line {lineno}: empty patient_id")
    if label_txt not in _LABEL_CODES:
        raise CohortFormatError(f"line {lineno}: label must be 0, 1 or NA, got {label_txt!r}")
    for text, convert, what in ((day_txt, int, "day must be an integer"),
                                (val_txt, float, "value must be a number")):
        try:
            convert(text)
        except ValueError:
            raise CohortFormatError(f"line {lineno}: {what}, got {text!r}")
    if not np.isfinite(float(val_txt)):
        raise CohortFormatError(f"line {lineno}: value must be finite, got {val_txt!r}")


def _parse_batch(batch: list[list[str]], lines: np.ndarray, patients: dict, attributes: dict):
    """Patient and attribute codes (a name's first record number), day, value, label code and
    record number of non-blank records.  A batch that does not convert raises its first fault."""
    try:
        pid, label, day, attr, value = (list(map(str.strip, c)) for c in zip(*batch, strict=True))
        label = np.fromiter(map(_LABEL_CODES.__getitem__, label), np.int8, len(batch))
        value = np.fromiter(map(float, value), float, len(batch))
        if "" in pid or not np.isfinite(value).all():
            raise ValueError
        day = np.fromiter(map(int, day), np.int64, len(batch))
    except (KeyError, ValueError):
        for raw, lineno in zip(batch, lines.tolist()):
            _check_record(raw, lineno)
        raise
    except OverflowError:  # a day past int64 can only fail the range check: keep it exact
        day = np.fromiter(map(int, day), object, len(batch))
    pid, attr = (np.fromiter(map(names.setdefault, col, lines.tolist()), np.int64, len(col))
                 for names, col in ((patients, pid), (attributes, attr)))
    return pid, attr, day, value, label, lines


def load_cohort(
    path,
    window_length: int | None = None,
    attributes: list[str] | None = None,
) -> Cohort:
    """Read a long-format CSV (one row per observation) into a Cohort.

    Cells without a row are missing.  ``window_length`` defaults to the
    largest day in the file; ``attributes`` restricts/orders the attribute
    set, otherwise it is inferred and sorted.  Patients with fewer than
    two observations are excluded (a warning reports how many).  An error names
    the first offending CSV record, the header being line 1; a row that does not
    parse is reported before any fault between rows.
    """
    patients, seen, batches = {}, {}, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)  # None for an empty file, which has no batch below
        if header is not None and [h.strip() for h in header] != CSV_HEADER:
            raise CohortFormatError(
                f"line 1: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        start = 2
        while batch := list(itertools.islice(reader, _BATCH_RECORDS)):
            lines = np.arange(start, start + len(batch))
            start += len(batch)
            if set(map(len, batch)) != {5}:  # blank rows are skipped
                keep = [i for i, r in enumerate(batch) if len(r) > 1 or r and r[0].strip()]
                batch, lines = [batch[i] for i in keep], lines[keep]
            if batch:
                batches.append(_parse_batch(batch, lines, patients, seen))

    attr_names = list(attributes) if attributes is not None else sorted(seen)
    _require_distinct("attribute name", attr_names)
    if not batches:
        return Cohort._from_arrays([], [], *np.zeros((2, 0, len(attr_names), window_length or 0)),
                                   attr_names)
    pid, raw_attr, day, value, label, lines = map(np.concatenate, zip(*batches))
    # A file whose days are all below 1 gives an empty window, and its first row is reported.
    T = window_length if window_length is not None else max(int(day.max()), 0)
    attr_index = {a: i for i, a in enumerate(attr_names)}
    raw_attr = np.unique(raw_attr, return_inverse=True)[1]  # codes in order of appearance
    attr = np.array([attr_index.get(a, -1) for a in seen])[raw_attr]
    values, mask = np.zeros((2, len(patients), len(attr_names), T))
    # A patient's first record sets its label; a cell's later records are duplicates.
    _, first, pid = np.unique(pid, return_index=True, return_inverse=True)
    cells = (pid * len(attr_names) + attr) * T + day - 1
    dup = np.ones(len(cells), dtype=bool)
    dup[np.unique(cells, return_index=True)[1]] = False
    fault = (attr < 0) | (day < 1) | (day > T) | dup | (label != label[first][pid])
    if fault.any():  # the first offending record, checked in the row reader's order
        r = np.argmax(fault)
        p, d, a = list(patients)[pid[r]], day[r], list(seen)[raw_attr[r]]
        raise CohortFormatError(f"line {lines[r]}: " + (
            f"unknown attribute {a!r}" if attr[r] < 0 else
            f"day {d} outside [1, {T}]" if not 1 <= d <= T else
            f"duplicate observation for ({p}, day {d}, {a})" if dup[r] else
            f"inconsistent label for patient {p!r}"))
    values.ravel()[cells] = value
    mask.ravel()[cells] = 1.0
    labels = [(0, 1, None)[code] for code in label[first].tolist()]
    return _keep_observed(list(patients), labels, values, mask, attr_names,
                          "excluded %d patient(s) with fewer than %d observations")


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort as a long CSV, quoted as by csv.writer; masked cells produce no row."""
    ids, names = cohort.ids(), cohort.attribute_names
    if bad := [name for name in (*ids, *names) if not name or name != name.strip()]:
        raise ValueError(f"id or attribute name {bad[0]!r} is empty or has leading or trailing "
                         "whitespace; load_cohort, which strips fields, would not read it back")
    quoted = []  # each (id, label) and (name,) row as csv.writer writes it, less its "\r\n"
    csv.writer(SimpleNamespace(write=lambda row: quoted.append(row[:-2]))).writerows([
        *zip(ids, ("NA" if lab is None else lab for lab in cohort.labels())), *zip(names)])
    prefix, names = quoted[:len(ids)], quoted[len(ids):]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for p, head in enumerate(prefix):  # one patient's rows at a time
            v, t = np.nonzero(cohort.mask[p])  # C order: attribute, then day
            cells = zip(v.tolist(), t.tolist(), cohort.values[p][v, t].tolist())
            fh.write("".join(f"{head},{d + 1},{names[a]},{x!r}\n" for a, d, x in cells))


# ---------------------------------------------------------------------------
# Synthetic cohorts

# Plateau amplitude of the case bump, in units of effect_size * attribute std.
_BUMP_SCALE = 0.7
_RAMP_DAYS = 3
# Share of the attributes, rounded up, that carry the case bump.
_SIGNAL_FRACTION = 0.5


def generate_synthetic_cohort(
    n_cases: int,
    n_controls: int,
    n_attributes: int,
    n_days: int,
    effect_size: float,
    seed: int,
) -> Cohort:
    """Generate a fully observed cohort of controls plus cases carrying a bump.

    Controls are stationary Gaussian noise around attribute-specific
    baselines.  Cases are identical except that half of the attributes
    (rounded up) gain an additive response: zero before a
    random onset day in [3, T/2], a 3-day linear ramp, then a plateau whose
    height is ``effect_size`` scaled by the attribute's standard deviation.
    Deterministic for a fixed seed.
    """
    if n_cases < 1 or n_controls < 1 or n_attributes < 1 or n_days < 1:
        raise ValueError(f"all counts must be positive, got cases={n_cases}, "
                         f"controls={n_controls}, attributes={n_attributes}, days={n_days}")
    if effect_size < 0:
        raise ValueError(f"effect_size must be >= 0, got {effect_size}")
    rng = np.random.default_rng([7, seed])
    V, T = n_attributes, n_days

    base_mean = rng.uniform(6.0, 14.0, size=V)
    base_std = rng.uniform(0.8, 1.6, size=V)
    n_signal = int(np.ceil(_SIGNAL_FRACTION * V))
    signal_attrs = np.sort(rng.choice(V, size=n_signal, replace=False))

    onset_lo = min(3, T)
    onset_hi = max(onset_lo, T // 2)

    width = max(2, len(str(V)))
    attr_names = [f"attr{v + 1:0{width}d}" for v in range(V)]
    pad = len(str(max(n_cases, n_controls)))

    # Draws stay in per-case order: each case's noise, then its onset day.
    values = np.empty((n_cases + n_controls, V, T))
    onsets = np.empty(n_cases, dtype=int)
    for i in range(n_cases):
        values[i] = base_mean[:, None] + base_std[:, None] * rng.standard_normal((V, T))
        onsets[i] = rng.integers(onset_lo, onset_hi + 1)
    values[n_cases:] = (
        base_mean[:, None] + base_std[:, None] * rng.standard_normal((n_controls, V, T))
    )
    # Ramp factors over days: 0 before onset, 1/3, 2/3 then plateau at 1.
    day = np.arange(1, T + 1)
    ramp = np.clip((day[None, :] - onsets[:, None] + 1) / _RAMP_DAYS, 0.0, 1.0)
    amp = effect_size * _BUMP_SCALE * base_std[signal_attrs]
    values[:n_cases, signal_attrs] += amp[None, :, None] * ramp[:, None, :]
    ids = [f"case{i + 1:0{pad}d}" for i in range(n_cases)]
    ids += [f"ctrl{i + 1:0{pad}d}" for i in range(n_controls)]
    labels = [1] * n_cases + [0] * n_controls
    return Cohort._from_arrays(ids, labels, values, np.ones_like(values), attr_names)


# ---------------------------------------------------------------------------
# Missingness mechanisms


def _sigmoid(x, out):
    """1 / (1 + exp(-x)) into ``out`` from one exp(-|x|) pass, overwriting ``x``."""
    pos = x >= 0
    e = np.exp(np.negative(np.abs(x, out=out), out=out), out=out)
    den = np.add(e, 1.0, out=x)
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, den, out=e)


_CALIBRATION_CELLS = 100_000


def _calibrate_intercept(scores: np.ndarray, rate: float, rng) -> float:
    """Bisect the logistic intercept a so that mean(sigmoid(a - s)) == rate.

    Uses at most ~1e5 cells; with more, a seeded subsample estimates the
    marginal rate.
    """
    s = scores.ravel()
    if s.size > _CALIBRATION_CELLS:
        s = rng.choice(s, size=_CALIBRATION_CELLS, replace=False)
    x, out = np.empty_like(s), np.empty_like(s)
    lo, hi = -40.0, 40.0
    for _ in range(80):
        if not lo < (mid := 0.5 * (lo + hi)) < hi:  # lo, hi adjacent: no later step moves them
            break
        if _sigmoid(np.subtract(mid, s, out=x), out).mean() < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def apply_missingness(cohort: Cohort, spec: MissingnessSpec) -> Cohort:
    """Hide cells of a fully observed cohort per the missingness spec.

    MCAR masks each cell independently.  MAR masks a cell with probability
    logistic in the mean z-score of the *other* attributes on the same day
    (healthier-looking days are measured less).  MNAR uses the cell's own
    z-score, so low values are more likely to go missing.  The MAR/MNAR
    intercept is calibrated so the marginal missing rate matches ``rate``.
    Samples left with fewer than two observed cells are dropped.
    """
    if spec.rate >= 1.0:
        raise ValueError("rate = 1 would produce a degenerate, fully masked cohort")
    if not cohort.is_complete:
        raise ValueError("apply_missingness expects a fully observed cohort")
    if len(cohort) == 0 or spec.rate == 0.0:
        return cohort

    X = cohort.values
    N, V, T = X.shape
    rng = np.random.default_rng([11, spec.seed])

    if spec.mechanism == Missingness.MCAR:
        prob = np.full((N, V, T), spec.rate)
    else:
        mean_v = X.mean(axis=(0, 2))
        std_v = X.std(axis=(0, 2))
        std_v[std_v == 0] = 1.0
        z = (X - mean_v[None, :, None]) / std_v[None, :, None]
        if spec.mechanism == Missingness.MNAR:
            score = z
        else:  # MAR
            if V < 2:
                raise ValueError("MAR requires at least 2 attributes")
            score = (z.sum(axis=1, keepdims=True) - z) / (V - 1)
        a = _calibrate_intercept(score, spec.rate, rng)
        prob = _sigmoid(a - score, np.empty_like(score))

    hide = rng.random((N, V, T)) < prob
    return _keep_observed(cohort.ids(), cohort.labels(), X, np.where(hide, 0.0, 1.0),
                          cohort.attribute_names,
                          "dropped %d sample(s) reduced below %d observations by masking")


# ---------------------------------------------------------------------------
# Splitting and windowing


def train_test_split(
    cohort: Cohort,
    train_fraction: float,
    seed: int,
    stratify: bool = False,
) -> tuple[Cohort, Cohort]:
    """Seeded shuffle split into (train, test) with |train| = round(fraction * N).

    Unstratified by default; ``stratify=True`` splits each label group
    proportionally instead.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    N = len(cohort)
    rng = np.random.default_rng([23, seed])
    ids, labels = cohort.ids(), cohort.labels()
    groups = [np.arange(N)]  # an unstratified split shuffles one group
    if stratify:
        if any(lab is None for lab in labels):
            raise ValueError("stratified split requires labels on every sample")
        groups = [np.flatnonzero(np.array(labels) == lab) for lab in sorted(set(labels))]
    train_idx, test_idx = [], []
    for members in groups:
        perm = members[rng.permutation(members.size)]
        n_tr = int(np.floor(train_fraction * members.size + 0.5))
        train_idx.extend(perm[:n_tr].tolist())
        test_idx.extend(perm[n_tr:].tolist())
    if not train_idx or not test_idx:
        raise ValueError(f"split of {N} samples at fraction {train_fraction} leaves a side empty")

    def take(rows):
        return Cohort._from_arrays(
            [ids[i] for i in rows], [labels[i] for i in rows], cohort.values[rows],
            cohort.mask[rows], cohort.attribute_names,
        )

    return take(train_idx), take(test_idx)


def truncate_window(cohort: Cohort, days: int) -> Cohort:
    """Keep only the first ``days`` columns; drop samples left under-observed."""
    if not 1 <= days <= cohort.window_length:
        raise ValueError(f"days must be in [1, {cohort.window_length}], got {days}")
    return _keep_observed(
        cohort.ids(), cohort.labels(), cohort.values[:, :, :days], cohort.mask[:, :, :days],
        cohort.attribute_names,
        "truncation to %d day(s) dropped %d sample(s) below %d observations", days,
    )
