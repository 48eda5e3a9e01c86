import contextlib
import csv
import io
import logging
import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mtsk import cohort as cohort_module
from mtsk.cohort import (
    CSV_HEADER,
    MIN_OBSERVED_CELLS,
    Cohort,
    CohortFormatError,
    Missingness,
    MissingnessSpec,
    MTSample,
    apply_missingness,
    generate_synthetic_cohort,
    load_cohort,
    train_test_split,
    truncate_window,
    write_cohort,
)
from mtsk.impute import ImputationMethod, fit_imputer, impute


def _write(tmp_path, text, name="cohort.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


HEADER = "patient_id,label,day,attribute,value\n"


class TestArrays:
    def test_caller_arrays_stay_writable_and_apart_from_the_cohort(self):
        values, mask = np.arange(6.0).reshape(2, 3), np.ones((2, 3))
        sample = MTSample("a", values, mask)
        assert values.flags.writeable and mask.flags.writeable
        cohort = Cohort([sample, MTSample("b", np.zeros((2, 3)), np.ones((2, 3)))],
                        ["x", "y"], 3)
        values[0, 0], mask[0, 0] = 99.0, 0.0
        assert cohort.values[0, 0, 0] == 0.0 and cohort.mask[0, 0, 0] == 1.0
        view = cohort.samples[0]
        assert not view.values.flags.writeable and not view.mask.flags.writeable


class TestLoad:
    def test_rows_map_to_cells(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,3,CRP,40.0\np1,1,5,CRP,90.0\n")
        cohort = load_cohort(path, window_length=20)
        assert len(cohort) == 1
        s = cohort.samples[0]
        assert s.mask.sum() == 2
        assert s.values[0, 2] == 40.0 and s.values[0, 4] == 90.0
        assert s.label == 1
        assert cohort.window_length == 20

    def test_single_observation_patient_excluded(self, tmp_path, caplog):
        path = _write(
            tmp_path,
            HEADER + "p1,1,3,CRP,40.0\np1,1,5,CRP,90.0\np2,0,4,CRP,10.0\n",
        )
        with caplog.at_level(logging.WARNING):
            cohort = load_cohort(path, window_length=20)
        assert cohort.ids() == ["p1"]
        assert "excluded 1 patient(s)" in caplog.text

    def test_empty_file(self, tmp_path):
        cohort = load_cohort(_write(tmp_path, HEADER))
        assert len(cohort) == 0
        cohort = load_cohort(_write(tmp_path, "", name="blank.csv"))
        assert len(cohort) == 0

    def test_empty_file_keeps_requested_shape(self, tmp_path):
        for text in ("", HEADER):
            cohort = load_cohort(_write(tmp_path, text), window_length=7, attributes=["CRP"])
            assert (len(cohort), cohort.attribute_names, cohort.window_length) == (0, ["CRP"], 7)

    @pytest.mark.parametrize("text, message", [
        ("id,day\n", "line 1: expected header patient_id,label,day,attribute,value, got id,day"),
        (HEADER + "p1,1,3,CRP\n", "line 2: expected 5 fields, got 4"),
        (HEADER + " ,1,3,CRP,1\n", "line 2: empty patient_id"),
        (HEADER + "p1,2,3,CRP,1\n", "line 2: label must be 0, 1 or NA, got '2'"),
        (HEADER + "p1,1,x,CRP,1\n", "line 2: day must be an integer, got 'x'"),
        (HEADER + "p1,1,3,CRP,y\n", "line 2: value must be a number, got 'y'"),
        (HEADER + "p1,1,3,CRP,inf\n", "line 2: value must be finite, got 'inf'"),
        (HEADER + "p1,1,3,CRP,1\np1,1,4,WBC,1\n", "line 3: unknown attribute 'WBC'"),
        (HEADER + "p1,1,3,CRP,1\np1,1,30,CRP,1\n", "line 3: day 30 outside [1, 20]"),
        (HEADER + "p1,1,3,CRP,1\np1,1,3,CRP,2\n",
         "line 3: duplicate observation for (p1, day 3, CRP)"),
        (HEADER + "p1,1,3,CRP,1\np1,0,4,CRP,2\n", "line 3: inconsistent label for patient 'p1'"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        with pytest.raises(CohortFormatError) as err:
            load_cohort(_write(tmp_path, text), window_length=20, attributes=["CRP"])
        assert str(err.value) == message

    def test_repeated_attribute_name_rejected(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,1,attr01,1.0\np1,1,2,attr01,2.0\n")
        with pytest.raises(ValueError, match="^duplicate attribute name 'attr01'$"):
            load_cohort(path, attributes=["attr01", "attr01"])

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,3,CRP,40.0\np1,1,nope,CRP,1.0\n")
        with pytest.raises(CohortFormatError, match="line 3"):
            load_cohort(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,3,CRP,40.0\np1,1,3,CRP,41.0\n")
        with pytest.raises(CohortFormatError, match="duplicate"):
            load_cohort(path)

    def test_unknown_attribute_rejected(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,3,CRP,40.0\np1,1,4,WBC,5.0\n")
        with pytest.raises(CohortFormatError, match="unknown attribute 'WBC'"):
            load_cohort(path, attributes=["CRP"])

    def test_day_outside_window_rejected(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,3,CRP,40.0\np1,1,25,CRP,1.0\n")
        with pytest.raises(CohortFormatError, match="day 25"):
            load_cohort(path, window_length=20)

    def test_days_all_below_one_rejected(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,-3,CRP,40.0\np1,1,-2,CRP,1.0\n")
        with pytest.raises(CohortFormatError, match=r"line 2: day -3 outside"):
            load_cohort(path)

    def test_day_past_int64_reported_exactly(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,3,CRP,1\np1,1,99999999999999999999,CRP,2\n")
        with pytest.raises(CohortFormatError) as err:
            load_cohort(path, window_length=5)
        assert str(err.value) == "line 3: day 99999999999999999999 outside [1, 5]"

    def test_inconsistent_label_rejected(self, tmp_path):
        path = _write(tmp_path, HEADER + "p1,1,3,CRP,40.0\np1,0,4,CRP,1.0\n")
        with pytest.raises(CohortFormatError, match="inconsistent label"):
            load_cohort(path)

    def test_bad_header_rejected(self, tmp_path):
        path = _write(tmp_path, "id,day,attr,value\np1,3,CRP,40.0\n")
        with pytest.raises(CohortFormatError, match="line 1"):
            load_cohort(path)


def _parse_label(text, lineno):
    if text in ("NA", ""):
        return None
    if text in ("0", "1"):
        return int(text)
    raise CohortFormatError(f"line {lineno}: label must be 0, 1 or NA, got {text!r}")


def _row_loader(path, window_length=None, attributes=None):
    """The oracle: ``load_cohort`` as it was when it checked and stored one row at a time."""
    rows = []  # (patient_id, label, day, attribute, value, lineno)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and [h.strip() for h in header] != CSV_HEADER:
            raise CohortFormatError(
                f"line 1: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != 5:
                raise CohortFormatError(f"line {lineno}: expected 5 fields, got {len(raw)}")
            pid, label_txt, day_txt, attr, val_txt = (f.strip() for f in raw)
            if not pid:
                raise CohortFormatError(f"line {lineno}: empty patient_id")
            label = _parse_label(label_txt, lineno)
            try:
                day = int(day_txt)
            except ValueError:
                raise CohortFormatError(f"line {lineno}: day must be an integer, got {day_txt!r}")
            try:
                value = float(val_txt)
            except ValueError:
                raise CohortFormatError(f"line {lineno}: value must be a number, got {val_txt!r}")
            if not np.isfinite(value):
                raise CohortFormatError(f"line {lineno}: value must be finite, got {val_txt!r}")
            rows.append((pid, label, day, attr, value, lineno))

    if not rows:
        return Cohort([], list(attributes or []), window_length or 0)

    max_day = max(r[2] for r in rows)
    T = window_length if window_length is not None else max(max_day, 0)
    attr_names = list(attributes) if attributes is not None else sorted({r[3] for r in rows})
    attr_index = {a: i for i, a in enumerate(attr_names)}
    patient = {pid: i for i, pid in enumerate(dict.fromkeys(r[0] for r in rows))}
    labels = {}
    values = np.zeros((len(patient), len(attr_names), T))
    mask = np.zeros_like(values)
    for pid, label, day, attr, value, lineno in rows:
        if attr not in attr_index:
            raise CohortFormatError(f"line {lineno}: unknown attribute {attr!r}")
        if not 1 <= day <= T:
            raise CohortFormatError(f"line {lineno}: day {day} outside [1, {T}]")
        cell = (patient[pid], attr_index[attr], day - 1)
        if mask[cell]:
            raise CohortFormatError(
                f"line {lineno}: duplicate observation for ({pid}, day {day}, {attr})"
            )
        if labels.setdefault(pid, label) != label:
            raise CohortFormatError(f"line {lineno}: inconsistent label for patient {pid!r}")
        values[cell] = value
        mask[cell] = 1.0

    ids, labs = list(patient), list(labels.values())
    keep = np.flatnonzero(mask.sum(axis=(1, 2)) >= MIN_OBSERVED_CELLS)
    cohort = Cohort._from_arrays([ids[i] for i in keep], [labs[i] for i in keep], values[keep],
                                 mask[keep], attr_names)
    if keep.size < len(ids):
        logging.getLogger("mtsk.cohort").warning(
            "excluded %d patient(s) with fewer than %d observations",
            len(ids) - keep.size, MIN_OBSERVED_CELLS,
        )
    return cohort


@contextlib.contextmanager
def _cohort_log():
    """The records that ``mtsk.cohort`` logs inside the block, as (level, msg, args)."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda r: records.append((r.levelno, r.msg, r.args))
    logger = logging.getLogger("mtsk.cohort")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def _outcome(load, path, **kwargs):
    """What one loader makes of a file: its error, or its cohort, plus its log records."""
    with _cohort_log() as records:
        try:
            return load(path, **kwargs), records
        except Exception as exc:
            return exc, records


def _assert_same_outcome(path, **kwargs):
    got, got_log = _outcome(load_cohort, path, **kwargs)
    want, want_log = _outcome(_row_loader, path, **kwargs)
    assert got_log == want_log
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return got
    for a, b in ((got.values, want.values), (got.mask, want.mask)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got.ids() == want.ids()
    assert [(type(x), x) for x in got.labels()] == [(type(x), x) for x in want.labels()]
    assert got.attribute_names == want.attribute_names
    assert (type(got.window_length), got.window_length) == \
        (type(want.window_length), want.window_length)
    return got


# Each name and number comes in spellings that read the same after stripping: quoted
# names with commas, quotes and newlines, padded fields, and numerals that Python reads
# but numpy's string casts may not.
_IDS = [["p1", " p1 "], ["a,b"], ['q"x', ' q"x'], ["n\nl"]]
_ATTRS = [["CRP", " CRP "], ["W,BC"], [' "a" '], ["x\r\ny"]]
_LABELS = {0: ["0", " 0"], 1: ["1", " 1 "], None: ["NA", "", " NA "]}
_DAYS = {1: ["1", "+1", "0_1"], 2: ["2", " 2 "], 3: ["3", "٣"], 4: ["4"], 5: ["5", "+5"],
         6: ["6"]}
_VALUES = ["1.5", "-0.0", "+5", "1_0", " 3 ", "1e3", "٣", "2.25", "-7", "1e-320"]
# Faults, as (field, text): those found between rows, then those that stop a row parsing.
_CROSS_ROW_FAULTS = [("duplicate", None), ("label", None), (2, "0"), (2, "7"), (2, "-1"),
                     (2, "99999999999999999999"), (3, "ZZZ")]
_PARSE_FAULTS = [(0, ""), (0, "  "), (1, "2"), (1, "x"), (2, "x"), (2, ""), (2, "1.0"),
                 (4, "y"), (4, "inf"), (4, "nan"), (4, "1e400"), (4, ""), ("fields", 4),
                 ("fields", 6)]


@st.composite
def _cohort_csv(draw):
    """Long-format CSV text with LF or CRLF line ends, blank rows and up to two faults."""
    labels = [draw(st.sampled_from(list(_LABELS))) for _ in _IDS]
    cells = draw(st.lists(st.tuples(st.integers(0, len(_IDS) - 1),
                                    st.integers(0, len(_ATTRS) - 1), st.integers(1, 6)),
                          unique=True, min_size=3, max_size=24))
    rows = [[draw(st.sampled_from(_IDS[p])), draw(st.sampled_from(_LABELS[labels[p]])),
             draw(st.sampled_from(_DAYS[d])), draw(st.sampled_from(_ATTRS[a])),
             draw(st.sampled_from(_VALUES))] for p, a, d in cells]
    kinds = draw(st.sampled_from([[], [_CROSS_ROW_FAULTS], [_PARSE_FAULTS],
                                  [_CROSS_ROW_FAULTS, _PARSE_FAULTS],
                                  [_CROSS_ROW_FAULTS, _CROSS_ROW_FAULTS],
                                  [_PARSE_FAULTS, _PARSE_FAULTS]]))
    i = None  # a second fault lands on the first one's record half of the time
    for field, text in (draw(st.sampled_from(faults)) for faults in kinds):
        i = draw(st.integers(0, len(rows) - 1)) if i is None or draw(st.booleans()) else i
        if field == "fields":
            rows[i] = (rows[i] + ["extra"])[:text]
        elif field == "duplicate":
            rows.insert(draw(st.integers(i + 1, len(rows))), rows[i][:4] + ["9.5"])
        elif len(rows[i]) < 5:  # a record cut short by a first fault keeps it
            continue
        elif field == "label":
            rows[i][1] = "1" if rows[i][1].strip() == "0" else "0"
        else:
            rows[i][field] = text
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "   ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(draw(st.sampled_from([CSV_HEADER, [" patient_id ", *CSV_HEADER[1:]]])))
    for row in rows:
        if isinstance(row, str):
            out.write(row + end)
        else:
            writer.writerow(row)
    return out.getvalue()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


class TestRowLoaderOracle:
    """``load_cohort`` against the row-by-row loader it replaced: the same cohort, log
    records and errors, on every batch size."""

    @settings(max_examples=300)
    @given(text=_cohort_csv(), batch=st.sampled_from([1, 2, 3, cohort_module._BATCH_RECORDS]),
           window_length=st.sampled_from([None, 6, 9]),
           attributes=st.sampled_from([None, ["x\r\ny", "CRP", '"a"', "W,BC", "K"],
                                       ["CRP", "W,BC", '"a"']]))
    def test_matches_row_loader(self, csv_dir, text, batch, window_length, attributes):
        path = _write(csv_dir, text)
        with mock.patch.object(cohort_module, "_BATCH_RECORDS", batch):
            _assert_same_outcome(path, window_length=window_length, attributes=attributes)

    @pytest.mark.parametrize("text, message", [
        # A cross-row fault on an early record loses to a parse fault on a later one.
        (HEADER + "p1,1,3,CRP,1\np1,1,3,CRP,2\np1,1,x,CRP,1\n",
         "line 4: day must be an integer, got 'x'"),
        (HEADER + "p1,1,3,WBC,1\np1,1,4,CRP,1\np2,1,4,CRP,inf\n",
         "line 4: value must be finite, got 'inf'"),
        # Two faults on one record: the row reader's order of checks decides.
        (HEADER + " ,2,x,CRP,y\n", "line 2: empty patient_id"),
        (HEADER + "p1,2,x,CRP,y\n", "line 2: label must be 0, 1 or NA, got '2'"),
        (HEADER + "p1,1,x,CRP,y\n", "line 2: day must be an integer, got 'x'"),
        (HEADER + "p1,1,3,CRP,1\np1,1,30,WBC,1\n", "line 3: unknown attribute 'WBC'"),
        (HEADER + "p1,1,3,CRP,1\np1,0,3,CRP,2\n",
         "line 3: duplicate observation for (p1, day 3, CRP)"),
        # Record numbers count CSV records: blank rows count, an embedded newline does not.
        (HEADER + '"p\n1",1,3,CRP,1\np2,1,x,CRP,1\n', "line 3: day must be an integer, got 'x'"),
        (HEADER + "\n  \np1,1,3,CRP,1\np1,1,3,CRP,2\n",
         "line 5: duplicate observation for (p1, day 3, CRP)"),
        # A day past int64 is reported exactly.
        (HEADER + "p1,1,3,CRP,1\np1,1,99999999999999999999,CRP,2\n",
         "line 3: day 99999999999999999999 outside [1, 20]"),
    ])
    @pytest.mark.parametrize("batch", [1, 2, cohort_module._BATCH_RECORDS])
    def test_first_fault_wins(self, tmp_path, text, message, batch):
        with mock.patch.object(cohort_module, "_BATCH_RECORDS", batch):
            err = _assert_same_outcome(_write(tmp_path, text), window_length=20,
                                       attributes=["CRP"])
        assert isinstance(err, CohortFormatError) and str(err) == message

    def test_peak_memory_below_row_loader(self, tmp_path):
        cohort = generate_synthetic_cohort(120, 130, 10, 20, 1.0, seed=0)
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)  # 50,000 rows
        peaks = []
        for load in (load_cohort, _row_loader):
            tracemalloc.start()
            try:
                load(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]


class TestRoundTrip:
    def test_write_then_load_preserves_file_rows(self, tmp_path):
        rows = ["p1,1,3,CRP,40.0", "p1,1,5,CRP,90.0", "p2,0,1,WBC,4.5", "p2,0,2,CRP,7.25"]
        path = _write(tmp_path, HEADER + "\n".join(rows) + "\n")
        cohort = load_cohort(path, window_length=20)
        out = tmp_path / "copy.csv"
        write_cohort(cohort, out)
        got = sorted(out.read_text().strip().splitlines()[1:])
        assert got == sorted(rows)

    def test_names_the_format_carries_round_trip(self, tmp_path):
        names = ['"a"', "b,c", "d\ne"]  # sorted, as load_cohort orders attributes
        ids = ['p "1"', "p,2", "p\n3"]
        values = np.arange(18.0).reshape(3, 3, 2)
        cohort = Cohort([MTSample(i, v, np.ones((3, 2)), 0) for i, v in zip(ids, values)],
                        names, 2)
        write_cohort(cohort, tmp_path / "c.csv")
        back = load_cohort(tmp_path / "c.csv")
        assert (back.ids(), back.attribute_names) == (ids, names)
        assert np.array_equal(back.values, values)

    @pytest.mark.parametrize("ids, names, message", [
        ([" p1", "p2"], ["a"], "' p1'"),
        (["p1", "p2 "], ["a"], "'p2 '"),
        (["", "p2"], ["a"], "''"),
        (["p1", "p2"], [" a"], "' a'"),
        (["p1", "p2"], ["a\n"], "'a\\n'"),
    ])
    def test_names_load_would_change_refused(self, tmp_path, ids, names, message):
        cohort = Cohort([MTSample(i, np.ones((1, 2)), np.ones((1, 2))) for i in ids], names, 2)
        path = tmp_path / "c.csv"
        with pytest.raises(ValueError, match=f"^id or attribute name {re.escape(message)} is "
                                             "empty or has leading or trailing whitespace"):
            write_cohort(cohort, path)
        assert not path.exists()

    @pytest.mark.parametrize("ids, names, message", [
        (["p\ud800", "p2"], ["a"], "'p\\ud800'"),
        (["p1", "p2"], ["a", "\udfffb"], "'\\udfffb'"),
    ])
    def test_names_without_utf8_form_refused(self, tmp_path, ids, names, message):
        # These used to fail on encoding after the file was opened, leaving its header.
        cohort = Cohort([MTSample(i, np.ones((len(names), 2)), np.ones((len(names), 2)))
                         for i in ids], names, 2)
        path = tmp_path / "c.csv"
        with pytest.raises(ValueError, match=f"^id or attribute name {re.escape(message)} "
                                             "holds a surrogate and has no UTF-8 form$"):
            write_cohort(cohort, path)
        assert not path.exists()

    def test_load_of_write_is_identity(self, tmp_path):
        cohort = generate_synthetic_cohort(3, 5, 4, 10, 1.0, seed=5)
        cohort = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.4, seed=1))
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        back = load_cohort(path, window_length=10)
        assert back.ids() == cohort.ids()
        assert back.attribute_names == cohort.attribute_names
        for a, b in zip(back.samples, cohort.samples):
            assert np.array_equal(a.mask, b.mask)
            assert np.array_equal(a.values * a.mask, b.values * b.mask)
            assert a.label == b.label

    def test_numpy_integer_labels_round_trip(self, tmp_path):
        labels = [np.int64(1), np.int64(0), np.int32(1), None]
        values = np.arange(24.0).reshape(4, 3, 2)
        cohort = Cohort([MTSample(f"p{i}", v, np.ones((3, 2)), lab)
                         for i, (v, lab) in enumerate(zip(values, labels))], ["a", "b", "c"], 2)
        write_cohort(cohort, tmp_path / "c.csv")
        back = load_cohort(tmp_path / "c.csv")
        assert back.labels() == [1, 0, 1, None]
        assert np.array_equal(back.values, values)


def _oracle_write_cohort(cohort, path):
    """The oracle: ``write_cohort`` as it was, one ``csv.writer`` row per observed cell."""
    ids = cohort.ids()
    labels = ["NA" if lab is None else str(lab) for lab in cohort.labels()]
    names = cohort.attribute_names
    if bad := [name for name in (*ids, *names) if not name or name != name.strip()]:
        raise ValueError(f"id or attribute name {bad[0]!r} is empty or has leading or trailing "
                         "whitespace; load_cohort, which strips fields, would not read it back")
    n, v, t = np.nonzero(cohort.mask)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(
            [ids[i], labels[i], int(d) + 1, names[a], repr(float(x))]
            for i, a, d, x in zip(n, v, t, cohort.values[n, v, t])
        )


# Names and ids: any text, surrogates included, with the characters that quoting,
# stripping and encoding act on drawn often.
_TEXT = st.text(st.characters() | st.sampled_from(' ,"\r\n\ud800'), max_size=5)
_LABEL = st.sampled_from([None, 0, 1, np.int64(1), np.int32(0), np.uint8(1)])
_VALUE = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([-0.0, 5e-324, -1e-310, 0.1]))


@st.composite
def _any_cohort(draw):
    """A cohort as ``Cohort`` accepts it: at least two observed cells a sample."""
    N, V, T = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    assume(V * T >= MIN_OBSERVED_CELLS)
    # Three cohorts in four wrap every name in "<>", which the writer accepts; in the
    # fourth a name may be empty or have edge whitespace, which it refuses.
    name = _TEXT if draw(st.integers(0, 3)) == 0 else _TEXT.map(lambda s: f"<{s}>")
    ids = draw(st.lists(name, min_size=N, max_size=N, unique=True))
    names = draw(st.lists(name, min_size=V, max_size=V, unique=True))
    values = draw(arrays(float, (N, V, T), elements=_VALUE))
    mask = draw(arrays(bool, (N, V, T), elements=st.booleans()))
    for row in mask.reshape(N, V * T):
        row[draw(st.lists(st.integers(0, V * T - 1), min_size=2, max_size=2, unique=True))] = 1
    return Cohort([MTSample(i, v, m.astype(float), draw(_LABEL))
                   for i, v, m in zip(ids, values, mask)], names, T)


class TestWriterOracle:
    """``write_cohort`` against the one-row-per-cell writer it replaced, and against
    ``load_cohort``."""

    @settings(max_examples=200)
    @given(cohort=_any_cohort())
    @example(cohort=Cohort([], ["a"], 2))
    @example(cohort=Cohort([MTSample("p", np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]),
                                     None)], ["a", "\ud800"], 2))
    def test_load_of_write_is_the_cohort_in_the_oracles_bytes(self, csv_dir, cohort):
        path, oracle = csv_dir / "written.csv", csv_dir / "oracle.csv"
        path.unlink(missing_ok=True)
        try:
            write_cohort(cohort, path)
        except ValueError as exc:  # refused before the file is opened
            assert not path.exists()
            if "holds a surrogate" in str(exc):
                # The oracle fails inside its file only on a row that carries the surrogate:
                # every id has rows, but a name has rows only where it has an observed cell.
                observed = cohort.mask.any(axis=(0, 2)).tolist()
                written = [*cohort.ids(), *(n for n, o in zip(cohort.attribute_names, observed)
                                            if o)]
                if any("\ud800" <= c <= "\udfff" for f in written for c in f):
                    with pytest.raises(UnicodeEncodeError):
                        _oracle_write_cohort(cohort, oracle)
                else:
                    _oracle_write_cohort(cohort, oracle)
            else:  # as the oracle refuses
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    _oracle_write_cohort(cohort, oracle)
            return
        _oracle_write_cohort(cohort, oracle)
        if path.read_bytes() != oracle.read_bytes():
            # The oracle's "\n" dialect left a "\r" unquoted unless the field also held a
            # character that it quotes, and load_cohort refuses that file.
            assert any("\r" in f and not set(',"\n') & set(f)
                       for f in (*cohort.ids(), *cohort.attribute_names))
            with pytest.raises(CohortFormatError, match=r"^line \d+: expected 5 fields"):
                load_cohort(oracle, cohort.window_length, cohort.attribute_names)
        # Every sample of a cohort has MIN_OBSERVED_CELLS, so load_cohort drops none; the
        # window and the attribute order are given, since it would infer them otherwise.
        back = load_cohort(path, cohort.window_length, cohort.attribute_names)
        assert (back.ids(), back.attribute_names) == (cohort.ids(), cohort.attribute_names)
        assert back.labels() == [None if lab is None else int(lab) for lab in cohort.labels()]
        assert back.mask.tobytes() == cohort.mask.tobytes()
        assert back.values.tobytes() == np.where(cohort.mask == 1, cohort.values, 0.0).tobytes()

    def test_held_out_scale_cohort_matches_oracle(self, tmp_path):
        full = generate_synthetic_cohort(60, 140, 11, 20, 1.5, seed=3)
        cohort = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=3))
        write_cohort(cohort, tmp_path / "new.csv")
        _oracle_write_cohort(cohort, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestSynthetic:
    def test_seeded_determinism(self):
        a = generate_synthetic_cohort(50, 150, 11, 20, 1.5, seed=7)
        b = generate_synthetic_cohort(50, 150, 11, 20, 1.5, seed=7)
        assert a.ids() == b.ids()
        assert np.array_equal(a.values, b.values)

    def test_shape_contract(self):
        cohort = generate_synthetic_cohort(1, 1, 2, 7, 1.0, seed=1)
        assert len(cohort) == 2
        assert all(s.values.shape == (2, 7) for s in cohort.samples)
        assert sorted(s.label for s in cohort.samples) == [0, 1]
        assert cohort.is_complete

    def test_effect_zero_matches_control_distribution(self):
        # Monte-Carlo check: with no effect, case/control attribute means agree
        # within 3 standard errors of the difference.
        cohort = generate_synthetic_cohort(500, 500, 3, 10, 0.0, seed=11)
        labels = np.array([s.label for s in cohort.samples])
        X = cohort.values
        cases, controls = X[labels == 1], X[labels == 0]
        for v in range(3):
            diff = cases[:, v].mean() - controls[:, v].mean()
            se = np.sqrt(
                cases[:, v].var() / cases[:, v].size
                + controls[:, v].var() / controls[:, v].size
            )
            assert abs(diff) <= 3 * se

    def test_effect_size_scales_case_means(self):
        cohort = generate_synthetic_cohort(200, 200, 4, 20, 2.0, seed=3)
        labels = np.array([s.label for s in cohort.samples])
        X = cohort.values
        late = X[..., 15:].mean(axis=2)  # all onsets have plateaued by day 15
        gap = late[labels == 1].mean(axis=0) - late[labels == 0].mean(axis=0)
        assert gap.max() > 0.5  # signal attributes moved

    def test_validates_counts(self):
        with pytest.raises(ValueError):
            generate_synthetic_cohort(0, 10, 3, 10, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_cohort(5, 10, 3, 10, -1.0, seed=0)


class TestMissingness:
    def test_rate_zero_is_identity(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=0)
        out = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.0, seed=1))
        assert out is cohort

    def test_mcar_rate_concentration(self):
        # 200 x 11 x 20 cells at rate 0.3: binomial 4-sigma bound is ~0.009.
        cohort = generate_synthetic_cohort(50, 150, 11, 20, 1.0, seed=2)
        out = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=3))
        assert 0.28 <= out.missing_fraction() <= 0.32

    @pytest.mark.parametrize("mechanism", [Missingness.MAR, Missingness.MNAR])
    def test_calibrated_marginal_rate(self, mechanism):
        cohort = generate_synthetic_cohort(50, 150, 11, 20, 1.0, seed=4)
        out = apply_missingness(cohort, MissingnessSpec(mechanism, 0.3, seed=5))
        assert abs(out.missing_fraction() - 0.3) <= 0.02

    def test_mnar_hides_low_values(self):
        cohort = generate_synthetic_cohort(50, 150, 5, 20, 1.0, seed=6)
        out = apply_missingness(cohort, MissingnessSpec(Missingness.MNAR, 0.3, seed=7))
        X = out.values
        R = out.mask
        observed_mean = X[R > 0].mean()
        masked_mean = X[R == 0].mean()
        assert observed_mean > masked_mean

    def test_values_never_altered(self):
        cohort = generate_synthetic_cohort(10, 10, 4, 12, 1.0, seed=8)
        out = apply_missingness(cohort, MissingnessSpec(Missingness.MAR, 0.4, seed=9))
        for a, b in zip(out.samples, cohort.samples):
            assert np.array_equal(a.values, b.values)

    def test_rate_one_rejected(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 1.0, seed=0))

    def test_incomplete_input_rejected(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=0)
        once = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=1))
        with pytest.raises(ValueError, match="fully observed"):
            apply_missingness(once, MissingnessSpec(Missingness.MCAR, 0.3, seed=2))


def _oracle_sigmoid(x):
    """The oracle: ``cohort._sigmoid`` as it was, gathering and scattering each sign's cells."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _oracle_calibrate_intercept(scores, rate, rng):
    """The oracle: ``cohort._calibrate_intercept`` as it was, all 80 bisection steps through
    the oracle sigmoid."""
    s = scores.ravel()
    if s.size > cohort_module._CALIBRATION_CELLS:
        s = rng.choice(s, size=cohort_module._CALIBRATION_CELLS, replace=False)
    lo, hi = -40.0, 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _oracle_sigmoid(mid - s).mean() < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCalibrationOracle:
    """The logistic and its intercept bisection against the two-branch forms they
    replaced, with tolerance 0."""

    @given(x=arrays(float, array_shapes(max_dims=3, max_side=9),
                    elements=st.one_of(st.floats(-50, 50), st.floats())))
    def test_sigmoid_matches_oracle_bit_for_bit(self, x):
        want, nan = _oracle_sigmoid(x), np.isnan(x)
        out = np.empty_like(x)
        assert cohort_module._sigmoid(x.copy(), out) is out
        assert np.isnan(out[nan]).all() and np.isnan(want[nan]).all()  # NaN only maps to NaN
        assert out[~nan].tobytes() == want[~nan].tobytes()

    @given(scores=arrays(float, array_shapes(max_dims=3, max_side=12),
                         elements=st.one_of(st.floats(-10, 10), st.floats(allow_nan=False))),
           rate=st.floats(0, 1, exclude_min=True, exclude_max=True))
    @example(scores=np.array([-1.0, 1.0]), rate=0.5)  # intercept 0: all 80 steps run
    @example(scores=np.array([0.0, 0.0]), rate=1 - 1e-16)  # intercept beyond 40
    def test_intercept_matches_oracle(self, scores, rate):
        got = cohort_module._calibrate_intercept(scores, rate, np.random.default_rng(0))
        want = _oracle_calibrate_intercept(scores, rate, np.random.default_rng(0))
        assert type(got) is type(want) and math.copysign(1, got) == math.copysign(1, want)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("mechanism", [Missingness.MAR, Missingness.MNAR])
    def test_subsampled_intercept_matches_oracle(self, mechanism):
        # 721 x 11 x 20 cells: the calibration draws _CALIBRATION_CELLS of them.
        full = generate_synthetic_cohort(183, 538, 11, 20, 1.5, seed=0)
        assert full.values.size > cohort_module._CALIBRATION_CELLS
        z = (full.values - full.values.mean(axis=(0, 2))[:, None]) / \
            full.values.std(axis=(0, 2))[:, None]
        scores = z if mechanism == Missingness.MNAR else (z.sum(axis=1, keepdims=True) - z) / 10
        for rate in (0.05, 0.3, 0.9):
            rngs = np.random.default_rng(1), np.random.default_rng(1)
            got = cohort_module._calibrate_intercept(scores, rate, rngs[0])
            assert got == _oracle_calibrate_intercept(scores, rate, rngs[1])
            assert rngs[0].random() == rngs[1].random()  # the same draws were taken


def _oracle_split_ids(cohort, train_fraction, seed, stratify):
    """(train ids, test ids) of the two-branch split: one shuffle, or one per label."""
    N = len(cohort)
    rng = np.random.default_rng([23, seed])
    if stratify:
        train_idx = []
        test_idx = []
        labels = np.array(cohort.labels())
        for lab in sorted(set(labels.tolist())):
            members = np.flatnonzero(labels == lab)
            perm = members[rng.permutation(members.size)]
            n_tr = int(np.floor(train_fraction * members.size + 0.5))
            train_idx.extend(perm[:n_tr].tolist())
            test_idx.extend(perm[n_tr:].tolist())
    else:
        perm = rng.permutation(N)
        n_tr = int(np.floor(train_fraction * N + 0.5))
        train_idx = perm[:n_tr].tolist()
        test_idx = perm[n_tr:].tolist()
    ids = cohort.ids()
    return [ids[i] for i in train_idx], [ids[i] for i in test_idx]


class TestSplit:
    @pytest.mark.parametrize("stratify", [False, True])
    @pytest.mark.parametrize("n_cases, n_controls", [(3, 7), (10, 30), (25, 50)])
    def test_ids_match_two_branch_split(self, n_cases, n_controls, stratify):
        cohort = generate_synthetic_cohort(n_cases, n_controls, 2, 6, 1.0, seed=0)
        for seed in range(20):
            for fraction in (0.3, 0.5, 0.8):
                train, test = train_test_split(cohort, fraction, seed=seed, stratify=stratify)
                expected = _oracle_split_ids(cohort, fraction, seed, stratify)
                assert (train.ids(), test.ids()) == expected

    def test_eighty_twenty_sizes(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=0)
        train, test = train_test_split(cohort, 0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_deterministic(self):
        cohort = generate_synthetic_cohort(10, 20, 3, 10, 1.0, seed=0)
        a = train_test_split(cohort, 0.8, seed=42)
        b = train_test_split(cohort, 0.8, seed=42)
        assert a[0].ids() == b[0].ids() and a[1].ids() == b[1].ids()

    def test_partition(self):
        cohort = generate_synthetic_cohort(10, 20, 3, 10, 1.0, seed=0)
        train, test = train_test_split(cohort, 0.7, seed=3)
        assert set(train.ids()) | set(test.ids()) == set(cohort.ids())
        assert not set(train.ids()) & set(test.ids())

    def test_empty_side_rejected(self):
        cohort = generate_synthetic_cohort(1, 1, 3, 10, 1.0, seed=0)
        with pytest.raises(ValueError):
            train_test_split(cohort, 0.9, seed=0)

    def test_stratified_preserves_class_fractions(self):
        cohort = generate_synthetic_cohort(20, 80, 3, 10, 1.0, seed=0)
        train, test = train_test_split(cohort, 0.8, seed=5, stratify=True)
        n_pos = sum(1 for s in train.samples if s.label == 1)
        assert n_pos == 16
        assert len(train) == 80


class TestTruncate:
    def test_full_window_is_identity(self):
        cohort = generate_synthetic_cohort(4, 4, 3, 10, 1.0, seed=0)
        out = truncate_window(cohort, 10)
        assert out.ids() == cohort.ids()
        assert np.array_equal(out.values, cohort.values)

    def test_late_observations_drop_sample(self):
        values = np.arange(20.0).reshape(1, 20)
        mask = np.zeros((1, 20))
        mask[0, 14:] = 1.0
        late = MTSample("late", values, mask, label=0)
        early = MTSample("early", values, np.ones((1, 20)), label=0)
        cohort = Cohort([late, early], ["a"], 20)
        out = truncate_window(cohort, 7)
        assert out.ids() == ["early"]

    def test_window_sweep_shape(self):
        cohort = generate_synthetic_cohort(4, 4, 3, 20, 1.0, seed=0)
        out = truncate_window(cohort, 7)
        assert out.window_length == 7
        assert all(s.mask.shape == (3, 7) for s in out.samples)

    def test_composition(self):
        cohort = generate_synthetic_cohort(4, 4, 3, 20, 1.0, seed=0)
        a = truncate_window(truncate_window(cohort, 12), 6)
        b = truncate_window(cohort, 6)
        assert np.array_equal(a.values, b.values)
        assert a.window_length == b.window_length == 6

    def test_out_of_range_rejected(self):
        cohort = generate_synthetic_cohort(4, 4, 3, 20, 1.0, seed=0)
        for days in (0, 21):
            with pytest.raises(ValueError):
                truncate_window(cohort, days)


class TestInvariants:
    def test_mask_shape_mismatch_rejected(self):
        sample = MTSample("x", np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError,
                           match=r"^sample 'x' has shape \(3, 2\), cohort expects \(2, 3\)$"):
            Cohort([sample], ["a", "b"], 3)

    @pytest.mark.parametrize("mask, values, label, message", [
        (0.5, 0.0, None, "mask entries must be 0 or 1"),
        (np.nan, 0.0, None, "mask entries must be 0 or 1"),
        (1.0, np.inf, None, "values must be finite"),
        (1.0, np.nan, 0, "values must be finite"),
        (1.0, 0.0, 2, "label must be 0, 1 or None"),
        (0.5, np.nan, 2, "mask entries must be 0 or 1"),  # a sample's first fault, in order
        # write_cohort would write these as True, 1.0, 0.0 and [1], which load_cohort refuses.
        (1.0, 0.0, True, "label must be 0, 1 or None"),
        (1.0, 0.0, 1.0, "label must be 0, 1 or None"),
        (1.0, 0.0, np.float64(0.0), "label must be 0, 1 or None"),
        (1.0, 0.0, np.array([1]), "label must be 0, 1 or None"),
    ], ids=["half-mask", "nan-mask", "inf-value", "nan-value", "label", "first-fault",
            "bool-label", "float-label", "numpy-float-label", "one-element-array-label"])
    def test_record_fault_names_its_sample(self, mask, values, label, message):
        good = MTSample("a", np.zeros((2, 3)), np.ones((2, 3)), 1)
        grid_mask, grid_values = np.ones((2, 3)), np.zeros((2, 3))
        grid_mask[1, 2], grid_values[1, 2] = mask, values
        bad = MTSample("b", grid_values, grid_mask, label)
        later = MTSample("c", np.full((2, 3), np.nan), np.ones((2, 3)))  # a fault too
        with pytest.raises(ValueError, match=f"^sample 'b': {re.escape(message)}$"):
            Cohort([good, bad, later], ["u", "v"], 3)

    def test_window_length_is_the_arrays_last_axis(self, tmp_path):
        full = generate_synthetic_cohort(4, 6, 3, 9, 1.0, seed=2)
        masked = apply_missingness(full, MissingnessSpec(Missingness.MCAR, 0.3, seed=3))
        write_cohort(masked, tmp_path / "c.csv")
        spec = fit_imputer(masked, ImputationMethod.LOCF, bias_correct=True)
        derived = [full, masked, *train_test_split(masked, 0.5, seed=4),
                   truncate_window(masked, 5), impute(spec, masked),
                   load_cohort(tmp_path / "c.csv"), load_cohort(tmp_path / "c.csv", 12),
                   pickle.loads(pickle.dumps(masked)),
                   Cohort(masked.samples, masked.attribute_names, 9)]
        assert [c.window_length for c in derived] == [9, 9, 9, 9, 5, 9, 9, 12, 9, 9]
        for c in derived:
            assert c.window_length == c.values.shape[2] and "window_length" not in vars(c)

    def test_under_observed_sample_rejected(self):
        mask = np.zeros((2, 3))
        mask[0, 0] = 1.0
        with pytest.raises(ValueError, match="observed cells"):
            Cohort([MTSample("x", np.zeros((2, 3)), mask)], ["a", "b"], 3)

    def test_repeated_attribute_name_rejected(self):
        s = MTSample("x", np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="^duplicate attribute name 'v'$"):
            Cohort([s], ["v", "v"], 3)

    def test_duplicate_ids_rejected(self):
        s = MTSample("x", np.zeros((1, 3)), np.ones((1, 3)))
        t = MTSample("x", np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="duplicate"):
            Cohort([s, t], ["a"], 3)
