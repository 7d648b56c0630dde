import csv
import json
import re
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftimpute.data as data_mod
from oracles import reference_read_rows
from shiftimpute.benchmark import DatasetSource, ExperimentGrid
from shiftimpute.data import (
    WRITE_BLOCK_ROWS,
    DataMatrix,
    MaskMatrix,
    MaskedDataset,
    load_csv,
    load_masked_csv,
    load_masked_fields,
    save_csv,
    save_filled_csv,
    save_masked_csv,
)
from shiftimpute.engine import ImputationConfig
from shiftimpute.masking import MarSpec
from shiftimpute.metrics import WilcoxonResult
from shiftimpute.regressors import ForestSpec, MlpSpec, RegressorSpec

DATA = Path(__file__).parent / "data"


def make_masked(values, observed):
    return MaskedDataset(
        DataMatrix(np.asarray(values, float),
                   tuple(f"c{j}" for j in range(np.asarray(values).shape[1]))),
        MaskMatrix(np.asarray(observed, bool)),
    )


class TestLoadCsv:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        m = load_csv(path)
        assert m.column_names == ("a", "b")
        np.testing.assert_array_equal(m.values, [[1, 2], [3, 4]])

    def test_nan_cell_rejected_with_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,NaN\n")
        with pytest.raises(ValueError, match="row 0.*b"):
            load_csv(path)

    def test_headerless_generated_names(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2,3\n")
        m = load_csv(path, has_header=False)
        assert m.column_names == ("col0", "col1", "col2")

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\nx,4\n")
        with pytest.raises(ValueError, match="row 1, column a"):
            load_csv(path)


class TestMaskedCsv:
    def test_empty_fields_are_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,\n,4\n")
        ds = load_masked_csv(path)
        np.testing.assert_array_equal(ds.mask.observed,
                                      [[True, False], [False, True]])

    def test_all_missing_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n,\n3,4\n")
        with pytest.raises(ValueError, match="row 1"):
            load_masked_csv(path)

    def test_masked_round_trip(self, tmp_path):
        ds = make_masked([[1.25, -3.5], [0.125, 9.0], [2.0, 4.0]],
                         [[True, False], [True, True], [False, True]])
        path = tmp_path / "m.csv"
        save_masked_csv(ds, path)
        back = load_masked_csv(path)
        np.testing.assert_array_equal(back.mask.observed, ds.mask.observed)
        obs = ds.mask.observed
        np.testing.assert_array_equal(back.data.values[obs], ds.data.values[obs])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(2, 6), st.integers(0, 10_000))
def test_csv_round_trip_exact(tmp_path_factory, n, d, seed):
    rng = np.random.default_rng(seed)
    m = DataMatrix(rng.normal(0, 100, (n, d)), tuple(f"c{j}" for j in range(d)))
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    save_csv(m, path)
    back = load_csv(path)
    # repr round-trips doubles exactly, well inside the 1e-12 contract
    np.testing.assert_array_equal(back.values, m.values)


# The golden files were written by the csv.writer implementation the current
# writers replaced; GOLDEN_* are the values and mask they were written from.
GOLDEN_NAMES = ("x", 'a,"b"', "z 1")
GOLDEN_VALUES = np.array([
    [-0.0, 5e-324, 1e-05],
    [0.1, 1e16, -1.7976931348623157e+308],
    [1.5, -2.25, 3.0],
    [123456.789, -7e-300, 0.30000000000000004],
])
GOLDEN_OBSERVED = np.array([
    [True, False, True],
    [True, True, False],
    [False, True, True],
    [True, True, True],
])


def reference_write(path, names, values, observed, header=True):
    """The writer loop the current writers replaced: the byte-level oracle."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(names)
        for k, row in enumerate(values):
            writer.writerow(
                [repr(float(v)) if observed[k, j] else "" for j, v in enumerate(row)]
            )


class TestGoldenCsv:
    def test_save_csv_reproduces_golden_bytes(self, tmp_path):
        save_csv(DataMatrix(GOLDEN_VALUES, GOLDEN_NAMES), tmp_path / "c.csv")
        assert ((tmp_path / "c.csv").read_bytes()
                == (DATA / "golden_complete.csv").read_bytes())

    def test_save_masked_csv_reproduces_golden_bytes(self, tmp_path):
        ds = MaskedDataset(DataMatrix(GOLDEN_VALUES, GOLDEN_NAMES),
                           MaskMatrix(GOLDEN_OBSERVED))
        save_masked_csv(ds, tmp_path / "m.csv")
        assert ((tmp_path / "m.csv").read_bytes()
                == (DATA / "golden_masked.csv").read_bytes())

    def test_load_csv_bitwise(self):
        m = load_csv(DATA / "golden_complete.csv")
        assert m.column_names == GOLDEN_NAMES
        assert m.values.tobytes() == GOLDEN_VALUES.tobytes()

    def test_load_masked_csv_bitwise(self):
        ds = load_masked_csv(DATA / "golden_masked.csv")
        assert ds.data.column_names == GOLDEN_NAMES
        np.testing.assert_array_equal(ds.mask.observed, GOLDEN_OBSERVED)
        expected = np.where(GOLDEN_OBSERVED, GOLDEN_VALUES, 0.0)
        assert ds.data.values.tobytes() == expected.tobytes()


@st.composite
def masked_tables(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(finite, min_size=n * d, max_size=n * d)),
                      dtype=float).reshape(n, d)
    observed = np.array(draw(st.lists(st.booleans(), min_size=n * d,
                                      max_size=n * d))).reshape(n, d)
    observed[np.arange(n), draw(st.integers(0, d - 1))] = True  # no empty row
    observed[0] = True                                         # no empty column
    names = tuple(draw(st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
        min_size=d, max_size=d)))
    return MaskedDataset(DataMatrix(values, names), MaskMatrix(observed))


@settings(max_examples=60, deadline=None)
@given(masked_tables(), st.booleans())
def test_writers_match_reference_loop(tmp_path_factory, ds, header):
    out = tmp_path_factory.mktemp("csv")
    names, values, observed = ds.data.column_names, ds.data.values, ds.mask.observed
    reference_write(out / "ref_m.csv", names, values, observed, header)
    save_masked_csv(ds, out / "m.csv", header=header)
    assert (out / "m.csv").read_bytes() == (out / "ref_m.csv").read_bytes()
    reference_write(out / "ref_c.csv", names, values, np.ones_like(observed), header)
    save_csv(ds.data, out / "c.csv", header=header)
    assert (out / "c.csv").read_bytes() == (out / "ref_c.csv").read_bytes()
    if not header:  # a header of arbitrary text need not read back
        back = load_masked_csv(out / "m.csv", has_header=False)
        np.testing.assert_array_equal(back.mask.observed, observed)
        assert back.data.values.tobytes() == np.where(observed, values, 0.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(masked_tables(), st.booleans(), st.data())
def test_filling_a_saved_table_writes_what_save_csv_writes(tmp_path_factory, ds,
                                                           header, data):
    # every field save_masked_csv writes is spelled as repr spells it, so
    # copying observed fields and formatting imputed ones gives save_csv's bytes
    out = tmp_path_factory.mktemp("csv")
    save_masked_csv(ds, out / "m.csv", header=header)
    read, fields = load_masked_fields(out / "m.csv", has_header=header)
    n_missing = int((~ds.mask.observed).sum())
    imputed = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=n_missing, max_size=n_missing))
    completed = ds.data.values.copy()
    completed[~ds.mask.observed] = imputed
    save_filled_csv(read, fields, completed, out / "filled.csv", header=header)
    save_csv(DataMatrix(completed, read.data.column_names), out / "c.csv",
             header=header)
    assert (out / "filled.csv").read_bytes() == (out / "c.csv").read_bytes()


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("n", [1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                               WRITE_BLOCK_ROWS + 1, 2 * WRITE_BLOCK_ROWS + 1])
def test_writers_match_reference_across_blocks(tmp_path, n, header):
    rng = np.random.default_rng(n)
    names = ("a", "b", "c")
    values = rng.normal(0, 100, (n, 3))
    observed = rng.random((n, 3)) > 0.3
    observed[:, 0] = observed[0] = True  # no empty row or column
    ds = MaskedDataset(DataMatrix(values, names), MaskMatrix(observed))
    every = np.ones_like(observed)
    save_masked_csv(ds, tmp_path / "m.csv", header=header)
    reference_write(tmp_path / "ref_m.csv", names, values, observed, header)
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref_m.csv").read_bytes()
    save_csv(ds.data, tmp_path / "c.csv", header=header)
    reference_write(tmp_path / "ref_c.csv", names, values, every, header)
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "ref_c.csv").read_bytes()
    read, fields = load_masked_fields(tmp_path / "m.csv", has_header=header)
    completed = np.where(observed, values, rng.normal(0, 100, (n, 3)))
    save_filled_csv(read, fields, completed, tmp_path / "f.csv", header=header)
    reference_write(tmp_path / "ref_f.csv", names, completed, every, header)
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "ref_f.csv").read_bytes()


@pytest.mark.parametrize("header", [True, False])
def test_zero_rows_write_what_the_reference_writes(tmp_path, header):
    # no DataMatrix has zero rows, so only the row writer itself can be asked
    data_mod._write_rows(tmp_path / "t.csv", ("a", "b"), [], header)
    reference_write(tmp_path / "ref.csv", ("a", "b"), np.empty((0, 2)),
                    np.empty((0, 2), bool), header)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_filling_keeps_observed_fields_as_written(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b,c\n1.50,1e3,\n 2 ,,"3.0"\n', encoding="utf-8")
    ds, fields = load_masked_fields(path)
    completed = np.array([[1.5, 1000.0, 0.1], [2.0, -7e-300, 3.0]])
    save_filled_csv(ds, fields, completed, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (
        b"a,b,c\r\n1.50,1e3,0.1\r\n2,-7e-300,3.0\r\n")
    assert load_csv(tmp_path / "out.csv").values.tobytes() == completed.tobytes()


class TestReaderEdges:
    def write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    def test_bad_cell_message(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,4x\n")
        message = "cannot parse '4x' as a number at row 1, column b"
        for load in (load_csv, load_masked_csv):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load(path)

    def test_headerless_bad_cell_names_the_generated_column(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,?\n")
        with pytest.raises(ValueError, match=r"^cannot parse '\?' as a number "
                                             r"at row 1, column col1$"):
            load_csv(path, has_header=False)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "NaN", " Infinity "])
    def test_non_finite_cell_message(self, tmp_path, text):
        path = self.write(tmp_path, f"a,b\n1,2\n3,{text}\n")
        message = f"non-finite value {text.strip()!r} at row 1, column b"
        for load in (load_csv, load_masked_csv):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load(path)

    def test_all_missing_row_before_bad_cell(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n , \n3,x\n")
        with pytest.raises(ValueError, match="^row 1 has every entry missing$"):
            load_masked_csv(path)

    def test_all_missing_row_after_bad_cell(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3,x\n,\n")
        with pytest.raises(ValueError,
                           match="^cannot parse 'x' as a number at row 1, column b$"):
            load_masked_csv(path)

    def test_all_missing_row_after_non_finite_cell(self, tmp_path):
        path = self.write(tmp_path, "a,b\n,nan\n,\n")
        with pytest.raises(ValueError, match="^non-finite value 'nan' at row 0"):
            load_masked_csv(path)

    def test_empty_cell_in_complete_csv(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3, \n")
        with pytest.raises(ValueError,
                           match="^cannot parse '' as a number at row 1, column b$"):
            load_csv(path)

    def test_ragged_message(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3\n4,5,6\n")
        for load in (load_csv, load_masked_csv):
            with pytest.raises(ValueError,
                               match="^ragged CSV: row 2 has 1 cells, expected 2$"):
                load(path)

    def test_field_over_the_csv_limit_names_its_line(self, tmp_path):
        # the csv module reads at most 131,072 characters per field; the
        # count is of file lines, blank ones included, from 1
        path = self.write(tmp_path, "a,b\n\n1,2\n" + "3" * 200_000 + ",4\n")
        for load in (load_csv, load_masked_csv):
            with pytest.raises(ValueError, match=r"^CSV line 4: field larger "
                                                 r"than field limit \(131072\)$"):
                load(path)

    def test_ragged_beats_bad_cell(self, tmp_path):
        path = self.write(tmp_path, "a,b\nx,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "\na,b\n\n1,2\n\n\n3,4\n\n")
        m = load_csv(path)
        assert m.column_names == ("a", "b")
        np.testing.assert_array_equal(m.values, [[1, 2], [3, 4]])

    def test_whitespace_only_lines_skipped(self, tmp_path):
        ds = load_masked_csv(self.write(tmp_path, "a,b\n1,2\n   \n3,\n\t\n"))
        assert ds.data.values.tolist() == [[1.0, 2.0], [3.0, 0.0]]
        np.testing.assert_array_equal(ds.mask.observed, [[True, True], [True, False]])
        # a line of empty fields is a row, not a blank line
        with pytest.raises(ValueError, match="^row 1 has every entry missing$"):
            load_masked_csv(self.write(tmp_path, "a,b\n1,2\n , \n"))

    def test_byte_order_mark_before_header(self, tmp_path):
        m = load_csv(self.write(tmp_path, "\ufeffa,b\n1,2\n"))
        assert m.column_names == ("a", "b")

    def test_byte_order_mark_without_header(self, tmp_path):
        m = load_csv(self.write(tmp_path, "\ufeff1,2\n3,4\n"), has_header=False)
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_line_endings_read_alike(self, tmp_path):
        lf = load_masked_csv(self.write(tmp_path, "a,b\n1,\n,4\n"))
        crlf = load_masked_csv(self.write(tmp_path, "a,b\r\n1,\r\n,4\r\n"))
        no_final = load_masked_csv(self.write(tmp_path, "a,b\n1,\n,4"))
        for ds in (crlf, no_final):
            assert ds.data.values.tobytes() == lf.data.values.tobytes()
            np.testing.assert_array_equal(ds.mask.observed, lf.mask.observed)
        np.testing.assert_array_equal(lf.mask.observed, [[True, False], [False, True]])

    def test_surrounding_spaces_stripped(self, tmp_path):
        ds = load_masked_csv(self.write(tmp_path, " a , b \n 1.5 ,  \n\t,-2 \n"))
        assert ds.data.column_names == ("a", "b")
        np.testing.assert_array_equal(ds.mask.observed, [[True, False], [False, True]])
        assert ds.data.values[0, 0] == 1.5 and ds.data.values[1, 1] == -2.0

    def test_python_float_syntax_accepted(self, tmp_path):
        m = load_csv(self.write(tmp_path, "a,b,c,d\n1_000,+.5,1E3,-0\n"))
        assert m.values.tolist() == [[1000.0, 0.5, 1000.0, 0.0]]
        assert np.signbit(m.values[0, 3])

    def test_empty_file_and_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="^empty CSV file$"):
            load_csv(self.write(tmp_path, "\n\n"))
        with pytest.raises(ValueError, match="^CSV has a header but no data rows$"):
            load_masked_csv(self.write(tmp_path, "a,b\n"))

    def test_fully_missing_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="column 1 is entirely missing"):
            load_masked_csv(self.write(tmp_path, "a,b\n1,\n2,\n"))

    def test_byte_order_mark_survives_the_fall_back_to_the_csv_module(self, tmp_path):
        # a quote sends the file back to csv.reader from its start, where the
        # mark must be dropped again rather than read into the first name
        m = load_csv(self.write(tmp_path, '\ufeff"a",b\n1,2\n'))
        assert m.column_names == ("a", "b")
        m = load_csv(self.write(tmp_path, '\ufeffa,b\n1,2\n"3",4\n'))
        assert m.column_names == ("a", "b")
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_line_over_the_csv_limit_with_fields_under_it(self, tmp_path):
        zeros = "0" * 70_000
        m = load_csv(self.write(tmp_path, f"a,b\n{zeros},{zeros}\n1,2\n"))
        assert m.values.tolist() == [[0.0, 0.0], [1.0, 2.0]]


# characters the csv module keeps as field text (vertical tab, form feed,
# file separator, NEL, NUL, non-ASCII) among those numbers are made of
_NOISE = "0123456789.e- \t\x0b\x0c\x1c\x85\x00\u00e9"


@st.composite
def csv_texts(draw):
    """Rows of numbers and empty fields, maybe with noise, with now and then
    a line of noise, a blank or whitespace line, mixed line endings and maybe a
    byte-order mark; maybe one line, often a late one, gets the text's only
    quote characters, as a quoted field or at any place."""
    width = draw(st.integers(1, 4))
    noise = st.text(st.sampled_from(_NOISE), max_size=8)
    cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.sampled_from(["", "", " 1 ", "\t-2.5", "1e3", "-0"]))
    if draw(st.booleans()):  # else every row reads when its width is right
        cell = st.one_of(cell, st.sampled_from(["x", "inf"]), noise)
    kinds = draw(st.lists(st.sampled_from("rrrrrrnb"), max_size=12))
    lines = [draw(st.lists(cell, min_size=width, max_size=width)) if kind == "r"
             else [draw(noise if kind == "n" else st.sampled_from(["", " ", "\t"]))]
             for kind in kinds]
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[k]) - 1))
        if draw(st.booleans()):
            lines[k][j] = '"' + lines[k][j] + '"'
        else:
            at = draw(st.integers(0, len(lines[k][j])))
            quotes = draw(st.sampled_from(['"', '""', '" 2,3"', '"4\n5"']))
            lines[k][j] = lines[k][j][:at] + quotes + lines[k][j][at:]
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(",".join(line) + end for line, end in zip(lines, endings))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # the file ends without a line ending
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _read_outcomes(path, has_header):
    """What ``load_masked_fields`` and ``load_csv`` give for ``path``, or the
    type and message each raises."""
    def masked():
        ds, fields = load_masked_fields(path, has_header)
        return (ds.data.column_names, ds.data.values.shape, ds.data.values.tobytes(),
                ds.mask.observed.tobytes(), fields)

    def complete():
        m = load_csv(path, has_header)
        return m.column_names, m.values.shape, m.values.tobytes()
    return outcome(masked), outcome(complete)


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.booleans())
def test_reader_gives_what_the_csv_module_gives(tmp_path_factory, text, header):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _read_outcomes(path, header)
    with mock.patch.object(data_mod, "_split_lines", reference_read_rows):
        assert _read_outcomes(path, header) == got


class TestMaskedDatasetInvariants:
    def test_all_false_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            MaskMatrix(np.array([[True, True], [False, False]]))

    def test_fully_missing_column_rejected(self):
        with pytest.raises(ValueError, match="column 1"):
            MaskMatrix(np.array([[True, False], [True, False]]))


def _mask_in_layout(observed: np.ndarray, layout: str) -> np.ndarray:
    """``observed`` as a C-order, Fortran-order or strided (every other
    column of a wider array) view with the same entries."""
    if layout in ("C", "F"):
        return np.array(observed, order=layout)
    wide = np.zeros((observed.shape[0], 2 * observed.shape[1]), dtype=bool)
    wide[:, ::2] = observed
    return wide[:, ::2]


class TestMaskCounts:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           d=st.integers(1, 8), rate=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
           layout=st.sampled_from(["C", "F", "strided"]))
    def test_counts_match_a_direct_restatement(self, seed, n, d, rate, layout):
        rng = np.random.default_rng(seed)
        observed = rng.random((n, d)) >= rate
        # no empty row or column
        observed[np.arange(n), rng.integers(d, size=n)] = True
        observed[rng.integers(n, size=d), np.arange(d)] = True
        mask = MaskMatrix(_mask_in_layout(observed, layout))
        counts = [sum(not observed[k, j] for k in range(n)) for j in range(d)]
        assert mask.missing_columns() == [j for j in range(d) if counts[j]]
        assert all(type(j) is int for j in mask.missing_columns())
        for j in range(d):
            assert mask.missing_count(j) == counts[j]
            assert type(mask.missing_count(j)) is int
        assert np.array_equal(mask.observed, observed)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_source_writes_leave_the_mask_alone(self, layout):
        observed = np.array([[True, True], [True, False], [True, True]])
        source = _mask_in_layout(observed, layout)
        mask = MaskMatrix(source)
        source[:, 1] = False
        source[1, 1] = True
        assert np.array_equal(mask.observed, observed)
        assert mask.missing_columns() == [1]
        assert mask.missing_count(1) == 1

    def test_observed_is_read_only(self):
        mask = MaskMatrix(np.array([[True, True], [True, False]]))
        with pytest.raises(ValueError, match="read-only"):
            mask.observed[1, 1] = True
        with pytest.raises(ValueError, match="read-only"):
            mask.observed[:] = True
        assert mask.missing_columns() == [1]


class TestDataMatrixInvariants:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]), ("a", "b"))

    def test_too_narrow_rejected(self):
        with pytest.raises(ValueError):
            DataMatrix(np.ones((3, 1)), ("a",))


def golden_records():
    return {
        "golden_config_forest.json": ImputationConfig(
            regressor=RegressorSpec(
                kind="forest", ridge_lambda=0.25,
                forest=ForestSpec(n_trees=7, max_depth=3, min_leaf_weight=2.5,
                                  bootstrap=False),
                mlp=MlpSpec(hidden_units=4, learning_rate=0.1)),
            weighted=False, n_sweeps=3, visitation=(2, 0, 1), clip_epsilon=0.02,
            propensity_l2=0.001, seed=11),
        "golden_mar_spec.json": MarSpec(
            missing_cols=(1, 3), predictor_sets=((0, 2), (2, 4, 5)), alpha=-1.5,
            target_missing_rate=0.3, seed=7),
        "golden_wilcoxon.json": WilcoxonResult(
            statistic=12.5, z_score=-1.8347385892669787, p_value=0.06654663937009465,
            n_pairs=10, n_zero_diffs=1),
        # the dataset object lists every DatasetSource field, the other
        # kind's included
        "golden_grid_default.json": ExperimentGrid(),
    }


class TestGoldenJson:
    @pytest.mark.parametrize("name", sorted(golden_records()))
    def test_dump_matches_fixture(self, name):
        record = golden_records()[name]
        expected = (DATA / name).read_text(encoding="utf-8")
        assert json.dumps(record.to_dict(), indent=2) + "\n" == expected

    @pytest.mark.parametrize("name", sorted(golden_records()))
    def test_fixture_reads_back(self, name):
        record = golden_records()[name]
        payload = json.loads((DATA / name).read_text(encoding="utf-8"))
        assert type(record).from_dict(payload) == record


MAR_SPEC = {"missing_cols": [0, 2], "predictor_sets": [[1], [3, 4]], "alpha": -2.0,
            "target_missing_rate": 0.25, "seed": 9}
# JSON values of every type, the words and keys the configs know among them
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.floats(allow_nan=False),
    st.text(max_size=3),
    st.sampled_from(["ridge", "mlp", "forest", "csv", "synthetic", "t.csv",
                     "ascending_missing_count"]))
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "epochs", "n_trees", "n", "path",
                                     "ridge_lambda", "mlp", "bootstrap"]),
                    inner, max_size=2)), max_leaves=6)


def outcome(build):
    """The record ``build`` returns, or the type and message it raises."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestOneFieldCheck:
    @pytest.mark.parametrize("build, message", [
        (lambda: ExperimentGrid(alphas=("1", "2")),
         "ExperimentGrid.alphas[0] must be a JSON number, got '1'"),
        (lambda: MarSpec(**{**MAR_SPEC, "alpha": "2"}),
         "MarSpec.alpha must be a JSON number, got '2'"),
        (lambda: MlpSpec(learning_rate=True),
         "MlpSpec.learning_rate must be a JSON number, got True"),
        (lambda: RegressorSpec(ridge_lambda=True),
         "RegressorSpec.ridge_lambda must be a JSON number, got True"),
        (lambda: DatasetSource(kind="csv", path=5),
         "DatasetSource.path must be a JSON string or null, got 5"),
        (lambda: ImputationConfig(regressor={"kind": "mlp", "mlp": 2}),
         "RegressorSpec.mlp must be a JSON object, got 2"),
    ])
    def test_python_value_of_wrong_type_rejected_when_built(self, build, message):
        # what a config file is refused, a Python caller is refused too
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message

    def test_nested_record_given_as_dict_is_read_when_built(self):
        # a dict in a record's place becomes that record, as in a file, rather
        # than reaching a column step as a dict
        assert ImputationConfig(regressor={"kind": "mlp"}).regressor == \
            RegressorSpec(kind="mlp")
        with pytest.raises(ValueError, match="unknown RegressorSpec keys: knd"):
            ImputationConfig(regressor={"knd": "mlp"})

    @pytest.mark.parametrize("cls", [
        ImputationConfig, RegressorSpec, ForestSpec, MlpSpec, MarSpec, DatasetSource,
        ExperimentGrid], ids=lambda cls: cls.__name__)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_file_and_python_callers_get_the_same_check(self, cls, data):
        good = (cls(**MAR_SPEC) if cls is MarSpec else cls()).to_dict()
        names = data.draw(st.lists(st.sampled_from([f.name for f in fields(cls)]),
                                   unique=True))
        d = dict(MAR_SPEC) if cls is MarSpec else {}  # its fields have no defaults
        d.update({key: data.draw(st.one_of(st.just(good[key]), json_values), label=key)
                  for key in names})
        assert outcome(lambda: cls.from_dict(d)) == outcome(lambda: cls(**d))
