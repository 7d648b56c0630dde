import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftimpute.data import (
    DataMatrix,
    MaskMatrix,
    MaskedDataset,
    load_csv,
    load_masked_csv,
    save_csv,
    save_masked_csv,
)

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

    def test_ragged_beats_bad_cell(self, tmp_path):
        path = self.write(tmp_path, "a,b\nx,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "\na,b\n\n1,2\n\n\n3,4\n\n")
        m = load_csv(path)
        assert m.column_names == ("a", "b")
        np.testing.assert_array_equal(m.values, [[1, 2], [3, 4]])

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


class TestMaskedDatasetInvariants:
    def test_all_false_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            MaskMatrix(np.array([[True, True], [False, False]]))

    def test_fully_missing_column_rejected(self):
        with pytest.raises(ValueError, match="column 1"):
            MaskMatrix(np.array([[True, False], [True, False]]))


class TestDataMatrixInvariants:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]), ("a", "b"))

    def test_too_narrow_rejected(self):
        with pytest.raises(ValueError):
            DataMatrix(np.ones((3, 1)), ("a",))


def golden_records():
    from shiftimpute.benchmark import ExperimentGrid
    from shiftimpute.engine import ImputationConfig
    from shiftimpute.masking import MarSpec
    from shiftimpute.metrics import WilcoxonResult
    from shiftimpute.regressors import ForestSpec, MlpSpec, RegressorSpec

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
