"""Data model: complete matrices, observedness masks, CSV ingestion/emission,
and the JSON form of config and record dataclasses.

A mask is always a separate boolean matrix (True = observed); missing cells are
never encoded as sentinel values. CSV dialect: comma-separated, '.' decimal,
optional header row, empty field = missing, UTF-8 with an optional
byte-order mark. Lines without a quote character are split on their
commas with ``str.split``, which reads them as the ``csv`` module does at a
fraction of its cost; a file with a quoted field, or a line over the csv
field-size limit, is read by ``csv.reader`` alone, so quoting and that
limit's error have one implementation. Floats are written by ``repr``,
except that :func:`save_filled_csv` copies each observed field as it was
read and formats only the imputed cells; rows are written in blocks of
``WRITE_BLOCK_ROWS``.

Every config and record field is checked against its annotation by one
function, ``_coerce``, whether the record is read from JSON or built in
Python: a value of the wrong type is a ``TypeError`` such as
``MarSpec.predictor_sets[1][1] must be a JSON integer, got 4.5``.
"""

from __future__ import annotations

import csv
import functools
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

__all__ = [
    "JsonRecord",
    "DataMatrix",
    "MaskMatrix",
    "MaskedDataset",
    "load_csv",
    "load_masked_csv",
    "load_masked_fields",
    "save_csv",
    "save_masked_csv",
    "save_filled_csv",
]

WRITE_BLOCK_ROWS = 1024  # rows joined into one string per write


class JsonRecord:
    """Base of the dataclasses that are written and read as JSON objects.

    ``to_dict`` lists the fields in declaration order, nested records as
    nested dicts. ``from_dict`` is its inverse: a non-object or an unknown
    key is a ``ValueError``, and each value goes through ``_coerce``, which
    config records also run on every field when built. Omitted keys keep
    their defaults.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    def _coerce_fields(self) -> None:
        """Each field as ``_coerce`` gives it; config records call this first
        in ``__post_init__``."""
        for name, label, hint in _fields(type(self)):
            object.__setattr__(self, name, _coerce(label, hint, getattr(self, name)))

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, got {d!r}")
        checks = _fields(cls)
        unknown = sorted(set(d) - {name for name, _, _ in checks})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
        return cls(**{name: _coerce(label, hint, d[name])
                      for name, label, hint in checks if name in d})


@functools.cache
def _fields(cls) -> tuple[tuple[str, str, object], ...]:
    """(name, ``Record.name`` label, annotation) of each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f"{cls.__name__}.{f.name}", hints[f.name])
                 for f in fields(cls))


@functools.cache
def _arms(hint) -> tuple[tuple[type, object], ...]:
    """(type, element annotation or None) of each alternative of a union
    annotation, or of ``hint`` alone; ``tuple[X, ...]`` gives (tuple, X)."""
    arms = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    return tuple((typing.get_origin(a) or a, (typing.get_args(a) or (None,))[0])
                 for a in arms)


# each JSON type's name and the Python values it takes: numpy scalars of the
# right kind pass, and a bool is never a number nor a number a bool
_JSON = {bool: ("boolean", (bool, np.bool_)), int: ("integer", (int, np.integer)),
         float: ("number", (int, float, np.integer, np.floating)),
         str: ("string", (str,)), type(None): ("null", (type(None),)),
         tuple: ("array", (list, tuple, range))}


def _coerce(label: str, hint, value):
    """``value`` as a field annotated ``hint`` holds it, else a ``TypeError``
    naming ``label``. Tuple elements are checked under ``label[k]``, a record
    takes a record of its class or a dict of its keys, and a float takes an
    integer, as JSON numbers do."""
    is_bool = isinstance(value, (bool, np.bool_))
    for kind, item in _arms(hint):
        if kind not in _JSON:  # a record class
            if isinstance(value, kind):
                return value
            if isinstance(value, dict):
                return kind.from_dict(value)
        elif isinstance(value, _JSON[kind][1]) and is_bool == (kind is bool):
            if kind is tuple:
                return tuple(_coerce(f"{label}[{k}]", item, v)
                             for k, v in enumerate(value))
            return None if value is None else kind(value)
    names = (_JSON[kind][0] if kind in _JSON else "object" for kind, _ in _arms(hint))
    raise TypeError(f"{label} must be a JSON {' or '.join(names)}, got {value!r}")


def require_finite(name: str, value: float, *, positive: bool) -> None:
    """Reject a numeric setting that is not finite or is below its range
    (``> 0`` when ``positive``, else ``>= 0``), naming it. JSON input reaches
    here with ``NaN`` and ``Infinity``, which ``json.load`` accepts."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


def require_seed(name: str, value: int) -> None:
    """Reject a negative seed, naming it, when its record is built rather
    than deep in a run: numpy's generators take no negative seed."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


def derive_seed(*entropy: int) -> int:
    """A 64-bit seed from the first two 32-bit words that
    ``SeedSequence(entropy)`` generates, so every derived seed is a pure
    function of its coordinates."""
    state = np.random.SeedSequence(entropy).generate_state(2)
    return int(state[0]) ^ (int(state[1]) << 32)


@dataclass(frozen=True)
class DataMatrix:
    """An n x d matrix of finite reals plus column names.

    A complete matrix contains no NaN/inf. Requires n >= 1 and d >= 2.
    """

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        n, d = values.shape
        if n < 1 or d < 2:
            raise ValueError(f"need n >= 1 and d >= 2, got shape ({n}, {d})")
        if len(self.column_names) != d:
            raise ValueError(
                f"{len(self.column_names)} column names for {d} columns"
            )
        if not np.all(np.isfinite(values)):
            k, j = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"non-finite entry at row {k}, column {j}")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MaskMatrix:
    """Boolean observedness matrix; True marks an observed cell.

    Every row must have at least one observed entry, and no column may be
    entirely missing (a column with at least one missing entry belongs to the
    imputed set and must retain observed entries to train on).

    ``observed`` is a read-only copy of the array given, so the per-column
    missing counts, taken once at construction from a column-major copy
    (where each column is one contiguous run), always describe it.
    """

    observed: np.ndarray
    _missing: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        observed = np.array(self.observed, dtype=bool)
        observed.flags.writeable = False
        object.__setattr__(self, "observed", observed)
        if observed.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {observed.shape}")
        by_column = np.asfortranarray(observed)
        rows_empty = ~by_column.any(axis=1)
        if rows_empty.any():
            raise ValueError(
                f"row {int(np.argmax(rows_empty))} has no observed entries"
            )
        n = observed.shape[0]
        missing = np.array([n - np.count_nonzero(c) for c in by_column.T],
                           dtype=np.intp)
        object.__setattr__(self, "_missing", missing)
        cols_empty = missing == n
        if cols_empty.any():
            raise ValueError(
                f"column {int(np.argmax(cols_empty))} is entirely missing"
            )

    def missing_columns(self) -> list[int]:
        """Indices of columns with at least one missing entry (the imputed set)."""
        return np.flatnonzero(self._missing).tolist()

    def missing_count(self, j: int) -> int:
        return int(self._missing[j])


@dataclass(frozen=True)
class MaskedDataset:
    """A data matrix and its observedness mask.

    ``data`` holds ground-truth values where available (placeholder zeros at
    missing cells when no truth exists, e.g. plain masked-CSV ingestion).
    """

    data: DataMatrix
    mask: MaskMatrix

    def __post_init__(self):
        if self.mask.observed.shape != self.data.values.shape:
            raise ValueError(
                f"mask shape {self.mask.observed.shape} != data shape "
                f"{self.data.values.shape}"
            )

    def missing_columns(self) -> list[int]:
        return self.mask.missing_columns()


def _parse_cell(text: str, row: int, col: int, names=None) -> float:
    label = f"row {row}, column {names[col] if names else col}"
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as a number at {label}") from None
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r} at {label}")
    return value


def _raise_first_error(body, names, allow_missing: bool):
    """Raise the first bad cell or all-missing row, walking in file order."""
    for k, row in enumerate(body):
        cells = [cell.strip() for cell in row]
        for j, cell in enumerate(cells):
            if cell or not allow_missing:
                _parse_cell(cell, k, j, names)
        if not any(cells):
            raise ValueError(f"row {k} has every entry missing")
    raise AssertionError("the parse failed but no cell or row is at fault")


def _split_lines(handle) -> list[list[str]]:
    """Every line of ``handle``, a file opened with ``newline=""``, split
    into its fields as ``csv.reader`` splits it; a blank line may give
    ``[]`` or ``[""]``. Lines are read one at a time, so the whole text is
    never held beside its fields."""
    limit = csv.field_size_limit()
    rows = []
    for line in handle:
        if '"' in line or len(line) > limit:
            handle.seek(0)  # the utf-8-sig decoder drops the mark again
            reader = csv.reader(handle)
            try:
                return list(reader)
            except csv.Error as exc:
                raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
        rows.append(line.rstrip("\r\n").split(","))
    return rows


def _read_csv(path, has_header: bool, allow_missing: bool):
    """Parse a CSV into (names, values, observed, fields); missing cells read
    as 0.0.

    Iterating a file opened with ``newline=""`` ends lines where
    ``csv.reader`` does (``\\n``, ``\\r`` and ``\\r\\n``), and csv reads
    a line with no quote character as the text between its commas, so such
    lines are split with ``str.split``, without csv's per-character state
    machine. The first line that holds a ``"``, or is longer than
    ``csv.field_size_limit()``, sends the whole file back through
    ``csv.reader`` from its start, so quoted fields are read by the csv
    module alone, and a field over its limit is its error, as a
    ``ValueError`` naming the file line it stopped at.

    Whichever tokenizer split the lines, the same rules follow. A line that
    is empty, or a single field of only whitespace, is skipped, and every
    other line must have as many fields as the first. ``fields`` is the
    stripped text of every data field in row-major order. A cell is observed
    when its field is non-empty, and is parsed with Python's ``float``; all
    cells go through one ``fromiter`` call, and only a failure walks the
    rows again to name the first error.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [row for row in _split_lines(handle)
                if len(row) > 1 or row and row[0].strip()]
    if not rows:
        raise ValueError("empty CSV file")
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged CSV: row {k} has {len(row)} cells, expected {width}")
    names = tuple(f"col{j}" for j in range(width))
    if has_header:
        names, rows = tuple(cell.strip() for cell in rows[0]), rows[1:]
    if not rows:
        raise ValueError("CSV has a header but no data rows")
    fields = list(map(str.strip, chain.from_iterable(rows)))
    observed = np.fromiter(map(bool, fields), bool, len(fields)).reshape(len(rows), width)
    try:
        parsed = np.fromiter(map(float, filter(None, fields)), float, int(observed.sum()))
    except ValueError:
        parsed = None
    usable = observed.any(axis=1).all() if allow_missing else observed.all()
    if parsed is None or not usable or not np.isfinite(parsed).all():
        _raise_first_error(rows, names, allow_missing)
    values = np.zeros(observed.shape)
    values[observed] = parsed
    return names, values, observed, fields


def load_csv(path, has_header: bool = True) -> DataMatrix:
    """Load a complete CSV: every cell must parse as a finite real."""
    names, values, _, _ = _read_csv(path, has_header, allow_missing=False)
    return DataMatrix(values, names)


def load_masked_fields(path, has_header: bool = True) -> tuple[MaskedDataset, list[str]]:
    """:func:`load_masked_csv`'s dataset and the stripped text of every data
    field in row-major order, which :func:`save_filled_csv` writes back."""
    names, values, observed, fields = _read_csv(path, has_header, allow_missing=True)
    return MaskedDataset(DataMatrix(values, names), MaskMatrix(observed)), fields


def load_masked_csv(path, has_header: bool = True) -> MaskedDataset:
    """Load a CSV where empty fields mark missing cells.

    Missing cells get a placeholder 0.0 in the data matrix (the mask is the
    source of truth). Rows with no observed entry are rejected.
    """
    return load_masked_fields(path, has_header)[0]


def _write_rows(path, names, fields, header: bool) -> None:
    """``fields``, a row-major list, as rows of ``len(names)`` joined by
    commas, with ``\\r\\n`` after each row.

    No field a caller passes needs quoting (a float's ``repr``, an empty
    field, or text that ``float`` parsed once stripped), so the bytes are
    those ``csv.writer`` gives, which still writes the header. Rows are
    joined and written ``WRITE_BLOCK_ROWS`` at a time: one string per block
    costs far less than one per row, and unlike one string for the whole
    file it does not hold a second copy of the table's text.
    """
    width = len(names)
    step = WRITE_BLOCK_ROWS * width
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if header:
            csv.writer(handle).writerow(names)
        for start in range(0, len(fields), step):
            block = fields[start:start + step]
            handle.write("\r\n".join(map(",".join, zip(*[iter(block)] * width)))
                         + "\r\n")


def save_csv(matrix: DataMatrix, path, header: bool = True) -> None:
    """Write a complete matrix; floats use repr so a round trip is exact."""
    _write_rows(path, matrix.column_names,
                list(map(repr, matrix.values.ravel().tolist())), header)


def save_masked_csv(ds: MaskedDataset, path, header: bool = True) -> None:
    """Write a masked dataset, emitting empty fields at missing cells."""
    fields = list(map(repr, ds.data.values.ravel().tolist()))
    for k in np.flatnonzero(~ds.mask.observed.ravel()).tolist():
        fields[k] = ""
    _write_rows(path, ds.data.column_names, fields, header)


def save_filled_csv(ds: MaskedDataset, fields, completed, path,
                    header: bool = True) -> None:
    """Write ``fields`` (from :func:`load_masked_fields` of ``ds``) with each
    missing one replaced by the ``repr`` of ``completed`` at that cell.

    Observed fields keep their spelling as read, so only the imputed cells
    are formatted; the file reads back equal to ``completed`` bit for bit.
    """
    missing = ~ds.mask.observed
    filled = list(fields)
    for k, text in zip(np.flatnonzero(missing).tolist(),
                       map(repr, completed[missing].tolist())):
        filled[k] = text
    _write_rows(path, ds.data.column_names, filled, header)
