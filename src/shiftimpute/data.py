"""Data model: complete matrices, observedness masks, CSV ingestion/emission,
and the JSON form of config and record dataclasses.

A mask is always a separate boolean matrix (True = observed); missing cells are
never encoded as sentinel values. CSV dialect: comma-separated, '.' decimal,
optional header row, empty field = missing, UTF-8.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
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
    "save_csv",
    "save_masked_csv",
]


_JSON_SCALARS = {bool: ((bool,), "boolean"), int: ((int,), "integer"),
                 float: ((int, float), "number"), str: ((str,), "string")}


class JsonRecord:
    """Base of the dataclasses that are written and read as JSON objects.

    ``to_dict`` lists the fields in declaration order, nested records as
    nested dicts. ``from_dict`` is its inverse and the one place JSON input
    is checked: an unknown key, a non-object where a record belongs, and a
    boolean, integer, float or string field or tuple element given any other
    JSON type are errors. Lists become tuples; omitted keys keep their
    defaults.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    def _check_scalars(self) -> None:
        """Hold the ``int`` and ``bool`` fields to their types, for records a
        Python caller builds (``from_dict`` has checked JSON input already):
        an ``int`` field goes through ``operator.index``, so ``2.5`` is
        rejected rather than truncated, and a ``bool`` field takes only a
        bool. Neither takes the other's values. Config records call it first
        in ``__post_init__``."""
        for name, hint in _scalar_fields(type(self)):
            value = getattr(self, name)
            try:
                if isinstance(value, (bool, np.bool_)) != (hint is bool):
                    raise TypeError
                value = bool(value) if hint is bool else operator.index(value)
            except TypeError:
                kind = "a bool" if hint is bool else "an integer"
                raise TypeError(f"{name} must be {kind}, got {value!r}") from None
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
        hints = typing.get_type_hints(cls)
        return cls(**{name: _from_json(f"{cls.__name__}.{name}", hints[name], value)
                      for name, value in d.items()})


@functools.cache
def _scalar_fields(cls) -> tuple[tuple[str, type], ...]:
    """(name, annotation) of each field of ``cls`` annotated ``int`` or ``bool``."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls)
                 if hints[f.name] in (int, bool))


def _from_json(label: str, hint, value):
    """A field's JSON value as its annotation ``hint`` expects it."""
    if isinstance(hint, type) and issubclass(hint, JsonRecord):
        if not isinstance(value, dict):
            raise ValueError(f"{label} must be a JSON object, got {value!r}")
        return hint.from_dict(value)
    if hint in _JSON_SCALARS:
        types, name = _JSON_SCALARS[hint]
        # bool subclasses int: true is no integer here, and 1 no boolean
        if isinstance(value, bool) != (hint is bool) or not isinstance(value, types):
            raise ValueError(f"{label} must be a JSON {name}, got {value!r}")
        return hint(value)
    if isinstance(value, list):
        item = _tuple_item(hint)
        if item is None:
            raise ValueError(f"{label} must not be a JSON array, got {value!r}")
        return tuple(_from_json(f"{label}[{k}]", item, v)
                     for k, v in enumerate(value))
    return value


def _tuple_item(hint):
    """The element annotation of the ``tuple[X, ...]`` in ``hint``, if any."""
    for h in (hint, *typing.get_args(hint)):
        if typing.get_origin(h) is tuple:
            return typing.get_args(h)[0]
    return None


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


def _read_csv(path, has_header: bool, allow_missing: bool):
    """Parse a CSV into (names, values, observed); missing cells read as 0.0.

    A cell is observed when non-empty after stripping, and is parsed with
    Python's ``float``; all cells go through one ``fromiter`` call, and only
    a failure walks the rows again to name the first error.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
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
    cells = list(map(str.strip, chain.from_iterable(rows)))
    observed = np.fromiter(map(bool, cells), bool, len(cells)).reshape(len(rows), width)
    try:
        parsed = np.fromiter(map(float, filter(None, cells)), float, int(observed.sum()))
    except ValueError:
        parsed = None
    usable = observed.any(axis=1).all() if allow_missing else observed.all()
    if parsed is None or not usable or not np.isfinite(parsed).all():
        _raise_first_error(rows, names, allow_missing)
    values = np.zeros(observed.shape)
    values[observed] = parsed
    return names, values, observed


def load_csv(path, has_header: bool = True) -> DataMatrix:
    """Load a complete CSV: every cell must parse as a finite real."""
    names, values, _ = _read_csv(path, has_header, allow_missing=False)
    return DataMatrix(values, names)


def load_masked_csv(path, has_header: bool = True) -> MaskedDataset:
    """Load a CSV where empty fields mark missing cells.

    Missing cells get a placeholder 0.0 in the data matrix (the mask is the
    source of truth). Rows with no observed entry are rejected.
    """
    names, values, observed = _read_csv(path, has_header, allow_missing=True)
    return MaskedDataset(DataMatrix(values, names), MaskMatrix(observed))


def _write_csv(path, names, values, observed, header: bool) -> None:
    """Floats by repr, empty fields at missing cells, ``\\r\\n`` after each row.

    Numbers never need quoting, so a row is joined directly: the bytes are
    those ``csv.writer`` gives, which still writes the header.
    """
    def lines():
        gappy = ~observed.all(axis=1)
        for row, gap, obs in zip(values.tolist(), gappy.tolist(), observed):
            cells = map(repr, row)
            if gap:
                cells = [cell if o else "" for cell, o in zip(cells, obs.tolist())]
            yield ",".join(cells) + "\r\n"

    with open(path, "w", newline="", encoding="utf-8") as handle:
        if header:
            csv.writer(handle).writerow(names)
        handle.writelines(lines())


def save_csv(matrix: DataMatrix, path, header: bool = True) -> None:
    """Write a complete matrix; floats use repr so a round trip is exact."""
    _write_csv(path, matrix.column_names, matrix.values,
               np.ones(matrix.values.shape, dtype=bool), header)


def save_masked_csv(ds: MaskedDataset, path, header: bool = True) -> None:
    """Write a masked dataset, emitting empty fields at missing cells."""
    _write_csv(path, ds.data.column_names, ds.data.values, ds.mask.observed, header)
