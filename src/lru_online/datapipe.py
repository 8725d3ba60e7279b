"""Emission time-series ingestion and preprocessing.

Flow: load emission CSV -> join hourly weather -> resample each session to
a 1 s grid (gaps become all-missing rows) -> impute -> split by session ->
fit/apply the standardization + one-hot pipeline.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (CompatibilityError, ConfigurationError,
                     ContractViolationError, ImputationError, SchemaError,
                     UsageError)

log = logging.getLogger(__name__)

EMISSION_HEADER = ["timestamp", "engine_rpm", "fuel_lph", "coolant_c",
                   "speed_kmh", "fuel_econ_kmpl",
                   "no_ppm", "no2_ppm", "nox_ppm", "co2_pct", "co_ppm"]
TARGET_COLUMNS = ["no_ppm", "no2_ppm", "nox_ppm", "co2_pct", "co_ppm"]
EMISSION_FEATURES = ["engine_rpm", "fuel_lph", "coolant_c", "speed_kmh",
                     "fuel_econ_kmpl"]
WEATHER_HEADER = ["timestamp_hour", "temp_c", "precip_mm", "conditions"]
SESSION_GAP_S = 60.0   # a longer gap between consecutive rows starts a session
IMPUTE_WINDOW = 5      # rolling-median width, recorded in each FittedPipeline


# -------------------------------------------------------------------- tables

def session_bounds(session_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops): session k is rows starts[k]:stops[k], in stream
    order; no rows, no sessions. A session is a run of equal ids, and this
    is the only code that finds sessions. An id that comes back after
    another id is a ContractViolationError: its rows would not be
    contiguous."""
    ids = session_ids
    change = ids[1:] != ids[:-1]
    starts = np.flatnonzero(np.r_[ids.size > 0, change])
    _, first = np.unique(ids[starts], return_index=True)
    if first.size < starts.size:
        k = np.setdiff1d(np.arange(starts.size), first)[0]
        raise ContractViolationError(
            f"session {ids[starts[k]]} comes back at row {starts[k]} "
            "after another session; a session's rows must be contiguous")
    return starts, np.flatnonzero(np.r_[change, ids.size > 0]) + 1


@dataclass
class SeriesTable:
    """Timestamped multivariate frame with explicit missingness.

    Numeric columns are float64 with NaN as the missing marker; categorical
    columns are object arrays with None, so a column's dtype is its role
    (the numeric TARGET_COLUMNS are the targets). Rows of one session are
    contiguous and strictly increasing in time; every stage takes its
    sessions from session_bounds, which rejects an id that comes back.
    """
    timestamps: np.ndarray                 # (N,) float64 seconds
    session_ids: np.ndarray                # (N,) int64
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.timestamps.shape[0]

    def session_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return session_bounds(self.session_ids)

    def sessions(self) -> list[int]:
        """Session ids in stream order."""
        return self.session_ids[self.session_bounds()[0]].tolist()

    def session_indices(self, sid: int) -> np.ndarray:
        """Rows of session sid; empty for an id that is not in the table."""
        for start, stop in zip(*self.session_bounds()):
            if self.session_ids[start] == sid:
                return np.arange(start, stop)
        return np.arange(0)

    def numeric_columns(self) -> list[str]:
        return [c for c, v in self.columns.items() if v.dtype != object]

    def categorical_columns(self) -> list[str]:
        return [c for c, v in self.columns.items() if v.dtype == object]

    def select(self, idx: np.ndarray) -> "SeriesTable":
        return SeriesTable(
            timestamps=self.timestamps[idx],
            session_ids=self.session_ids[idx],
            columns={c: v[idx] for c, v in self.columns.items()},
        )

    def copy(self) -> "SeriesTable":
        return SeriesTable(
            timestamps=self.timestamps.copy(),
            session_ids=self.session_ids.copy(),
            columns={c: v.copy() for c, v in self.columns.items()},
        )


@dataclass
class WeatherTable:
    """Hourly weather observations."""
    timestamps: np.ndarray     # (H,) float64, hour starts
    temp_c: np.ndarray
    precip_mm: np.ndarray
    conditions: np.ndarray     # object


@dataclass
class SequenceData:
    """Model-ready arrays produced by apply_pipeline. The rows are in stream
    order and a session's rows are contiguous: a session is a run of equal
    session ids (session_bounds)."""
    features: np.ndarray       # (N, F) float64, no missing values
    targets: np.ndarray        # (N, P) float64, standardized
    session_ids: np.ndarray
    timestamps: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    target_names: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def session_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return session_bounds(self.session_ids)


# ------------------------------------------------------------------- loading

def _parse_cell(raw: str, row: int, col: str) -> float:
    raw = raw.strip()
    if raw == "":
        return np.nan
    try:
        return float(raw)
    except ValueError:
        raise SchemaError(f"unparseable value {raw!r} at row {row}, column {col!r}")


@contextmanager
def _csv_body(path, header: list[str]):
    """The UTF-8 file, open after its header record, which must be `header`
    (cells stripped). A file that cannot be opened or decoded is a
    SchemaError naming it, as are an empty file and another header."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                got = [h.strip() for h in next(csv.reader(fh))]
            except StopIteration:
                raise SchemaError(f"{path}: empty file")
            if got != header:
                missing = [c for c in header if c not in got]
                extra = [c for c in got if c not in header]
                raise SchemaError(
                    f"{path}: header mismatch; missing columns {missing}, "
                    f"unknown columns {extra}")
            yield fh
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(f"{path}: cannot read: {e}") from None


def _records(fh, path, header: list[str]):
    """The body's (row, cells) records, row counting blank lines, which
    are skipped; a record not len(header) cells wide is a SchemaError
    naming its row."""
    for i, rec in enumerate(csv.reader(fh), start=1):
        if not rec:
            continue
        if len(rec) != len(header):
            raise SchemaError(f"{path}: row {i} has {len(rec)} cells, "
                              f"expected {len(header)}")
        yield i, rec


def _emission_body(path):
    return _csv_body(path, EMISSION_HEADER)


def _body_by_loadtxt(fh) -> np.ndarray | None:
    """The body as numpy's C reader parses it: (N, 11) float64, or None
    unless it is N >= 1 rows of 11 plain numbers with no NaN timestamp.
    None leaves the file to _body_by_cells, which decides what it means."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(fh, delimiter=",", comments=None,
                              dtype=np.float64, ndmin=2)
    except (ValueError, Warning):
        return None
    if (data.shape[0] == 0 or data.shape[1] != len(EMISSION_HEADER)
            or np.isnan(data[:, 0]).any()):
        return None
    return data


def _body_by_cells(fh, path) -> np.ndarray:
    """The body record by record (_records), one _parse_cell per cell: an
    empty cell is NaN, and a ragged row, an unparseable cell, no rows or a
    missing timestamp is a SchemaError naming its record."""
    rows = []
    no_timestamp = None
    for i, rec in _records(fh, path, EMISSION_HEADER):
        rows.append([_parse_cell(c, i, EMISSION_HEADER[j])
                     for j, c in enumerate(rec)])
        if no_timestamp is None and math.isnan(rows[-1][0]):
            no_timestamp = i
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    if no_timestamp is not None:
        raise SchemaError(f"{path}: missing timestamp value at row {no_timestamp}")
    return np.asarray(rows, dtype=np.float64)


def load_emission_csv(path) -> SeriesTable:
    """Read the 11-column emission CSV. Gaps > SESSION_GAP_S seconds between
    consecutive rows start a new session. Missing rows stay missing (no grid
    materialization here; see resample_to_grid).

    A body of plain numbers (the generator's files: `repr` floats, `nan`
    for a missing value) is parsed by numpy's C reader. Any other body
    (an empty or quoted cell, a ragged row, text, no rows, a NaN timestamp)
    is read again one cell at a time, and that reader alone decides what it
    means and raises its SchemaErrors. Both readers round correctly, and
    the C reader accepts only cells that float() reads the same, so the
    table does not depend on which one ran."""
    with _emission_body(path) as fh:
        data = _body_by_loadtxt(fh)
    if data is None:
        with _emission_body(path) as fh:
            data = _body_by_cells(fh, path)
    order = np.argsort(data[:, 0], kind="stable")
    data = data[order]
    ts = data[:, 0]
    gaps = np.diff(ts)
    session_ids = np.concatenate([[0], np.cumsum(gaps > SESSION_GAP_S)]).astype(np.int64)
    dup = np.nonzero((gaps == 0) & (np.diff(session_ids) == 0))[0]
    if dup.size:
        i = int(dup[0])
        raise SchemaError(
            f"{path}: duplicate timestamp {ts[i]} at sorted rows {i} and {i + 1}")
    columns = {name: data[:, j + 1] for j, name in enumerate(EMISSION_HEADER[1:])}
    return SeriesTable(timestamps=ts, session_ids=session_ids, columns=columns)


def load_weather_csv(path) -> WeatherTable:
    """Read the 4-column hourly weather CSV, sorted by hour. An empty or
    repeated hour is a SchemaError naming its row."""
    with _csv_body(path, WEATHER_HEADER) as fh:
        lines, ts, temp, precip, cond = [], [], [], [], []
        for i, rec in _records(fh, path, WEATHER_HEADER):
            hour = _parse_cell(rec[0], i, "timestamp_hour")
            if np.isnan(hour):
                raise SchemaError(f"{path}: row {i} has no timestamp_hour")
            lines.append(i)
            ts.append(hour)
            temp.append(_parse_cell(rec[1], i, "temp_c"))
            precip.append(_parse_cell(rec[2], i, "precip_mm"))
            cond.append(rec[3].strip() or None)
    if not ts:
        raise SchemaError(f"{path}: no data rows")
    order = np.argsort(np.asarray(ts), kind="stable")
    hours = np.asarray(ts)[order]
    dup = np.flatnonzero(np.diff(hours) == 0)
    if dup.size:
        k = dup[0]
        raise SchemaError(f"{path}: duplicate timestamp_hour {hours[k]} at "
                          f"rows {lines[order[k]]} and {lines[order[k + 1]]}")
    return WeatherTable(
        timestamps=hours,
        temp_c=np.asarray(temp)[order],
        precip_mm=np.asarray(precip)[order],
        conditions=np.asarray(cond, dtype=object)[order],
    )


def join_weather(table: SeriesTable, weather: WeatherTable) -> SeriesTable:
    """Attach the most recent at-or-before hourly weather row to every sample."""
    out = table.copy()
    idx = np.searchsorted(weather.timestamps, table.timestamps, side="right") - 1
    if np.any(idx < 0):
        first_bad = int(np.argmax(idx < 0))
        raise SchemaError(
            f"emission timestamp {table.timestamps[first_bad]} precedes the "
            f"first weather hour {weather.timestamps[0]}")
    out.columns["temp_c"] = weather.temp_c[idx].astype(np.float64)
    out.columns["precip_mm"] = weather.precip_mm[idx].astype(np.float64)
    out.columns["conditions"] = weather.conditions[idx].copy()
    return out


# ---------------------------------------------------------------- resampling

def resample_to_grid(table: SeriesTable) -> SeriesTable:
    """Expand every session to the 1 s grid between its first and last
    timestamp. Grid points without a source row become all-missing rows.
    Two rows of a session that round to the same grid point are a
    SchemaError: one would overwrite the other."""
    starts, stops = table.session_bounds()
    ts = table.timestamps
    t0 = ts[starts]
    n_grid = np.rint(ts[stops - 1] - t0).astype(np.int64) + 1
    pos = np.rint(ts - np.repeat(t0, stops - starts)).astype(np.int64)
    clash = np.flatnonzero(pos[1:] <= pos[:-1])
    clash = clash[~np.isin(clash + 1, starts)]   # pos restarts in each session
    if clash.size:
        i = clash[0]
        raise SchemaError(
            f"session {table.session_ids[i]}: timestamps {ts[i]} and "
            f"{ts[i + 1]} do not fall on distinct, increasing 1 s grid points")
    # session k's grid rows are offset[k]:offset[k] + n_grid[k], and grid
    # row i lies step[i] seconds after its session's first timestamp
    offset = np.cumsum(n_grid) - n_grid
    pos += np.repeat(offset, stops - starts)
    step = np.arange(n_grid.sum()) - np.repeat(offset, n_grid)
    columns = {}
    for name, vals in table.columns.items():
        new = (np.full(step.size, None, dtype=object) if vals.dtype == object
               else np.full(step.size, np.nan))
        new[pos] = vals
        columns[name] = new
    return SeriesTable(
        timestamps=np.repeat(t0, n_grid) + step.astype(np.float64),
        session_ids=np.repeat(table.session_ids[starts], n_grid),
        columns=columns,
    )


# ---------------------------------------------------------------- imputation

def _fill_categorical(vals: np.ndarray, starts: np.ndarray,
                      stops: np.ndarray) -> np.ndarray:
    """Copy of vals with each None entry forward filled, then backward
    filled, within its session (rows starts[k]:stops[k], which tile vals);
    a session with no value stays None."""
    idx = np.arange(vals.size)
    none = np.equal(vals, None)
    # the last non-None row at or before each row, never before its
    # session's first row, which maps to itself even when it is None
    fwd = np.where(none, 0, idx)
    fwd[starts] = starts
    np.maximum.accumulate(fwd, out=fwd)
    # then, in the forward-filled column vals[fwd], the first non-None row
    # at or after each row, never after its session's last row
    src = np.where(none[fwd], vals.size, idx)
    src[stops - 1] = stops - 1
    return vals[fwd[np.minimum.accumulate(src[::-1])[::-1]]]


def _window_medians(flat: np.ndarray, src: np.ndarray, at: np.ndarray,
                    n: int, w: int) -> np.ndarray:
    """np.median of the observed values among the w - 1 neighbours of each
    missing cell (the cell itself is missing), NaN where there are none.
    The cells lie at positions src of flat, `at` steps into a session n
    steps long; a neighbour outside the session counts as missing.

    The neighbours form one (w - 1, cells) array, sorted down its rows by
    an odd-even transposition network (Knuth, TAOCP vol. 3, 5.3.4): w - 1
    rounds of compare-exchanges between adjacent rows, np.fmin into the
    first row of each pair and np.maximum into the second, which orders
    NaN (missing) after every number. A cell with c observed values then
    holds them sorted in rows 0 to c - 1, and its median is 0.0 + row m
    for odd c = 2m + 1 and ((0.0 + row m - 1) + row m) / 2 for even
    c = 2m: the mean np.median takes of its middle values, a sum that
    starts at 0.0. So the results are bitwise equal to np.median over each
    window: a median of -0.0 values is +0.0, the mean of two values above
    half the float64 maximum overflows to inf, and that of -inf and inf
    is NaN.
    """
    hw = w // 2
    steps = [*range(-hw, 0), *range(1, hw + 1)]   # the cell itself is NaN
    win = np.empty((len(steps), src.size))
    # a position past either end of flat is outside the session: clipped
    # here, set to NaN below
    for row, step in zip(win, steps):
        np.take(flat, src + step, out=row, mode="clip")
    for k in range(hw):                 # neighbours outside the session
        win[k, at < hw - k] = np.nan
        win[-1 - k, at >= n - hw + k] = np.nan
    seen = len(steps) - np.isnan(win).sum(axis=0)
    for r in range(len(steps)):
        low, high = win[r % 2:-1:2], win[r % 2 + 1::2]
        least = np.fmin(low, high)
        np.maximum(low, high, out=high)
        low[...] = least
    # rows (seen - 1) // 2 and seen // 2 of each cell's column of win
    cells = np.arange(src.size)
    mid = win.reshape(-1).take((seen - 1) // 2 * src.size + cells)
    mid += 0.0                          # -0.0 becomes +0.0
    upper = win.reshape(-1).take(seen // 2 * src.size + cells)
    upper += mid
    upper /= 2
    return np.where(seen % 2 == 1, mid, upper)


def _impute_session(X: np.ndarray, start: int, missing: np.ndarray,
                    w: int) -> None:
    """Impute one session, columns start:start + n of the C-contiguous
    (columns, rows) array X, in place at its missing cells (`missing`, the
    (columns, n) mask): the median of the observed values in the centred
    width-w window (_window_medians), then, where that is NaN (the window
    saw no observed value, or its middle values are -inf and inf), the
    nearest value after the cell in its column, else the nearest before
    it (a backward fill, then a forward fill). Every column must hold an
    observed value.
    """
    n = missing.shape[1]
    col, at = np.divmod(np.flatnonzero(missing), n)
    src = col * X.shape[1] + (at + start)       # positions in X.reshape(-1)
    med = _window_medians(X.reshape(-1), src, at, n, w)
    X.reshape(-1)[src] = med
    left = np.isnan(med)
    if not left.any():
        return
    block = X[:, start:start + n]
    col, at = col[left], at[left]
    valid = np.flatnonzero(~np.isnan(block))    # positions in (C, n) order
    j = np.searchsorted(valid, col * n + at)
    after = valid[np.minimum(j, valid.size - 1)]
    src = np.where((j < valid.size) & (after // n == col), after, valid[j - 1])
    block[col, at] = block[src // n, src % n]


def impute_rolling_median(table: SeriesTable,
                          w: int = IMPUTE_WINDOW) -> SeriesTable:
    """Four-step recipe per numeric column, per session:
    centered width-w median over observed values, substitute at missing
    cells, then backward fill and forward fill for the boundary runs.
    Categorical columns are forward/backward filled.

    Each session's numeric columns are imputed together: one
    compare-exchange network sorts the w - 1 neighbours of all its missing
    cells at once, and each median is the mean of the middle values with
    the sum started at 0.0, bitwise equal to np.median over each window
    (_window_medians). On the generator's default 5 x 3600 s scenario
    (about 46 000 missing cells) this takes about 4 ms, where one
    np.median per group of cells with the same observed count took about
    9 ms (2-vCPU Xeon, numpy 2.4). A column with no observed value in a
    session is an ImputationError naming the first such session in stream
    order and, within it, the first such column."""
    if w < 3 or w % 2 == 0:
        raise ConfigurationError(f"rolling window must be odd and >= 3, got {w}")
    starts, stops = table.session_bounds()
    names = table.numeric_columns()
    X = (np.stack([table.columns[c] for c in names]) if names
         else np.empty((0, table.n_rows)))
    for start, stop in zip(starts, stops):
        missing = np.isnan(X[:, start:stop])
        full = missing.all(axis=1)
        if full.any():
            raise ImputationError(
                f"column {names[np.argmax(full)]!r} entirely missing in "
                f"session {table.session_ids[start]}")
        _impute_session(X, start, missing, w)
    filled = dict(zip(names, X))
    return SeriesTable(
        timestamps=table.timestamps.copy(),
        session_ids=table.session_ids.copy(),
        columns={c: filled[c] if c in filled
                 else _fill_categorical(v, starts, stops)
                 for c, v in table.columns.items()},
    )


def impute_knn(table: SeriesTable, k: int = 20) -> SeriesTable:
    """Comparison baseline: each missing cell is filled with the uniform mean
    of the column over the k nearest rows. Distance is Euclidean over numeric
    columns observed in both rows (excluding the column being filled), scaled
    by n_cols/n_observed so partial distances compare fairly."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    bounds = table.session_bounds()
    out = table.copy()
    names = table.numeric_columns()
    X = np.column_stack([out.columns[c] for c in names])
    filled = X.copy()
    n_rows, n_cols = X.shape
    for ci, name in enumerate(names):
        col = X[:, ci]
        miss = np.nonzero(np.isnan(col))[0]
        if miss.size == 0:
            continue
        cand = np.nonzero(~np.isnan(col))[0]
        if cand.size == 0:
            raise ImputationError(f"no observed values in column {name!r}")
        feat_cols = [j for j in range(n_cols) if j != ci]
        F = X[:, feat_cols]
        M = (~np.isnan(F)).astype(np.float64)
        A = np.nan_to_num(F)
        sq = A * A
        kk = min(k, cand.size)
        cand_vals = col[cand]
        A_c, M_c, sq_c = A[cand], M[cand], sq[cand]
        for lo in range(0, miss.size, 512):
            rows = miss[lo:lo + 512]
            d2 = (sq[rows] @ M_c.T + M[rows] @ sq_c.T
                  - 2.0 * (A[rows] @ A_c.T))
            counts = M[rows] @ M_c.T
            with np.errstate(divide="ignore", invalid="ignore"):
                d2 = np.where(counts > 0, d2 * (len(feat_cols) / counts), np.inf)
            nearest = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
            est = cand_vals[nearest].mean(axis=1)
            # no mutually observed features at all -> column-mean fallback
            no_overlap = ~np.isfinite(
                np.take_along_axis(d2, nearest, axis=1)).any(axis=1)
            est[no_overlap] = cand_vals.mean()
            filled[rows, ci] = est
    for ci, name in enumerate(names):
        out.columns[name] = filled[:, ci]
    for name in table.categorical_columns():
        out.columns[name] = _fill_categorical(out.columns[name], *bounds)
    return out


# ------------------------------------------------------------------ pipeline

@dataclass
class FittedPipeline:
    """Frozen preprocessing state: standardization statistics, one-hot
    vocabularies, imputer window, and the feature ordering."""
    numeric_columns: list[str]
    numeric_mean: dict[str, float]
    numeric_scale: dict[str, float]
    categorical_columns: list[str]
    vocabularies: dict[str, list[str]]
    target_columns: list[str]
    target_mean: dict[str, float]
    target_scale: dict[str, float]
    window: int
    feature_names: list[str]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FittedPipeline":
        return cls(**d)


def fit_pipeline(train_table: SeriesTable) -> FittedPipeline:
    """Fit standardization and the one-hot vocabularies on the training
    sessions alone, so a category they never show encodes as all-zeros in
    apply_pipeline. It records load_grid's window, IMPUTE_WINDOW."""
    numeric = [c for c in train_table.numeric_columns()
               if c not in TARGET_COLUMNS]
    cats = train_table.categorical_columns()
    mean, scale = {}, {}
    for name in numeric + TARGET_COLUMNS:
        vals = train_table.columns[name]
        if np.any(np.isnan(vals)):
            raise UsageError(f"column {name!r} still has missing values; "
                             "impute before fitting the pipeline")
        mu = float(np.mean(vals))
        sd = float(np.std(vals))
        if sd < 1e-12:
            raise ConfigurationError(
                f"column {name!r} is constant in the training set; "
                "cannot standardize")
        mean[name], scale[name] = mu, sd
    vocabularies = {}
    for name in cats:
        vals = train_table.columns[name]
        vocabularies[name] = sorted({v for v in vals if v is not None})
    return FittedPipeline(
        numeric_columns=numeric,
        numeric_mean={c: mean[c] for c in numeric},
        numeric_scale={c: scale[c] for c in numeric},
        categorical_columns=cats,
        vocabularies=vocabularies,
        target_columns=list(TARGET_COLUMNS),
        target_mean={c: mean[c] for c in TARGET_COLUMNS},
        target_scale={c: scale[c] for c in TARGET_COLUMNS},
        window=IMPUTE_WINDOW,
        feature_names=_feature_names(numeric, cats, vocabularies),
    )


def _feature_names(numeric, categorical, vocabularies) -> list[str]:
    """apply_pipeline's feature order: the numeric columns, then
    column=value for each vocabulary entry of each categorical column."""
    return [*numeric,
            *(f"{c}={v}" for c in categorical for v in vocabularies[c])]


def apply_pipeline(pipe: FittedPipeline, table: SeriesTable) -> SequenceData:
    """Standardize numerics with the frozen train statistics and one-hot the
    categoricals with the frozen vocabularies. Unknown categories encode as
    all-zeros with a logged warning. A table that lacks a column the
    pipeline names (numeric, categorical or target) is a
    CompatibilityError naming every such column."""
    absent = [c for c in (*pipe.numeric_columns, *pipe.categorical_columns,
                          *pipe.target_columns) if c not in table.columns]
    if absent:
        raise CompatibilityError(
            f"the data lacks the columns {absent} that the preprocessing "
            "pipeline names")
    n = table.n_rows
    features = np.empty((n, len(pipe.numeric_columns) + sum(
        len(pipe.vocabularies[c]) for c in pipe.categorical_columns)))
    for j, name in enumerate(pipe.numeric_columns):
        vals = table.columns[name]
        if np.isnan(vals).any():
            raise UsageError(f"column {name!r} has missing values at apply time")
        np.subtract(vals, pipe.numeric_mean[name], out=features[:, j])
        features[:, j] /= pipe.numeric_scale[name]
    j = len(pipe.numeric_columns)
    for name in pipe.categorical_columns:
        vals = table.columns[name]
        matched = np.zeros(n, bool)
        for v in pipe.vocabularies[name]:
            hit = vals == v
            features[:, j] = hit
            matched |= hit
            j += 1
        unmatched = vals[~matched]
        unknown = set(unmatched[~np.equal(unmatched, None)])
        if unknown:
            log.warning("column %r: categories %s not in vocabulary; "
                        "encoded as all-zeros", name, sorted(unknown))
    targets = np.empty((n, len(pipe.target_columns)))
    for k, name in enumerate(pipe.target_columns):
        np.subtract(table.columns[name], pipe.target_mean[name],
                    out=targets[:, k])
        targets[:, k] /= pipe.target_scale[name]
    if np.isnan(targets).any():
        raise UsageError("target columns have missing values at apply time")
    return SequenceData(
        features=features,
        targets=targets,
        session_ids=table.session_ids.copy(),
        timestamps=table.timestamps.copy(),
        feature_names=list(pipe.feature_names),
        target_names=list(pipe.target_columns),
    )


def split_sessions(table: SeriesTable,
                   train_fraction: float = 0.8) -> tuple[SeriesTable, SeriesTable]:
    """Whole-session split in stream order: train is the sessions up to the
    first one whose end reaches train_fraction of the rows, the rest is
    validation (never empty). A train_fraction outside [0, 1] or NaN is a
    ConfigurationError. Sessions come from session_bounds, so an id that
    comes back after another is a ContractViolationError. Both parts are
    copies."""
    if not 0.0 <= train_fraction <= 1.0:
        raise ConfigurationError(
            f"train_fraction must lie in [0, 1], got {train_fraction}")
    starts, stops = table.session_bounds()
    if starts.size < 2:
        raise ConfigurationError(
            f"need at least 2 sessions to split, got {starts.size}")
    # the first k with stops[k] >= train_fraction * n_rows, keeping the
    # last session for validation
    k = min(np.searchsorted(stops, train_fraction * table.n_rows),
            starts.size - 2)
    rows = np.arange(table.n_rows)
    return table.select(rows[:stops[k]]), table.select(rows[stops[k]:])
