import logging

import numpy as np
import pytest

from lru_online import datapipe
from lru_online.datapipe import (EMISSION_HEADER, TARGET_COLUMNS,
                                 FittedPipeline, SequenceData, SeriesTable,
                                 apply_pipeline,
                                 fit_pipeline, impute_knn,
                                 impute_rolling_median, join_weather,
                                 load_emission_csv, load_weather_csv,
                                 resample_to_grid, split_sessions)
from lru_online.errors import (ConfigurationError, ContractViolationError,
                               ImputationError, SchemaError, UsageError)
from lru_online.harness import load_grid
from lru_online.synth import GeneratorConfig, generate_dataset, write_dataset


def numeric_table(columns, session_ids=None, timestamps=None):
    n = len(next(iter(columns.values())))
    cols = {c: np.asarray(v, dtype=np.float64) for c, v in columns.items()}
    return SeriesTable(
        timestamps=np.asarray(timestamps if timestamps is not None
                              else np.arange(n), dtype=np.float64),
        session_ids=np.asarray(session_ids if session_ids is not None
                               else np.zeros(n), dtype=np.int64),
        columns=cols,
    )


def write_emission(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(EMISSION_HEADER) + "\n")
        for r in rows:
            fh.write(",".join("" if v is None else repr(float(v))
                              for v in r) + "\n")


def emission_row(ts, base=1.0):
    return [ts] + [base + j for j in range(10)]


class TestLoadEmissionCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emission(path, [emission_row(t) for t in (0.0, 1.0, 2.0)])
        table = load_emission_csv(path)
        assert table.n_rows == 3
        assert np.array_equal(table.timestamps, [0.0, 1.0, 2.0])
        assert np.array_equal(table.columns["engine_rpm"], [1.0, 1.0, 1.0])
        assert "no_ppm" in table.numeric_columns()

    def test_empty_cell_becomes_nan(self, tmp_path):
        path = tmp_path / "e.csv"
        row = emission_row(0.0)
        row[3] = None
        write_emission(path, [row, emission_row(1.0)])
        table = load_emission_csv(path)
        assert np.isnan(table.columns["coolant_c"][0])

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "e.csv"
        with open(path, "w") as fh:
            fh.write("time,rpm\n0,1\n")
        with pytest.raises(SchemaError, match="header"):
            load_emission_csv(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emission(path, [emission_row(0.0), emission_row(0.0)])
        with pytest.raises(SchemaError, match="duplicate"):
            load_emission_csv(path)

    def test_gap_starts_new_session(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emission(path, [emission_row(t) for t in (0.0, 1.0, 100.0, 101.0)])
        table = load_emission_csv(path)
        assert np.array_equal(table.session_ids, [0, 0, 1, 1])

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        with open(path, "w") as fh:
            fh.write(",".join(EMISSION_HEADER) + "\n")
        with pytest.raises(SchemaError, match="no data"):
            load_emission_csv(path)


def emission_file(path, body):
    """An emission CSV: the header line, then body verbatim."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(EMISSION_HEADER) + "\n" + body)
    return path


def read_body(path, reader):
    """The body of an emission file as one of datapipe's two readers
    parses it: "c" numpy's C reader (None if it declines), "cells" the
    per-cell reader."""
    with datapipe._emission_body(path) as fh:
        if reader == "c":
            return datapipe._body_by_loadtxt(fh)
        return datapipe._body_by_cells(fh, path)


def cell_rows(cells, n_rows=2):
    """n_rows rows with timestamps 0, 1, ... and the given ten cells."""
    return "".join(",".join([repr(float(t))] + cells) + "\n"
                   for t in range(n_rows))


def repr_rows(rng, n_rows, scale):
    values = rng.uniform(-1, 1, (n_rows, 10)) * 10.0 ** rng.integers(
        -scale, scale, (n_rows, 10))
    return "".join(",".join([repr(float(t))] + [repr(float(v)) for v in r])
                   + "\n" for t, r in enumerate(values))


def plain_cells(**at):
    """Ten cells "1.0".."10.0", with cells replaced at the given columns."""
    cells = [repr(float(j + 1)) for j in range(10)]
    for name, cell in at.items():
        cells[EMISSION_HEADER.index(name) - 1] = cell
    return cells


C_READER_CORPUS = {
    "17-digit": repr_rows(np.random.default_rng(0), 400, 300),
    "subnormal": cell_rows(
        ["5e-324", "-4.9e-324", "2.2250738585072009e-308", "1e-310",
         "2.225073858507201e-308", "1.5e-323", "1", "2", "3", "4"]),
    "overflow": cell_rows(
        ["1e400", "-1e400", "1e-400", "-1e-400", "1.7976931348623157e308",
         "1.7976931348623159e308", "1", "2", "3", "4"]),
    "nan-inf": cell_rows(
        ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-INF", "+nan",
         "3", "4"]),
    "signed-zero": cell_rows(
        ["-0.0", "0.0", "-0", "+0", "-0e5", "0e-5", "-.0", "1", "2", "3"]),
    "padded": cell_rows(
        [" 1.5", "2.5 ", "\t3.5", "4.5\t", "  -5.5  ", " nan ", "7", "8",
         "9", "10"]),
    "crlf": cell_rows(plain_cells(), 3).replace("\n", "\r\n"),
    "blank-lines": "\n" + cell_rows(plain_cells(), 2).replace(
        "\n", "\n\n\r\n"),
    "single-row": cell_rows(plain_cells(), 1),
    "no-trailing-newline": cell_rows(plain_cells(), 2)[:-1],
}


class TestEmissionReaders:
    """The C reader and the per-cell reader give bitwise the same table on
    every body the C reader accepts; every other body is the per-cell
    reader's alone."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_generator_files_bitwise(self, tmp_path, seed):
        write_dataset(generate_dataset(GeneratorConfig(seed=seed)), tmp_path)
        path = tmp_path / "emission.csv"
        fast = read_body(path, "c")
        assert fast is not None and fast.shape[1] == len(EMISSION_HEADER)
        assert fast.tobytes() == read_body(path, "cells").tobytes()

    @pytest.mark.parametrize("case", sorted(C_READER_CORPUS))
    def test_corpus_bitwise(self, tmp_path, case):
        path = emission_file(tmp_path / "e.csv", C_READER_CORPUS[case])
        fast = read_body(path, "c")
        assert fast is not None
        assert fast.tobytes() == read_body(path, "cells").tobytes()
        table = load_emission_csv(path)
        assert np.column_stack(
            [table.timestamps] + [table.columns[c] for c in EMISSION_HEADER[1:]]
        ).tobytes() == fast.tobytes()

    @pytest.mark.parametrize("seed", [1, 5])
    def test_generator_files_skip_per_cell_reader(self, tmp_path, monkeypatch,
                                                  seed):
        write_dataset(generate_dataset(GeneratorConfig(seed=seed)), tmp_path)

        def no_cells(*args):
            raise AssertionError("per-cell reader ran on a generator file")

        monkeypatch.setattr(datapipe, "_parse_cell", no_cells)
        assert load_emission_csv(tmp_path / "emission.csv").n_rows > 0

    @pytest.mark.parametrize("cell,value", [
        ("", np.nan), ("   ", np.nan), (" \t", np.nan), ('"2.5"', 2.5),
        ("1_0", 10.0), ("\u0661\u0662", 12.0)])
    def test_declined_cells_read_per_cell(self, tmp_path, cell, value):
        body = cell_rows(plain_cells(coolant_c=cell))
        path = emission_file(tmp_path / "e.csv", body)
        assert read_body(path, "c") is None
        table = load_emission_csv(path)
        expect = np.tile(np.arange(1.0, 11.0), (2, 1))
        expect[:, EMISSION_HEADER.index("coolant_c") - 1] = value
        got = np.column_stack([table.columns[c] for c in EMISSION_HEADER[1:]])
        assert got.tobytes() == expect.tobytes()
        assert np.array_equal(table.timestamps, [0.0, 1.0])

    @pytest.mark.parametrize("body,message", [
        ("\n" + cell_rows(plain_cells(co_ppm="abc")),
         "unparseable value 'abc' at row 2, column 'co_ppm'"),
        (cell_rows(plain_cells(no_ppm="0x10")),
         "unparseable value '0x10' at row 1, column 'no_ppm'"),
        (cell_rows(plain_cells()[:9]),
         "{path}: row 1 has 10 cells, expected 11"),
        (cell_rows(plain_cells()) + cell_rows(plain_cells() + ["1"]),
         "{path}: row 3 has 12 cells, expected 11"),
        (cell_rows(plain_cells() + [""]),
         "{path}: row 1 has 12 cells, expected 11"),
        (cell_rows(plain_cells()) + "   \n",
         "{path}: row 3 has 1 cells, expected 11"),
        ("", "{path}: no data rows"),
        ("\n\r\n", "{path}: no data rows"),
    ], ids=["text", "hex", "10-cells", "12-cells",
            "trailing-comma", "whitespace-line", "header-only", "blank-only"])
    def test_declined_bodies_raise_per_cell_errors(self, tmp_path, body,
                                                   message):
        path = emission_file(tmp_path / "e.csv", body)
        assert read_body(path, "c") is None
        with pytest.raises(SchemaError) as err:
            load_emission_csv(path)
        assert str(err.value) == message.format(path=path)

    @pytest.mark.parametrize("cell", ["", "nan", " -nan "])
    def test_missing_timestamp_names_its_row(self, tmp_path, cell):
        """The record number counts blank lines, and the message is the
        same whether or not the C reader could parse the cell."""
        body = (cell_rows(plain_cells()) + "\n"
                + ",".join([cell] + plain_cells()) + "\n")
        path = emission_file(tmp_path / "e.csv", body)
        with pytest.raises(SchemaError) as err:
            load_emission_csv(path)
        assert str(err.value) == f"{path}: missing timestamp value at row 4"


class TestWeatherJoin:
    def write_weather(self, path):
        with open(path, "w") as fh:
            fh.write("timestamp_hour,temp_c,precip_mm,conditions\n")
            fh.write("0.0,20.0,0.0,clear\n")
            fh.write("3600.0,22.0,1.5,rain\n")

    def test_floor_hour(self, tmp_path):
        self.write_weather(tmp_path / "w.csv")
        weather = load_weather_csv(tmp_path / "w.csv")
        table = numeric_table({"x": [1.0, 1.0, 1.0]},
                              timestamps=[10.0, 3599.0, 3600.0])
        joined = join_weather(table, weather)
        assert np.array_equal(joined.columns["temp_c"], [20.0, 20.0, 22.0])
        assert list(joined.columns["conditions"]) == ["clear", "clear", "rain"]
        assert "conditions" in joined.categorical_columns()

    @pytest.mark.parametrize("text, match", [
        ("", "empty file"),
        ("timestamp_hour,temp_c,precip_mm,conditions\n0.0,20.0,0.0\n",
         "row 1 has 3 cells, expected 4"),
        ("timestamp_hour,temp_c,precip_mm,conditions\n", "no data rows"),
        ("timestamp_hour,temp_c,precip_mm,conditions\n0.0,20.0,0.0,clear\n"
         ",21.0,0.0,clear\n", "row 2 has no timestamp_hour"),
        ("timestamp_hour,temp_c,precip_mm,conditions\n7200.0,20.0,0.0,clear\n"
         "0.0,21.0,0.0,rain\n\n7200.0,22.0,0.0,fog\n",
         "duplicate timestamp_hour 7200.0 at rows 1 and 4"),
    ], ids=["empty", "short_row", "header_only", "empty_hour",
            "duplicate_hour"])
    def test_malformed_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=match):
            load_weather_csv(path)

    def test_before_first_hour(self, tmp_path):
        self.write_weather(tmp_path / "w.csv")
        weather = load_weather_csv(tmp_path / "w.csv")
        table = numeric_table({"x": [1.0]}, timestamps=[-5.0])
        with pytest.raises(SchemaError, match="precedes"):
            join_weather(table, weather)


class TestResample:
    def test_already_regular_unchanged(self):
        table = numeric_table({"x": [1.0, 2.0, 3.0]})
        out = resample_to_grid(table)
        assert np.array_equal(out.timestamps, [0.0, 1.0, 2.0])
        assert np.array_equal(out.columns["x"], [1.0, 2.0, 3.0])

    def test_gap_becomes_missing_row(self):
        table = numeric_table({"x": [1.0, 3.0]}, timestamps=[0.0, 2.0])
        out = resample_to_grid(table)
        assert out.n_rows == 3
        assert out.columns["x"][0] == 1.0
        assert np.isnan(out.columns["x"][1])
        assert out.columns["x"][2] == 3.0

    def test_row_count_arithmetic(self):
        # span 10 s at 1 s step is 11 grid rows regardless of how many
        # source rows survived
        table = numeric_table({"x": [1.0, 2.0, 3.0]},
                              timestamps=[0.0, 4.0, 10.0])
        assert resample_to_grid(table).n_rows == 11

    def test_sessions_resampled_independently(self):
        table = numeric_table({"x": [1.0, 2.0, 5.0, 6.0]},
                              timestamps=[0.0, 2.0, 100.0, 101.0],
                              session_ids=[0, 0, 1, 1])
        out = resample_to_grid(table)
        assert out.n_rows == 3 + 2
        assert np.array_equal(out.session_ids, [0, 0, 0, 1, 1])

    def test_rows_on_one_grid_point_rejected(self):
        # 1.6 and 2.4 both round to grid point 2: the row at 1.6 would be
        # overwritten and grid point 1 imputed instead
        table = numeric_table({"x": [1.0, 2.0, 3.0, 4.0]},
                              timestamps=[0.0, 1.6, 2.4, 3.0])
        with pytest.raises(SchemaError, match="session 0.* 1.6 and 2.4"):
            resample_to_grid(table)

    def test_first_clash_in_stream_order(self):
        # session 4 ends at grid point 2 and session 1 starts again at 0,
        # which is no clash; sessions 1 and 2 both clash, 1 first
        table = numeric_table({"x": np.arange(9.0)},
                              timestamps=[0.0, 1.0, 2.0, 100.0, 101.6, 102.4,
                                          103.0, 200.0, 200.4],
                              session_ids=[4, 4, 4, 1, 1, 1, 1, 2, 2])
        with pytest.raises(SchemaError,
                           match=r"session 1: .* 101\.6 and 102\.4"):
            resample_to_grid(table)

    def test_sessions_scatter_to_their_own_grids(self):
        table = numeric_table({"x": [1.0, 2.0, 3.0, 4.0, 5.0]},
                              timestamps=[10.0, 12.0, 50.5, 51.5, 53.5],
                              session_ids=[3, 3, 1, 1, 1])
        table.columns["cond"] = np.asarray(["a", "b", "c", None, "d"],
                                           dtype=object)
        out = resample_to_grid(table)
        assert out.timestamps.tobytes() == np.array(
            [10.0, 11.0, 12.0, 50.5, 51.5, 52.5, 53.5]).tobytes()
        assert np.array_equal(out.session_ids, [3, 3, 3, 1, 1, 1, 1])
        assert np.array_equal(out.columns["x"],
                              [1.0, np.nan, 2.0, 3.0, 4.0, np.nan, 5.0],
                              equal_nan=True)
        assert list(out.columns["cond"]) == ["a", None, "b", "c", None, None,
                                             "d"]


def reference_rolling_median(x, w):
    """Independent re-statement of the imputer: window medians over observed
    values at missing positions, then backward fill, then forward fill."""
    x = list(map(float, x))
    n = len(x)
    hw = w // 2
    stage = list(x)
    for i in range(n):
        if not np.isnan(x[i]):
            continue
        vals = [v for v in x[max(0, i - hw):i + hw + 1] if not np.isnan(v)]
        if vals:
            stage[i] = float(np.median(vals))
    for i in range(n - 2, -1, -1):
        if np.isnan(stage[i]):
            stage[i] = stage[i + 1]
    for i in range(1, n):
        if np.isnan(stage[i]):
            stage[i] = stage[i - 1]
    return np.asarray(stage)


class TestRollingMedian:
    def test_simple_gap(self):
        table = numeric_table({"x": [1.0, np.nan, 3.0]})
        out = impute_rolling_median(table, w=3)
        assert out.columns["x"][1] == 2.0

    def test_leading_missing_backfilled(self):
        table = numeric_table({"x": [np.nan, 5.0, 5.0]})
        out = impute_rolling_median(table, w=3)
        assert out.columns["x"][0] == 5.0

    def test_even_window_rejected(self):
        table = numeric_table({"x": [1.0, 2.0]})
        with pytest.raises(ConfigurationError):
            impute_rolling_median(table, w=4)

    def test_all_missing_column_rejected(self):
        table = numeric_table({"x": [np.nan, np.nan]})
        with pytest.raises(ImputationError):
            impute_rolling_median(table)

    @pytest.mark.parametrize("ids, message", [
        # session 0 lacks b and c, the later sessions 7 and 3 lack a
        ([0, 0, 7, 7, 3, 3], "column 'b' entirely missing in session 0"),
        # stream order, not id order: session 7 comes first
        ([7, 7, 3, 3, 0, 0], "column 'b' entirely missing in session 7"),
    ])
    def test_all_missing_error_names_first_session_then_column(self, ids,
                                                               message):
        nan = np.nan
        table = numeric_table({"a": [1.0, 2.0, nan, nan, nan, nan],
                               "b": [nan, nan, 1.0, 2.0, 3.0, 4.0],
                               "c": [nan, nan, 1.0, nan, 2.0, nan]},
                              session_ids=ids)
        with pytest.raises(ImputationError, match=f"^{message}$"):
            impute_rolling_median(table)

    def test_empty_and_categorical_only_tables(self):
        empty = numeric_table({"x": []})
        empty.columns["cond"] = np.asarray([], dtype=object)
        out = impute_rolling_median(empty)
        assert out.n_rows == 0 and list(out.columns) == ["x", "cond"]
        assert out.columns["x"].dtype == np.float64
        assert out.columns["cond"].dtype == object
        cats = np.asarray([None, "a", None, None, "b"], dtype=object)
        table = SeriesTable(timestamps=np.arange(5.0),
                            session_ids=np.array([0, 0, 0, 1, 1]),
                            columns={"cond": cats.copy()})
        out = impute_rolling_median(table)
        assert list(out.columns["cond"]) == ["a", "a", "a", "b", "b"]
        assert list(table.columns["cond"]) == list(cats)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        for w in (3, 5, 7):
            x = rng.standard_normal(200)
            mask = rng.random(200) < 0.2
            mask[0] = mask[-1] = True  # exercise the boundary fills
            x[mask] = np.nan
            x[50] = 1.0  # guarantee at least one observed value
            table = numeric_table({"x": x})
            out = impute_rolling_median(table, w=w)
            assert np.array_equal(out.columns["x"],
                                  reference_rolling_median(x, w))

    def test_observed_values_untouched(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        x[rng.random(50) < 0.3] = np.nan
        obs = ~np.isnan(x)
        out = impute_rolling_median(numeric_table({"x": x}), w=5)
        assert np.array_equal(out.columns["x"][obs], x[obs])

    def test_sessions_do_not_leak(self):
        # session 1 is constant 10; a missing value at its start must come
        # from its own session, not from session 0's trailing values
        x = np.array([1.0, 1.0, 1.0, np.nan, 10.0, 10.0])
        table = numeric_table({"x": x}, session_ids=[0, 0, 0, 1, 1, 1])
        out = impute_rolling_median(table, w=3)
        assert out.columns["x"][3] == 10.0

    @pytest.mark.parametrize("w", [3, 5, 7, 9])
    def test_matches_reference_per_session(self, w):
        # sessions of 1 to 40 rows, with leading and trailing gaps and gaps
        # longer than w, so some windows hold no observed value at all
        rng = np.random.default_rng(w)
        lengths = list(range(1, 41))
        rng.shuffle(lengths)
        sids = np.repeat(np.arange(len(lengths)), lengths)
        cols = {}
        for name in ("a", "b", "c"):
            x = np.round(rng.standard_normal(sids.size), 1)  # ties, +-0.0
            x[rng.random(sids.size) < 0.3] = np.nan
            cols[name] = x
        for sid, n in enumerate(lengths):
            idx = np.nonzero(sids == sid)[0]
            for x in cols.values():
                x[idx[:n // 4]] = np.nan                  # leading gap
                x[idx[n - n // 4:]] = np.nan              # trailing gap
                if n > 3 * w:
                    x[idx[n // 3:n // 3 + w + 2]] = np.nan  # gap longer than w
                x[idx[n // 4 + rng.integers(n - 2 * (n // 4))]] = 1.5
        # the columns of one session have different observed counts: one
        # has no missing cell, one a single observed value per session
        cols["full"] = np.round(rng.standard_normal(sids.size), 1)
        single = np.full(sids.size, np.nan)
        starts = np.cumsum(lengths) - lengths
        single[starts + rng.integers(lengths)] = np.round(
            rng.standard_normal(len(lengths)), 1)
        cols["single"] = single
        out = impute_rolling_median(numeric_table(cols, session_ids=sids), w)
        for name, x in cols.items():
            expect = np.concatenate([
                reference_rolling_median(x[sids == sid], w)
                for sid in range(len(lengths))])
            assert out.columns[name].tobytes() == expect.tobytes()


def reference_fill_categorical(vals):
    """Forward fill, then backward fill, of None entries, one by one."""
    vals = list(vals)
    for i in range(1, len(vals)):
        if vals[i] is None:
            vals[i] = vals[i - 1]
    for i in range(len(vals) - 2, -1, -1):
        if vals[i] is None:
            vals[i] = vals[i + 1]
    return vals


class TestCategoricalFill:
    def test_matches_reference_per_session(self):
        sessions = [
            [None, None, "a", None, "b", None, None],   # leading/trailing runs
            [None, None, None],                         # stays all None
            ["c", None, None, "a"],
            [None],
            ["b"],
        ]
        vals = np.asarray([v for s in sessions for v in s], dtype=object)
        sids = np.repeat(np.arange(len(sessions)), [len(s) for s in sessions])
        table = numeric_table({"x": np.ones(vals.size)}, session_ids=sids)
        table.columns["cond"] = vals.copy()
        expect = [v for s in sessions for v in reference_fill_categorical(s)]
        for out in (impute_rolling_median(table, w=3), impute_knn(table)):
            assert list(out.columns["cond"]) == expect
        assert list(table.columns["cond"]) == list(vals)  # input untouched


def test_load_grid_matches_reference(tmp_path):
    """The imputed grid of a small synthetic dataset equals the per-session,
    per-column reference imputer bit for bit."""
    cfg = GeneratorConfig(sessions=3, session_seconds=150, missing_rate=0.1,
                          shift_sessions=1, seed=0)
    write_dataset(generate_dataset(cfg), tmp_path)
    raw = resample_to_grid(join_weather(
        load_emission_csv(tmp_path / "emission.csv"),
        load_weather_csv(tmp_path / "weather.csv")))
    got = load_grid(tmp_path / "emission.csv", tmp_path / "weather.csv")
    assert sum(np.isnan(raw.columns[c]).sum()
               for c in raw.numeric_columns()) > 0
    sessions = [raw.session_indices(s) for s in raw.sessions()]
    for name in raw.numeric_columns():
        expect = np.concatenate([
            reference_rolling_median(raw.columns[name][idx], 5)
            for idx in sessions])
        assert got.columns[name].tobytes() == expect.tobytes()
    for name in raw.categorical_columns():
        expect = [v for idx in sessions
                  for v in reference_fill_categorical(raw.columns[name][idx])]
        assert list(got.columns[name]) == expect


def reference_knn(X, k):
    """Brute-force nearest-rows imputer over numeric matrix X."""
    n, c = X.shape
    out = X.copy()
    for ci in range(c):
        cand = np.nonzero(~np.isnan(X[:, ci]))[0]
        col_mean = X[cand, ci].mean()
        for i in np.nonzero(np.isnan(X[:, ci]))[0]:
            dists = []
            for j in cand:
                both = ~np.isnan(X[i]) & ~np.isnan(X[j])
                both[ci] = False
                if not both.any():
                    dists.append(np.inf)
                    continue
                d2 = np.sum((X[i, both] - X[j, both]) ** 2)
                dists.append(d2 * (c - 1) / both.sum())
            order = np.argsort(dists)[:min(k, cand.size)]
            if not np.isfinite(np.asarray(dists)[order]).any():
                out[i, ci] = col_mean
            else:
                out[i, ci] = X[cand[order], ci].mean()
    return out


class TestKnn:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        X[rng.random((30, 4)) < 0.25] = np.nan
        X[0] = rng.standard_normal(4)  # keep every column observable
        names = ["a", "b", "c", "d"]
        table = numeric_table({n: X[:, i] for i, n in enumerate(names)})
        for k in (1, 3, 20):
            out = impute_knn(table, k=k)
            expect = reference_knn(X, k)
            got = np.column_stack([out.columns[n] for n in names])
            assert np.allclose(got, expect, atol=1e-10)

    def test_k1_copies_nearest(self):
        table = numeric_table({"a": [0.0, 10.0, 0.1],
                               "b": [1.0, 2.0, np.nan]})
        out = impute_knn(table, k=1)
        # row 2 is nearest to row 0 in column a, so it takes row 0's b
        assert out.columns["b"][2] == 1.0

    def test_fully_missing_row_gets_column_mean(self):
        table = numeric_table({"a": [1.0, 3.0, np.nan],
                               "b": [1.0, 1.0, np.nan]})
        out = impute_knn(table, k=2)
        assert out.columns["a"][2] == 2.0
        assert out.columns["b"][2] == 1.0

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            impute_knn(numeric_table({"a": [1.0]}), k=0)

    def test_all_missing_column_rejected(self):
        table = numeric_table({"a": [np.nan, np.nan], "b": [1.0, 2.0]})
        with pytest.raises(ImputationError):
            impute_knn(table)


def full_table(n=40, seed=0, sessions=1):
    rng = np.random.default_rng(seed)
    cols = {"speed": rng.standard_normal(n) * 3 + 50,
            "temp_c": rng.standard_normal(n)}
    for c in TARGET_COLUMNS:
        cols[c] = rng.standard_normal(n) + 5
    cats = np.asarray(["clear", "rain"], dtype=object)
    cols["conditions"] = cats[rng.integers(0, 2, n)]
    sids = np.repeat(np.arange(sessions), n // sessions)
    return SeriesTable(timestamps=np.arange(n, dtype=np.float64),
                       session_ids=sids.astype(np.int64),
                       columns=cols)


class TestPipeline:
    def test_train_features_standardized(self):
        table = full_table()
        pipe = fit_pipeline(table)
        seq = apply_pipeline(pipe, table)
        k = len(pipe.numeric_columns)
        assert np.allclose(seq.features[:, :k].mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(seq.features[:, :k].std(axis=0), 1.0, atol=1e-10)
        assert np.allclose(seq.targets.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(seq.targets.std(axis=0), 1.0, atol=1e-10)

    def test_onehot_rows(self):
        table = full_table()
        pipe = fit_pipeline(table)
        seq = apply_pipeline(pipe, table)
        k = len(pipe.numeric_columns)
        onehot = seq.features[:, k:]
        assert onehot.shape[1] == 2
        assert np.all(onehot.sum(axis=1) == 1.0)
        i = pipe.feature_names.index("conditions=rain") - k
        assert np.array_equal(onehot[:, i] == 1.0,
                              table.columns["conditions"] == "rain")

    def test_frozen_stats_shift_linearly(self):
        table = full_table()
        pipe = fit_pipeline(table)
        shifted = table.copy()
        shifted.columns["speed"] = shifted.columns["speed"] + 1.0
        a = apply_pipeline(pipe, table)
        b = apply_pipeline(pipe, shifted)
        j = pipe.feature_names.index("speed")
        delta = 1.0 / pipe.numeric_scale["speed"]
        assert np.allclose(b.features[:, j] - a.features[:, j], delta)

    def test_unknown_category_all_zeros(self, caplog):
        table = full_table()
        pipe = fit_pipeline(table)
        other = table.copy()
        other.columns["conditions"][:] = "sandstorm"
        import logging
        with caplog.at_level(logging.WARNING):
            seq = apply_pipeline(pipe, other)
        k = len(pipe.numeric_columns)
        assert np.all(seq.features[:, k:] == 0.0)
        assert "sandstorm" in caplog.text

    def test_onehot_matches_reference(self, caplog):
        table = full_table()
        pipe = fit_pipeline(table)
        other = table.copy()
        cond = other.columns["conditions"]
        cond[[1, 4]] = None
        cond[[2, 7, 9, 11, 12]] = ["sandstorm", "fog", "sandstorm", "hail",
                                   "dust"]
        with caplog.at_level(logging.WARNING):
            seq = apply_pipeline(pipe, other)
        vocab = pipe.vocabularies["conditions"]
        expect = np.zeros((other.n_rows, len(vocab)))
        for i, v in enumerate(cond):
            if v in vocab:
                expect[i, vocab.index(v)] = 1.0
        k = len(pipe.numeric_columns)
        assert np.array_equal(seq.features[:, k:], expect)
        assert np.all(seq.features[[1, 4, 2, 7, 9, 11, 12], k:] == 0.0)
        assert ("column 'conditions': categories ['dust', 'fog', 'hail', "
                "'sandstorm'] not in vocabulary; encoded as all-zeros"
                in caplog.text)

    def test_none_rows_encode_as_zeros_without_warning(self, caplog):
        table = full_table()
        pipe = fit_pipeline(table)
        other = table.copy()
        other.columns["conditions"][::3] = None
        with caplog.at_level(logging.WARNING):
            seq = apply_pipeline(pipe, other)
        k = len(pipe.numeric_columns)
        assert np.all(seq.features[::3, k:] == 0.0)
        assert np.all(seq.features[1::3, k:].sum(axis=1) == 1.0)
        assert caplog.text == ""

    def test_empty_vocabulary_gives_empty_block(self):
        table = full_table()
        table.columns["conditions"][:] = None
        pipe = fit_pipeline(table)
        assert pipe.vocabularies["conditions"] == []
        seq = apply_pipeline(pipe, table)
        assert seq.features.shape == (table.n_rows, len(pipe.numeric_columns))

    def test_constant_column_rejected(self):
        table = full_table()
        table.columns["speed"][:] = 7.0
        with pytest.raises(ConfigurationError, match="speed"):
            fit_pipeline(table)

    def test_missing_values_rejected(self):
        table = full_table()
        table.columns["speed"][3] = np.nan
        with pytest.raises(UsageError):
            fit_pipeline(table)

    def test_dict_roundtrip(self):
        pipe = fit_pipeline(full_table())
        again = FittedPipeline.from_dict(pipe.to_dict())
        assert again == pipe

    def test_feature_count(self):
        pipe = fit_pipeline(full_table())
        expect = len(pipe.numeric_columns) + sum(
            len(v) for v in pipe.vocabularies.values())
        assert len(pipe.feature_names) == expect
        assert apply_pipeline(pipe, full_table()).features.shape[1] == expect

    def test_vocab_table_extends_vocabulary(self):
        table = full_table()
        extra = full_table(seed=1)
        extra.columns["conditions"][:] = "snow"
        union = full_table(n=80)
        union.columns["conditions"][40:] = "snow"
        pipe = fit_pipeline(table, vocab_table=union)
        assert "snow" in pipe.vocabularies["conditions"]


def test_column_roles_follow_from_dtypes():
    """A table built from its columns alone: the float columns are numeric
    (the TARGET_COLUMNS among them are the targets) and the object column
    is categorical, through resampling, imputation and the pipeline fit."""
    table = full_table(n=40, sessions=2)
    keep = np.ones(table.n_rows, dtype=bool)
    keep[[3, 4, 25]] = False
    grid = resample_to_grid(table.select(np.flatnonzero(keep)))
    assert grid.n_rows == table.n_rows
    assert grid.numeric_columns() == ["speed", "temp_c", *TARGET_COLUMNS]
    assert grid.categorical_columns() == ["conditions"]
    assert np.isnan(grid.columns["speed"][3])
    assert grid.columns["conditions"][3] is None
    filled = impute_rolling_median(grid)
    for name in filled.numeric_columns():
        assert not np.isnan(filled.columns[name]).any()
    assert not np.equal(filled.columns["conditions"], None).any()
    pipe = fit_pipeline(filled)
    assert pipe.numeric_columns == ["speed", "temp_c"]
    assert pipe.categorical_columns == ["conditions"]
    assert pipe.target_columns == TARGET_COLUMNS


@pytest.mark.parametrize("loader", [load_emission_csv, load_weather_csv])
@pytest.mark.parametrize("content", [None, b"\xff\xfe,\x80\n"],
                         ids=["missing", "not_utf8"])
def test_unreadable_file_is_schema_error(tmp_path, loader, content):
    """A file that is absent or not UTF-8 is a SchemaError naming it."""
    path = tmp_path / "in.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SchemaError, match="in.csv: cannot read"):
        loader(path)


class TestSplitSessions:
    @pytest.mark.parametrize("fraction", [7.0, -1.0, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigurationError, match="train_fraction"):
            split_sessions(full_table(n=60, sessions=3), fraction)

    def test_five_equal_sessions(self):
        table = full_table(n=50, sessions=5)
        train, val = split_sessions(table, 0.8)
        assert sorted(set(train.session_ids)) == [0, 1, 2, 3]
        assert sorted(set(val.session_ids)) == [4]

    def test_two_sessions_half(self):
        table = full_table(n=40, sessions=2)
        train, val = split_sessions(table, 0.5)
        assert set(train.session_ids) == {0}
        assert set(val.session_ids) == {1}

    def test_partition(self):
        table = full_table(n=60, sessions=3)
        train, val = split_sessions(table, 0.8)
        assert train.n_rows + val.n_rows == table.n_rows
        assert set(train.sessions()).isdisjoint(val.sessions())

    def test_single_session_rejected(self):
        with pytest.raises(ConfigurationError):
            split_sessions(full_table(), 0.8)

    def test_fraction_reached_at_a_session_end(self):
        # 0.5 * 40 rows is exactly the end of session 1
        table = full_table(n=40, sessions=4)
        table.session_ids = np.repeat([0, 1, 2, 3], [10, 10, 12, 8])
        train, val = split_sessions(table, 0.5)
        assert train.sessions() == [0, 1] and val.sessions() == [2, 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_cumulative_loop(self, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 30, size=rng.integers(2, 9))
        n = int(lengths.sum())
        table = full_table(n=n)
        table.session_ids = np.repeat(
            rng.permutation(100)[:lengths.size], lengths).astype(np.int64)
        ends = np.cumsum(lengths)
        fractions = [0.0, 1.0, float(rng.random()), *(ends / n)]
        for fraction in fractions:
            got = split_sessions(table, fraction)
            expect = split_reference(table, fraction)
            for g, e in zip(got, expect):
                assert g.timestamps.tobytes() == e.timestamps.tobytes()
                assert g.session_ids.tobytes() == e.session_ids.tobytes()
                for c in e.columns:
                    assert list(g.columns[c]) == list(e.columns[c])
                    assert not np.shares_memory(g.columns[c],
                                                table.columns[c])
            assert expect[1].n_rows > 0


def split_reference(table, train_fraction):
    """The cumulative loop split_sessions replaced: earliest sessions go to
    train until their row count first reaches train_fraction of the total,
    keeping at least one validation session."""
    sids = list(dict.fromkeys(table.session_ids.tolist()))
    train_sids, cum = [], 0
    for i, sid in enumerate(sids):
        if i == len(sids) - 1:
            break
        train_sids.append(sid)
        cum += np.count_nonzero(table.session_ids == sid)
        if cum >= train_fraction * table.n_rows:
            break
    mask = np.isin(table.session_ids, train_sids)
    return table.select(np.nonzero(mask)[0]), table.select(np.nonzero(~mask)[0])


class TestSessionBounds:
    @staticmethod
    def data(ids):
        n = len(ids)
        return SequenceData(features=np.zeros((n, 1)), targets=np.zeros((n, 1)),
                            session_ids=np.asarray(ids, dtype=np.int64),
                            timestamps=np.arange(n, dtype=np.float64))

    @pytest.mark.parametrize("ids, starts, stops", [
        ([], [], []), ([4], [0], [1]),
        ([5, 5, 2, 2, 2, 7], [0, 2, 5], [2, 5, 6])])
    def test_runs_of_equal_ids(self, ids, starts, stops):
        got = self.data(ids).session_bounds()
        assert [b.tolist() for b in got] == [starts, stops]

    def test_returning_id_names_session_and_row(self):
        with pytest.raises(ContractViolationError, match="session 5 .* row 4"):
            self.data([5, 5, 2, 2, 5, 7]).session_bounds()


class TestSeriesTableSessionBounds(TestSessionBounds):
    """The same cases on a table: SequenceData and SeriesTable both take
    their sessions from datapipe.session_bounds."""
    @staticmethod
    def data(ids):
        return numeric_table({"x": np.zeros(len(ids))}, session_ids=ids)


def test_kept_accessors_are_views_of_the_bounds():
    """sessions() and session_indices() are read off session_bounds: each
    session's rows are arange(start, stop), and an unknown id has none."""
    ids = [7, 7, 3, 3, 3, 9, 1, 1, 1, 1, 5, 5]
    table = numeric_table({"x": np.zeros(len(ids))}, session_ids=ids)
    starts, stops = table.session_bounds()
    assert table.sessions() == [7, 3, 9, 1, 5]
    for sid, start, stop in zip(table.sessions(), starts, stops):
        assert np.array_equal(table.session_indices(sid),
                              np.arange(start, stop))
    for unknown in (0, 4, 8):
        got = table.session_indices(unknown)
        assert got.size == 0 and got.dtype == np.arange(0).dtype


@pytest.mark.parametrize("stage", [
    resample_to_grid, impute_rolling_median, impute_knn,
    lambda table: split_sessions(table, 0.5),
], ids=["resample_to_grid", "impute_rolling_median", "impute_knn",
        "split_sessions"])
def test_table_returning_session_id_rejected(stage):
    """Session 0 comes back after session 1: every ingest stage rejects the
    table instead of joining both runs into one session."""
    table = numeric_table(
        {"x": [1.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0, np.nan]},
        session_ids=[0, 0, 0, 1, 1, 1, 0, 0],
        timestamps=[0.0, 1.0, 2.0, 100.0, 101.0, 102.0, 200.0, 201.0])
    table.columns["cond"] = np.asarray(["a", None, "b", "a", None, "b",
                                        None, "a"], dtype=object)
    with pytest.raises(ContractViolationError, match="session 0 .* row 6"):
        stage(table)
