"""I/O, kernel product-limit, and synthetic-data tests.

The product-limit oracle is the classical grouped Kaplan-Meier estimator
(unique death times, at-risk counts by threshold), coded independently of
the per-subject cumulative-product implementation.
"""

import io
import itertools
import json
import os
import threading
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, given, settings, strategies as st

from miph import dataio
from miph import (
    DataValidationError,
    GompertzTransform,
    Margin,
    MIPHModel,
    NumericalError,
    ObservationSet,
    SubIntensity,
    TIME_SCALE,
    beran_cdf,
    generate_synthetic,
    load_csv,
    load_model,
    save_model,
    standard_design,
    write_csv,
)

from conftest import frozen_read_columns, random_chain, random_pi


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD_HEADER = "time1,time2,delta1,delta2,age1,age2"


class TestStandardDesign:
    def test_columns(self):
        a = standard_design(np.array([0.63, 0.68]), np.array([0.63, 0.73]))
        np.testing.assert_allclose(
            a,
            [[1.0, 0.63, 0.63, 0.63 * 0.63],
             [1.0, 0.68, 0.73, 0.68 * 0.73]],
        )


class TestLoadCsv:
    def test_happy_path_scales_to_internal_units(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "12,30,1,0,63,68", "5.5,2,0,1,70,61"])
        obs = load_csv(f)
        np.testing.assert_allclose(obs.y, [[0.12, 0.30], [0.055, 0.02]])
        np.testing.assert_array_equal(obs.delta, [[1, 0], [0, 1]])
        np.testing.assert_allclose(
            obs.covariates,
            standard_design(np.array([0.63, 0.70]), np.array([0.68, 0.61])),
        )

    def test_column_order_free_and_extras_ignored(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "id,age2,delta2,time2,age1,delta1,time1,note",
            "7,68,0,30,63,1,12,hello",
        ])
        obs = load_csv(f)
        np.testing.assert_allclose(obs.y, [[0.12, 0.30]])
        np.testing.assert_array_equal(obs.delta, [[1, 0]])

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "", "12,30,1,0,63,68", "  ,,,,,", ""])
        assert load_csv(f).n == 1

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a byte-order mark before the header
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_lines(plain, [GOOD_HEADER, "12,30,1,0,63,68", "5.5,2,0,1,70,61"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(marked)
        for field in ("y", "delta", "covariates"):
            np.testing.assert_array_equal(getattr(b, field), getattr(a, field))

    def test_missing_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["time1,time2,delta1,delta2,age1", "1,2,0,0,3"])
        with pytest.raises(DataValidationError, match="age2"):
            load_csv(f)

    def test_repeated_column_is_named(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER + ",time1", "12,30,1,0,63,68,99"])
        with pytest.raises(DataValidationError,
                           match=r"columns named more than once \['time1'\]"):
            load_csv(f)

    def test_repeated_extra_column_is_ignored(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER + ",note,note", "12,30,1,0,63,68,a,b"])
        assert load_csv(f).n == 1

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "12,30,1,0,63,68", "12,abc,1,0,63,68"])
        with pytest.raises(DataValidationError, match="line 3.*time2"):
            load_csv(f)

    def test_negative_time_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "-1,30,1,0,63,68"])
        with pytest.raises(DataValidationError, match="line 2.*negative"):
            load_csv(f)

    def test_bad_indicator_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "12,30,1,0.5,63,68"])
        with pytest.raises(DataValidationError, match="delta2"):
            load_csv(f)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "12,30,1,0,63"])
        with pytest.raises(DataValidationError, match="line 2"):
            load_csv(f)

    def test_empty_and_headerless(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("", encoding="utf-8")
        with pytest.raises(DataValidationError, match="empty"):
            load_csv(f)
        write_lines(f, [GOOD_HEADER])
        with pytest.raises(DataValidationError, match="no data rows"):
            load_csv(f)

    def test_header_only_file_warns_nothing(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "", "  "])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataValidationError, match="no data rows$"):
                load_csv(f)
        assert caught == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fault_in_a_pipe_is_named(self, tmp_path):
        # a pipe cannot be read a second time to find the fault
        fifo = tmp_path / "d.csv"
        os.mkfifo(fifo)
        text = GOOD_HEADER + "\n12,30,1,0,63,68\n12,x,1,0,63,68\n"
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        with pytest.raises(DataValidationError,
                           match="line 3, column time2: non-numeric value 'x'$"):
            load_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_earliest_faulty_line_is_named(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "12,30,1,0,63,68", "12,-30,1,0,63,68",
                        "12,30,1,0,63,68", "12,30,1,0,63,abc"])
        with pytest.raises(DataValidationError,
                           match="line 3, column time2: negative value$"):
            load_csv(f)
        # within a line: cells are parsed (in schema order) before the range
        # checks, and negative values are found before indicators
        write_lines(f, [GOOD_HEADER, "-1,30,1,0,63,x", "5,-1,2,0,63,68"])
        with pytest.raises(DataValidationError,
                           match="line 2, column age2: non-numeric value 'x'$"):
            load_csv(f)
        write_lines(f, [GOOD_HEADER, "5,-1,2,0,63,68"])
        with pytest.raises(DataValidationError, match="line 2, column time2"):
            load_csv(f)
        write_lines(f, [GOOD_HEADER, "5,30,2,0,-63,68"])
        with pytest.raises(DataValidationError,
                           match="line 2, column age1: negative value$"):
            load_csv(f)

    def test_fault_before_a_field_past_the_csv_size_limit(self, tmp_path):
        # the rows of the block read before the csv module refuses a field
        # are checked first, so the earlier fault is named
        f = tmp_path / "d.csv"
        write_lines(f, [GOOD_HEADER, "12,30,1,0,63,68", "12,x,1,0,63,68",
                        "12,30,1,0,63,68", "1" * 140_001 + ",30,1,0,63,68"])
        with pytest.raises(DataValidationError,
                           match="line 3, column time2: non-numeric value 'x'$"):
            load_csv(f)

    def test_fault_past_the_first_block(self, tmp_path):
        f = tmp_path / "d.csv"
        rows = ["12,30,1,0,63,68"] * (dataio._BLOCK + 10)
        rows[dataio._BLOCK + 3] = "12,30,1,inf,63,68"  # file line _BLOCK + 5
        write_lines(f, [GOOD_HEADER] + rows)
        with pytest.raises(DataValidationError,
                           match=f"line {dataio._BLOCK + 5}, column delta2: "
                                 "non-finite value"):
            load_csv(f)

    def test_blank_lines_across_a_block_boundary(self, tmp_path):
        f = tmp_path / "d.csv"
        rows = [f"{k},30,1,0,63,68" for k in range(dataio._BLOCK + 4)]
        for at in (dataio._BLOCK + 1, dataio._BLOCK, dataio._BLOCK - 2):
            rows[at:at] = ["", "  ,,,,,"]
        write_lines(f, [GOOD_HEADER] + rows + [""])
        obs = load_csv(f)
        assert obs.n == dataio._BLOCK + 4
        np.testing.assert_allclose(obs.y[:, 0] * TIME_SCALE,
                                   np.arange(dataio._BLOCK + 4), rtol=1e-15)


def frozen_schema_reader(path, columns):
    """The line-by-line reader under the schema's checks."""
    return frozen_read_columns(path, columns,
                               nonnegative=("time1", "time2", "age1", "age2"),
                               indicator=("delta1", "delta2"))


def reader_outcome(reader, path):
    """What a reader makes of a data file: its array, or the type and message
    of what it raises; and the messages of the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = reader(path, dataio._CSV_COLUMNS)
        except Exception as err:
            out = (type(err), str(err))
    return out, [str(w.message) for w in caught]


def assert_reads_like_the_line_by_line_reader(path):
    (got, got_warnings), (want, _) = (reader_outcome(dataio.read_columns, path),
                                      reader_outcome(frozen_schema_reader, path))
    assert got_warnings == []
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


# cells both readers accept; the C-level parse refuses some of them
TOLERATED = {"number": ['"12"', "1_000", " 7 ", "\u0661", "3\x85", "+4", ".5", "5."],
             "flag": ['"0"', '"1"', " 1 "],
             "extra": ["hello", "a#b", '"x,y"', ""]}
# cells that Python's float, the csv module or a later check may refuse
FAULTS = ["-1.5", "-0", "inf", "-inf", "nan", "Infinity", "1e999", "0x10",
          '"1,2"', "1#2", "#", "", " ", "abc", "2", "0.5", "3\u3000x", "4\x0c"]


@st.composite
def data_files(draw):
    """The bytes of a data file: the schema's columns in any order among
    extra ones, under a byte-order mark or not, with LF, CRLF or CR line
    ends. Its rows are clean, tolerated (quoted or odd numbers, text in
    extra columns, whitespace-only and comma-only lines) or faulty (bad
    cells, ragged rows), optionally after ``_BLOCK`` clean rows."""
    extras = draw(st.lists(st.sampled_from(["id", "note"]), max_size=2, unique=True))
    header = draw(st.permutations(list(dataio._CSV_COLUMNS) + extras))
    kind = draw(st.sampled_from(["clean", "tolerated", "faulty"]))
    base = {"number": st.one_of(st.integers(0, 10**6).map(str),
                                st.floats(0.0, 1e6).map(repr),
                                st.floats(0.0, 1e6).map(lambda x: "%.17g" % x)),
            "flag": st.sampled_from(["0", "1", "0.0", "1.0", "1e0", "-0"]),
            "extra": st.integers(-9, 9).map(str)}

    def cell(name):
        role = ("flag" if name.startswith("delta") else
                "number" if name in dataio._CSV_COLUMNS else "extra")
        odd = {"clean": [], "tolerated": TOLERATED[role], "faulty": FAULTS}[kind]
        return st.one_of(base[role], base[role], st.sampled_from(odd)) if odd else base[role]

    row = st.tuples(*map(cell, header)).map(",".join)
    blank = st.sampled_from(["", "  ", "\t", ",,", ",,,,,"][:1 if kind == "clean" else 5])
    ragged = st.lists(base["number"], min_size=1, max_size=len(header) + 2).filter(
        lambda cells: len(cells) != len(header)).map(",".join)
    line = st.one_of(row, row, row, blank, *[ragged] * (kind == "faulty"))
    lines = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        lines = [",".join("1" for _ in header)] * dataio._BLOCK + lines
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([",".join(header)] + lines) + end * draw(st.booleans())
    return ("\ufeff" * draw(st.booleans()) + text).encode("utf-8")


class TestReaderMatchesLineByLine:
    """The reader returns the line-by-line reader's array bit for bit, or
    raises the same exception with the same message, and warns nothing."""

    @pytest.mark.parametrize("lines", [
        [GOOD_HEADER, '"12",30,1,0,63,68'],
        [GOOD_HEADER, '12,30,1,0,63,68', '"1,2",30,1,0,63,68'],
        [GOOD_HEADER, "12#,30,1,0,63,68"],
        [GOOD_HEADER, "# a comment"],
        [GOOD_HEADER, "1_000,30,1,0,63,68"],
        [GOOD_HEADER, "0x10,30,1,0,63,68"],
        [GOOD_HEADER, "nan,30,1,0,63,68"],
        [GOOD_HEADER, "12,Infinity,1,0,63,68"],
        [GOOD_HEADER, "12,1e999,1,0,63,68"],
        [GOOD_HEADER, "12,30,2,0,63,68"],
        [GOOD_HEADER, "12,30,1,-0,63,68"],
        [GOOD_HEADER, "12,30,1,0,-63,68"],
        [GOOD_HEADER, "12,30,1,0,63"],
        [GOOD_HEADER, "12,30,1,0,63,68,"],
        [GOOD_HEADER, "", "   ", ",,,,,", "12,30,1,0,63,68", ""],
        [GOOD_HEADER, " 12 ,\t30,1,0,63,68\x85"],
        [GOOD_HEADER, "\u0661\u0662,30,1,0,63,68"],
        [GOOD_HEADER + ",note", "12,30,1,0,63,68,hello"],
        [GOOD_HEADER + ",note", "12,30,1,0,63,68"],
        [GOOD_HEADER],
        [GOOD_HEADER, ""],
        ["age1,age2", "63,68"],
        [GOOD_HEADER, "12,30,2,0,-63,68"],
    ])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_edge_cases(self, tmp_path, lines, end):
        f = tmp_path / "d.csv"
        f.write_bytes(b"\xef\xbb\xbf" + end.join(lines).encode("utf-8") + end.encode())
        assert_reads_like_the_line_by_line_reader(f)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=data_files())
    def test_generated_files(self, tmp_path, content):
        f = tmp_path / "d.csv"
        f.write_bytes(content)
        assert_reads_like_the_line_by_line_reader(f)


class TestWriteCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(443)
        n = 30
        ages = rng.uniform(0.5, 0.9, size=(n, 2))
        obs = ObservationSet(
            y=rng.uniform(0.001, 0.45, size=(n, 2)),
            delta=rng.integers(0, 2, size=(n, 2)),
            covariates=standard_design(ages[:, 0], ages[:, 1]),
        )
        f = tmp_path / "out.csv"
        write_csv(f, obs)
        back = load_csv(f)
        np.testing.assert_allclose(back.y, obs.y, rtol=1e-14)
        np.testing.assert_array_equal(back.delta, obs.delta)
        np.testing.assert_allclose(back.covariates, obs.covariates, rtol=1e-14)

        # a second cycle is byte-stable
        f2 = tmp_path / "out2.csv"
        write_csv(f2, back)
        assert f2.read_bytes() == f.read_bytes()

    def test_golden_text(self):
        obs = ObservationSet(
            y=[[0.12, 0.3], [0.055, 1 / 3]], delta=[[1, 0], [0, 1]],
            covariates=standard_design(np.array([0.63, 0.705]),
                                       np.array([0.68, 0.61])),
        )
        out = io.StringIO()
        write_csv(out, obs)
        assert out.getvalue() == (
            "time1,time2,delta1,delta2,age1,age2\n"
            "12,30,1,0,63,68\n"
            "5.5,33.333333333333329,0,1,70.5,61\n"
        )

    @pytest.mark.parametrize("fmt,columns", [
        ("%.17g,%.17g,%d,%d,%.17g,%.17g",  # an ages file: two constant columns
         [[1 / 3, 2.5, 7.0], [1.0, 2.0, 3.0], [1, 0, 1], [1, 1, 1],
          [63.0, 63.0, 63.0], [68.5, 68.5, 68.5]]),
        ("%s,%g%%,%s", [["a%d", "a%d"], [0.5, 1.5], ["%%", "%%"]]),
        ("%g,%g", [[0.0, -0.0, 0.0], [2.0, 2.0, 2.0]]),  # signed zeros differ
        ("%d,%s,%.3f", [[4, 4, 4, 4], ["x", "x", "x", "x"], [0.25] * 4]),
        ("%d,%s,%.3f", [[4], ["x"], [0.125]]),
        ("%d,%s", [np.array([], dtype=int), np.array([], dtype=str)]),
    ])
    def test_write_rows_matches_per_row_formatting(self, fmt, columns):
        # the writer takes the row format's conversions one per column
        header = "abcdef"[:len(columns)]
        out = io.StringIO()
        dataio.write_rows(out, header, fmt.split(","), columns)
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        assert out.getvalue() == "".join(
            itertools.chain([",".join(header) + "\n"], ((fmt + "\n") % row for row in rows)))

    @pytest.mark.parametrize("specs", [("%d",), ("%d", "%g", "%g")])
    def test_write_rows_needs_one_spec_per_column(self, specs):
        with pytest.raises(ValueError):
            dataio.write_rows(io.StringIO(), "ab", specs, [[1, 2], [0.5, 0.5]])

    def test_rejects_non_standard_design(self, tmp_path):
        obs = ObservationSet(
            y=[[0.1, 0.2]], delta=[[1, 1]], covariates=[[1.0, 0.5, 0.5, 0.9]]
        )
        with pytest.raises(DataValidationError, match="standard design"):
            write_csv(tmp_path / "x.csv", obs)

    def test_rejects_non_bivariate(self, tmp_path):
        obs = ObservationSet(
            y=[[0.1, 0.2, 0.3]], delta=[[1, 1, 1]], covariates=[[1.0]]
        )
        with pytest.raises(DataValidationError, match="bivariate"):
            write_csv(tmp_path / "x.csv", obs)


class TestModelJson:
    def _model(self, with_gamma):
        rng = np.random.default_rng(449)
        margins = (
            Margin(random_chain(rng, 3), GompertzTransform(43.101)),
            Margin(random_chain(rng, 3), GompertzTransform(47.474)),
        )
        if with_gamma:
            gamma = np.vstack([np.zeros(4), rng.normal(size=(2, 4))])
            return MIPHModel(margins, gamma=gamma)
        return MIPHModel(margins, fixed_pi=random_pi(rng, 3))

    @pytest.mark.parametrize("with_gamma", [True, False])
    def test_round_trip_exact(self, tmp_path, with_gamma):
        model = self._model(with_gamma)
        f = tmp_path / "model.json"
        save_model(model, f)
        back = load_model(f)
        assert back.n_margins == model.n_margins
        for ma, mb in zip(model.margins, back.margins):
            np.testing.assert_array_equal(ma.sub.matrix, mb.sub.matrix)
            assert ma.transform.beta == mb.transform.beta
        if with_gamma:
            np.testing.assert_array_equal(model.gamma, back.gamma)
            assert back.fixed_pi is None
        else:
            np.testing.assert_array_equal(model.fixed_pi, back.fixed_pi)
            assert back.gamma is None

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        save_model(self._model(True), plain)
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_model(plain), load_model(marked)
        for ma, mb in zip(a.margins, b.margins):
            np.testing.assert_array_equal(mb.sub.matrix, ma.sub.matrix)
            assert mb.transform.beta == ma.transform.beta
        np.testing.assert_array_equal(b.gamma, a.gamma)

    def test_document_shape(self, tmp_path):
        f = tmp_path / "model.json"
        save_model(self._model(True), f)
        doc = json.loads(f.read_text())
        assert doc["format"] == "miph-v1"
        assert doc["p"] == 3 and doc["d"] == 2
        assert doc["time_scale"] == TIME_SCALE

    def test_rejects_wrong_format_tag(self, tmp_path):
        f = tmp_path / "model.json"
        f.write_text(json.dumps({"format": "other-v9"}), encoding="utf-8")
        with pytest.raises(DataValidationError, match="miph-v1"):
            load_model(f)

    def test_rejects_invalid_json_and_non_object(self, tmp_path):
        f = tmp_path / "model.json"
        f.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataValidationError, match="JSON"):
            load_model(f)
        f.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(DataValidationError):
            load_model(f)

    @pytest.mark.parametrize("key,value", [("time_scale", 1.0), ("p", 4), ("d", 3)])
    def test_rejects_declared_field_that_disagrees(self, tmp_path, key, value):
        f = tmp_path / "model.json"
        save_model(self._model(True), f)
        doc = json.loads(f.read_text())
        doc[key] = value
        f.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataValidationError, match=key):
            load_model(f)

    def test_declared_fields_are_optional(self, tmp_path):
        f = tmp_path / "model.json"
        save_model(self._model(False), f)
        doc = json.loads(f.read_text())
        for key in ("time_scale", "p", "d"):
            del doc[key]
        f.write_text(json.dumps(doc), encoding="utf-8")
        assert load_model(f).dim == 3

    @pytest.mark.parametrize("where,value,key", [
        (("margins", 0, "sub_intensity", 0, 0), "-1.5", "margin 0 sub_intensity"),
        (("margins", 1, "sub_intensity", 2, 1), False, "margin 1 sub_intensity"),
        (("margins", 0, "beta"), "43.101", "margin 0 beta"),
        (("margins", 1, "beta"), True, "margin 1 beta"),
        (("gamma", 1, 0), False, "gamma"),
        (("gamma", 2, 3), "0.5", "gamma"),
        (("pi", 0), "0.2", "pi"),
        (("pi", 2), True, "pi"),
        (("p",), "3", "p"),
        (("d",), True, "d"),
        (("time_scale",), "100", "time_scale"),
    ])
    def test_rejects_strings_and_booleans_where_numbers_belong(self, tmp_path, where,
                                                                value, key):
        """numpy reads "43.101" as 43.101 and true as 1.0; the loader refuses
        both and names the key."""
        f = tmp_path / "model.json"
        save_model(self._model(with_gamma=where[0] != "pi"), f)
        doc = json.loads(f.read_text())
        parent = doc
        for step in where[:-1]:
            parent = parent[step]
        parent[where[-1]] = value
        f.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"{key} (holds|is) {value!r}"):
            load_model(f)

    def test_integers_load_as_numbers(self, tmp_path):
        f = tmp_path / "model.json"
        f.write_text(json.dumps({
            "format": "miph-v1", "time_scale": 100, "p": 1, "d": 2,
            "margins": [{"sub_intensity": [[-2]], "beta": 43},
                        {"sub_intensity": [[-1]], "beta": 40}],
            "gamma": [[0, 0, 0, 0]], "pi": None}), encoding="utf-8")
        model = load_model(f)
        assert [m.transform.beta for m in model.margins] == [43.0, 40.0]
        assert model.margins[0].sub.matrix.tolist() == [[-2.0]]
        # at one state a boolean p would compare equal to 1
        doc = json.loads(f.read_text())
        doc["p"] = True
        f.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataValidationError, match="p is True"):
            load_model(f)

    def test_rejects_malformed_document(self, tmp_path):
        f = tmp_path / "model.json"
        f.write_text(json.dumps({"format": "miph-v1", "margins": [{}]}),
                     encoding="utf-8")
        with pytest.raises(DataValidationError, match="malformed"):
            load_model(f)


def grouped_km_cdf(times, deltas, t):
    """Classical Kaplan-Meier over unique death times (independent oracle).

    Censored subjects tied with a death time count as at risk for it,
    matching the uncensored-first tie rule.
    """
    death_times = np.unique(times[deltas.astype(bool)])
    surv = 1.0
    steps = []
    for dt in death_times:
        at_risk = np.sum(times >= dt)
        d = np.sum((times == dt) & deltas.astype(bool))
        surv *= 1.0 - d / at_risk
        steps.append((dt, surv))
    out = np.ones_like(np.asarray(t, dtype=float))
    for i, ti in enumerate(np.atleast_1d(t)):
        s = 1.0
        for dt, sv in steps:
            if dt <= ti:
                s = sv
        out.flat[i] = s
    return 1.0 - out


class TestBeran:
    def _censored_sample(self, seed=457, n=200):
        rng = np.random.default_rng(seed)
        times = rng.exponential(1.0, size=n)
        # duplicate some times to create genuine ties
        times[::7] = np.round(times[::7], 1)
        deltas = (rng.random(n) < 0.7).astype(int)
        return times, deltas

    def test_constant_covariates_reduce_to_kaplan_meier(self):
        times, deltas = self._censored_sample()
        cov = np.full(times.shape, 0.63)
        grid = np.linspace(0.0, 4.0, 41)
        got = beran_cdf(times, deltas, cov, 0.63, 0.05, grid)
        oracle = grouped_km_cdf(times, deltas, grid)
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_huge_bandwidth_approaches_kaplan_meier(self):
        times, deltas = self._censored_sample(seed=461)
        cov = np.random.default_rng(463).uniform(0.5, 0.9, size=times.shape)
        grid = np.linspace(0.0, 4.0, 21)
        got = beran_cdf(times, deltas, cov, 0.7, 1e6, grid)
        oracle = grouped_km_cdf(times, deltas, grid)
        np.testing.assert_allclose(got, oracle, atol=1e-9)

    def test_narrow_bandwidth_selects_local_cluster(self):
        # two clusters with different lifetime scales; a tight kernel at one
        # cluster must reproduce that cluster's own product limit exactly,
        # because the far weights underflow to zero
        rng = np.random.default_rng(467)
        t_a = rng.exponential(0.5, size=80)
        t_b = rng.exponential(3.0, size=80)
        times = np.concatenate([t_a, t_b])
        deltas = np.ones(160, dtype=int)
        deltas[::5] = 0
        cov = np.concatenate([np.zeros(80), np.ones(80)])
        grid = np.linspace(0.0, 3.0, 13)
        got = beran_cdf(times, deltas, cov, 0.0, 0.01, grid)
        oracle = grouped_km_cdf(times[:80], deltas[:80], grid)
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_tie_between_death_and_censoring(self):
        # the censored subject at t=1 stays in the risk set for the death
        times = np.array([1.0, 1.0, 2.0])
        deltas = np.array([0, 1, 1])
        got = beran_cdf(times, deltas, np.zeros(3), 0.0, 1.0, [1.0, 2.0])
        np.testing.assert_allclose(got, [1.0 - 2.0 / 3.0, 1.0], atol=1e-15)

    def test_heavy_ties_match_the_three_key_order(self):
        # the reference breaks ties on original position with a third key;
        # lexsort is stable, so beran_cdf's two keys must give every bit
        rng = np.random.default_rng(503)
        n = 20_000
        times = np.round(rng.exponential(1.0, size=n), 2)
        deltas = (rng.random(n) < 0.6).astype(int)
        cov = rng.uniform(0.6, 0.75, size=(n, 2))
        query, bandwidth = np.array([0.63, 0.68]), 0.03
        grid = np.unique(times)[::7]
        weights = np.exp(-0.5 * (((cov - query) / bandwidth) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(n), 1 - deltas, times))
        ws, ds = weights[order], deltas[order].astype(bool)
        at_risk = np.cumsum(ws[::-1])[::-1]
        surv = np.cumprod(np.where(ds & (at_risk > 0.0), 1.0 - ws / at_risk, 1.0))
        want = 1.0 - np.concatenate([[1.0], surv])[
            np.searchsorted(times[order], grid, side="right")]
        got = beran_cdf(times, deltas, cov, query, bandwidth, grid)
        assert got.tobytes() == want.tobytes()

    def test_step_function_shape(self):
        times, deltas = self._censored_sample(seed=479)
        cov = np.zeros_like(times)
        grid = np.linspace(0.0, 6.0, 200)
        vals = beran_cdf(times, deltas, cov, 0.0, 1.0, grid)
        assert np.all(np.diff(vals) >= -1e-15)
        assert beran_cdf(times, deltas, cov, 0.0, 1.0, 0.0) == 0.0
        assert np.all(vals <= 1.0 + 1e-12)

    def test_vector_covariates(self):
        rng = np.random.default_rng(487)
        times = rng.exponential(1.0, size=50)
        deltas = np.ones(50, dtype=int)
        cov = rng.uniform(0.0, 1.0, size=(50, 2))
        v = beran_cdf(times, deltas, cov, np.array([0.5, 0.5]), 0.3, 1.0)
        assert 0.0 < v < 1.0

    def test_all_weights_underflow_raises(self):
        times = np.array([1.0, 2.0])
        deltas = np.array([1, 1])
        cov = np.array([0.0, 0.0])
        with pytest.raises(NumericalError, match="bandwidth"):
            beran_cdf(times, deltas, cov, 500.0, 1e-2, 1.0)

    def test_validation(self):
        times = np.array([1.0, 2.0])
        deltas = np.array([1, 1])
        cov = np.zeros(2)
        with pytest.raises(ValueError):
            beran_cdf(times, deltas, cov, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            beran_cdf(times, np.array([1, 2]), cov, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            beran_cdf(times, deltas, cov, np.array([0.0, 1.0]), 1.0, 1.0)

    @pytest.mark.parametrize("column,value", [("times", np.nan), ("times", -2.0),
                                              ("times", np.inf), ("cov", np.nan)])
    def test_rejects_non_finite_or_negative_inputs(self, column, value):
        data = {"times": np.array([1.0, 2.0, 3.0, 4.0]), "cov": np.zeros(4)}
        data[column][1] = value
        with pytest.raises(ValueError, match="finite"):
            beran_cdf(data["times"], np.array([1, 1, 1, 0]), data["cov"], 0.0, 1.0,
                      [1.5, 2.5, 5.0])

    @pytest.mark.parametrize("query", [[np.nan, 0.6], [np.inf, 0.6], [0.6, -np.inf]])
    def test_rejects_non_finite_query(self, query):
        cov = np.array([[0.6, 0.6], [0.65, 0.6], [0.7, 0.62]])
        with pytest.raises(ValueError, match="query must have 2 finite coordinates"):
            beran_cdf(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), cov, query,
                      0.05, [1.5, 2.5])

    @pytest.mark.parametrize("t", [np.nan, [1.5, np.nan]])
    def test_rejects_nan_evaluation_times(self, t):
        with pytest.raises(ValueError, match="NaN"):
            beran_cdf(np.array([1.0, 2.0]), np.array([1, 0]), np.zeros(2), 0.0, 1.0, t)


class TestGenerateSynthetic:
    def _model(self):
        rng = np.random.default_rng(491)
        sub = random_chain(rng, 2)
        return MIPHModel(
            (Margin(sub, GompertzTransform(2.0)),) * 2,
            fixed_pi=random_pi(rng, 2),
        )

    @staticmethod
    def _sampler(rng, n):
        return np.ones((n, 1))

    def test_deterministic(self):
        model = self._model()
        a = generate_synthetic(model, self._sampler, 0.2, 500, seed=21)
        b = generate_synthetic(model, self._sampler, 0.2, 500, seed=21)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.delta, b.delta)

    def test_censoring_rate_calibration(self):
        model = self._model()
        for rate in (0.1, 0.35):
            obs = generate_synthetic(model, self._sampler, rate, 30_000, seed=23)
            empirical = float(np.mean(obs.delta == 0))
            assert abs(empirical - rate) < 0.01

    @pytest.mark.parametrize("fraction", [0.01, 0.2, 0.6, 0.99])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_newton_rate_matches_a_bracketed_root(self, fraction, scale):
        # the oracle is scipy's Brent root on the same censored fraction,
        # bracketed around the 1 / scale the rate scales with
        y = generate_synthetic(self._model(), self._sampler, 0.0, 2000, seed=37).y.ravel()
        y = y * scale

        def censored(rate):
            return float(np.mean(-np.expm1(-rate * y)))

        rate = dataio._censoring_rate(y, fraction)
        oracle = scipy.optimize.brentq(lambda r: censored(r) - fraction,
                                       1e-6 / scale, 1e6 / scale,
                                       xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert abs(rate - oracle) <= 1e-12 * oracle
        assert abs(censored(rate) - fraction) <= 1e-14

    def test_zero_rate_leaves_everything_uncensored(self):
        obs = generate_synthetic(self._model(), self._sampler, 0.0, 50, seed=29)
        assert np.all(obs.delta == 1)

    def test_censoring_shortens_times(self):
        model = self._model()
        full = generate_synthetic(model, self._sampler, 0.0, 400, seed=31)
        cens = generate_synthetic(model, self._sampler, 0.4, 400, seed=31)
        assert np.all(cens.y <= full.y + 1e-15)
        assert np.all(cens.y[cens.delta == 1] == full.y[cens.delta == 1])

    def test_validation(self):
        model = self._model()
        with pytest.raises(ValueError):
            generate_synthetic(model, self._sampler, 1.0, 10, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic(model, self._sampler, 0.1, 0, seed=1)
        for n in (2.7, 3.0, True):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                generate_synthetic(model, self._sampler, 0.1, n, seed=1)
        # a negative seed used to fail in numpy's generator, naming no argument
        for seed in (-1, np.int64(-3), 1.5, True):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                generate_synthetic(model, self._sampler, 0.1, 10, seed=seed)
        with pytest.raises(ValueError):
            generate_synthetic(
                model, lambda rng, n: np.ones(n), 0.1, 10, seed=1
            )
