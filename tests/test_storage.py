"""Tests for deterministic CSV/JSON serialization and directory layouts."""

import contextlib
import hashlib
import json
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmcl import bsgmp, datagen, solvers, storage
from mmcl.errors import InvalidInput
from mmcl.losses import LossSpec


class TestFormatCell:
    @pytest.mark.parametrize("value,want", [
        (None, ""),
        ("plain", "plain"),
        (True, "1"),
        (False, "0"),
        (np.bool_(True), "1"),
        (7, "7"),
        (np.int64(-3), "-3"),
        (0.1, "0.1"),
        (1.0, "1.0"),
        (np.float64(2.5), "2.5"),
        (1e-300, "1e-300"),
    ])
    def test_rendering(self, value, want):
        assert storage.format_cell(value) == want

    def test_float_rendering_round_trips(self):
        rng = np.random.default_rng(0)
        for v in rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200):
            assert float(storage.format_cell(float(v))) == v


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        storage.write_csv(str(path), ("a", "b"), [(1, 0.5), (None, "x")])
        assert path.read_bytes() == b"a,b\n1,0.5\n,x\n"

    def test_empty_table_keeps_header(self, tmp_path):
        path = tmp_path / "t.csv"
        storage.write_csv(str(path), ("only",), [])
        assert path.read_text() == "only\n"


class TestMatrixRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-30, 30, (7, 5))
        path = tmp_path / "m.csv"
        storage.save_matrix(str(path), arr)
        back = storage.load_matrix(str(path))
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        arr = np.random.default_rng(2).standard_normal((6, 4))
        path = tmp_path / "x.csv"
        storage.save_matrix(str(path), arr)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert np.array_equal(storage.load_matrix(str(path)), arr)

    def test_extreme_values_survive(self, tmp_path):
        arr = np.array([[1e-300, -1e300], [0.0, -0.0]])
        path = tmp_path / "m.csv"
        storage.save_matrix(str(path), arr)
        back = storage.load_matrix(str(path))
        assert np.array_equal(back, arr)
        assert np.signbit(back[1, 1])

    def test_cells_are_written_as_the_repr_of_each_float(self, tmp_path):
        # Signed zero, the smallest subnormal, the largest decades and an integral
        # value, each written as repr(float(v)) writes it.
        arr = np.array([[-0.0, 5e-324, 1e308, -1e-300], [0.1, -2.0, 1e16, 123456.789]])
        path = tmp_path / "m.csv"
        storage.save_matrix(str(path), arr)
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in arr)
        assert path.read_bytes() == want.encode("utf-8")
        assert want.startswith("-0.0,5e-324,1e+308,-1e-300\n")

    def test_single_row_and_column_shapes(self, tmp_path):
        for arr in (np.ones((1, 4)), np.ones((4, 1))):
            path = tmp_path / "m.csv"
            storage.save_matrix(str(path), arr)
            assert storage.load_matrix(str(path)).shape == arr.shape

    def test_empty_file_loads_as_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        assert storage.load_matrix(str(path)).shape == (0, 0)

    @pytest.mark.parametrize("arr", [np.ones(3), np.ones((2, 2, 2))])
    def test_non_matrix_rejected(self, tmp_path, arr):
        with pytest.raises(InvalidInput):
            storage.save_matrix(str(tmp_path / "m.csv"), arr)


    @pytest.mark.parametrize("text,line,fragment", [
        ("1.0,2.0\n3.0\n", 2, "1 cells, expected 2"),
        ("1.0,2.0\n3.0,4.0,5.0\n", 2, "3 cells, expected 2"),
        ("\n1.0,2.0\n3.0,x\n", 3, "non-numeric"),
        ("1.0,2.0\n\n3.0,4.0\n", 2, "non-numeric"),
        ("1.0,2.0\n3.0,nan\n", 2, "non-finite"),
        ("1.0,-inf\n", 1, "non-finite"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, line, fragment):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput, match=fragment) as info:
            storage.load_matrix(str(path))
        assert f"{path} line {line}:" in str(info.value)


CSV_BASE = "1.5,-2,3e-3\n0,7.25,-0.5\n4,5,6\n"
CSV_DAMAGE = ["\n", "\n\n", "\x0b", "\x0c", "\x1f", "_", "1_0", "\uff11", "\ufeff", ",",
              ",\n", " ", "\t", "x", "nan", "inf", "-inf", "1e400", "-1e400", "NaN", "0x1"]


def load_matrix_outcome(path, fast):
    """load_matrix's array or error message, with or without the loadtxt parse."""
    with contextlib.ExitStack() as stack:
        if not fast:
            stack.enter_context(mock.patch.object(np, "loadtxt", side_effect=ValueError))
        try:
            return storage.load_matrix(path)
        except InvalidInput as exc:
            return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(CSV_DAMAGE), st.integers(0, len(CSV_BASE))),
                min_size=1, max_size=3))
def test_fast_csv_parse_matches_line_reader(damage):
    # Blank lines, vertical tabs, underscores, non-finite tokens, a BOM and
    # trailing commas: the loadtxt parse and the line-by-line reader agree
    # on the array or on the error message.
    text = CSV_BASE
    for token, pos in damage:
        text = text[:pos] + token + text[pos:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast, slow = load_matrix_outcome(path, True), load_matrix_outcome(path, False)
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert isinstance(fast, np.ndarray) and fast.shape == slow.shape
        assert np.array_equal(fast, slow)


INT_BASE = b"i,j,is_truth\n0,1,1\n2,3,0\n4,4,1\n"
# The CLI fuzz's bad cells and extremes, then headers, blank lines, a BOM,
# newlines, separators loadtxt reads as blanks, underscores, non-ASCII digits
# and letters, and values beyond 64 bits.
INT_DAMAGE = [b"x", b"nan", b"inf", b"1e309", b"", b"-1", b"1000", b"\xef\xbb\xbf1",
              b"\xff\xfe", b"1e300", b"-1e300", b"1e308", b"1e-300", b"i,j\n", b"label\n",
              b"\n", b"\n\n", b" \n", b"\r", b"\r\n", b"\xef\xbb\xbf", b",", b" ", b"\t",
              b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"\x00", b"_", b"1_0", b"+", b"-0", b"1.0",
              "\u0661".encode(), "\u01fe".encode(), "\uff11".encode(), b"99999999999999999999",
              b"9223372036854775807", b"9223372036854775808"]


def read_ints_outcome(path, width, bounds, fast):
    """_read_ints's array or error message, with or without the loadtxt parse."""
    with contextlib.ExitStack() as stack:
        if not fast:
            stack.enter_context(mock.patch.object(np, "loadtxt", side_effect=ValueError))
        try:
            return storage._read_ints(path, width, bounds)
        except (InvalidInput, UnicodeDecodeError) as exc:
            return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@example([("\u01fe".encode(), 14, False)], (2, ()))  # loadtxt reads "0\u01fe" as 462
@example([(b"\x1c", 14, False)], (2, ()))  # and "0\x1c" as 0
@example([(b" \n", 13, False), (b"\n", 0, False)], (3, (5, 5)))
@given(st.lists(st.tuples(st.sampled_from(INT_DAMAGE), st.integers(0, len(INT_BASE)),
                          st.booleans()), min_size=1, max_size=3),
       st.sampled_from([(1, ()), (1, (5,)), (2, ()), (3, (5, 5)), (3, (4, 4))]))
def test_fast_int_parse_matches_line_reader(damage, layout):
    # Each token is inserted at a byte offset, or replaces the cell there; the
    # loadtxt parse and the int() line reader agree on the array or on the
    # error message.
    text = INT_BASE
    for token, pos, replace in damage:
        ends = [i for i in (text.find(b",", pos), text.find(b"\n", pos)) if i >= 0]
        end = min(ends, default=len(text)) if replace else pos
        text = text[:pos] + token + text[end:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        fast, slow = (read_ints_outcome(path, *layout, f) for f in (True, False))
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert isinstance(fast, np.ndarray) and fast.dtype == slow.dtype == np.int64
        assert fast.shape == slow.shape and np.array_equal(fast, slow)


class TestJsonHelpers:
    def test_save_json_sorts_keys_and_ends_with_newline(self, tmp_path):
        path = tmp_path / "o.json"
        storage.save_json(str(path), {"b": 1, "a": [2, 3]})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert storage.load_json(str(path)) == {"a": [2, 3], "b": 1}

    def test_canonical_json_is_compact_and_sorted(self):
        got = storage.canonical_json({"b": 1, "a": [1, 2]})
        assert got == '{"a":[1,2],"b":1}'

    def test_config_hash_is_sha256_of_canonical_form(self):
        obj = {"z": 1, "a": {"y": 2, "x": 3}}
        want = hashlib.sha256(storage.canonical_json(obj).encode()).hexdigest()
        assert storage.config_hash(obj) == want
        assert storage.config_hash({"a": {"x": 3, "y": 2}, "z": 1}) == want
        assert storage.config_hash({"z": 2, "a": {"y": 2, "x": 3}}) != want

    def test_blob_sha1_matches_version_control_convention(self):
        assert storage.blob_sha1(b"hello\n") == \
            "ce013625030ba8dba906f756967f9e9ca394464a"
        assert storage.blob_sha1(b"") == \
            "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"


class TestModelHash:
    def test_stable_and_sensitive(self):
        a = datagen.random_model(5, 4, 2, snr=2.0, seed=0)
        b = datagen.random_model(5, 4, 2, snr=2.0, seed=0)
        c = datagen.random_model(5, 4, 2, snr=1.0, seed=0)
        assert storage.model_hash(a) == storage.model_hash(b)
        assert storage.model_hash(a) != storage.model_hash(c)
        assert len(storage.model_hash(a)) == 64


class TestReadEdgeCsv:
    def test_reads_header_and_ignores_truth_column(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("i,j,is_truth\n0,1,1\n2,3,0\n")
        assert storage.read_edge_csv(str(path)).tolist() == [[0, 1], [2, 3]]

    def test_headerless_two_column_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("4,5\n6,7\n")
        assert storage.read_edge_csv(str(path)).tolist() == [[4, 5], [6, 7]]

    @pytest.mark.parametrize("first", ["+0,1", "\ufeff0,1"])
    def test_headerless_first_edge_is_kept(self, tmp_path, first):
        # A signed first cell, or a byte-order mark, is no header.
        path = tmp_path / "e.csv"
        path.write_text(first + "\n2,2\n0,0\n3,4\n", encoding="utf-8")
        assert storage.read_edge_csv(str(path)).tolist() == [[0, 1], [2, 2], [0, 0], [3, 4]]

    @pytest.mark.parametrize("first", ["0.5,1", "1e3,1", "-2.5e-3,0", "inf,1", "nan,0"])
    def test_numeric_first_row_is_data_and_rejected(self, tmp_path, first):
        # A first cell that float() reads is no header: the row is data, and a
        # non-integer index is reported, not skipped.
        path = tmp_path / "e.csv"
        path.write_text(first + "\n0,1\n1,0\n")
        with pytest.raises(InvalidInput, match=f"{path} line 1: non-integer cell"):
            storage.read_edge_csv(str(path))

    def test_empty_file_gives_empty_edges(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        got = storage.read_edge_csv(str(path))
        assert got.shape == (0, 2)
        assert got.dtype == np.int64

    def test_single_column_row_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("i,j\n5\n")
        with pytest.raises(InvalidInput):
            storage.read_edge_csv(str(path))

    def test_non_integer_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("i,j\n0,1\n\n1,a\n")
        with pytest.raises(InvalidInput, match=f"{path} line 4: non-integer"):
            storage.read_edge_csv(str(path))

    def test_clean_file_takes_no_line_by_line_parse(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("i,j,is_truth\n" + "".join(f"{i},{i % 7},1\n" for i in range(500)))
        with mock.patch.object(storage, "_int_columns", side_effect=AssertionError):
            got = storage.read_edge_csv(str(path))
        assert got.tolist() == [[i, i % 7] for i in range(500)]


class TestDatasetRoundTrip:
    def setup_method(self):
        self.model = datagen.random_model(5, 4, 2, snr=2.0, seed=0)

    def test_paired_round_trip(self, tmp_path):
        ds = datagen.sample_paired(self.model, 10, 0.2, seed=3)
        out = tmp_path / "ds"
        storage.save_dataset(str(out), ds, model=self.model)
        assert sorted(os.listdir(out)) == [
            "edges.csv", "matrices.npz", "meta.json", "x.csv", "xt.csv"]
        back = storage.load_dataset(str(out))
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.xt, ds.xt)
        assert np.array_equal(back.observed_edges, ds.observed_edges)
        assert back.distortion == ds.distortion
        assert back.meta["kind"] == "paired"
        truth_set = {(int(i), int(j)) for i, j in ds.truth_edges}
        kept = [(int(i), int(j)) for i, j in ds.observed_edges
                if (int(i), int(j)) in truth_set]
        assert [(int(i), int(j)) for i, j in back.truth_edges] == kept
        meta = storage.load_json(str(out / "meta.json"))
        assert meta["d1"] == 5 and meta["d2"] == 4 and meta["n"] == 10
        assert meta["model_hash"] == storage.model_hash(self.model)
        assert meta["seed"] == "3"
        assert meta["p_n"] == ds.distortion

    def test_unpaired_round_trip(self, tmp_path):
        pool = datagen.sample_unpaired(self.model, 8, seed=4)
        out = tmp_path / "pool"
        storage.save_dataset(str(out), pool)
        back = storage.load_dataset(str(out))
        assert np.array_equal(back.x, pool.x)
        assert np.array_equal(back.xt, pool.xt)
        assert back.observed_edges.shape == (0, 2)
        assert np.array_equal(back.truth_edges, pool.truth_edges)
        assert back.meta["kind"] == "unpaired"
        meta = storage.load_json(str(out / "meta.json"))
        assert meta["model_hash"] == ""

    def test_labeled_round_trip(self, tmp_path):
        lab = datagen.sample_labeled_bipartite(self.model, 4, 3, 0.1, seed=5)
        out = tmp_path / "lab"
        storage.save_dataset(str(out), lab, model=self.model)
        assert sorted(os.listdir(out)) == [
            "edges.csv", "labels_left.csv", "labels_right.csv",
            "matrices.npz", "meta.json", "x.csv", "xt.csv"]
        back = storage.load_dataset(str(out))
        assert isinstance(back, datagen.LabeledBipartite)
        assert np.array_equal(back.x, lab.x)
        assert np.array_equal(back.labels_x, lab.labels_x)
        assert np.array_equal(back.labels_xt, lab.labels_xt)
        assert np.array_equal(back.edges, lab.edges)
        assert back.k == 3
        assert back.centers is None
        assert back.meta["p_prime"] == 0.1

    def test_labeled_truth_column_marks_label_agreement(self, tmp_path):
        lab = datagen.sample_labeled_bipartite(self.model, 4, 3, 0.3, seed=6)
        out = tmp_path / "lab"
        storage.save_dataset(str(out), lab)
        lines = (out / "edges.csv").read_text().strip().splitlines()
        assert lines[0] == "i,j,is_truth"
        for ln in lines[1:]:
            i, j, t = (int(v) for v in ln.split(","))
            assert t == int(lab.labels_x[i] == lab.labels_xt[j])

    def test_headerless_edge_and_label_files_keep_their_first_row(self, tmp_path):
        ds = datagen.sample_paired(self.model, 30, 0.2, seed=3)
        lab = datagen.sample_labeled_bipartite(self.model, 4, 3, 0.1, seed=5)
        for data, name in ((ds, "paired"), (lab, "lab")):
            storage.save_dataset(str(tmp_path / name), data)
        for path in [tmp_path / "paired" / "edges.csv"] + [
                tmp_path / "lab" / f for f in ("edges.csv", "labels_left.csv", "labels_right.csv")]:
            path.write_text(path.read_text().split("\n", 1)[1])
        back = storage.load_dataset(str(tmp_path / "paired"))
        assert back.observed_edges.shape == (30, 2)
        assert np.array_equal(back.observed_edges, ds.observed_edges)
        back = storage.load_dataset(str(tmp_path / "lab"))
        assert np.array_equal(back.edges, lab.edges)
        assert np.array_equal(back.labels_x, lab.labels_x)
        assert np.array_equal(back.labels_xt, lab.labels_xt)

    @pytest.mark.parametrize("row,fragment", [
        ("3,4", "2 cells, expected 3"), ("3,x,1", "non-integer"), ("3,4,yes", "non-integer")])
    def test_malformed_edge_row_rejected(self, tmp_path, row, fragment):
        ds = datagen.sample_unpaired(datagen.random_model(5, 4, 2, seed=0), 6, seed=1)
        storage.save_dataset(str(tmp_path), ds)
        edge_path = tmp_path / "edges.csv"
        edge_path.write_text(edge_path.read_text() + row + "\n")
        with pytest.raises(InvalidInput, match=f"{edge_path} line 8: {fragment}"):
            storage.load_dataset(str(tmp_path))


class TestLoadDatasetChecks:
    """A dataset directory whose meta.json, edges or labels do not fit the
    data raises InvalidInput naming the file, for the CLI's exit 2."""

    MODEL = datagen.random_model(5, 4, 2, seed=0)

    def write(self, tmp_path, kind):
        if kind == "labeled-bipartite":
            ds = datagen.sample_labeled_bipartite(self.MODEL, 15, 2, 0.1, seed=1)
        else:
            ds = datagen.sample_paired(self.MODEL, 30, 0.0, seed=1)
        storage.save_dataset(str(tmp_path), ds)
        return tmp_path

    def edit_meta(self, tmp_path, kind, edit):
        data = self.write(tmp_path, kind)
        meta = storage.load_json(str(data / "meta.json"))
        (data / "meta.json").write_text(json.dumps(edit(meta)))
        return data

    @pytest.mark.parametrize("kind,edit,fragment", [
        ("paired", lambda m: [], "must be a JSON object"),
        ("paired", lambda m: dict(m, kind="bogus"), "kind must be one of"),
        ("paired", lambda m: dict(m, kind=[]), "kind must be one of"),
        ("paired", lambda m: dict(m, p_n="x"), "p_n: must be a finite number"),
        ("paired", lambda m: dict(m, p_n=float("nan")), "p_n: must be a finite number"),
        ("paired", lambda m: dict(m, p_n=2.0), "p_n: must be a finite number"),
        ("labeled-bipartite", lambda m: {f: v for f, v in m.items() if f != "k"},
         "k: must be an integer"),
        ("labeled-bipartite", lambda m: dict(m, k="x"), "k: must be an integer"),
        ("labeled-bipartite", lambda m: dict(m, k=True), "k: must be an integer"),
        ("paired", lambda m: {f: v for f, v in m.items() if f != "n"}, "n: must be an integer"),
        ("paired", lambda m: dict(m, n="30"), "n: must be an integer"),
        ("paired", lambda m: {f: v for f, v in m.items() if f != "d1"}, "d1: must be an integer"),
        ("paired", lambda m: dict(m, d1=5.0), "d1: must be an integer"),
        ("labeled-bipartite", lambda m: {f: v for f, v in m.items() if f != "d2"},
         "d2: must be an integer"),
        ("labeled-bipartite", lambda m: dict(m, d2=None), "d2: must be an integer"),
    ])
    def test_bad_meta_field(self, tmp_path, kind, edit, fragment):
        data = self.edit_meta(tmp_path, kind, edit)
        with pytest.raises(InvalidInput, match=re.escape(f"{data / 'meta.json'}: {fragment}")):
            storage.load_dataset(str(data))

    @pytest.mark.parametrize("kind", ["paired", "labeled-bipartite"])
    @pytest.mark.parametrize("row", ["0,99,1", "30,0,1", "-1,0,1", "0,30,0"])
    def test_edge_outside_the_data(self, tmp_path, kind, row):
        data = self.write(tmp_path, kind)
        path = data / "edges.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        with pytest.raises(InvalidInput, match=re.escape(f"{path} line 3: value out of range")):
            storage.load_dataset(str(data))

    @pytest.mark.parametrize("kind,name,edit,shape", [
        ("paired", "x.csv", lambda lines: lines[1:], "29 x 5 matrix, expected 30 x 5"),
        ("paired", "xt.csv", lambda lines: lines[:-1], "29 x 4 matrix, expected 30 x 4"),
        ("paired", "x.csv", lambda lines: [ln.rpartition(",")[0] for ln in lines],
         "30 x 4 matrix, expected 30 x 5"),
        ("paired", "xt.csv", lambda lines: [ln + ",0.0" for ln in lines],
         "30 x 5 matrix, expected 30 x 4"),
        ("labeled-bipartite", "x.csv", lambda lines: lines[:-1],
         "29 x 5 matrix, expected 30 x 5"),
        ("labeled-bipartite", "xt.csv", lambda lines: [ln.rpartition(",")[0] for ln in lines],
         "30 x 3 matrix, expected any x 4"),
    ])
    def test_matrix_shape_must_match_meta(self, tmp_path, kind, name, edit, shape):
        data = self.write(tmp_path, kind)
        path = data / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(InvalidInput, match=re.escape(f"{path}: {shape}")):
            storage.load_dataset(str(data))

    def test_integer_beyond_64_bits(self, tmp_path):
        data = self.write(tmp_path, "paired")
        path = data / "edges.csv"
        path.write_text(path.read_text() + "99999999999999999999,0,1\n")
        with pytest.raises(InvalidInput, match=re.escape(f"{path}: integer beyond 64 bits")):
            storage.load_dataset(str(data))

    @pytest.mark.parametrize("name", ["labels_left.csv", "labels_right.csv"])
    def test_label_count_must_match_rows(self, tmp_path, name):
        data = self.write(tmp_path, "labeled-bipartite")
        (data / name).write_text("label\n0\n1\n")
        with pytest.raises(InvalidInput, match=re.escape(f"{data / name}: 2 labels for 30 rows")):
            storage.load_dataset(str(data))

    def test_label_must_be_below_k(self, tmp_path):
        data = self.write(tmp_path, "labeled-bipartite")
        path = data / "labels_left.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + ["2"] + lines[5:]) + "\n")
        with pytest.raises(InvalidInput, match=re.escape(f"{path} line 5: value out of range")):
            storage.load_dataset(str(data))

    def test_missing_kind_still_loads_as_paired(self, tmp_path):
        data = self.edit_meta(tmp_path, "paired",
                              lambda m: {f: v for f, v in m.items() if f != "kind"})
        assert storage.load_dataset(str(data)).meta["kind"] == "paired"


def save_one_array(path):
    """An .npy file, not an archive, at path."""
    with open(path, "wb") as fh:
        np.save(fh, np.ones((30, 5)))


class TestDatasetTwin:
    """save_dataset's matrices.npz holds x.csv and xt.csv under the SHA-1 of
    their bytes; load_dataset parses a CSV file whenever the twin does not
    hold that file's current bytes."""

    MODEL = datagen.random_model(5, 4, 2, seed=0)

    def write(self, tmp_path, twin=True):
        ds = datagen.sample_paired(self.MODEL, 30, 0.2, seed=1)
        ds.x[0, 0], ds.x[1, 1], ds.xt[2, 2] = -0.0, 5e-324, 1.7976931348623157e308
        storage.save_dataset(str(tmp_path), ds)
        if not twin:
            os.remove(tmp_path / storage.TWIN_NAME)
        return ds

    def load(self, tmp_path, monkeypatch):
        """load_dataset's result and the dtypes that np.loadtxt was called with."""
        dtypes = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            dtypes.append(np.dtype(kwargs.get("dtype", float)))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = storage.load_dataset(str(tmp_path))
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        return back, dtypes

    def test_hit_parses_no_matrix(self, tmp_path, monkeypatch):
        ds = self.write(tmp_path)
        back, dtypes = self.load(tmp_path, monkeypatch)
        assert dtypes == [np.dtype(np.int64)]  # edges.csv only
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.xt, ds.xt)
        assert np.signbit(back.x[0, 0]) and back.x.flags.c_contiguous
        assert np.array_equal(back.observed_edges, ds.observed_edges)

    def test_twin_gives_the_csv_parse(self, tmp_path, monkeypatch):
        self.write(tmp_path / "twin")
        self.write(tmp_path / "csv", twin=False)
        back, _ = self.load(tmp_path / "twin", monkeypatch)
        want, dtypes = self.load(tmp_path / "csv", monkeypatch)
        assert dtypes.count(np.dtype(np.float64)) == 2
        for a, b in ((back.x, want.x), (back.xt, want.xt)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_edited_csv_loads_the_edit(self, tmp_path, monkeypatch):
        ds = self.write(tmp_path)
        path = tmp_path / "xt.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(["0.25"] * len(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n")
        back, dtypes = self.load(tmp_path, monkeypatch)
        assert dtypes.count(np.dtype(np.float64)) == 1
        assert np.array_equal(back.x, ds.x)
        assert np.all(back.xt[3] == 0.25)
        assert np.array_equal(np.delete(back.xt, 3, axis=0), np.delete(ds.xt, 3, axis=0))

    @staticmethod
    def rewrite(tmp_path, change):
        """Rewrite the twin with change applied to its {key: array} entries."""
        with np.load(tmp_path / storage.TWIN_NAME) as twin:
            entries = {key: twin[key] for key in twin.files}
        np.savez(tmp_path / storage.TWIN_NAME, **change(entries))

    DAMAGE = {
        "truncated": lambda p: p.write_bytes(p.read_bytes()[:-100]),
        "half": lambda p: p.write_bytes(p.read_bytes()[:len(p.read_bytes()) // 2]),
        "garbage": lambda p: p.write_bytes(b"\x93NUMPY garbage\n" * 50),
        "empty": lambda p: p.write_bytes(b""),
        "flipped byte": lambda p: p.write_bytes(
            p.read_bytes()[:2000] + bytes([p.read_bytes()[2000] ^ 1]) + p.read_bytes()[2001:]),
        "directory": lambda p: (os.remove(p), os.mkdir(p)),
        "one array": lambda p: save_one_array(p),
    }
    CHANGES = {
        "stale digest": lambda e: {k[:-1] + "0" if k[-1] != "0" else k[:-1] + "1": v
                                   for k, v in e.items()},
        "missing key": lambda e: {k: v for k, v in e.items() if not k.startswith("x.csv")},
        "wrong shape": lambda e: {k: v[:-1] for k, v in e.items()},
        "wrong dtype": lambda e: {k: v.view(np.int64) for k, v in e.items()},
        "wrong ndim": lambda e: {k: v.ravel() for k, v in e.items()},
        "big-endian": lambda e: {k: v.astype(">f8") for k, v in e.items()},
        "non-finite": lambda e: {k: np.where(v == v.max(), np.inf, v) for k, v in e.items()},
        "objects": lambda e: {k: np.array([v], dtype=object) for k, v in e.items()},
    }

    @pytest.mark.parametrize("how", sorted(DAMAGE) + sorted(CHANGES))
    def test_damaged_twin_gives_the_csv_parse(self, tmp_path, monkeypatch, how):
        ds = self.write(tmp_path)
        if how in self.DAMAGE:
            self.DAMAGE[how](tmp_path / storage.TWIN_NAME)
        else:
            self.rewrite(tmp_path, self.CHANGES[how])
        back, dtypes = self.load(tmp_path, monkeypatch)
        assert dtypes.count(np.dtype(np.float64)) >= 1
        for a, b in ((back.x, ds.x), (back.xt, ds.xt)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_twinless_directory_loads_as_before(self, tmp_path, monkeypatch):
        ds = self.write(tmp_path, twin=False)
        assert sorted(os.listdir(tmp_path)) == ["edges.csv", "meta.json", "x.csv", "xt.csv"]
        with mock.patch.object(storage, "blob_sha1", side_effect=AssertionError):
            back, dtypes = self.load(tmp_path, monkeypatch)
        assert dtypes.count(np.dtype(np.float64)) == 2
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.xt, ds.xt)

    @pytest.mark.parametrize("edit,fragment", [
        (lambda m: dict(m, n=29), "x.csv: 30 x 5 matrix, expected 29 x 5"),
        (lambda m: dict(m, d2=5), "xt.csv: 30 x 4 matrix, expected 30 x 5"),
    ])
    def test_twin_matrices_meet_the_shape_check(self, tmp_path, edit, fragment):
        self.write(tmp_path)
        meta = storage.load_json(str(tmp_path / "meta.json"))
        (tmp_path / "meta.json").write_text(json.dumps(edit(meta)))
        for twin in (True, False):
            if not twin:
                os.remove(tmp_path / storage.TWIN_NAME)
            with pytest.raises(InvalidInput, match=re.escape(f"{tmp_path / fragment}")):
                storage.load_dataset(str(tmp_path))

    def test_non_finite_matrix_keeps_the_csv_message(self, tmp_path):
        ds = datagen.sample_paired(self.MODEL, 30, 0.2, seed=1)
        ds.x[4, 1] = np.nan
        storage.save_dataset(str(tmp_path), ds)
        for twin in (True, False):
            if not twin:
                os.remove(tmp_path / storage.TWIN_NAME)
            with pytest.raises(InvalidInput,
                               match=re.escape(f"{tmp_path / 'x.csv'} line 5: non-finite cell")):
                storage.load_dataset(str(tmp_path))


class TestSaveFit:
    def test_closed_form_fit_directory(self, tmp_path):
        model = datagen.random_model(6, 5, 2, snr=2.0, seed=0)
        ds = datagen.sample_paired(model, 40, 0.0, seed=1)
        fit = solvers.fit_linear_closed_form(ds, 2, 1.0)
        out = tmp_path / "fit"
        storage.save_fit(str(out), fit, spec=LossSpec.linear(),
                         extra={"note": "probe"})
        assert sorted(os.listdir(out)) == ["fit.json", "g1.csv", "g2.csv", "product.csv"]
        assert np.array_equal(storage.load_matrix(str(out / "product.csv")), fit.product)
        assert np.array_equal(storage.load_matrix(str(out / "g1.csv")), fit.enc.g1)
        assert np.array_equal(storage.load_matrix(str(out / "g2.csv")), fit.enc.g2)
        info = storage.load_json(str(out / "fit.json"))
        assert info["iterations"] == fit.iterations
        assert info["final_loss"] == fit.final_loss
        assert info["flags"] == list(fit.flags)
        assert info["r"] == 2
        assert info["loss_spec"]["phi"] == "identity"
        assert info["note"] == "probe"
        assert "trace" not in info

    def test_descent_fit_keeps_trace(self, tmp_path):
        model = datagen.random_model(4, 4, 2, snr=1.0, seed=0)
        ds = datagen.sample_paired(model, 12, 0.0, seed=2)
        fit = solvers.fit_gradient_descent(LossSpec.linear(), ds, 2,
                                           lr=0.05, max_iter=5)
        out = tmp_path / "fit"
        storage.save_fit(str(out), fit)
        info = storage.load_json(str(out / "fit.json"))
        assert info["trace"] == [float(v) for v in fit.trace]
        assert "loss_spec" not in info


class TestSavePartition:
    def test_partition_directory(self, tmp_path):
        edges = np.array([[i, j] for i in range(4) for j in range(4)
                          if (i < 2) == (j < 2)])
        graph = bsgmp.BipartiteGraph(4, 4, edges)
        part = bsgmp.partition(graph, 2, seed=0, restarts=3)
        out = tmp_path / "part"
        storage.save_partition(str(out), part, seed=0, restarts=3)
        assert sorted(os.listdir(out)) == [
            "kept_edges.csv", "labels_left.csv", "labels_right.csv", "report.json"]
        report = storage.load_json(str(out / "report.json"))
        assert report["k"] == 2
        assert report["kept"] + report["dropped"] == edges.shape[0]
        assert report["seed"] == "0"
        assert report["restarts"] == 3
        assert report["degenerate"] is False
        assert set(report) == {"k", "l", "inertia", "kept", "dropped",
                               "degenerate", "best_restart", "seed", "restarts"}
        kept = storage.read_edge_csv(str(out / "kept_edges.csv"))
        assert np.array_equal(kept, part.kept_edges)
        labels = (out / "labels_left.csv").read_text().strip().splitlines()
        assert labels[0] == "label"
        assert [int(v) for v in labels[1:]] == part.labels_left.tolist()
