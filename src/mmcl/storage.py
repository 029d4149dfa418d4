"""On-disk formats: CSV matrices, dataset directories, fit directories,
partition reports, and experiment outputs.

All writers are deterministic: floats are rendered with repr (shortest
round-trip form), JSON is dumped with sorted keys, and nothing records
wall-clock timestamps except the explicit wall_time metric column.
"""

import hashlib
import json
import os
import sys

import numpy as np

from . import datagen
from .errors import InvalidInput
from .losses import LossSpec

DATASET_KINDS = ("paired", "unpaired", "labeled-bipartite")


def int_option(opts: dict, name: str, default: int, minimum: int = 1,
               where: str = "options.") -> int:
    val = opts.get(name, default)
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise InvalidInput(f"{where}{name}: must be an integer >= {minimum}, got {val!r}")
    return val


def float_option(opts: dict, name: str, default: float, lo: float = 0.0,
                 hi: float = np.inf, lo_open: bool = True,
                 where: str = "options.") -> float:
    """A finite number from opts in the range (lo, hi], or [lo, hi] when not lo_open."""
    val = opts.get(name, default)
    num = np.nan  # fails every comparison below
    if (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max):
        num = float(val)
    if not ((lo < num if lo_open else lo <= num) and num <= hi):
        above = f"{'>' if lo_open else '>='} {lo}" + (f" and <= {hi}" if hi < np.inf else "")
        raise InvalidInput(f"{where}{name}: must be a finite number {above}, got {val!r}")
    return num


def format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_matrix(path: str, arr) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInput(f"can only save 2-D arrays, got ndim={arr.ndim}")
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:  # a row of Python floats, whose repr is the shortest round trip
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def load_matrix(path: str) -> np.ndarray:
    """Read a CSV matrix, one row per line.

    A ragged row, or a cell that is not a finite number, raises
    InvalidInput naming the file and the line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        raw = fh.read()
    text = raw.strip()
    if not text:
        return np.empty((0, 0))
    first_line = raw[:len(raw) - len(raw.lstrip())].count("\n") + 1
    lines = text.splitlines()
    arr = np.empty((0, 0))
    # loadtxt skips blank lines, strips U+001F and rejects "1_0", which float()
    # reads, so text it does not parse to one row per line is read line by line.
    if "\x1f" not in text:
        try:
            arr = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
    if arr.shape[0] != len(lines):
        rows = []
        for n, line in enumerate(lines, start=first_line):
            try:
                rows.append([float(c) for c in line.split(",")])
            except ValueError:
                raise InvalidInput(f"{path} line {n}: non-numeric cell in {line!r}") from None
            if len(rows[-1]) != len(rows[0]):
                raise InvalidInput(
                    f"{path} line {n}: {len(rows[-1])} cells, expected {len(rows[0])}")
        arr = np.asarray(rows, dtype=np.float64)
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise InvalidInput(f"{path} line {first_line + int(np.argmax(bad))}: non-finite cell")
    return arr


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def blob_sha1(data: bytes) -> str:
    """Content hash in the style of a version-control blob object."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def model_hash(params: datagen.ModelParams) -> str:
    h = hashlib.sha256()
    for arr in (params.u1_star, params.u2_star, params.sigma_z, params.sigma_zt,
                params.sigma_xi, params.sigma_xit):
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(params.family.encode())
    return h.hexdigest()


def _write_edge_rows(path: str, edges: np.ndarray, truth_mask) -> None:
    rows = [(int(i), int(j), int(t)) for (i, j), t in zip(edges, truth_mask)]
    write_csv(path, ("i", "j", "is_truth"), rows)


def _data_rows(path: str) -> list:
    """(line number, cells) for each nonblank line of an integer CSV file but
    its header, an optional first row whose first cell is not an integer."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        rows = [(n, ln.strip().split(",")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if rows:
        try:
            int(rows[0][1][0])  # the rule _int_columns applies to each data cell
        except ValueError:
            return rows[1:]
    return rows


def _int_columns(path: str, rows: list, width: int, bounds: tuple = ()) -> np.ndarray:
    """The first width cells of each (line number, cells) row as int64.

    A shorter row, a non-integer cell, or a value of column c outside
    [0, bounds[c]) raises InvalidInput naming the file and the line.
    """
    out = []
    for n, cells in rows:
        if len(cells) < width:
            raise InvalidInput(f"{path} line {n}: {len(cells)} cells, expected {width}")
        try:
            out.append([int(c) for c in cells[:width]])
        except ValueError:
            raise InvalidInput(
                f"{path} line {n}: non-integer cell in {','.join(cells)!r}") from None
    try:
        arr = np.asarray(out, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        raise InvalidInput(f"{path}: integer beyond 64 bits") from None
    head = arr[:, :len(bounds)]
    bad = np.flatnonzero(((head < 0) | (head >= np.asarray(bounds))).any(axis=1))
    if bad.size:
        n, cells = rows[bad[0]]
        raise InvalidInput(f"{path} line {n}: value out of range in {','.join(cells)!r}")
    return arr


def read_edge_csv(path: str) -> np.ndarray:
    """Edge list from a CSV with an optional i,j[,is_truth] header; truth column
    ignored."""
    return _int_columns(path, _data_rows(path), 2)


def save_dataset(path: str, ds, model: datagen.ModelParams | None = None) -> None:
    """Write a dataset directory: x.csv, xt.csv, edges.csv, meta.json.

    Co-indexed data stores the observed pairs with is_truth marking the
    genuine ones (the hidden partners of broken pairs are not persisted);
    unpaired pools store the hidden matching itself; labeled bipartite
    data stores the corrupted edge set with is_truth marking label
    agreement, plus label files.
    """
    os.makedirs(path, exist_ok=True)
    save_matrix(os.path.join(path, "x.csv"), ds.x)
    save_matrix(os.path.join(path, "xt.csv"), ds.xt)
    meta = {
        "d1": int(ds.x.shape[1]),
        "d2": int(ds.xt.shape[1]),
        "n": int(ds.x.shape[0]),
        "model_hash": model_hash(model) if model is not None else "",
        "seed": ds.meta.get("seed_repr", ""),
    }
    if isinstance(ds, datagen.LabeledBipartite):
        truth = ds.labels_x[ds.edges[:, 0]] == ds.labels_xt[ds.edges[:, 1]]
        _write_edge_rows(os.path.join(path, "edges.csv"), ds.edges, truth)
        write_csv(os.path.join(path, "labels_left.csv"), ("label",),
                  [(int(v),) for v in ds.labels_x])
        write_csv(os.path.join(path, "labels_right.csv"), ("label",),
                  [(int(v),) for v in ds.labels_xt])
        meta.update({
            "kind": "labeled-bipartite",
            "p_n": float(ds.meta.get("p_prime", 0.0)),
            "k": int(ds.k),
        })
    else:
        kind = ds.meta.get("kind", "paired")
        meta.update({"kind": kind, "p_n": float(ds.distortion)})
        if kind == "unpaired":
            _write_edge_rows(os.path.join(path, "edges.csv"), ds.truth_edges,
                             np.ones(ds.truth_edges.shape[0], dtype=np.int64))
        else:
            truth_set = {(int(i), int(j)) for i, j in ds.truth_edges}
            mask = [(int(i), int(j)) in truth_set for i, j in ds.observed_edges]
            _write_edge_rows(os.path.join(path, "edges.csv"), ds.observed_edges, mask)
    save_json(os.path.join(path, "meta.json"), meta)


def _read_labels(path: str, count: int, k: int) -> np.ndarray:
    labels = _int_columns(path, _data_rows(path), 1, (k,))[:, 0]
    if labels.size != count:
        raise InvalidInput(f"{path}: {labels.size} labels for {count} rows")
    return labels


def _load_shaped(path: str, rows: int | None, cols: int) -> np.ndarray:
    """load_matrix, checked to have cols columns and, unless None, rows rows."""
    arr = load_matrix(path)
    if arr.shape[1] != cols or rows is not None and arr.shape[0] != rows:
        want = f"{'any' if rows is None else rows} x {cols}"
        raise InvalidInput(f"{path}: {arr.shape[0]} x {arr.shape[1]} matrix, expected {want}")
    return arr


def load_dataset(path: str):
    """Load a dataset directory written by save_dataset; a malformed meta.json
    field, a matrix of the wrong shape, or a malformed edge or label file
    raises InvalidInput naming the file."""
    meta_path = os.path.join(path, "meta.json")
    meta = load_json(meta_path)
    if not isinstance(meta, dict):
        raise InvalidInput(f"{meta_path}: must be a JSON object")
    kind = meta.get("kind", "paired")
    if kind not in DATASET_KINDS:
        raise InvalidInput(f"{meta_path}: kind must be one of {DATASET_KINDS}, got {kind!r}")
    p_n = float_option(meta, "p_n", 1.0 if kind == "unpaired" else 0.0, hi=1.0,
                       lo_open=False, where=f"{meta_path}: ")
    n, d1, d2 = (int_option(meta, key, None, where=f"{meta_path}: ") for key in ("n", "d1", "d2"))
    x = _load_shaped(os.path.join(path, "x.csv"), n, d1)
    xt = _load_shaped(os.path.join(path, "xt.csv"), None if kind == "labeled-bipartite" else n, d2)
    edge_path = os.path.join(path, "edges.csv")
    rows = _int_columns(edge_path, _data_rows(edge_path), 3, (x.shape[0], xt.shape[0]))
    edges = np.ascontiguousarray(rows[:, :2])
    if kind == "labeled-bipartite":
        k = int_option(meta, "k", None, where=f"{meta_path}: ")
        labels_x = _read_labels(os.path.join(path, "labels_left.csv"), x.shape[0], k)
        labels_xt = _read_labels(os.path.join(path, "labels_right.csv"), xt.shape[0], k)
        return datagen.LabeledBipartite(
            x=x, xt=xt, labels_x=labels_x, labels_xt=labels_xt, edges=edges,
            k=k, centers=None, meta={"kind": kind, "p_prime": p_n},
        )
    if kind == "unpaired":
        return datagen.PairedDataset(
            x=x, xt=xt, observed_edges=np.empty((0, 2), dtype=np.int64),
            truth_edges=edges, distortion=p_n, meta={"kind": kind},
        )
    return datagen.PairedDataset(
        x=x, xt=xt, observed_edges=edges, truth_edges=edges[rows[:, 2].astype(bool)],
        distortion=p_n, meta={"kind": kind},
    )


def save_fit(path: str, fit, spec: LossSpec | None = None, extra: dict | None = None) -> None:
    """Write a fit directory: product.csv, g1.csv, g2.csv, fit.json."""
    os.makedirs(path, exist_ok=True)
    save_matrix(os.path.join(path, "product.csv"), fit.product)
    save_matrix(os.path.join(path, "g1.csv"), fit.enc.g1)
    save_matrix(os.path.join(path, "g2.csv"), fit.enc.g2)
    info = {
        "iterations": int(fit.iterations),
        "final_loss": float(fit.final_loss),
        "flags": list(fit.flags),
        "r": int(fit.enc.r),
    }
    if fit.trace is not None:
        info["trace"] = [float(v) for v in fit.trace]
    if spec is not None:
        info["loss_spec"] = spec.to_json()
    if extra:
        info.update(extra)
    save_json(os.path.join(path, "fit.json"), info)


def save_partition(path: str, part, seed, restarts: int) -> None:
    """Write a partition directory: labels, kept edges, report.json."""
    os.makedirs(path, exist_ok=True)
    write_csv(os.path.join(path, "labels_left.csv"), ("label",),
              [(int(v),) for v in part.labels_left])
    write_csv(os.path.join(path, "labels_right.csv"), ("label",),
              [(int(v),) for v in part.labels_right])
    write_csv(os.path.join(path, "kept_edges.csv"), ("i", "j"),
              [(int(i), int(j)) for i, j in part.kept_edges])
    report = {
        "k": int(part.k),
        "l": int(part.l),
        "inertia": float(part.inertia),
        "kept": int(part.kept_edges.shape[0]),
        "dropped": int(part.dropped_edges.shape[0]),
        "degenerate": bool(part.degenerate),
        "best_restart": int(part.best_restart),
        "seed": repr(seed),
        "restarts": int(restarts),
    }
    save_json(os.path.join(path, "report.json"), report)
