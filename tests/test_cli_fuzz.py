"""Property test: malformed `gen` and `exp` configs, malformed `fit` and
`bsgmp` arguments and malformed dataset files never escape as a traceback.

Each config example starts from a small valid config, replaces or deletes a
few fields (top level, model, sweep or options) with values of the wrong
type, NaN, infinities, strings, bools or out-of-range numbers, and runs the
CLI in-process. Each argument example starts from a valid `fit` or `bsgmp`
command line and replaces or drops a few numeric flags the same way. Each
dataset example damages one to three files of a small valid dataset
directory (dropped lines, ragged rows, bad cells, a BOM, invalid UTF-8, rows
of finite extremes such as 1e308 or 1e-300, or bad meta.json fields) and runs
every `fit` method and `bsgmp` on it. Whatever the input, the exit code
is 0, 2 or 3, a nonzero exit writes exactly one line to stderr, no warning is
raised, and a fit that exits 0 reports a finite loss.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcl import storage
from mmcl.cli import main

MODEL = {"d1": 4, "d2": 3, "r": 2, "snr": 2.0, "seed": 0}

GEN_CONFIGS = [
    {"kind": "paired", "model": MODEL, "n": 10, "p": 0.2, "seed": 1},
    {"kind": "unpaired", "model": MODEL, "n": 10, "seed": 2},
    {"kind": "labeled-bipartite", "model": MODEL, "n_per_cluster": 3, "k": 2,
     "p_prime": 0.1, "within_scale": 0.5, "seed": 0},
]

EXP_CONFIGS = {
    "distortion": ({"n_grid": [6], "p_grid": [0.0]}, {"rho": 1.0}),
    "unpaired": ({"n_grid": [6], "ratio_grid": [1]},
                 {"nu": 2.0, "rho": 1.0, "tau": "auto", "tau_scale": 1.0, "init": "linear"}),
    "bsgmp": ({"k_grid": [2], "p_prime_grid": [0.0]},
              {"k_true": 2, "n_per_cluster": 4, "n_test_per_cluster": 2, "restarts": 1,
               "fit_rank": 1, "rho": 1.0, "within_scale": 0.3}),
    "gradcheck": ({"n_grid": [4]}, {"h": 1e-5, "enc_rank": 1, "losses": ["linear"]}),
    "sscl-compare": ({"n_grid": [6]}, {"p": 0.2, "rho": 1.0, "k_draws": 5,
                                       "noise_spikes": 1, "noise_spike_scale": 1.0}),
}

MISSING = object()
BAD_VALUES = st.sampled_from([
    MISSING, None, True, False, "x", "", "auto", "1", math.nan, math.inf, -math.inf,
    -1, 0, 1, 0.5, 1.5, [], [1], [True], [math.nan], ["x"], [[1]], {}, {"a": 1},
])

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def mutate(data, cfg: dict, sections: tuple) -> dict:
    """Replace or delete one to three fields of cfg, one level into sections."""
    cfg = json.loads(json.dumps(cfg))
    for _ in range(data.draw(st.integers(1, 3))):
        where = data.draw(st.sampled_from((None,) + sections))
        target = cfg if where is None or not isinstance(cfg.get(where), dict) else cfg[where]
        key = data.draw(st.sampled_from(sorted(target) + ["extra"]))
        value = data.draw(BAD_VALUES)
        if value is MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    return cfg


def run_cli(argv):
    """Exit code, stderr and the warnings raised; under pytest a warning is
    recorded by its plugin and would not reach the redirected stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), caught


def check(code, err, caught, fit_dir=None):
    """Exit 0, 2 or 3 with one stderr line unless 0 and no warning; a fit that
    exits 0 has a finite loss."""
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err
    assert len(err.splitlines()) == (0 if code == 0 else 1)
    if fit_dir and code == 0:
        assert math.isfinite(storage.load_json(os.path.join(fit_dir, "fit.json"))["final_loss"])


@SETTINGS
@given(data=st.data())
def test_malformed_gen_config_exits_cleanly(data):
    cfg = mutate(data, data.draw(st.sampled_from(GEN_CONFIGS)), ("model",))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gen.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        check(*run_cli(["gen", "--config", path, "--out", os.path.join(tmp, "data")]))


@SETTINGS
@given(data=st.data())
def test_malformed_exp_config_exits_cleanly(data):
    name = data.draw(st.sampled_from(sorted(EXP_CONFIGS)))
    sweep, options = EXP_CONFIGS[name]
    base = {"experiment": name, "model": MODEL, "seeds": [0], "sweep": sweep,
            "options": options}
    cfg = mutate(data, base, ("model", "sweep", "options"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        check(*run_cli(["exp", name, "--config", path, "--out", os.path.join(tmp, "exp")]))


# Small values only: a bad count must not turn into a long-running command.
BAD_ARGS = st.sampled_from([
    MISSING, "x", "", "nan", "inf", "-inf", "1e309", "auto", "-5", "-1", "0", "0.5", "1",
    "1.5", "2", "3",
])

FIT_COMMANDS = {
    "linear": {"--r": "1", "--rho": "1.0"},
    "gd": {"--r": "1", "--rho": "1.0", "--tau": "0.5", "--nu": "1.0", "--epsilon": "1.0",
           "--lr": "0.05", "--phi": "log", "--psi": "exp", "--cn": "n", "--max-iter": "5",
           "--tol": "1e-9", "--seed": "0"},
    "approx": {"--r": "1", "--rho": "1.0", "--tau": "0.5", "--nu": "1.0", "--epsilon": "1.0"},
    "semi": {"--r": "1", "--rho": "1.0", "--tau": "auto", "--nu": "2.0", "--epsilon": "1.0"},
    "sscl": {"--r": "1", "--rho": "1.0", "--mode": "sampled", "--k-draws": "3", "--seed": "0"},
}
FIT_FLAGS = ("--tau", "--nu", "--rho", "--epsilon", "--lr", "--r", "--seed", "--tol",
             "--max-iter")
BSGMP_FLAGS = {"--k": "3", "--restarts": "2", "--n-left": "12", "--n-right": "12",
               "--seed": "0"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name in ("data", "pool"):
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps(dict(GEN_CONFIGS[0], out=str(root / name))))
        assert main(["gen", "--config", str(cfg)]) == 0
    edges = [(i, j) for b in range(3) for i in range(4 * b, 4 * b + 4)
             for j in range(4 * b, 4 * b + 4)]
    storage.write_csv(str(root / "edges.csv"), ("i", "j"), edges)
    return root


def mutate_flags(data, flags: dict, targets) -> list:
    """flags as --flag=value arguments, one to three of targets replaced or dropped."""
    flags = dict(flags)
    for _ in range(data.draw(st.integers(1, 3))):
        flag = data.draw(st.sampled_from([f for f in targets if f in flags] or targets))
        value = data.draw(BAD_ARGS)
        if value is MISSING:
            flags.pop(flag, None)
        else:
            flags[flag] = value
    return [f"{flag}={value}" for flag, value in flags.items()]


@SETTINGS
@given(data=st.data())
def test_malformed_fit_arguments_exit_cleanly(inputs, data):
    method = data.draw(st.sampled_from(sorted(FIT_COMMANDS)))
    flags = FIT_COMMANDS[method]
    argv = ["fit", method, "--data", str(inputs / "data")]
    if method == "semi":
        argv += ["--unpaired", str(inputs / "pool")]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fit")
        argv += ["--out", out] + mutate_flags(data, flags, [f for f in FIT_FLAGS if f in flags])
        check(*run_cli(argv), fit_dir=out)


@SETTINGS
@given(data=st.data())
def test_malformed_bsgmp_arguments_exit_cleanly(inputs, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["bsgmp", "--edges", str(inputs / "edges.csv"), "--out", os.path.join(tmp, "p")]
        check(*run_cli(argv + mutate_flags(data, BSGMP_FLAGS, list(BSGMP_FLAGS))))


# Cell contents that a damaged file may hold; no integer beyond 1000, so no
# example can ask for a large dense table.
BAD_CELLS = st.sampled_from([b"x", b"nan", b"inf", b"1e309", b"", b"-1", b"1000",
                             b"\xef\xbb\xbf1", b"\xff\xfe"])
# Finite values whose products overflow, or underflow to zero.
EXTREMES = st.sampled_from([b"1e300", b"-1e300", b"1e308", b"1e-300"])


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """Small valid dataset directories, one per kind."""
    root = tmp_path_factory.mktemp("datasets")
    for cfg in GEN_CONFIGS:
        path = root / f"{cfg['kind']}.json"
        path.write_text(json.dumps(cfg))
        assert main(["gen", "--config", str(path), "--out", str(root / cfg["kind"])]) == 0
    return root


def mutate_file(data, path):
    """Drop a line, make a row ragged, put a bad token in one cell, or fill a
    row with one finite extreme; in meta.json, also replace or delete a field
    with a value of the wrong type."""
    if path.name == "meta.json" and data.draw(st.booleans()):
        meta = json.loads(path.read_text())
        key = data.draw(st.sampled_from(sorted(meta) + ["extra"]))
        value = data.draw(BAD_VALUES)
        if value is MISSING:
            meta.pop(key, None)
        else:
            meta[key] = value
        path.write_text(json.dumps(meta))
        return
    lines = path.read_bytes().split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["drop", "short", "long", "cell", "extreme"]))
    if op == "drop":
        del lines[i]
    elif op == "short":
        lines[i] = lines[i].rpartition(b",")[0]
    elif op == "long":
        lines[i] += b",1"
    elif op == "extreme":
        lines[i] = b",".join([data.draw(EXTREMES)] * len(lines[i].split(b",")))
    else:
        cells = lines[i].split(b",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(BAD_CELLS)
        lines[i] = b",".join(cells)
    path.write_bytes(b"\n".join(lines))


@SETTINGS
@given(data=st.data())
def test_malformed_dataset_files_exit_cleanly(datasets, data):
    kind = data.draw(st.sampled_from([cfg["kind"] for cfg in GEN_CONFIGS]))
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "data")
        shutil.copytree(datasets / kind, target)
        for _ in range(data.draw(st.integers(1, 3))):
            name = data.draw(st.sampled_from(sorted(os.listdir(target))))
            mutate_file(data, pathlib.Path(target, name))
        paired, pool = ((str(datasets / "paired"), target) if kind == "unpaired"
                        else (target, str(datasets / "unpaired")))
        for argv, is_fit in (
                (["fit", "linear", "--data", target, "--r", "1"], True),
                (["fit", "gd", "--data", target, "--r", "1", "--max-iter", "20"], True),
                (["fit", "approx", "--data", target, "--r", "1"], True),
                (["fit", "sscl", "--data", target, "--r", "1"], True),
                (["fit", "semi", "--data", paired, "--unpaired", pool, "--r", "1"], True),
                (["bsgmp", "--edges", os.path.join(target, "edges.csv"), "--k", "2",
                  "--restarts", "1"], False)):
            out = os.path.join(tmp, f"out-{argv[1]}")
            check(*run_cli(argv + ["--out", out]), fit_dir=out if is_fit else None)
