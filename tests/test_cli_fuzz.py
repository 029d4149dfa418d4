"""Property test: malformed `gen` and `exp` configs never escape as a traceback.

Each example starts from a small valid config, replaces or deletes a few
fields (top level, model, sweep or options) with values of the wrong type,
NaN, infinities, strings, bools or out-of-range numbers, and runs the CLI
in-process. Whatever the config, the exit code is 0, 2 or 3, and a nonzero
exit writes exactly one line to stderr.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(code, err):
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (0 if code == 0 else 1)


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
