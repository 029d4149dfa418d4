"""Experiment harness: evaluation metrics, config parsing, seeded sweeps,
and deterministic CSV/JSON outputs.

An experiment config is a JSON object with an experiment name, a model
section, a seed list, a sweep section (grids), and an options section.
Each trial produces one row of metrics; results.csv holds every row,
summary.csv holds medians and interquartile ranges per sweep point, and
manifest.json records content hashes so reruns can be compared. Nothing
in the outputs depends on wall-clock time except the wall_time column,
which comparisons are expected to exclude.
"""

import itertools
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import bsgmp as bsgmp_mod
from . import datagen, linalg, solvers, storage
from .errors import InvalidInput, MmclError, DegenerateData
from .losses import (EncoderPair, LossSpec, loss_value, loss_gradient, schedule_tau,
                     similarity_matrix)
from .storage import float_option, int_option

METRIC_NAMES = (
    "sin_theta_g1",
    "sin_theta_g2",
    "edge_precision",
    "edge_recall",
    "downstream_accuracy",
    "bound_value",
    "residual",
    "wall_time",
)


def downstream_accuracy(enc: EncoderPair, data: datagen.LabeledBipartite) -> float:
    """Top-1 cross-modal retrieval accuracy against cluster labels."""
    if data.n_left == 0 or data.n_right == 0:
        raise InvalidInput("empty evaluation set")
    pred = np.argmax(similarity_matrix(enc, data.x, data.xt), axis=1)
    return float(np.mean(data.labels_x == data.labels_xt[pred]))


def sample_partners(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one partner per left node, uniformly among its edges.

    Left nodes with no edge are dropped. Rows come back sorted by left index.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = edges.shape[0]
    perm = rng.permutation(m)
    if not m:
        return np.zeros((0, 2), dtype=np.int64)
    # Codes (left, draw position) sort each node's first draw to its run's front.
    codes = np.sort(linalg.pair_codes(edges[:, 0].take(perm), np.arange(m)))
    lead = codes // m
    first = codes[np.concatenate(([True], lead[1:] != lead[:-1]))] % m
    return edges.take(perm[first], axis=0)  # take: 10x faster than row indexing here


def edge_metrics(estimated, truth) -> tuple[float, float]:
    """Precision and recall of an estimated pair set against the truth."""
    est = np.asarray(estimated, dtype=np.int64).reshape(-1, 2)
    tru = np.asarray(truth, dtype=np.int64).reshape(-1, 2)
    if not tru.shape[0]:
        raise InvalidInput("truth pair set is empty")
    codes = linalg.pair_codes(*np.concatenate([est, tru]).T)
    est, tru = (linalg.sorted_unique(c) for c in np.split(codes, [len(est)]))
    # Both sides are distinct, so each code they share is one hit.
    hit = len(est) + len(tru) - len(linalg.sorted_unique(np.concatenate([est, tru])))
    precision = hit / len(est) if len(est) else 0.0
    return float(precision), float(hit / len(tru))


def theory_bound(n: int, r: int, noise_rank1: float, noise_rank2: float,
                 d1: int, d2: int, eta: float) -> float:
    """Deviation bound shape for the paired closed form.

    min(sqrt(r), sqrt(r * (r + noise_rank1 + noise_rank2) * log(n + d1 + d2) / n) / eta)
    with unit constant; eta is the genuine-pair fraction.
    """
    if n < 1 or r < 1:
        raise InvalidInput("n and r must be at least 1")
    if not eta > 0:
        raise InvalidInput(f"eta must be positive, got {eta}")
    main = np.sqrt(r * (r + noise_rank1 + noise_rank2) * np.log(n + d1 + d2) / n) / eta
    return float(min(np.sqrt(r), main))


@dataclass
class MetricRow:
    """One trial's outcome: sweep-point parameters plus metric values."""

    experiment: str
    params: dict
    metrics: dict
    flags: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: dict
    seeds: tuple
    sweep: dict
    options: dict = field(default_factory=dict)
    output_dir: str | None = None

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise InvalidInput("config must be a JSON object")
        unknown = set(obj) - {"experiment", "model", "seeds", "sweep", "options", "output_dir"}
        if unknown:
            raise InvalidInput(f"unknown config fields: {sorted(unknown)}")
        exp = obj.get("experiment")
        if exp not in EXPERIMENTS:
            raise InvalidInput(f"experiment: must be one of {EXPERIMENTS}, got {exp!r}")
        model = obj.get("model")
        if not isinstance(model, dict):
            raise InvalidInput("model: must be an object")
        seeds = obj.get("seeds")
        if (not isinstance(seeds, list) or not seeds
                or not all(isinstance(s, int) and s >= 0 for s in seeds)):
            raise InvalidInput("seeds: must be a nonempty list of nonnegative integers")
        sweep = obj.get("sweep")
        if not isinstance(sweep, dict):
            raise InvalidInput("sweep: must be an object")
        options = obj.get("options", {})
        if not isinstance(options, dict):
            raise InvalidInput("options: must be an object")
        out = obj.get("output_dir")
        if out is not None and not isinstance(out, str):
            raise InvalidInput("output_dir: must be a string")
        return cls(experiment=exp, model=model, seeds=tuple(seeds),
                   sweep=sweep, options=options, output_dir=out)

    def canonical(self) -> dict:
        """Semantic content of the config (output location excluded)."""
        return {
            "experiment": self.experiment,
            "model": self.model,
            "seeds": list(self.seeds),
            "sweep": self.sweep,
            "options": self.options,
        }


def model_from_config(mc: dict) -> datagen.ModelParams:
    """Build ModelParams from a config model section."""
    if not isinstance(mc, dict):
        raise InvalidInput("model: must be an object")
    d1, d2, r = (int_option(mc, key, None, where="model.") for key in ("d1", "d2", "r"))
    snr = mc.get("snr", "inf")
    snr = np.inf if snr in ("inf", np.inf) else float_option(mc, "snr", None, where="model.")
    decay = float_option(mc, "decay", 1.0, hi=1.0, where="model.")
    family = mc.get("family", "gaussian")
    seed = int_option(mc, "seed", 0, minimum=0, where="model.")
    unknown = set(mc) - {"d1", "d2", "r", "snr", "decay", "family", "seed"}
    if unknown:
        raise InvalidInput(f"model: unknown fields {sorted(unknown)}")
    return datagen.random_model(d1, d2, r, snr=snr, decay=decay,
                                family=family, seed=seed)


def _grid(parse, **bounds):
    """Parser of a sweep list: nonempty, each item checked by parse
    (int_option or float_option) with the given bounds."""
    def grid(sweep: dict, path: str) -> list:
        vals = sweep.get(path.split(".")[-1])
        if not isinstance(vals, list) or not vals:
            raise InvalidInput(f"{path}: must be a nonempty list")
        return [parse({path: v}, path, None, where="", **bounds) for v in vals]
    return grid


def _subspace_errors(enc: EncoderPair, model: datagen.ModelParams, one_sided: bool = False):
    """sin-theta of each encoder's row space against the true subspaces;
    one_sided scores both encoders against the first view's subspace."""
    s1 = linalg.sin_theta(
        linalg.right_singular_subspace(enc.g1, model.r), linalg.Subspace(model.u1_star))
    s2 = linalg.sin_theta(
        linalg.right_singular_subspace(enc.g2, model.r),
        linalg.Subspace(model.u1_star if one_sided else model.u2_star))
    return s1, s2


def _distortion_trial(model, opts, n, p, seed):
    ds = datagen.sample_paired(model, n, p, seed=[1, seed, n, int(round(p * 1e6))])
    fit = solvers.fit_linear_closed_form(ds, model.r, opts["rho"])
    s1, s2 = _subspace_errors(fit.enc, model)
    er1, er2 = model.noise_effective_ranks()
    bound = theory_bound(n, model.r, er1, er2, model.d1, model.d2, eta=max(1.0 - p, 1e-9))
    return {"sin_theta_g1": s1, "sin_theta_g2": s2, "bound_value": bound,
            "_flags": ";".join(fit.flags)}


def _unpaired_trial(model, opts, n, ratio, seed):
    paired = datagen.sample_paired(model, n, 0.0, seed=[11, seed, n, ratio])
    pool = datagen.sample_unpaired(model, n * ratio, seed=[13, seed, n, ratio])
    tau = opts["tau"]
    if tau == "auto":
        tau = schedule_tau(model.r, n * ratio, scale=opts["tau_scale"])
    spec = LossSpec(phi="log", psi="exp", epsilon=1.0, nu=opts["nu"],
                    tau=tau, cn="n", rho=opts["rho"])
    fit = solvers.fit_semisupervised(paired, pool, model.r, spec, init_mode=opts["init"])
    s1, s2 = _subspace_errors(fit.enc, model)
    prec, rec = edge_metrics(fit.meta["edges"], pool.truth_edges)
    return {"sin_theta_g1": s1, "sin_theta_g2": s2,
            "edge_precision": prec, "edge_recall": rec, "_flags": ";".join(fit.flags)}


def _bsgmp_trial(model, opts, k, p_prime, seed):
    pkey = int(round(p_prime * 1e6))
    train = datagen.sample_labeled_bipartite(
        model, opts["n_per_cluster"], opts["k_true"], p_prime, seed=[17, seed, pkey],
        within_scale=opts["within_scale"])
    test = datagen.sample_labeled_bipartite(
        model, opts["n_test_per_cluster"], opts["k_true"], 0.0, seed=[19, seed, pkey],
        centers=train.centers, within_scale=opts["within_scale"])
    flags = []
    if k == "none":
        kept = train.edges
    else:
        graph = bsgmp_mod.BipartiteGraph(train.n_left, train.n_right, train.edges)
        part = bsgmp_mod.partition(graph, int(k), seed=[23, seed, pkey, int(k)],
                                   restarts=opts["restarts"])
        kept = part.kept_edges
        if part.degenerate:
            flags.append("degenerate-embedding")
    if kept.shape[0] < 2:
        raise DegenerateData("fewer than 2 kept edges")
    pairs = sample_partners(kept, np.random.default_rng([41, seed, pkey]))
    if pairs.shape[0] < 2:
        raise DegenerateData("fewer than 2 sampled pairs")
    pair_data = SimpleNamespace(x=train.x[pairs[:, 0]], xt=train.xt[pairs[:, 1]])
    fit = solvers.fit_linear_closed_form(pair_data, opts["fit_rank"], opts["rho"])
    acc = downstream_accuracy(fit.enc, test)
    prec, rec = edge_metrics(kept, np.argwhere(train.labels_x[:, None] == train.labels_xt))
    flags.extend(fit.flags)
    return {"downstream_accuracy": acc, "edge_precision": prec,
            "edge_recall": rec, "_flags": ";".join(flags)}


GRADCHECK_SPECS = {
    "linear": LossSpec.linear(),
    "clip": LossSpec.clip(tau=0.5),
    "infonce": LossSpec.infonce(tau=0.5),
    "margin": LossSpec.clip(tau=0.5, nu=2.0),
}


def finite_difference_gradient(spec: LossSpec, enc: EncoderPair, data, h: float = 1e-5):
    """Central-difference gradients of loss_value in both encoders."""
    grads = []
    for which in ("g1", "g2"):
        base = getattr(enc, which)
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = base.copy()
            plus[idx] += h
            minus = base.copy()
            minus[idx] -= h
            up = loss_value(spec, replace(enc, **{which: plus}), data)
            dn = loss_value(spec, replace(enc, **{which: minus}), data)
            g[idx] = (up - dn) / (2.0 * h)
        grads.append(g)
    return grads[0], grads[1]


def gradient_residual(spec: LossSpec, enc: EncoderPair, data, h: float = 1e-5) -> float:
    """Relative disagreement between analytic and finite-difference gradients."""
    a1, a2 = loss_gradient(spec, enc, data)
    f1, f2 = finite_difference_gradient(spec, enc, data, h=h)
    r1 = float(np.linalg.norm(a1 - f1) / max(np.linalg.norm(f1), 1e-12))
    r2 = float(np.linalg.norm(a2 - f2) / max(np.linalg.norm(f2), 1e-12))
    return max(r1, r2)


def _gradcheck_trial(model, opts, n, loss, seed):
    rng = np.random.default_rng([29, seed, n, opts["losses"].index(loss)])
    x = rng.standard_normal((n, model.d1))
    xt = rng.standard_normal((n, model.d2))
    enc = EncoderPair(g1=0.5 * rng.standard_normal((opts["enc_rank"], model.d1)),
                      g2=0.5 * rng.standard_normal((opts["enc_rank"], model.d2)))
    return {"residual": gradient_residual(GRADCHECK_SPECS[loss], enc, (x, xt), h=opts["h"])}


def _add_noise_spikes(model: datagen.ModelParams, opts: dict,
                      model_cfg: dict) -> datagen.ModelParams:
    """Add options.noise_spikes rank-one nuisance directions, of scale
    options.noise_spike_scale, to each view's noise covariance."""
    count, scale = opts["noise_spikes"], opts["noise_spike_scale"]
    if not count:
        return model
    seed = int(model_cfg.get("seed", 0))
    sigmas = []
    for view, sigma in ((1, model.sigma_xi), (2, model.sigma_xit)):
        rng = np.random.default_rng([43, seed, view])
        for _ in range(count):
            v = rng.standard_normal(sigma.shape[0])
            v /= np.linalg.norm(v)
            sigma = sigma + (scale ** 2) * np.outer(v, v)
        sigmas.append(sigma)
    return replace(model, sigma_xi=sigmas[0], sigma_xit=sigmas[1])


def _sscl_trial(model, opts, n, method, seed):
    """mmcl fits the paired views; sscl and sscl-mc (k_draws sampled masks)
    fit the masking baseline on the first view alone."""
    ds = datagen.sample_paired(model, n, opts["p"], seed=[31, seed, n])
    if method == "mmcl":
        fit = solvers.fit_linear_closed_form(ds, model.r, opts["rho"])
    else:
        fit = solvers.fit_sscl_baseline(ds.x, model.r, opts["rho"], mode="expected")
    metrics = {}
    if method == "sscl-mc":
        s_exp = fit.meta["contrast_matrix"]
        fit = solvers.fit_sscl_baseline(ds.x, model.r, opts["rho"], mode="sampled",
                                        k_draws=opts["k_draws"], seed=[37, seed, n])
        s_mc = fit.meta["contrast_matrix"]
        metrics["residual"] = float(np.linalg.norm(s_exp - s_mc, 2)
                                    / max(np.linalg.norm(s_exp, 2), 1e-300))
    s1, s2 = _subspace_errors(fit.enc, model, one_sided=method != "mmcl")
    return {"sin_theta_g1": s1, "sin_theta_g2": s2, **metrics, "_flags": ";".join(fit.flags)}


def _k_value(opts, name, default, where, minimum):
    """A cluster count, as a string, or 'none' for no partitioning."""
    val = opts[name]
    return val if val == "none" else str(int_option(opts, name, default, minimum, where))


_N_GRID = _grid(int_option, minimum=2)
_UNIT_GRID = _grid(float_option, lo=0.0, hi=1.0, lo_open=False)


def _int(default, minimum=1):
    return lambda opts, name, model: int_option(opts, name, default, minimum)


def _float(default, **bounds):
    return lambda opts, name, model: float_option(opts, name, default, **bounds)


def _tau(opts, name, model):
    if opts.get(name, "auto") == "auto":
        return "auto"
    if "tau_scale" in opts:
        raise InvalidInput(f"options.{name}: tau_scale needs tau 'auto', got {opts[name]!r}")
    return float_option(opts, name, 1.0)


def _init(opts, name, model):
    val = opts.get(name, "linear")
    if val not in ("linear", "infonce"):
        raise InvalidInput(f"options.{name}: must be 'linear' or 'infonce', got {val!r}")
    return val


def _losses(opts, name, model):
    names = opts.get(name, list(GRADCHECK_SPECS))
    if not isinstance(names, list) or not names or not all(
            isinstance(nm, str) and nm in GRADCHECK_SPECS for nm in names) or len(
            set(names)) < len(names):
        raise InvalidInput(f"options.{name}: must be a nonempty list of distinct names "
                           f"from {sorted(GRADCHECK_SPECS)}")
    return names


@dataclass(frozen=True)
class Experiment:
    """One experiment: trial(model, opts, **params) -> metrics; parsers
    for each sweep key, (sweep, path) -> values, and each option, (options,
    name, model) -> value; axes (param, source), outermost first, where a
    source is a sweep key, an option, "seeds" or a tuple of values; and
    prepare(model, opts, model section) -> model, run once per sweep."""

    trial: Callable
    sweep: dict
    options: dict
    axes: tuple
    prepare: Callable | None = None


TRIAL_TABLE = {
    "distortion": Experiment(
        _distortion_trial,
        sweep={"n_grid": _N_GRID, "p_grid": _UNIT_GRID},
        options={"rho": _float(1.0)},
        axes=(("n", "n_grid"), ("p", "p_grid"), ("seed", "seeds"))),
    "unpaired": Experiment(
        _unpaired_trial,
        sweep={"n_grid": _N_GRID, "ratio_grid": _grid(int_option, minimum=1)},
        options={"nu": _float(2.0, lo=1.0, lo_open=False), "rho": _float(1.0), "tau": _tau,
                 "tau_scale": _float(1.0), "init": _init},
        axes=(("n", "n_grid"), ("ratio", "ratio_grid"), ("seed", "seeds"))),
    "bsgmp": Experiment(
        _bsgmp_trial,
        sweep={"k_grid": _grid(_k_value, minimum=2), "p_prime_grid": _UNIT_GRID},
        options={"k_true": _int(10, minimum=2), "n_per_cluster": _int(50),
                 "n_test_per_cluster": _int(20), "restarts": _int(10), "rho": _float(1.0),
                 "fit_rank": lambda opts, name, model: int_option(opts, name, model.r),
                 "within_scale": _float(0.5, lo_open=False)},
        axes=(("k", "k_grid"), ("p_prime", "p_prime_grid"), ("seed", "seeds"))),
    "gradcheck": Experiment(
        _gradcheck_trial,
        sweep={"n_grid": _N_GRID},
        options={"h": _float(1e-5), "enc_rank": _int(2), "losses": _losses},
        axes=(("n", "n_grid"), ("loss", "losses"), ("seed", "seeds"))),
    "sscl-compare": Experiment(
        _sscl_trial,
        sweep={"n_grid": _N_GRID},
        options={"p": _float(0.2, hi=1.0, lo_open=False), "rho": _float(1.0),
                 "k_draws": _int(2000), "noise_spikes": _int(0, minimum=0),
                 "noise_spike_scale": _float(1.0)},
        axes=(("n", "n_grid"), ("seed", "seeds"), ("method", ("mmcl", "sscl", "sscl-mc"))),
        prepare=_add_noise_spikes),
}

EXPERIMENTS = tuple(TRIAL_TABLE)


def _trials(cfg: ExperimentConfig, model: datagen.ModelParams):
    """(params, trial) for every sweep point and seed; every sweep key and
    option is checked and parsed before any trial runs."""
    table = TRIAL_TABLE[cfg.experiment]
    for section, given, schema in (("sweep", cfg.sweep, table.sweep),
                                   ("options", cfg.options, table.options)):
        unknown = set(given) - set(schema)
        if unknown:
            raise InvalidInput(f"{section}: unknown fields {sorted(unknown)}")
    values = {key: parse(cfg.sweep, f"sweep.{key}") for key, parse in table.sweep.items()}
    opts = {name: parse(cfg.options, name, model) for name, parse in table.options.items()}
    values.update(opts, seeds=cfg.seeds)
    if table.prepare is not None:
        model = table.prepare(model, opts, cfg.model)
    trials = []
    for point in itertools.product(*(values[src] if isinstance(src, str) else src
                                     for _, src in table.axes)):
        params = dict(zip((name for name, _ in table.axes), point))
        params["seed"] = params.pop("seed")  # the last column before the metrics
        trials.append((params, partial(table.trial, model, opts, **params)))
    return trials


def _run_one(experiment: str, params: dict, fn) -> MetricRow:
    """One trial's row; a failed trial is recorded in the flags column and
    the sweep keeps going."""
    start = time.perf_counter()
    try:
        metrics = fn()
        flags = metrics.pop("_flags", "")
    except (MmclError, np.linalg.LinAlgError) as exc:
        metrics = {}
        flags = f"failed:{type(exc).__name__}"
    metrics["wall_time"] = time.perf_counter() - start
    return MetricRow(experiment=experiment, params=params, metrics=metrics, flags=flags)


def write_results(path: str, rows: list[MetricRow]) -> None:
    """One line per trial; the parameter columns are the keys all rows of a sweep share."""
    params = list(rows[0].params) if rows else []
    header = ["experiment"] + params + list(METRIC_NAMES) + ["flags"]
    table = [[row.experiment, *(row.params[p] for p in params),
              *(row.metrics.get(m) for m in METRIC_NAMES), row.flags] for row in rows]
    storage.write_csv(path, header, table)


def summarize(rows: list[MetricRow]):
    """Median and interquartile range per sweep point, seeds pooled.

    wall_time is excluded so summaries are run-to-run reproducible.
    """
    params = [p for p in (rows[0].params if rows else ()) if p != "seed"]
    metrics = [m for m in METRIC_NAMES if m != "wall_time"]
    groups: dict[tuple, list[MetricRow]] = {}
    for row in rows:
        groups.setdefault(tuple(row.params[p] for p in params), []).append(row)
    header = params + [f"{m}_{stat}" for m in metrics for stat in ("median", "iqr")] + ["count"]
    table = []
    for key, members in groups.items():
        cells = list(key)
        for m in metrics:
            vals = [row.metrics[m] for row in members if row.metrics.get(m) is not None]
            if vals:
                arr = np.asarray(vals, dtype=np.float64)
                cells.append(float(np.median(arr)))
                cells.append(float(np.percentile(arr, 75) - np.percentile(arr, 25)))
            else:
                cells += [None, None]
        cells.append(len(members))
        table.append(cells)
    return header, table


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   config_bytes: bytes | None = None) -> list[MetricRow]:
    """Run a config and write results.csv, summary.csv, and manifest.json."""
    out = out_dir or config.output_dir
    if not out:
        raise InvalidInput("an output directory is required")
    trials = _trials(config, model_from_config(config.model))
    rows = [_run_one(config.experiment, params, fn) for params, fn in trials]
    os.makedirs(out, exist_ok=True)
    write_results(os.path.join(out, "results.csv"), rows)
    header, table = summarize(rows)
    storage.write_csv(os.path.join(out, "summary.csv"), header, table)
    canonical = config.canonical()
    raw = config_bytes if config_bytes is not None else storage.canonical_json(
        canonical).encode("utf-8")
    from . import __version__
    manifest = {
        "experiment": config.experiment,
        "version": __version__,
        "config_hash": storage.config_hash(canonical),
        "inputs_blob_sha1": storage.blob_sha1(raw),
        "rows": len(rows),
    }
    storage.save_json(os.path.join(out, "manifest.json"), manifest)
    return rows
