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

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import bsgmp as bsgmp_mod
from . import datagen, linalg, solvers, storage
from .errors import InvalidInput, MmclError, DegenerateData
from .losses import EncoderPair, LossSpec, loss_value, loss_gradient, schedule_tau

EXPERIMENTS = ("distortion", "unpaired", "bsgmp", "gradcheck", "sscl-compare")

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
    sims = (data.x @ enc.g1.T) @ (enc.g2 @ data.xt.T)
    pred = np.argmax(sims, axis=1)
    return float(np.mean(data.labels_x == data.labels_xt[pred]))


def _pair_codes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """One int64 code per (left, right) pair; codes order as the pairs do."""
    lo_left, lo_right = left.min(), right.min()
    width = int(right.max()) - int(lo_right) + 1
    if (int(left.max()) - int(lo_left) + 1) * width > np.iinfo(np.int64).max:
        raise InvalidInput("pair indices span too wide for int64 codes")
    return (left - lo_left) * width + (right - lo_right)


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
    codes = np.sort(_pair_codes(edges[:, 0].take(perm), np.arange(m)))
    lead = codes // m
    first = codes[np.concatenate(([True], lead[1:] != lead[:-1]))] % m
    return edges.take(perm[first], axis=0)  # take: 10x faster than row indexing here


def edge_metrics(estimated, truth) -> tuple[float, float]:
    """Precision and recall of an estimated pair set against the truth."""
    est = np.asarray(estimated, dtype=np.int64).reshape(-1, 2)
    tru = np.asarray(truth, dtype=np.int64).reshape(-1, 2)
    if not tru.shape[0]:
        raise InvalidInput("truth pair set is empty")
    codes = _pair_codes(*np.concatenate([est, tru]).T)
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
    for key in ("d1", "d2", "r"):
        v = mc.get(key)
        if not isinstance(v, int) or v < 1:
            raise InvalidInput(f"model.{key}: must be a positive integer, got {v!r}")
    snr = mc.get("snr", "inf")
    if isinstance(snr, str):
        if snr != "inf":
            raise InvalidInput(f"model.snr: must be a number or 'inf', got {snr!r}")
        snr = np.inf
    elif not isinstance(snr, (int, float)) or snr <= 0:
        raise InvalidInput(f"model.snr: must be positive, got {snr!r}")
    decay = mc.get("decay", 1.0)
    if not isinstance(decay, (int, float)) or not (0.0 < decay <= 1.0):
        raise InvalidInput(f"model.decay: must lie in (0, 1], got {decay!r}")
    family = mc.get("family", "gaussian")
    seed = mc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise InvalidInput(f"model.seed: must be a nonnegative integer, got {seed!r}")
    unknown = set(mc) - {"d1", "d2", "r", "snr", "decay", "family", "seed"}
    if unknown:
        raise InvalidInput(f"model: unknown fields {sorted(unknown)}")
    return datagen.random_model(mc["d1"], mc["d2"], mc["r"], snr=float(snr),
                                decay=float(decay), family=family, seed=seed)


def _int_list(d: dict, path: str, minimum: int = 0):
    vals = d.get(path.split(".")[-1])
    if not isinstance(vals, list) or not vals or not all(
            isinstance(v, int) and v >= minimum for v in vals):
        raise InvalidInput(f"{path}: must be a nonempty list of integers >= {minimum}")
    return vals


def _int_option(opts: dict, name: str, default: int, minimum: int = 1) -> int:
    val = opts.get(name, default)
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise InvalidInput(f"options.{name}: must be an integer >= {minimum}, got {val!r}")
    return val


def _float_list(d: dict, path: str, lo: float, hi: float):
    vals = d.get(path.split(".")[-1])
    if not isinstance(vals, list) or not vals or not all(
            isinstance(v, (int, float)) and lo <= v <= hi for v in vals):
        raise InvalidInput(f"{path}: must be a nonempty list of numbers in [{lo}, {hi}]")
    return [float(v) for v in vals]


def _fit_flags(fit) -> str:
    return ";".join(fit.flags)


def _subspace_errors(enc: EncoderPair, model: datagen.ModelParams):
    s1 = linalg.sin_theta(
        linalg.right_singular_subspace(enc.g1, model.r), linalg.Subspace(model.u1_star))
    s2 = linalg.sin_theta(
        linalg.right_singular_subspace(enc.g2, model.r), linalg.Subspace(model.u2_star))
    return s1, s2


def _trials_distortion(cfg: ExperimentConfig, model: datagen.ModelParams):
    n_grid = _int_list(cfg.sweep, "sweep.n_grid", minimum=2)
    p_grid = _float_list(cfg.sweep, "sweep.p_grid", 0.0, 1.0)
    rho = float(cfg.options.get("rho", 1.0))
    er1, er2 = model.noise_effective_ranks()
    trials = []
    for n in n_grid:
        for p in p_grid:
            for seed in cfg.seeds:
                def fn(n=n, p=p, seed=seed):
                    ds = datagen.sample_paired(
                        model, n, p, seed=[1, seed, n, int(round(p * 1e6))])
                    fit = solvers.fit_linear_closed_form(ds, model.r, rho)
                    s1, s2 = _subspace_errors(fit.enc, model)
                    bound = theory_bound(n, model.r, er1, er2,
                                         model.d1, model.d2, eta=max(1.0 - p, 1e-9))
                    return {"sin_theta_g1": s1, "sin_theta_g2": s2,
                            "bound_value": bound, "_flags": _fit_flags(fit)}
                trials.append(({"n": n, "p": p, "seed": seed}, fn))
    return trials


def _trials_unpaired(cfg: ExperimentConfig, model: datagen.ModelParams):
    n_grid = _int_list(cfg.sweep, "sweep.n_grid", minimum=2)
    ratio_grid = _int_list(cfg.sweep, "sweep.ratio_grid", minimum=1)
    opts = cfg.options
    nu = float(opts.get("nu", 2.0))
    rho = float(opts.get("rho", 1.0))
    tau_opt = opts.get("tau", "auto")
    tau_scale = float(opts.get("tau_scale", 1.0))
    init_mode = opts.get("init", "linear")
    if init_mode not in ("linear", "infonce"):
        raise InvalidInput(f"options.init: must be 'linear' or 'infonce', got {init_mode!r}")
    trials = []
    for n in n_grid:
        for ratio in ratio_grid:
            for seed in cfg.seeds:
                def fn(n=n, ratio=ratio, seed=seed):
                    paired = datagen.sample_paired(model, n, 0.0, seed=[11, seed, n, ratio])
                    pool = datagen.sample_unpaired(model, n * ratio, seed=[13, seed, n, ratio])
                    if tau_opt == "auto":
                        tau = schedule_tau(model.r, n * ratio, scale=tau_scale)
                    else:
                        tau = float(tau_opt)
                    spec = LossSpec(phi="log", psi="exp", epsilon=1.0, nu=nu,
                                    tau=tau, cn="n", rho=rho)
                    fit = solvers.fit_semisupervised(paired, pool, model.r, spec,
                                                     init_mode=init_mode)
                    s1, s2 = _subspace_errors(fit.enc, model)
                    prec, rec = edge_metrics(fit.meta["edges"], pool.truth_edges)
                    return {"sin_theta_g1": s1, "sin_theta_g2": s2,
                            "edge_precision": prec, "edge_recall": rec,
                            "_flags": _fit_flags(fit)}
                trials.append(({"n": n, "ratio": ratio, "seed": seed}, fn))
    return trials


def _trials_bsgmp(cfg: ExperimentConfig, model: datagen.ModelParams):
    sweep = cfg.sweep
    k_grid = sweep.get("k_grid")
    ok = isinstance(k_grid, list) and k_grid and all(
        (isinstance(k, int) and k >= 2) or k == "none" for k in k_grid)
    if not ok:
        raise InvalidInput("sweep.k_grid: must be a nonempty list of integers >= 2 or 'none'")
    pp_grid = _float_list(sweep, "sweep.p_prime_grid", 0.0, 1.0)
    opts = cfg.options
    k_true = _int_option(opts, "k_true", 10, minimum=2)
    n_per = _int_option(opts, "n_per_cluster", 50)
    n_test = _int_option(opts, "n_test_per_cluster", 20)
    restarts = _int_option(opts, "restarts", 10)
    rho = float(opts.get("rho", 1.0))
    fit_rank = _int_option(opts, "fit_rank", model.r)
    within = float(opts.get("within_scale", 0.5))
    trials = []
    for k in k_grid:
        for pp in pp_grid:
            for seed in cfg.seeds:
                def fn(k=k, pp=pp, seed=seed):
                    pkey = int(round(pp * 1e6))
                    train = datagen.sample_labeled_bipartite(
                        model, n_per, k_true, pp, seed=[17, seed, pkey],
                        within_scale=within)
                    test = datagen.sample_labeled_bipartite(
                        model, n_test, k_true, 0.0, seed=[19, seed, pkey],
                        centers=train.centers, within_scale=within)
                    flags = []
                    if k == "none":
                        kept = train.edges
                    else:
                        graph = bsgmp_mod.BipartiteGraph(
                            train.n_left, train.n_right, train.edges)
                        part = bsgmp_mod.partition(graph, k, seed=[23, seed, pkey, k],
                                                   restarts=restarts)
                        kept = part.kept_edges
                        if part.degenerate:
                            flags.append("degenerate-embedding")
                    if kept.shape[0] < 2:
                        raise DegenerateData("fewer than 2 kept edges")
                    pairs = sample_partners(kept, np.random.default_rng([41, seed, pkey]))
                    if pairs.shape[0] < 2:
                        raise DegenerateData("fewer than 2 sampled pairs")
                    pair_data = SimpleNamespace(x=train.x[pairs[:, 0]],
                                                xt=train.xt[pairs[:, 1]])
                    fit = solvers.fit_linear_closed_form(pair_data, fit_rank, rho)
                    acc = downstream_accuracy(fit.enc, test)
                    same = train.labels_x[:, None] == train.labels_xt[None, :]
                    ii, jj = np.nonzero(same)
                    truth_pairs = np.stack([ii, jj], axis=1)
                    prec, rec = edge_metrics(kept, truth_pairs)
                    flags.extend(fit.flags)
                    return {"downstream_accuracy": acc, "edge_precision": prec,
                            "edge_recall": rec, "_flags": ";".join(flags)}
                trials.append(({"k": str(k), "p_prime": pp, "seed": seed}, fn))
    return trials


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
            if which == "g1":
                up = loss_value(spec, EncoderPair(g1=plus, g2=enc.g2), data)
                dn = loss_value(spec, EncoderPair(g1=minus, g2=enc.g2), data)
            else:
                up = loss_value(spec, EncoderPair(g1=enc.g1, g2=plus), data)
                dn = loss_value(spec, EncoderPair(g1=enc.g1, g2=minus), data)
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


def _trials_gradcheck(cfg: ExperimentConfig, model: datagen.ModelParams):
    n_grid = _int_list(cfg.sweep, "sweep.n_grid", minimum=2)
    opts = cfg.options
    h = float(opts.get("h", 1e-5))
    enc_rank = int(opts.get("enc_rank", 2))
    names = opts.get("losses", list(GRADCHECK_SPECS))
    if not isinstance(names, list) or not all(nm in GRADCHECK_SPECS for nm in names):
        raise InvalidInput(f"options.losses: must be a list from {sorted(GRADCHECK_SPECS)}")
    trials = []
    for n in n_grid:
        for li, name in enumerate(names):
            for seed in cfg.seeds:
                def fn(n=n, name=name, li=li, seed=seed):
                    rng = np.random.default_rng([29, seed, n, li])
                    x = rng.standard_normal((n, model.d1))
                    xt = rng.standard_normal((n, model.d2))
                    enc = EncoderPair(
                        g1=0.5 * rng.standard_normal((enc_rank, model.d1)),
                        g2=0.5 * rng.standard_normal((enc_rank, model.d2)))
                    res = gradient_residual(GRADCHECK_SPECS[name], enc, (x, xt), h=h)
                    return {"residual": res}
                trials.append(({"n": n, "loss": name, "seed": seed}, fn))
    return trials


def _add_noise_spikes(model: datagen.ModelParams, count: int, scale: float,
                      seed: int) -> datagen.ModelParams:
    """Add rank-one nuisance directions to each view's noise covariance."""
    rng1 = np.random.default_rng([43, seed, 1])
    rng2 = np.random.default_rng([43, seed, 2])
    s1 = model.sigma_xi.copy()
    s2 = model.sigma_xit.copy()
    for _ in range(count):
        v = rng1.standard_normal(s1.shape[0])
        v /= np.linalg.norm(v)
        s1 = s1 + (scale ** 2) * np.outer(v, v)
        w = rng2.standard_normal(s2.shape[0])
        w /= np.linalg.norm(w)
        s2 = s2 + (scale ** 2) * np.outer(w, w)
    return datagen.ModelParams(
        u1_star=model.u1_star, u2_star=model.u2_star,
        sigma_z=model.sigma_z, sigma_zt=model.sigma_zt,
        sigma_xi=s1, sigma_xit=s2, family=model.family)


def _trials_sscl(cfg: ExperimentConfig, model: datagen.ModelParams):
    n_grid = _int_list(cfg.sweep, "sweep.n_grid", minimum=2)
    opts = cfg.options
    p = float(opts.get("p", 0.2))
    rho = float(opts.get("rho", 1.0))
    k_draws = int(opts.get("k_draws", 2000))
    spikes = int(opts.get("noise_spikes", 0))
    spike_scale = float(opts.get("noise_spike_scale", 1.0))
    if spikes < 0:
        raise InvalidInput(f"options.noise_spikes: must be >= 0, got {spikes}")
    if not spike_scale > 0:
        raise InvalidInput(
            f"options.noise_spike_scale: must be positive, got {spike_scale}")
    if spikes:
        model = _add_noise_spikes(model, spikes, spike_scale,
                                  int(cfg.model.get("seed", 0)))
    u1 = linalg.Subspace(model.u1_star)

    def one_sided(enc: EncoderPair):
        s1 = linalg.sin_theta(linalg.right_singular_subspace(enc.g1, model.r), u1)
        s2 = linalg.sin_theta(linalg.right_singular_subspace(enc.g2, model.r), u1)
        return s1, s2

    trials = []
    for n in n_grid:
        for seed in cfg.seeds:
            def fn_mm(n=n, seed=seed):
                ds = datagen.sample_paired(model, n, p, seed=[31, seed, n])
                fit = solvers.fit_linear_closed_form(ds, model.r, rho)
                s1, s2 = _subspace_errors(fit.enc, model)
                return {"sin_theta_g1": s1, "sin_theta_g2": s2,
                        "_flags": _fit_flags(fit)}

            def fn_ss(n=n, seed=seed):
                ds = datagen.sample_paired(model, n, p, seed=[31, seed, n])
                fit = solvers.fit_sscl_baseline(ds.x, model.r, rho, mode="expected")
                s1, s2 = one_sided(fit.enc)
                return {"sin_theta_g1": s1, "sin_theta_g2": s2,
                        "_flags": _fit_flags(fit)}

            def fn_mc(n=n, seed=seed):
                ds = datagen.sample_paired(model, n, p, seed=[31, seed, n])
                exp_fit = solvers.fit_sscl_baseline(ds.x, model.r, rho, mode="expected")
                mc_fit = solvers.fit_sscl_baseline(ds.x, model.r, rho, mode="sampled",
                                                   k_draws=k_draws, seed=[37, seed, n])
                s_exp = exp_fit.meta["contrast_matrix"]
                s_mc = mc_fit.meta["contrast_matrix"]
                resid = float(np.linalg.norm(s_exp - s_mc, 2)
                              / max(np.linalg.norm(s_exp, 2), 1e-300))
                s1, s2 = one_sided(mc_fit.enc)
                return {"sin_theta_g1": s1, "sin_theta_g2": s2, "residual": resid,
                        "_flags": _fit_flags(mc_fit)}

            trials.append(({"n": n, "method": "mmcl", "seed": seed}, fn_mm))
            trials.append(({"n": n, "method": "sscl", "seed": seed}, fn_ss))
            trials.append(({"n": n, "method": "sscl-mc", "seed": seed}, fn_mc))
    return trials


_BUILDERS = {
    "distortion": _trials_distortion,
    "unpaired": _trials_unpaired,
    "bsgmp": _trials_bsgmp,
    "gradcheck": _trials_gradcheck,
    "sscl-compare": _trials_sscl,
}


def _worker_count() -> int:
    raw = os.environ.get("MMCL_THREADS", "")
    try:
        n = int(raw) if raw else 1
    except ValueError:
        n = 1
    return max(n, 1)


def _run_one(experiment: str, params: dict, fn) -> MetricRow:
    start = time.perf_counter()
    try:
        metrics = fn()
    except (MmclError, np.linalg.LinAlgError) as exc:
        return MetricRow(experiment=experiment, params=params,
                         metrics={"wall_time": time.perf_counter() - start},
                         flags=f"failed:{type(exc).__name__}")
    flags = metrics.pop("_flags", "")
    metrics["wall_time"] = time.perf_counter() - start
    return MetricRow(experiment=experiment, params=params, metrics=metrics, flags=flags)


def run_trials(config: ExperimentConfig) -> list[MetricRow]:
    """Execute every trial of the config and return one row per trial.

    Failures of individual trials are recorded in the flags column; the
    sweep keeps going. MMCL_THREADS caps the worker pool (default 1).
    """
    model = model_from_config(config.model)
    trials = _BUILDERS[config.experiment](config, model)
    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one, config.experiment, params, fn)
                       for params, fn in trials]
            return [f.result() for f in futures]
    return [_run_one(config.experiment, params, fn) for params, fn in trials]


def _param_names(rows: list[MetricRow]) -> list[str]:
    names: list[str] = []
    for row in rows:
        for key in row.params:
            if key not in names:
                names.append(key)
    return names


def write_results(path: str, rows: list[MetricRow]) -> None:
    params = _param_names(rows)
    header = ["experiment"] + params + list(METRIC_NAMES) + ["flags"]
    table = []
    for row in rows:
        cells = [row.experiment]
        cells += [row.params.get(p) for p in params]
        cells += [row.metrics.get(m) for m in METRIC_NAMES]
        cells.append(row.flags)
        table.append(cells)
    storage.write_csv(path, header, table)


def summarize(rows: list[MetricRow]):
    """Median and interquartile range per sweep point, seeds pooled.

    wall_time is excluded so summaries are run-to-run reproducible.
    """
    params = [p for p in _param_names(rows) if p != "seed"]
    metrics = [m for m in METRIC_NAMES if m != "wall_time"]
    groups: dict[tuple, list[MetricRow]] = {}
    order = []
    for row in rows:
        key = tuple(row.params.get(p) for p in params)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    header = list(params)
    for m in metrics:
        header += [f"{m}_median", f"{m}_iqr"]
    header.append("count")
    table = []
    for key in order:
        members = groups[key]
        cells = list(key)
        for m in metrics:
            vals = [row.metrics[m] for row in members
                    if m in row.metrics and row.metrics[m] is not None]
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
    rows = run_trials(config)
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
