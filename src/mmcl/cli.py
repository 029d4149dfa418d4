"""Command line interface.

Subcommands: gen (write a dataset directory), fit (fit encoders on a
dataset directory), bsgmp (partition an edge list), exp (run a config
sweep). Configuration errors exit with code 2, numerical failures and
running out of memory with code 3. A sweep in which every trial failed
exits 2 when each failure was a configuration error, and 3 otherwise.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import bsgmp as bsgmp_mod
from . import datagen, errors, harness, solvers, storage
from .errors import (
    CONFIG_EXIT_CODE,
    NUMERICAL_EXIT_CODE,
    ConfigurationError,
    InvalidInput,
    NumericalError,
)
from .losses import LossSpec, schedule_tau


def _cmd_gen(args) -> int:
    cfg = storage.load_json(args.config)
    if not isinstance(cfg, dict):
        raise InvalidInput("gen config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in storage.DATASET_KINDS:
        raise InvalidInput(f"kind: must be one of {storage.DATASET_KINDS}, got {kind!r}")
    out = args.out or cfg.get("out")
    if not out or not isinstance(out, str):
        raise InvalidInput("an output directory is required (--out or config 'out')")
    model = harness.model_from_config(cfg.get("model", {}))
    int_field = functools.partial(storage.int_option, cfg, where="")
    float_field = functools.partial(storage.float_option, cfg, where="")
    seed = int_field("seed", 0, minimum=0)
    if kind == "paired":
        ds = datagen.sample_paired(model, int_field("n", None, minimum=2),
                                   float_field("p", 0.0, hi=1.0, lo_open=False),
                                   seed=seed)
    elif kind == "unpaired":
        ds = datagen.sample_unpaired(model, int_field("n", None, minimum=2), seed=seed)
    else:
        ds = datagen.sample_labeled_bipartite(
            model,
            int_field("n_per_cluster", None),
            int_field("k", None, minimum=2),
            float_field("p_prime", 0.0, hi=1.0, lo_open=False),
            seed=seed,
            within_scale=float_field("within_scale", 0.5, lo_open=False),
        )
    storage.save_dataset(out, ds, model)
    print(f"wrote {kind} dataset ({ds.x.shape[0]} x {ds.x.shape[1]} / "
          f"{ds.xt.shape[0]} x {ds.xt.shape[1]}) to {out}")
    return 0


def _spec_from_args(args, phi: str, psi: str, cn: str) -> LossSpec:
    return LossSpec(phi=phi, psi=psi, epsilon=args.epsilon, nu=args.nu,
                    tau=args.tau, cn=cn, rho=args.rho)


def _cmd_fit(args) -> int:
    ds = storage.load_dataset(args.data)
    spec = None
    extra = {}
    if args.method == "linear":
        fit = solvers.fit_linear_closed_form(ds, args.r, args.rho)
    elif args.method == "gd":
        spec = _spec_from_args(args, args.phi, args.psi, args.cn)
        fit = solvers.fit_gradient_descent(spec, ds, args.r, lr=args.lr,
                                           max_iter=args.max_iter, tol=args.tol,
                                           seed=args.seed)
    elif args.method == "approx":
        spec = _spec_from_args(args, args.phi, "exp", "n")
        fit = solvers.fit_approx_infonce(ds, args.r, spec)
    elif args.method == "semi":
        pool = storage.load_dataset(args.unpaired)
        if args.tau == "auto":
            args.tau = schedule_tau(args.r, pool.x.shape[0])
        spec = _spec_from_args(args, "log", "exp", "n")
        fit = solvers.fit_semisupervised(ds, pool, args.r, spec, init_mode=args.init)
        extra = {
            "edge_pool_size": int(fit.meta["edge_pool_size"]),
            "edge_threshold": float(fit.meta["edge_threshold"]),
            "edges_estimated": int(fit.meta["edges"].shape[0]),
        }
    else:
        fit = solvers.fit_sscl_baseline(ds.x, args.r, args.rho, mode=args.mode,
                                        k_draws=args.k_draws, seed=args.seed)
    if not np.isfinite(fit.final_loss):  # gd that takes no step returns its initial loss
        raise errors.NonFinite("final loss is not finite")
    storage.save_fit(args.out, fit, spec, extra)
    flag_note = f" flags={','.join(fit.flags)}" if fit.flags else ""
    print(f"fit {args.method}: loss={fit.final_loss!r} "
          f"iterations={fit.iterations}{flag_note} -> {args.out}")
    return 0


def _cmd_bsgmp(args) -> int:
    edges = storage.read_edge_csv(args.edges)
    if edges.shape[0] == 0:
        raise InvalidInput(f"no edges in {args.edges}")
    n_left = args.n_left if args.n_left is not None else int(edges[:, 0].max()) + 1
    n_right = args.n_right if args.n_right is not None else int(edges[:, 1].max()) + 1
    graph = bsgmp_mod.BipartiteGraph(n_left, n_right, edges)
    part = bsgmp_mod.partition(graph, args.k, seed=args.seed, restarts=args.restarts)
    storage.save_partition(args.out, part, args.seed, args.restarts)
    print(f"partitioned {graph.m} edges into k={args.k}: kept "
          f"{part.kept_edges.shape[0]}, dropped {part.dropped_edges.shape[0]} -> {args.out}")
    return 0


def _cmd_exp(args) -> int:
    with open(args.config, "rb") as fh:
        raw = fh.read()
    obj = json.loads(raw.decode("utf-8"))
    if not isinstance(obj, dict):
        raise InvalidInput("experiment config must be a JSON object")
    named = obj.get("experiment")
    if named is not None and named != args.name:
        raise InvalidInput(f"config names experiment {named!r} but {args.name!r} was requested")
    obj["experiment"] = args.name
    cfg = harness.ExperimentConfig.from_json(obj)
    rows = harness.run_experiment(cfg, out_dir=args.out, config_bytes=raw)
    failed = [row.flags[len("failed:"):] for row in rows if row.flags.startswith("failed:")]
    note = f" ({len(failed)} failed)" if failed else ""
    out = args.out or cfg.output_dir
    summary = f"experiment {args.name}: {len(rows)} trials{note} -> {out}"
    if len(failed) < len(rows):
        print(summary)
        return 0
    print(f"error: {summary}: {', '.join(sorted(set(failed)))}", file=sys.stderr)
    config = all(issubclass(getattr(errors, name, Exception), ConfigurationError)
                 for name in failed)
    return CONFIG_EXIT_CODE if config else NUMERICAL_EXIT_CODE


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one 'error: ...' line on stderr and exits 2."""

    def error(self, message):
        self.exit(CONFIG_EXIT_CODE, f"error: {self.prog}: {message}\n")


def _tau_or_auto(text: str):
    """--tau of fit semi: a number, or 'auto' for the pool-size schedule."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number or 'auto', got {text!r}") from None


def _seed(text: str) -> int:
    """--seed: a nonnegative integer, as numpy's generators require."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmcl",
        description="Linear multimodal contrastive learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset directory from a config")
    gen.add_argument("--config", required=True, help="JSON generation config")
    gen.add_argument("--out", help="output directory (overrides config)")
    gen.set_defaults(func=_cmd_gen)

    fit = sub.add_parser("fit", help="fit encoders on a dataset directory")
    fitsub = fit.add_subparsers(dest="method", required=True)

    def common(p, with_spec=False, tau=("temperature", float, 1.0), nu=1.0):
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--r", type=int, required=True, help="target rank")
        p.add_argument("--rho", type=float, default=1.0, help="ridge penalty")
        if with_spec:
            p.add_argument("--tau", help=tau[0], type=tau[1], default=tau[2])
            p.add_argument("--nu", type=float, default=nu, help="margin multiplier")
            p.add_argument("--epsilon", type=float, default=1.0,
                           help="diagonal weight inside the aggregate")
        p.set_defaults(func=_cmd_fit)

    p_lin = fitsub.add_parser("linear", help="closed-form linear loss minimizer")
    common(p_lin)

    p_gd = fitsub.add_parser("gd", help="gradient descent on a configurable loss")
    common(p_gd, with_spec=True)
    p_gd.add_argument("--phi", choices=["identity", "log", "log1p"], default="identity")
    p_gd.add_argument("--psi", choices=["identity", "exp"], default="identity")
    p_gd.add_argument("--cn", choices=["n(n-1)", "n"], default="n(n-1)")
    p_gd.add_argument("--lr", type=float, default=0.1)
    p_gd.add_argument("--max-iter", type=int, default=500)
    p_gd.add_argument("--tol", type=float, default=1e-9)
    p_gd.add_argument("--seed", type=_seed, default=0)

    p_ap = fitsub.add_parser("approx", help="frozen-weight softmax surrogate")
    common(p_ap, with_spec=True)
    p_ap.add_argument("--phi", choices=["log", "log1p"], default="log")

    p_semi = fitsub.add_parser("semi", help="two-step fit from paired plus unpaired data")
    common(p_semi, with_spec=True, nu=2.0, tau=(
        "temperature, or 'auto' for the pool-size schedule", _tau_or_auto, "auto"))
    p_semi.add_argument("--unpaired", required=True, help="unpaired dataset directory")
    p_semi.add_argument("--init", choices=["linear", "infonce"], default="linear")

    p_ss = fitsub.add_parser("sscl", help="single-modality masking baseline")
    common(p_ss)
    p_ss.add_argument("--mode", choices=["expected", "sampled"], default="expected")
    p_ss.add_argument("--k-draws", type=int, default=2000)
    p_ss.add_argument("--seed", type=_seed, default=0)

    bs = sub.add_parser("bsgmp", help="spectral partition of a bipartite edge list")
    bs.add_argument("--edges", required=True, help="edge CSV with i,j[,is_truth] header")
    bs.add_argument("--k", type=int, required=True, help="number of clusters")
    bs.add_argument("--restarts", type=int, default=10)
    bs.add_argument("--seed", type=_seed, default=0)
    bs.add_argument("--n-left", type=int, help="left node count (default: max index + 1)")
    bs.add_argument("--n-right", type=int, help="right node count (default: max index + 1)")
    bs.add_argument("--out", required=True)
    bs.set_defaults(func=_cmd_bsgmp)

    exp = sub.add_parser("exp", help="run an experiment sweep from a config")
    exp.add_argument("name", choices=list(harness.EXPERIMENTS))
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", help="output directory (overrides config)")
    exp.set_defaults(func=_cmd_exp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigurationError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT_CODE
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT_CODE
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT_CODE


def entrypoint() -> None:
    sys.exit(main())
