"""The three benchmark workloads.

Each workload is a closed loop with one client: an op is one call a user
of mmcl would make, and the next op starts when the previous one returns.
A workload generates its inputs from the run seed in ``setup``, performs
op ``i`` in ``op`` and checks that op's output in ``check``, outside the
timed region. ``check`` returns the op's quality value for the first
``quality_ops`` ops; the run reports their mean, so the quality metric
repeats exactly at a fixed seed.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from mmcl import cli, datagen, harness, linalg, solvers, storage
from mmcl.losses import LossSpec, similarity_matrix

QUALITY_METRICS = ("edge_recall", "sin_theta_g1", "final_loss", "downstream_accuracy")


class CheckFailed(Exception):
    """An op's output does not meet its correctness check."""


def op_seed(seed: int, i: int) -> int:
    """Seed of op i in a run; distinct for up to 1000 ops per pass."""
    return 1000 * seed + i


class SemiPool:
    """``mmcl fit semi`` on a 500-pair set plus a 4000-item unpaired pool."""

    name = "semi-pool"
    quality = ("edge_recall", "sin_theta_g1")

    def __init__(self, seed: int, workdir: str, n_paired: int = 500, pool: int = 4000,
                 datasets: int = 4, r: int = 10):
        self.seed = seed
        self.workdir = workdir
        self.n_paired = n_paired
        self.pool = pool
        self.r = r
        self.quality_ops = datasets
        self.model = datagen.random_model(40, 39, r, snr=1.0 / 0.3, seed=0)
        self.out = os.path.join(workdir, "fit")
        self.data = []

    def params(self) -> dict:
        return {"model": "random_model(40, 39, 10, snr=1/0.3, seed=0)",
                "n_paired": self.n_paired, "pool": self.pool,
                "datasets": self.quality_ops, "r": self.r,
                "argv": self._argv(0)}

    def _dirs(self, d: int):
        return (os.path.join(self.workdir, f"paired{d}"),
                os.path.join(self.workdir, f"pool{d}"))

    def setup(self) -> None:
        self.data = []
        for d in range(self.quality_ops):
            paired = datagen.sample_paired(self.model, self.n_paired, 0.0,
                                           seed=[self.seed, d, 1])
            pool = datagen.sample_unpaired(self.model, self.pool, seed=[self.seed, d, 2])
            paired_dir, pool_dir = self._dirs(d)
            storage.save_dataset(paired_dir, paired, self.model)
            storage.save_dataset(pool_dir, pool, self.model)
            self.data.append((paired, pool))

    def _argv(self, i: int):
        paired_dir, pool_dir = self._dirs(i % self.quality_ops)
        return ["fit", "semi", "--data", paired_dir, "--unpaired", pool_dir,
                "--out", self.out, "--r", str(self.r)]

    def op(self, i: int):
        argv = self._argv(i)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check(self, i: int, out):
        code, err = out
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.strip()}")
        with open(os.path.join(self.out, "fit.json"), encoding="utf-8") as fh:
            info = json.load(fh)
        g1 = storage.load_matrix(os.path.join(self.out, "g1.csv"))
        g2 = storage.load_matrix(os.path.join(self.out, "g2.csv"))
        product = storage.load_matrix(os.path.join(self.out, "product.csv"))
        if np.linalg.norm(product - g1.T @ g2) > 1e-9 * np.linalg.norm(product):
            raise CheckFailed("product.csv differs from g1^T g2")
        if info["edges_estimated"] != self.pool and "short-pool" not in info["flags"]:
            raise CheckFailed(f"{info['edges_estimated']} edges estimated for a pool of {self.pool}")
        if i >= self.quality_ops:
            return None
        # The CLI does not write the edge set, so it is re-derived here from
        # the same anchors and must agree with what fit.json reports.
        paired, pool = self.data[i]
        anchors = solvers.fit_linear_closed_form(paired, self.r).enc
        est = solvers.estimate_edges(similarity_matrix(anchors, pool.x, pool.xt))
        if (est.edges.shape[0] != info["edges_estimated"]
                or est.threshold != info["edge_threshold"]):
            raise CheckFailed("re-derived edge set disagrees with fit.json")
        _, recall = harness.edge_metrics(est.edges, pool.truth_edges)
        sin_g1 = linalg.sin_theta(linalg.right_singular_subspace(g1, self.r),
                                  linalg.Subspace(self.model.u1_star))
        return {"edge_recall": recall, "sin_theta_g1": sin_g1}


class InfonceGd:
    """Eight gradient-descent steps on the smoothed InfoNCE loss, 1600 pairs."""

    name = "infonce-gd"
    quality = ("final_loss",)
    quality_ops = 3

    def __init__(self, seed: int, workdir: str, n: int = 1600, max_iter: int = 8):
        self.seed = seed
        self.n = n
        self.max_iter = max_iter
        self.model = datagen.random_model(40, 40, 16, snr=1.0 / 0.3, seed=0)
        self.spec = LossSpec.infonce(tau=0.5, smoothed=True)
        self.data = None

    def params(self) -> dict:
        return {"model": "random_model(40, 40, 16, snr=1/0.3, seed=0)",
                "data": f"sample_paired(model, {self.n}, 0.2)",
                "spec": self.spec.to_json(), "r": 16, "lr": 0.05,
                "max_iter": self.max_iter, "tol": 0.0}

    def setup(self) -> None:
        self.data = datagen.sample_paired(self.model, self.n, 0.2, seed=self.seed)

    def op(self, i: int):
        return solvers.fit_gradient_descent(self.spec, self.data, 16, lr=0.05,
                                            max_iter=self.max_iter, tol=0.0,
                                            seed=op_seed(self.seed, i))

    def check(self, i: int, fit):
        if fit.iterations != self.max_iter:
            raise CheckFailed(f"{fit.iterations} iterations, expected {self.max_iter}")
        trace = np.asarray(fit.trace)
        if not np.all(np.isfinite(trace)) or np.any(np.diff(trace) > 0):
            raise CheckFailed("loss trace is not finite and nonincreasing")
        return {"final_loss": fit.final_loss} if i < self.quality_ops else None


class BsgmpSweep:
    """One trial of the ``bsgmp`` experiment per op, criterion 6's model."""

    name = "bsgmp-sweep"
    quality = ("downstream_accuracy",)
    quality_ops = 16

    def __init__(self, seed: int, workdir: str, n_per_cluster: int = 100):
        self.seed = seed
        self.out = os.path.join(workdir, "exp")
        self.config = {
            "experiment": "bsgmp",
            "model": {"d1": 60, "d2": 60, "r": 4, "snr": 1.0, "seed": 0},
            "seeds": [0],
            "sweep": {"k_grid": [10], "p_prime_grid": [0.3]},
            "options": {"k_true": 10, "n_per_cluster": n_per_cluster,
                        "n_test_per_cluster": 50, "restarts": 10,
                        "within_scale": 0.3, "fit_rank": 4},
        }

    def params(self) -> dict:
        return self.config

    def setup(self) -> None:
        """Each trial draws its own graph from its seed; nothing to prepare."""

    def op(self, i: int):
        cfg = harness.ExperimentConfig.from_json(
            dict(self.config, seeds=[op_seed(self.seed, i)]))
        return harness.run_experiment(cfg, out_dir=self.out)

    def check(self, i: int, rows):
        if len(rows) != 1 or rows[0].flags.startswith("failed:"):
            raise CheckFailed(f"trial failed: {[row.flags for row in rows]}")
        with open(os.path.join(self.out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest["rows"] != 1:
            raise CheckFailed(f"manifest reports {manifest['rows']} rows")
        acc = rows[0].metrics["downstream_accuracy"]
        if not math.isfinite(acc):
            raise CheckFailed("downstream accuracy is not finite")
        return {"downstream_accuracy": acc} if i < self.quality_ops else None


WORKLOADS = {w.name: w for w in (SemiPool, InfonceGd, BsgmpSweep)}

# Functions each workload must reach, the coverage self-check of the traced run.
COVERAGE = {
    "semi-pool": (
        "cli.main", "storage.load_dataset", "storage.save_fit", "storage.save_dataset",
        "storage.write_csv", "solvers.fit_semisupervised", "solvers.fit_linear_closed_form",
        "solvers.estimate_edges", "losses.similarity_matrix", "losses.unpaired_weights",
        "losses.contrastive_cross_covariance", "losses.loss_value", "linalg.svd",
        "datagen.sample_paired", "datagen.sample_unpaired"),
    "infonce-gd": (
        "solvers.fit_gradient_descent", "losses.loss_value", "losses.loss_gradient",
        "losses.similarity_matrix", "datagen.sample_paired"),
    "bsgmp-sweep": (
        "harness.run_experiment", "harness.sample_partners", "harness.edge_metrics",
        "harness.downstream_accuracy", "bsgmp.partition", "bsgmp.normalized_adjacency",
        "bsgmp.spectral_embed", "bsgmp.kmeans", "linalg.svd",
        "datagen.sample_labeled_bipartite", "solvers.fit_linear_closed_form",
        "storage.write_csv"),
}
