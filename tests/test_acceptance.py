"""Acceptance checks for the whole toolkit.

One test per criterion. Each prints a single PASS/FAIL line with its
measured values before asserting, so the verdicts survive in the pytest
report either way.
"""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mmcl
from mmcl import datagen, linalg, solvers
from mmcl.harness import ExperimentConfig, run_experiment
from mmcl.losses import (
    EncoderPair,
    LossSpec,
    compute_weights,
    contrastive_cross_covariance,
    loss_gradient,
    schedule_tau,
    similarity_matrix,
    unpaired_weights,
)


def report(num: int | str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def medians(rows, param_keys, metric):
    groups = {}
    for row in rows:
        key = tuple(row.params[k] for k in param_keys)
        groups.setdefault(key, []).append(row.metrics[metric])
    return {k: float(np.median(v)) for k, v in groups.items()}


def test_criterion_1_gradient_matches_weighted_contrast():
    start = time.perf_counter()
    specs = [
        LossSpec.linear(),
        LossSpec.clip(tau=0.5),
        LossSpec.infonce(tau=0.5),
        LossSpec.clip(tau=0.5, nu=2.0),
    ]
    worst = 0.0
    for si, spec in enumerate(specs):
        for n in range(3, 9):
            for inst in range(20):
                rng = np.random.default_rng([61, n, inst, si])
                x = rng.standard_normal((n, 5))
                xt = rng.standard_normal((n, 4))
                enc = EncoderPair(g1=0.6 * rng.standard_normal((2, 5)),
                                  g2=0.6 * rng.standard_normal((2, 4)))
                grad1, grad2 = loss_gradient(spec, enc, (x, xt))
                weights = compute_weights(spec, similarity_matrix(enc, x, xt))
                s = contrastive_cross_covariance(weights, x, xt, spec.cn)
                res1 = grad1 + enc.g2 @ s.T - spec.rho * (enc.g2 @ enc.g2.T) @ enc.g1
                res2 = grad2 + enc.g1 @ s - spec.rho * (enc.g1 @ enc.g1.T) @ enc.g2
                rel = max(
                    np.linalg.norm(res1) / max(np.linalg.norm(grad1), 1e-300),
                    np.linalg.norm(res2) / max(np.linalg.norm(grad2), 1e-300))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, ok, f"max relative residual {worst:.3e} over 480 instances, "
                  f"{elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_descent_reaches_scaled_truncated_svd():
    start = time.perf_counter()
    model = datagen.random_model(8, 8, 2, snr=2.0, seed=0)
    ds = datagen.sample_paired(model, 50, 0.0, seed=1)
    target = linalg.svd_top_r(solvers.centered_cross_covariance(ds.x, ds.xt), 2)
    gd = solvers.fit_gradient_descent(LossSpec.linear(), ds, 2, lr=0.3,
                                      max_iter=4000)
    rel = float(np.linalg.norm(gd.product - target) / np.linalg.norm(target))

    subspaces = []
    for rho in (0.1, 1.0, 10.0):
        fit = solvers.fit_linear_closed_form(ds, 2, rho)
        subspaces.append((linalg.right_singular_subspace(fit.product, 2),
                          linalg.right_singular_subspace(fit.product.T, 2)))
    drift = 0.0
    for i in range(len(subspaces)):
        for j in range(i + 1, len(subspaces)):
            drift = max(drift,
                        linalg.sin_theta(subspaces[i][0], subspaces[j][0]),
                        linalg.sin_theta(subspaces[i][1], subspaces[j][1]))
    elapsed = time.perf_counter() - start
    ok = rel < 1e-4 and drift < 1e-9 and elapsed < 30.0
    report(2, ok, f"descent vs truncated-SVD error {rel:.3e}, ridge-scale "
                  f"subspace drift {drift:.3e}, {elapsed:.1f}s")
    assert rel < 1e-4
    assert drift < 1e-9
    assert elapsed < 30.0


# Criterion 3's sweep: sin theta(g1) over n and the wrong-pair fraction p.
DISTORTION = {
    "experiment": "distortion",
    "model": {"d1": 20, "d2": 20, "r": 3, "snr": 2.0, "seed": 0},
    "seeds": list(range(20)),
    "sweep": {"n_grid": [250, 500, 1000, 2000, 4000],
              "p_grid": [0.0, 0.2, 0.6]},
    "options": {"rho": 1.0},
}


def test_criterion_3_error_rate_scales_as_inverse_sqrt_n(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_json(DISTORTION)
    rows = run_experiment(cfg, out_dir=str(tmp_path))
    med = medians(rows, ("n", "p"), "sin_theta_g1")
    ns = [250, 500, 1000, 2000, 4000]
    slope = float(np.polyfit(np.log(ns),
                             np.log([med[(n, 0.2)] for n in ns]), 1)[0])
    heavier = all(med[(n, 0.6)] > med[(n, 0.0)] for n in ns)
    decreasing = all(med[(a, 0.6)] > med[(b, 0.6)]
                     for a, b in zip(ns, ns[1:]))
    elapsed = time.perf_counter() - start
    ok = (-0.65 <= slope <= -0.35) and heavier and decreasing and elapsed < 300.0
    report(3, ok, f"log-log slope {slope:.3f} (target -0.5 +/- 0.15), "
                  f"corrupted-above-clean {heavier}, "
                  f"corrupted-still-decreasing {decreasing}, {elapsed:.1f}s")
    assert -0.65 <= slope <= -0.35
    assert heavier
    assert decreasing
    assert elapsed < 300.0


def test_criterion_3b_error_scales_as_inverse_genuine_fraction(tmp_path):
    # Claim (ii)'s 1/eta shape, eta = 1 - p the genuine-pair fraction: at each
    # n, sin theta times eta stays near its clean value. The band was fixed
    # before the test was first run.
    start = time.perf_counter()
    rows = run_experiment(ExperimentConfig.from_json(DISTORTION), out_dir=str(tmp_path))
    med = medians(rows, ("n", "p"), "sin_theta_g1")
    ratios = {(n, p): med[(n, p)] * (1.0 - p) / med[(n, 0.0)]
              for n in DISTORTION["sweep"]["n_grid"] for p in (0.2, 0.6)}
    inside = all(0.8 <= v <= 1.25 for v in ratios.values())
    report("3b", inside, "sin theta * (1 - p) / clean sin theta in "
           f"[{min(ratios.values()):.3f}, {max(ratios.values()):.3f}] (band [0.8, 1.25]), "
           f"{time.perf_counter() - start:.1f}s")
    assert inside, ratios


def test_criterion_4_pool_ratio_sweep_reproduces_orderings(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_json({
        "experiment": "unpaired",
        "model": {"d1": 40, "d2": 39, "r": 10, "snr": 1.0 / 0.3, "seed": 0},
        "seeds": list(range(20)),
        "sweep": {"n_grid": [100, 200, 500], "ratio_grid": [1, 2, 4, 8]},
        "options": {"nu": 2.0, "rho": 1.0, "tau": "auto", "init": "linear"},
    })
    rows = run_experiment(cfg, out_dir=str(tmp_path))
    med = medians(rows, ("n", "ratio"), "sin_theta_g1")
    ns = (100, 200, 500)
    ratios = (1, 2, 4, 8)
    pool_helps = all(med[(n, a)] > med[(n, b)]
                     for n in ns for a, b in zip(ratios, ratios[1:]))
    n_helps = all(med[(a, q)] > med[(b, q)]
                  for q in ratios for a, b in zip(ns, ns[1:]))
    elapsed = time.perf_counter() - start
    table = {n: [round(med[(n, q)], 3) for q in ratios] for n in ns}
    ok = pool_helps and n_helps and elapsed < 600.0
    report(4, ok, f"medians by pool ratio {table}, larger-pool-monotone "
                  f"{pool_helps}, larger-n-dominates {n_helps}, {elapsed:.1f}s")
    assert pool_helps
    assert n_helps
    assert elapsed < 600.0


def test_criterion_5_edge_recovery_is_exact_for_most_seeds():
    start = time.perf_counter()
    model = datagen.random_model(40, 40, 16, snr=1.0 / 0.3, seed=0)
    tau = schedule_tau(16, 400)
    spec = LossSpec(phi="log", psi="exp", epsilon=1.0, nu=2.0, tau=tau,
                    cn="n", rho=1.0)
    exact = 0
    repeated = 0
    beta_floor = []
    beta_ceiling = []
    for seed in range(40):
        paired = datagen.sample_paired(model, 200, 0.0, seed=[51, seed])
        pool = datagen.sample_unpaired(model, 400, seed=[53, seed])
        fit = solvers.fit_semisupervised(paired, pool, 16, spec)
        edges = np.asarray(fit.meta["edges"])
        if (np.unique(edges[:, 0]).size < len(edges)
                or np.unique(edges[:, 1]).size < len(edges)):
            repeated += 1
        estimated = {(int(i), int(j)) for i, j in edges}
        truth = {(int(i), int(j)) for i, j in pool.truth_edges}
        if estimated != truth:
            continue
        exact += 1
        init = solvers.fit_linear_closed_form(paired, 16, spec.rho)
        sims = similarity_matrix(init.enc, pool.x, pool.xt)
        beta = unpaired_weights(sims, tau, spec.nu, fit.meta["edges"]).beta_off
        mask = np.zeros_like(beta, dtype=bool)
        for i, j in truth:
            mask[i, j] = True
        beta_floor.append(float(beta[mask].min()))
        beta_ceiling.append(float(beta[~mask].max()))
    rate = exact / 40.0
    concentrated = (min(beta_floor) >= 0.9 and max(beta_ceiling) <= 1.0 / 400
                    if exact else False)
    elapsed = time.perf_counter() - start
    ok = rate >= 0.95 and concentrated
    report(5, ok, f"exact recovery in {exact}/40 seeds (need >= 38), estimate "
                  f"repeats a row or a column in {repeated}/40 seeds, weight "
                  f"concentration on exact trials {concentrated}, {elapsed:.1f}s")
    assert rate >= 0.95, (
        f"exact edge recovery rate {rate:.2f} is below 0.95: estimate_edges "
        f"keeps the top of a mutual-argmax pool, which repeats a row or a "
        f"column in {repeated}/40 seeds, so it is not one-to-one; an optimal "
        f"assignment on the same similarity scores was measured exact in "
        f"39/40 seeds")
    assert concentrated


def test_criterion_6_partitioning_beats_raw_edges_downstream(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_json({
        "experiment": "bsgmp",
        "model": {"d1": 60, "d2": 60, "r": 4, "snr": 1.0, "seed": 0},
        "seeds": list(range(20)),
        "sweep": {"k_grid": [10, "none"], "p_prime_grid": [0.2, 0.3]},
        "options": {"k_true": 10, "n_per_cluster": 50, "n_test_per_cluster": 50,
                    "restarts": 10, "rho": 1.0, "fit_rank": 4,
                    "within_scale": 0.3},
    })
    rows = run_experiment(cfg, out_dir=str(tmp_path))
    med = medians(rows, ("k", "p_prime"), "downstream_accuracy")
    gaps = {pp: (med[("10", pp)], med[("none", pp)]) for pp in (0.2, 0.3)}
    ordered = all(a > b for a, b in gaps.values())
    elapsed = time.perf_counter() - start
    ok = ordered and elapsed < 300.0
    detail = ", ".join(f"p'={pp}: {a:.3f} vs {b:.3f}"
                       for pp, (a, b) in sorted(gaps.items()))
    report(6, ok, f"median accuracy partitioned vs raw ({detail}), {elapsed:.1f}s")
    assert ordered
    assert elapsed < 300.0


def test_criterion_7_masking_baseline_fails_where_pairing_succeeds(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_json({
        "experiment": "sscl-compare",
        "model": {"d1": 60, "d2": 60, "r": 3, "snr": 2.0, "seed": 0},
        "seeds": list(range(10)),
        "sweep": {"n_grid": [4000]},
        "options": {"p": 0.2, "rho": 1.0, "k_draws": 2000,
                    "noise_spikes": 1, "noise_spike_scale": 1.5},
    })
    rows = run_experiment(cfg, out_dir=str(tmp_path))
    by_method = {}
    for row in rows:
        by_method.setdefault(row.params["method"], {})[row.params["seed"]] = row
    paired = [by_method["mmcl"][s].metrics["sin_theta_g1"] for s in range(10)]
    masked = [by_method["sscl"][s].metrics["sin_theta_g1"] for s in range(10)]
    resid = [by_method["sscl-mc"][s].metrics["residual"] for s in range(10)]
    wins = sum(a < b for a, b in zip(paired, masked))
    mc_ok = max(resid) <= 0.05
    elapsed = time.perf_counter() - start
    ok = wins == 10 and mc_ok
    report(7, ok, f"paired median {float(np.median(paired)):.3f} vs masked "
                  f"median {float(np.median(masked)):.3f}, per-seed wins "
                  f"{wins}/10, Monte-Carlo deviation max {max(resid):.4f} "
                  f"(cap 0.05), {elapsed:.1f}s")
    assert wins == 10
    assert mc_ok


def run_cli(args):
    # Run the imported package as a module, so the check does not depend on
    # an installed console script.
    src = str(Path(mmcl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "mmcl", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, f"mmcl {args}: {proc.stderr}"


def files_equal(dir_a, dir_b, names):
    return all((dir_a / n).read_bytes() == (dir_b / n).read_bytes()
               for n in names)


def rows_without_wall_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    wt = rows[0].index("wall_time")
    return [[c for i, c in enumerate(row) if i != wt] for row in rows]


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    start = time.perf_counter()
    model = {"d1": 6, "d2": 5, "r": 2, "snr": 2.0, "seed": 0}
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "kind": "paired", "model": model, "n": 30, "p": 0.2, "seed": 3}))
    lab_cfg = tmp_path / "lab.json"
    lab_cfg.write_text(json.dumps({
        "kind": "labeled-bipartite", "model": model, "n_per_cluster": 8,
        "k": 3, "p_prime": 0.2, "seed": 4}))
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(json.dumps({
        "experiment": "gradcheck", "model": {"d1": 4, "d2": 3, "r": 2},
        "seeds": [0], "sweep": {"n_grid": [4]},
        "options": {"losses": ["linear", "clip"]}}))

    results = {}
    for run in ("a", "b"):
        base = tmp_path / run
        run_cli(["gen", "--config", str(gen_cfg), "--out", str(base / "data")])
        run_cli(["gen", "--config", str(lab_cfg), "--out", str(base / "lab")])
        run_cli(["fit", "gd", "--data", str(base / "data"),
                 "--out", str(base / "fit"), "--r", "2", "--phi", "log",
                 "--psi", "exp", "--cn", "n", "--tau", "0.5",
                 "--max-iter", "20", "--seed", "0"])
        run_cli(["bsgmp", "--edges", str(base / "lab" / "edges.csv"),
                 "--k", "3", "--seed", "0", "--out", str(base / "part")])
        run_cli(["exp", "gradcheck", "--config", str(exp_cfg),
                 "--out", str(base / "exp")])
        results[run] = base

    a, b = results["a"], results["b"]
    same_gen = files_equal(a / "data", b / "data",
                           ("x.csv", "xt.csv", "edges.csv", "meta.json"))
    same_fit = files_equal(a / "fit", b / "fit",
                           ("product.csv", "g1.csv", "g2.csv", "fit.json"))
    same_part = files_equal(a / "part", b / "part",
                            ("labels_left.csv", "labels_right.csv",
                             "kept_edges.csv", "report.json"))
    same_exp = (rows_without_wall_time(a / "exp" / "results.csv")
                == rows_without_wall_time(b / "exp" / "results.csv")
                and files_equal(a / "exp", b / "exp",
                                ("summary.csv", "manifest.json")))
    elapsed = time.perf_counter() - start
    ok = same_gen and same_fit and same_part and same_exp
    report(8, ok, f"gen {same_gen}, fit {same_fit}, partition {same_part}, "
                  f"sweep-minus-timing {same_exp}, {elapsed:.1f}s")
    assert same_gen
    assert same_fit
    assert same_part
    assert same_exp
