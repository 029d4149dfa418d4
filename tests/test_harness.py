"""Tests for evaluation metrics, experiment configs, and the sweep runner."""

import csv
import json
import math
import os

import numpy as np
import pytest

import mmcl
from mmcl import datagen, storage
from mmcl.errors import InvalidInput
from mmcl.harness import (
    EXPERIMENTS,
    GRADCHECK_SPECS,
    METRIC_NAMES,
    ExperimentConfig,
    MetricRow,
    downstream_accuracy,
    edge_metrics,
    finite_difference_gradient,
    gradient_residual,
    model_from_config,
    run_experiment,
    sample_partners,
    summarize,
    theory_bound,
    write_results,
)
from mmcl.losses import EncoderPair, loss_gradient


def onehot_eval_set(labels_x, labels_xt):
    k = int(max(np.max(labels_x), np.max(labels_xt))) + 1
    return datagen.LabeledBipartite(
        x=np.eye(k)[np.asarray(labels_x)],
        xt=np.eye(k)[np.asarray(labels_xt)],
        labels_x=np.asarray(labels_x),
        labels_xt=np.asarray(labels_xt),
        edges=np.zeros((0, 2), dtype=np.int64),
        k=k,
    )


class TestDownstreamAccuracy:
    def test_identity_encoders_on_onehot_data_are_perfect(self):
        data = onehot_eval_set([0, 1, 2, 3], [0, 1, 2, 3])
        enc = EncoderPair(g1=np.eye(4), g2=np.eye(4))
        assert downstream_accuracy(enc, data) == 1.0

    def test_shuffled_right_items_still_retrieve_by_label(self):
        data = onehot_eval_set([0, 1, 2, 3], [2, 3, 0, 1])
        enc = EncoderPair(g1=np.eye(4), g2=np.eye(4))
        assert downstream_accuracy(enc, data) == 1.0

    def test_zero_encoders_tie_break_to_first_right_item(self):
        data = onehot_eval_set([1, 1, 2, 3], [1, 0, 2, 3])
        enc = EncoderPair(g1=np.zeros((2, 4)), g2=np.zeros((2, 4)))
        assert downstream_accuracy(enc, data) == 0.5

    def test_mislabeled_right_items_score_zero(self):
        data = datagen.LabeledBipartite(
            x=np.eye(2), xt=np.eye(2),
            labels_x=np.array([0, 1]), labels_xt=np.array([1, 0]),
            edges=np.zeros((0, 2), dtype=np.int64), k=2)
        enc = EncoderPair(g1=np.eye(2), g2=np.eye(2))
        assert downstream_accuracy(enc, data) == 0.0

    def test_empty_evaluation_set_rejected(self):
        data = onehot_eval_set([0, 1], [0, 1])
        empty = datagen.LabeledBipartite(
            x=np.zeros((0, 2)), xt=data.xt,
            labels_x=np.zeros(0, dtype=np.int64), labels_xt=data.labels_xt,
            edges=np.zeros((0, 2), dtype=np.int64), k=2)
        enc = EncoderPair(g1=np.eye(2), g2=np.eye(2))
        with pytest.raises(InvalidInput):
            downstream_accuracy(enc, empty)


def sample_partners_by_dict(edges, rng):
    """Dict-based first draw per left node, the reference for sample_partners."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    chosen = {}
    for idx in rng.permutation(edges.shape[0]):
        i, j = edges[idx]
        if i not in chosen:
            chosen[int(i)] = int(j)
    if not chosen:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(sorted(chosen.items()), dtype=np.int64)


def edge_metrics_by_sets(estimated, truth):
    """Set-based precision and recall, the reference for edge_metrics."""
    est = {(int(i), int(j)) for i, j in np.asarray(estimated, dtype=np.int64).reshape(-1, 2)}
    tru = {(int(i), int(j)) for i, j in np.asarray(truth, dtype=np.int64).reshape(-1, 2)}
    hit = len(est & tru)
    precision = hit / len(est) if est else 0.0
    return float(precision), float(hit / len(tru))


def random_pairs(rng, count, lo, span):
    """count pairs with both indices in [lo, lo + span); small spans repeat pairs."""
    return lo + rng.integers(0, span, size=(count, 2), dtype=np.int64)


# Index ranges for the oracle cases: negative, tiny (duplicate-heavy) and
# far from zero (2**40 offsets, spans up to 2**30).
PAIR_RANGES = [(0, 3), (0, 40), (-25, 50), (0, 2000), (2**40, 500),
               (-(2**40), 5000), (-(2**29), 2**30)]


class TestSamplePartners:
    def test_matches_dict_based_draw(self):
        # Left nodes with one edge and with many, duplicate edges, negative and
        # far-from-zero indices; the generator must be left in the same state.
        rng = np.random.default_rng(44)
        for trial in range(240):
            lo, span = PAIR_RANGES[trial % len(PAIR_RANGES)]
            count = int(rng.integers(0, 400)) if trial % 5 else int(rng.integers(0, 3))
            edges = random_pairs(rng, count, lo, span)
            if trial % 3 == 0:
                edges[:, 0] = lo + rng.integers(0, max(count, 1), size=count)
            seed = [trial, 7]
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = sample_partners_by_dict(edges, want_rng)
            got = sample_partners(edges, got_rng)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert got_rng.random() == want_rng.random()

    def test_one_partner_per_left_node_sorted(self):
        edges = np.array([[3, 0], [0, 1], [0, 2], [1, 3]])
        got = sample_partners(edges, np.random.default_rng(5))
        assert got.shape == (3, 2)
        assert got[:, 0].tolist() == [0, 1, 3]
        assert got[1].tolist() == [1, 3]
        assert got[2].tolist() == [3, 0]
        assert int(got[0, 1]) in (1, 2)

    def test_deterministic_under_equal_rng_state(self):
        edges = np.array([[0, 1], [0, 2], [1, 3], [3, 0]])
        a = sample_partners(edges, np.random.default_rng(5))
        b = sample_partners(edges, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_choice_among_edges_is_roughly_uniform(self):
        edges = np.array([[0, 1], [0, 2], [1, 3]])
        counts = {1: 0, 2: 0}
        for seed in range(400):
            got = sample_partners(edges, np.random.default_rng(seed))
            counts[int(got[0, 1])] += 1
        assert 140 <= counts[1] <= 260
        assert counts[1] + counts[2] == 400

    def test_empty_edge_set_gives_empty_result(self):
        got = sample_partners(np.zeros((0, 2)), np.random.default_rng(0))
        assert got.shape == (0, 2)
        assert got.dtype == np.int64


class TestEdgeMetrics:
    def test_matches_set_based_counts(self):
        # Duplicates on both sides, empty estimates, negative and far-from-zero
        # indices, disjoint and overlapping sets; the floats must be equal.
        rng = np.random.default_rng(45)
        for trial in range(240):
            lo, span = PAIR_RANGES[trial % len(PAIR_RANGES)]
            truth = random_pairs(rng, int(rng.integers(1, 300)), lo, span)
            est = random_pairs(rng, int(rng.integers(0, 300)) if trial % 6 else 0, lo, span)
            if trial % 4 == 0:
                est = np.concatenate([est, truth[rng.integers(0, len(truth), size=50)]])
            elif trial % 4 == 1:
                est = est + span
            assert edge_metrics(est, truth) == edge_metrics_by_sets(est, truth)

    def test_index_span_too_wide_for_codes_rejected(self):
        pairs = np.array([[-(2**62), 0], [2**62, 2**40]])
        with pytest.raises(InvalidInput):
            edge_metrics(pairs, pairs)

    def test_peak_memory_stays_near_input(self):
        # A bsgmp-sized trial: about 340k kept edges against 100k truth pairs.
        import tracemalloc
        rng = np.random.default_rng(46)
        est = rng.integers(0, 1000, size=(340_000, 2), dtype=np.int64)
        labels = np.repeat(np.arange(10), 100)
        truth = np.stack(np.nonzero(labels[:, None] == labels[None, :]), axis=1)
        tracemalloc.start()
        try:
            edge_metrics(est, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (est.nbytes + truth.nbytes)

    def test_equal_sets_score_perfectly(self):
        truth = np.array([[i, i] for i in range(100)])
        assert edge_metrics(truth, truth) == (1.0, 1.0)

    def test_subset_has_full_precision_partial_recall(self):
        truth = np.array([[i, i] for i in range(100)])
        assert edge_metrics(truth[:99], truth) == (1.0, 0.99)

    def test_disjoint_sets_score_zero(self):
        truth = np.array([[i, i] for i in range(10)])
        assert edge_metrics(np.array([[500, 500]]), truth) == (0.0, 0.0)

    def test_empty_estimate_scores_zero(self):
        truth = np.array([[0, 0], [1, 1]])
        assert edge_metrics(np.zeros((0, 2)), truth) == (0.0, 0.0)

    def test_order_and_duplicates_do_not_matter(self):
        truth = np.array([[0, 0], [1, 1], [2, 2]])
        est = np.array([[2, 2], [0, 0], [2, 2]])
        prec, rec = edge_metrics(est, truth)
        assert prec == 1.0
        assert rec == pytest.approx(2.0 / 3.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(InvalidInput):
            edge_metrics(np.array([[0, 0]]), np.zeros((0, 2)))


class TestTheoryBound:
    def test_matches_closed_formula(self):
        got = theory_bound(16, 4, 0.0, 0.0, 0, 0, 1.0)
        assert got == pytest.approx(4.0 * math.sqrt(math.log(16) / 16), rel=1e-12)

    def test_tiny_genuine_fraction_clamps_to_sqrt_rank(self):
        assert theory_bound(100, 4, 0.0, 0.0, 10, 10, 1e-12) == 2.0

    def test_doubling_n_shrinks_by_about_sqrt_two(self):
        b1 = theory_bound(10**6, 3, 5.0, 5.0, 20, 20, 0.8)
        b2 = theory_bound(2 * 10**6, 3, 5.0, 5.0, 20, 20, 0.8)
        assert abs(b2 / b1 - 1.0 / math.sqrt(2)) < 0.03

    def test_halving_genuine_fraction_doubles_the_bound(self):
        b1 = theory_bound(10**6, 3, 5.0, 5.0, 20, 20, 1.0)
        b2 = theory_bound(10**6, 3, 5.0, 5.0, 20, 20, 0.5)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_finite_and_positive_at_realistic_sizes(self):
        got = theory_bound(4000, 3, 17.0, 16.0, 20, 20, 0.8)
        assert 0.0 < got < math.sqrt(3)

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"r": 0}, {"eta": 0.0}, {"eta": -1.0},
    ])
    def test_invalid_arguments_rejected(self, kwargs):
        args = {"n": 100, "r": 2, "noise_rank1": 1.0, "noise_rank2": 1.0,
                "d1": 5, "d2": 5, "eta": 0.5}
        args.update(kwargs)
        with pytest.raises(InvalidInput):
            theory_bound(**args)


class TestModelFromConfig:
    def test_minimal_config_matches_direct_construction(self):
        got = model_from_config({"d1": 4, "d2": 3, "r": 2})
        want = datagen.random_model(4, 3, 2, snr=np.inf, decay=1.0,
                                    family="gaussian", seed=0)
        assert np.array_equal(got.u1_star, want.u1_star)
        assert np.array_equal(got.u2_star, want.u2_star)
        assert np.array_equal(got.sigma_z, want.sigma_z)
        assert np.array_equal(got.sigma_xi, want.sigma_xi)

    def test_default_snr_is_noiseless(self):
        got = model_from_config({"d1": 4, "d2": 3, "r": 2})
        assert np.all(got.sigma_xi == 0.0)
        assert np.all(got.sigma_xit == 0.0)

    def test_full_config_round_trips_fields(self):
        got = model_from_config({"d1": 6, "d2": 5, "r": 3, "snr": 2.0,
                                 "decay": 0.5, "family": "uniform", "seed": 7})
        want = datagen.random_model(6, 5, 3, snr=2.0, decay=0.5,
                                    family="uniform", seed=7)
        assert np.array_equal(got.u1_star, want.u1_star)
        assert np.array_equal(got.sigma_xi, want.sigma_xi)
        assert got.family == "uniform"

    def test_snr_string_inf_allowed(self):
        got = model_from_config({"d1": 4, "d2": 4, "r": 2, "snr": "inf"})
        assert np.all(got.sigma_xi == 0.0)

    @pytest.mark.parametrize("patch,fragment", [
        ({"d1": None}, "model.d1"),
        ({"d1": 0}, "model.d1"),
        ({"r": 2.5}, "model.r"),
        ({"snr": "big"}, "model.snr"),
        ({"snr": -1.0}, "model.snr"),
        ({"decay": 0.0}, "model.decay"),
        ({"decay": 1.5}, "model.decay"),
        ({"seed": -1}, "model.seed"),
        ({"family": "laplace"}, "model.family"),
        ({"extra_knob": 1}, "extra_knob"),
    ])
    def test_bad_fields_name_the_field(self, patch, fragment):
        cfg = {"d1": 4, "d2": 3, "r": 2}
        cfg.update(patch)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        with pytest.raises(InvalidInput, match=fragment):
            model_from_config(cfg)


VALID_CONFIG = {
    "experiment": "gradcheck",
    "model": {"d1": 4, "d2": 3, "r": 2},
    "seeds": [0, 1],
    "sweep": {"n_grid": [4, 6]},
    "options": {"losses": ["linear", "clip", "infonce", "margin"]},
}


class TestExperimentConfig:
    def test_valid_config_parses(self):
        cfg = ExperimentConfig.from_json(VALID_CONFIG)
        assert cfg.experiment == "gradcheck"
        assert cfg.seeds == (0, 1)
        assert cfg.output_dir is None

    def test_canonical_excludes_output_dir(self):
        obj = dict(VALID_CONFIG, output_dir="/tmp/somewhere")
        cfg = ExperimentConfig.from_json(obj)
        canon = cfg.canonical()
        assert set(canon) == {"experiment", "model", "seeds", "sweep", "options"}
        assert canon["seeds"] == [0, 1]
        moved = ExperimentConfig.from_json(dict(VALID_CONFIG, output_dir="/elsewhere"))
        assert storage.config_hash(canon) == storage.config_hash(moved.canonical())

    @pytest.mark.parametrize("obj,fragment", [
        ([1, 2], "JSON object"),
        (dict(VALID_CONFIG, bogus=1), "bogus"),
        (dict(VALID_CONFIG, experiment="nope"), "experiment"),
        ({k: v for k, v in VALID_CONFIG.items() if k != "experiment"}, "experiment"),
        (dict(VALID_CONFIG, model=[1]), "model"),
        (dict(VALID_CONFIG, seeds=[]), "seeds"),
        (dict(VALID_CONFIG, seeds=[0, -1]), "seeds"),
        (dict(VALID_CONFIG, seeds=["a"]), "seeds"),
        (dict(VALID_CONFIG, seeds=3), "seeds"),
        ({k: v for k, v in VALID_CONFIG.items() if k != "sweep"}, "sweep"),
        (dict(VALID_CONFIG, options=[1]), "options"),
        (dict(VALID_CONFIG, output_dir=5), "output_dir"),
        (dict(VALID_CONFIG, seeds=[True]), "seeds"),
    ])
    def test_invalid_configs_rejected_with_field_name(self, obj, fragment):
        with pytest.raises(InvalidInput, match=fragment):
            ExperimentConfig.from_json(obj)


class TestGradientChecks:
    def make_instance(self, seed=0, n=5, d1=4, d2=3, q=2):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d1))
        xt = rng.standard_normal((n, d2))
        enc = EncoderPair(g1=0.5 * rng.standard_normal((q, d1)),
                          g2=0.5 * rng.standard_normal((q, d2)))
        return enc, (x, xt)

    @pytest.mark.parametrize("name", sorted(GRADCHECK_SPECS))
    def test_analytic_gradient_matches_central_differences(self, name):
        enc, data = self.make_instance()
        assert gradient_residual(GRADCHECK_SPECS[name], enc, data) < 1e-9

    def test_residual_is_relative_disagreement(self):
        enc, data = self.make_instance(seed=3)
        spec = GRADCHECK_SPECS["clip"]
        a1, a2 = loss_gradient(spec, enc, data)
        f1, f2 = finite_difference_gradient(spec, enc, data)
        want = max(np.linalg.norm(a1 - f1) / np.linalg.norm(f1),
                   np.linalg.norm(a2 - f2) / np.linalg.norm(f2))
        assert gradient_residual(spec, enc, data) == pytest.approx(want, rel=1e-9)

    def test_finite_differences_shrink_with_step(self):
        enc, data = self.make_instance(seed=1)
        spec = GRADCHECK_SPECS["infonce"]
        coarse = gradient_residual(spec, enc, data, h=1e-3)
        fine = gradient_residual(spec, enc, data, h=1e-5)
        assert fine < coarse


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rows_without_wall_time(path):
    rows = read_csv_rows(path)
    wt = rows[0].index("wall_time")
    return [[c for i, c in enumerate(row) if i != wt] for row in rows]


class TestRunExperiment:
    def test_gradcheck_sweep_outputs_and_rerun_determinism(self, tmp_path):
        cfg = ExperimentConfig.from_json(VALID_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        rows = run_experiment(cfg, out_dir=str(out_a))
        assert len(rows) == 16
        assert all(row.metrics["residual"] < 1e-9 for row in rows)
        assert all(row.flags == "" for row in rows)
        assert sorted(os.listdir(out_a)) == ["manifest.json", "results.csv", "summary.csv"]

        manifest = json.loads((out_a / "manifest.json").read_text())
        assert set(manifest) == {"experiment", "version", "config_hash",
                                 "inputs_blob_sha1", "rows"}
        assert manifest["experiment"] == "gradcheck"
        assert manifest["rows"] == 16
        assert manifest["version"] == mmcl.__version__
        assert manifest["config_hash"] == storage.config_hash(cfg.canonical())
        assert manifest["inputs_blob_sha1"] == storage.blob_sha1(
            storage.canonical_json(cfg.canonical()).encode("utf-8"))

        run_experiment(cfg, out_dir=str(out_b))
        assert rows_without_wall_time(out_a / "results.csv") == \
            rows_without_wall_time(out_b / "results.csv")
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_results_header_layout(self, tmp_path):
        cfg = ExperimentConfig.from_json(dict(VALID_CONFIG, seeds=[0],
                                              sweep={"n_grid": [4]},
                                              options={"losses": ["linear"]}))
        run_experiment(cfg, out_dir=str(tmp_path))
        rows = read_csv_rows(tmp_path / "results.csv")
        assert rows[0] == ["experiment", "n", "loss", "seed"] + \
            list(METRIC_NAMES) + ["flags"]
        assert len(rows) == 2
        assert rows[1][0] == "gradcheck"

    def test_distortion_sweep_separates_clean_from_corrupted(self, tmp_path):
        cfg = ExperimentConfig.from_json({
            "experiment": "distortion",
            "model": {"d1": 8, "d2": 7, "r": 2, "snr": 2.0},
            "seeds": [0, 1, 2],
            "sweep": {"n_grid": [400], "p_grid": [0.0, 0.6]},
            "options": {"rho": 1.0},
        })
        rows = run_experiment(cfg, out_dir=str(tmp_path))
        assert len(rows) == 6
        clean = [r.metrics["sin_theta_g1"] for r in rows if r.params["p"] == 0.0]
        noisy = [r.metrics["sin_theta_g1"] for r in rows if r.params["p"] == 0.6]
        assert max(clean) < 0.20
        assert min(noisy) > 0.20
        bounds = {r.params["p"]: r.metrics["bound_value"] for r in rows}
        want = min(math.sqrt(2), bounds[0.0] / 0.4)
        assert bounds[0.6] == pytest.approx(want, rel=1e-9)

    def test_noiseless_model_recovers_exactly_at_any_distortion(self, tmp_path):
        cfg = ExperimentConfig.from_json({
            "experiment": "distortion",
            "model": {"d1": 8, "d2": 7, "r": 2},
            "seeds": [0],
            "sweep": {"n_grid": [60], "p_grid": [0.0, 0.5]},
            "options": {},
        })
        rows = run_experiment(cfg, out_dir=str(tmp_path))
        for row in rows:
            assert row.metrics["sin_theta_g1"] < 1e-8
            assert row.metrics["sin_theta_g2"] < 1e-8

    def test_output_directory_required(self):
        cfg = ExperimentConfig.from_json(VALID_CONFIG)
        with pytest.raises(InvalidInput):
            run_experiment(cfg)

    def test_bad_sweep_names_the_field(self, tmp_path):
        cfg = ExperimentConfig.from_json(dict(VALID_CONFIG, sweep={"n_grid": []}))
        with pytest.raises(InvalidInput, match="sweep.n_grid"):
            run_experiment(cfg, out_dir=str(tmp_path))

    @pytest.mark.parametrize("experiment,sweep,options,field", [
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"restarts": "x"}, "restarts"),
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"restarts": 0}, "restarts"),
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"k_true": 1}, "k_true"),
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"n_per_cluster": 2.5},
         "n_per_cluster"),
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"n_test_per_cluster": True},
         "n_test_per_cluster"),
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"fit_rank": "2"}, "fit_rank"),
        ("unpaired", {"n_grid": [4], "ratio_grid": [1]}, {"init": "bogus"}, "init"),
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"rho": "x"}, "rho"),
        ("bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]}, {"within_scale": -0.1},
         "within_scale"),
        ("distortion", {"n_grid": [4], "p_grid": [0.0]}, {"rho": True}, "rho"),
        ("distortion", {"n_grid": [4], "p_grid": [0.0]}, {"rho": 0}, "rho"),
        ("unpaired", {"n_grid": [4], "ratio_grid": [1]}, {"nu": 0.5}, "nu"),
        ("unpaired", {"n_grid": [4], "ratio_grid": [1]}, {"tau": math.nan}, "tau"),
        ("unpaired", {"n_grid": [4], "ratio_grid": [1]}, {"tau": "fast"}, "tau"),
        ("unpaired", {"n_grid": [4], "ratio_grid": [1]}, {"tau_scale": [1.0]}, "tau_scale"),
        ("gradcheck", {"n_grid": [4]}, {"h": math.inf}, "h"),
        ("gradcheck", {"n_grid": [4]}, {"enc_rank": 2.0}, "enc_rank"),
        ("gradcheck", {"n_grid": [4]}, {"losses": [["linear"]]}, "losses"),
        ("gradcheck", {"n_grid": [4]}, {"losses": []}, "losses"),
        ("sscl-compare", {"n_grid": [4]}, {"p": 1.5}, "p"),
        ("sscl-compare", {"n_grid": [4]}, {"p": None}, "p"),
        ("sscl-compare", {"n_grid": [4]}, {"k_draws": "10"}, "k_draws"),
        ("sscl-compare", {"n_grid": [4]}, {"noise_spikes": -1}, "noise_spikes"),
        ("sscl-compare", {"n_grid": [4]}, {"noise_spike_scale": -math.inf},
         "noise_spike_scale"),
        ("unpaired", {"n_grid": [4], "ratio_grid": [1]}, {"tau": 0.5, "tau_scale": 2.0}, "tau"),
    ])
    def test_bad_option_rejected_before_any_trial(self, tmp_path, experiment, sweep,
                                                  options, field):
        cfg = ExperimentConfig.from_json(dict(
            VALID_CONFIG, experiment=experiment, sweep=sweep, options=options))
        out = tmp_path / "exp"
        with pytest.raises(InvalidInput, match=f"options.{field}"):
            run_experiment(cfg, out_dir=str(out))
        assert not out.exists()


    SWEEPS = {"distortion": {"n_grid": [4], "p_grid": [0.0]},
              "unpaired": {"n_grid": [4], "ratio_grid": [1]},
              "bsgmp": {"k_grid": [2], "p_prime_grid": [0.0]},
              "gradcheck": {"n_grid": [4]},
              "sscl-compare": {"n_grid": [4]}}

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("section,key", [("options", "restart"), ("sweep", "n_grids")])
    def test_unknown_key_rejected_before_any_trial(self, tmp_path, experiment, section, key):
        obj = dict(VALID_CONFIG, experiment=experiment, sweep=self.SWEEPS[experiment],
                   options={})
        obj[section] = dict(obj[section], **{key: 1})
        out = tmp_path / "exp"
        with pytest.raises(InvalidInput, match=rf"{section}: unknown fields \['{key}'\]"):
            run_experiment(ExperimentConfig.from_json(obj), out_dir=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("experiment,sweep,field", [
        ("distortion", {"n_grid": [4, True], "p_grid": [0.0]}, "n_grid"),
        ("distortion", {"n_grid": [4], "p_grid": [0.0, math.nan]}, "p_grid"),
        ("unpaired", {"n_grid": [4], "ratio_grid": [True]}, "ratio_grid"),
        ("bsgmp", {"k_grid": [2, "x"], "p_prime_grid": [0.0]}, "k_grid"),
        ("bsgmp", {"k_grid": ["none"], "p_prime_grid": 0.5}, "p_prime_grid"),
    ])
    def test_bad_sweep_item_rejected_before_any_trial(self, tmp_path, experiment, sweep, field):
        obj = dict(VALID_CONFIG, experiment=experiment, sweep=sweep, options={})
        out = tmp_path / "exp"
        with pytest.raises(InvalidInput, match=f"sweep.{field}"):
            run_experiment(ExperimentConfig.from_json(obj), out_dir=str(out))
        assert not out.exists()

    def test_duplicate_gradcheck_losses_rejected(self, tmp_path):
        obj = dict(VALID_CONFIG, options={"losses": ["clip", "clip"]})
        with pytest.raises(InvalidInput, match="options.losses"):
            run_experiment(ExperimentConfig.from_json(obj), out_dir=str(tmp_path / "exp"))


class TestWriteResultsAndSummarize:
    def make_rows(self):
        return [
            MetricRow("distortion", {"n": 50, "seed": 0},
                      {"sin_theta_g1": 0.4, "wall_time": 1.0}),
            MetricRow("distortion", {"n": 50, "seed": 1},
                      {"sin_theta_g1": 0.2, "wall_time": 2.0}),
            MetricRow("distortion", {"n": 100, "seed": 0},
                      {"sin_theta_g1": 0.1, "wall_time": 3.0}, flags="x"),
        ]

    def test_results_csv_layout(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(str(path), self.make_rows())
        rows = read_csv_rows(path)
        assert rows[0] == ["experiment", "n", "seed"] + list(METRIC_NAMES) + ["flags"]
        assert rows[1][:4] == ["distortion", "50", "0", "0.4"]
        assert rows[1][4:10] == [""] * 6
        assert rows[1][10] == "1.0"
        assert rows[3][-1] == "x"

    def test_summary_groups_by_sweep_point_pooling_seeds(self):
        header, table = summarize(self.make_rows())
        assert header[0] == "n"
        assert header[-1] == "count"
        assert "wall_time_median" not in header
        assert "sin_theta_g1_median" in header
        assert len(table) == 2
        med = header.index("sin_theta_g1_median")
        iqr = header.index("sin_theta_g1_iqr")
        first, second = table
        assert first[0] == 50
        assert first[med] == pytest.approx(0.3)
        assert first[iqr] == pytest.approx(0.1)
        assert first[-1] == 2
        assert second[0] == 100
        assert second[med] == pytest.approx(0.1)
        assert second[-1] == 1

    def test_summary_leaves_absent_metrics_blank(self):
        header, table = summarize(self.make_rows())
        med = header.index("downstream_accuracy_median")
        assert table[0][med] is None
