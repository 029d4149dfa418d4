"""Synthetic data generation: shared-latent pairs, pools, labeled graphs."""

import dataclasses
import re

import numpy as np
import pytest

from mmcl import datagen
from mmcl.errors import InvalidInput, InvalidProbability, InvalidRank


class TestRandomModel:
    def test_shapes_and_orthonormality(self):
        m = datagen.random_model(6, 5, 3, seed=0)
        assert m.d1 == 6 and m.d2 == 5 and m.r == 3
        assert np.allclose(m.u1_star.T @ m.u1_star, np.eye(3), atol=1e-12)
        assert np.allclose(m.u2_star.T @ m.u2_star, np.eye(3), atol=1e-12)

    def test_flat_latent_spectrum_by_default(self):
        m = datagen.random_model(6, 5, 3, seed=0)
        assert np.array_equal(m.sigma_z, np.ones(3))
        assert np.array_equal(m.sigma_zt, np.ones(3))

    def test_decay_profile(self):
        m = datagen.random_model(6, 5, 3, decay=0.5, seed=0)
        assert np.allclose(m.sigma_z, [1.0, 0.5, 0.25], atol=1e-15)
        assert m.sigma_z[0] == 1.0

    def test_snr_sets_noise_variance(self):
        m = datagen.random_model(4, 3, 2, snr=2.0, seed=0)
        assert np.allclose(m.sigma_xi, 0.25 * np.eye(4), atol=1e-15)
        assert np.allclose(m.sigma_xit, 0.25 * np.eye(3), atol=1e-15)

    def test_infinite_snr_is_noiseless(self):
        m = datagen.random_model(4, 3, 2, seed=0)
        assert np.all(m.sigma_xi == 0.0)
        assert m.noise_effective_ranks() == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(InvalidRank):
            datagen.random_model(4, 3, 4)
        with pytest.raises(InvalidInput):
            datagen.random_model(4, 3, 2, snr=0.0)
        with pytest.raises(InvalidInput):
            datagen.random_model(4, 3, 2, decay=0.0)
        with pytest.raises(InvalidInput):
            datagen.random_model(4, 3, 2, decay=1.5)
        with pytest.raises(InvalidInput):
            datagen.random_model(4, 3, 2, family="laplace")


class TestModelParamsChecks:
    BASE = datagen.random_model(6, 5, 3, snr=2.0, decay=0.5, seed=0)

    @pytest.mark.parametrize("name,value,error,fragment", [
        ("u1_star", np.zeros((6, 0)), InvalidRank, "latent dimension must be at least 1"),
        ("u2_star", np.eye(5)[:, :2], InvalidInput, "u2_star must have shape (5, 3)"),
        ("u1_star", 2.0 * np.eye(6)[:, :3], InvalidInput, "u1_star must have orthonormal columns"),
        ("sigma_z", np.ones(2), InvalidInput, "sigma_z must be a length-3 vector"),
        ("sigma_zt", np.array([1.0, 0.5, 0.0]), InvalidInput, "sigma_zt entries must be positive"),
        ("sigma_z", np.array([1.0, 0.5, 0.7]), InvalidInput, "sigma_z entries must be nonincreasing"),
        ("sigma_zt", np.array([0.9, 0.5, 0.2]), InvalidInput, "sigma_zt must have operator norm 1"),
        ("sigma_xi", np.eye(5), InvalidInput, "sigma_xi must have shape (6, 6)"),
        ("sigma_xit", np.triu(np.ones((5, 5))), InvalidInput, "sigma_xit must be symmetric"),
    ])
    def test_rejects(self, name, value, error, fragment):
        with pytest.raises(error, match=re.escape(fragment)):
            dataclasses.replace(self.BASE, **{name: value})

    def test_a_valid_change_passes(self):
        assert dataclasses.replace(self.BASE, family="uniform").r == 3


class TestDrawCoordinates:
    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
    def test_unit_variance(self, family):
        rng = np.random.default_rng(0)
        sample = datagen.draw_coordinates(rng, (10_000, 4), family)
        assert sample.shape == (10_000, 4)
        assert 0.9 <= float(sample.var()) <= 1.1
        assert abs(float(sample.mean())) < 0.05

    def test_rademacher_support(self):
        rng = np.random.default_rng(1)
        sample = datagen.draw_coordinates(rng, (100,), "rademacher")
        assert set(np.unique(sample)) == {-1.0, 1.0}

    def test_uniform_support(self):
        rng = np.random.default_rng(2)
        sample = datagen.draw_coordinates(rng, (1000,), "uniform")
        assert np.all(np.abs(sample) <= np.sqrt(3.0) + 1e-12)


class TestSamplePaired:
    def test_zero_distortion(self):
        m = datagen.random_model(5, 4, 2, seed=0)
        ds = datagen.sample_paired(m, 8, 0.0, seed=1)
        diag = np.stack([np.arange(8), np.arange(8)], axis=1)
        assert np.array_equal(ds.observed_edges, diag)
        assert np.array_equal(ds.truth_edges, diag)
        assert ds.distortion == 0.0
        assert ds.meta["kind"] == "paired"

    def test_full_distortion_is_a_derangement(self):
        m = datagen.random_model(5, 4, 2, seed=0)
        ds = datagen.sample_paired(m, 50, 1.0, seed=2)
        assert ds.distortion == 1.0
        assert np.array_equal(ds.truth_edges[:, 0], np.arange(50))
        partners = ds.truth_edges[:, 1]
        assert np.array_equal(np.sort(partners), np.arange(50))
        assert not np.any(partners == np.arange(50))

    def test_broken_count_is_rounded(self):
        m = datagen.random_model(5, 4, 2, seed=0)
        ds = datagen.sample_paired(m, 10, 0.3, seed=3)
        fixed = np.sum(ds.truth_edges[:, 0] == ds.truth_edges[:, 1])
        assert fixed == 7
        assert ds.distortion == pytest.approx(0.3)

    def test_single_leftover_folds_back(self):
        # One broken index admits no derangement, so it stays genuine.
        m = datagen.random_model(5, 4, 2, seed=0)
        ds = datagen.sample_paired(m, 10, 0.1, seed=4)
        assert ds.distortion == 0.0
        assert np.array_equal(ds.truth_edges[:, 0], ds.truth_edges[:, 1])

    def test_truth_pairs_share_latents(self):
        m = datagen.random_model(7, 6, 3, seed=1)
        ds = datagen.sample_paired(m, 40, 0.4, seed=5)
        z = ds.x @ m.u1_star
        zt = ds.xt @ m.u2_star
        i, j = ds.truth_edges[:, 0], ds.truth_edges[:, 1]
        assert np.allclose(z[i], zt[j], atol=1e-12)

    def test_observed_broken_pairs_are_decorrelated(self):
        m = datagen.random_model(8, 8, 2, seed=3)
        ds = datagen.sample_paired(m, 10_000, 1.0, seed=8)
        z = ds.x @ m.u1_star
        zt = ds.xt @ m.u2_star
        for c in range(2):
            corr = np.corrcoef(z[:, c], zt[:, c])[0, 1]
            assert abs(corr) < 0.05

    def test_matched_pair_moment_concentrates(self):
        # Empirical E[z zt^T] over genuine pairs vs its population value,
        # within 5 sqrt(r / m) in operator norm on every seed.
        m = datagen.random_model(20, 18, 3, decay=0.8, seed=1)
        expected = np.diag(np.sqrt(m.sigma_z * m.sigma_zt))
        worst = 0.0
        for seed in range(20):
            ds = datagen.sample_paired(m, 300, 0.2, seed=seed)
            matched = ds.truth_edges[ds.truth_edges[:, 0] == ds.truth_edges[:, 1], 0]
            z = ds.x[matched] @ m.u1_star
            zt = ds.xt[matched] @ m.u2_star
            emp = z.T @ zt / matched.shape[0]
            err = np.linalg.norm(emp - expected, 2)
            worst = max(worst, err)
            assert err < 5.0 * np.sqrt(3.0 / matched.shape[0])
        assert worst < 0.30

    def test_reproducible(self):
        m = datagen.random_model(5, 4, 2, snr=1.0, seed=0)
        a = datagen.sample_paired(m, 20, 0.25, seed=7)
        b = datagen.sample_paired(m, 20, 0.25, seed=7)
        c = datagen.sample_paired(m, 20, 0.25, seed=8)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.xt, b.xt)
        assert np.array_equal(a.truth_edges, b.truth_edges)
        assert not np.array_equal(a.x, c.x)

    def test_validation(self):
        m = datagen.random_model(5, 4, 2, seed=0)
        with pytest.raises(InvalidInput):
            datagen.sample_paired(m, 1, 0.0)
        with pytest.raises(InvalidProbability):
            datagen.sample_paired(m, 10, -0.1)
        with pytest.raises(InvalidProbability):
            datagen.sample_paired(m, 10, 1.2)


class TestSampleUnpaired:
    def test_no_observed_edges(self):
        m = datagen.random_model(5, 4, 2, seed=0)
        ds = datagen.sample_unpaired(m, 12, seed=0)
        assert ds.observed_edges.shape == (0, 2)
        assert ds.distortion == 1.0
        assert ds.meta["kind"] == "unpaired"

    def test_truth_is_a_permutation_sharing_latents(self):
        m = datagen.random_model(5, 4, 2, seed=0)
        ds = datagen.sample_unpaired(m, 30, seed=1)
        assert np.array_equal(np.sort(ds.truth_edges[:, 1]), np.arange(30))
        z = ds.x @ m.u1_star
        zt = ds.xt @ m.u2_star
        i, j = ds.truth_edges[:, 0], ds.truth_edges[:, 1]
        assert np.allclose(z[i], zt[j], atol=1e-12)

    def test_minimum_pool_of_two(self):
        m = datagen.random_model(4, 3, 1, seed=2)
        ds = datagen.sample_unpaired(m, 2, seed=4)
        assert ds.n == 2
        with pytest.raises(InvalidInput):
            datagen.sample_unpaired(m, 1)


class TestSampleLabeledBipartite:
    def test_clean_graph_is_union_of_bicliques(self):
        m = datagen.random_model(6, 6, 2, seed=0)
        lb = datagen.sample_labeled_bipartite(m, 5, 3, 0.0, seed=0)
        assert lb.n_left == 15 and lb.n_right == 15
        assert lb.edges.shape[0] == 3 * 5 * 5
        assert np.all(lb.labels_x[lb.edges[:, 0]] == lb.labels_xt[lb.edges[:, 1]])
        assert np.array_equal(lb.labels_x, np.repeat(np.arange(3), 5))

    def test_edge_count_matches_corruption_rate(self):
        # k=10 clusters of 50: expected edges = (1-p') k n^2 + p' k(k-1) n^2.
        m = datagen.random_model(6, 6, 2, seed=0)
        counts = []
        for seed in range(50):
            lb = datagen.sample_labeled_bipartite(m, 50, 10, 0.3, seed=(5, seed))
            counts.append(lb.edges.shape[0])
        expected = 0.7 * 10 * 50**2 + 0.3 * 90 * 50**2
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) <= 3.0 * se

    def test_within_scale_zero_collapses_clusters(self):
        m = datagen.random_model(6, 6, 2, seed=0)
        lb = datagen.sample_labeled_bipartite(m, 4, 2, 0.0, seed=1, within_scale=0.0)
        for c in range(2):
            rows = lb.x[lb.labels_x == c]
            assert np.allclose(rows, rows[0], atol=1e-12)

    def test_centers_can_be_reused(self):
        m = datagen.random_model(6, 6, 2, seed=0)
        train = datagen.sample_labeled_bipartite(m, 4, 3, 0.1, seed=2)
        test = datagen.sample_labeled_bipartite(
            m, 6, 3, 0.0, seed=3, centers=train.centers)
        assert np.array_equal(train.centers, test.centers)
        with pytest.raises(InvalidInput):
            datagen.sample_labeled_bipartite(m, 4, 3, 0.1, centers=np.zeros((2, 2)))

    def test_validation(self):
        m = datagen.random_model(6, 6, 2, seed=0)
        with pytest.raises(InvalidInput):
            datagen.sample_labeled_bipartite(m, 4, 1, 0.0)
        with pytest.raises(InvalidInput):
            datagen.sample_labeled_bipartite(m, 0, 3, 0.0)
        with pytest.raises(InvalidProbability):
            datagen.sample_labeled_bipartite(m, 4, 3, 1.5)

    @pytest.mark.parametrize("p_prime", [0.0, 0.3, 1.0])
    def test_edge_draw_matches_dense_formula(self, monkeypatch, p_prime):
        # 150 nodes span two full row blocks and a ragged one. The dense formula
        # draws one (150, 150) table from the same generator state.
        assert 150 % datagen._EDGE_BLOCK_ROWS
        states = []

        class Recording(np.random.Generator):
            def random(self, size=None):
                states.append(self.bit_generator.state)
                return super().random(size)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Recording(np.random.PCG64(seed)))
        m = datagen.random_model(6, 6, 2, seed=0)
        lb = datagen.sample_labeled_bipartite(m, 30, 5, p_prime, seed=8)
        monkeypatch.undo()
        assert len(states) == 3
        assert np.array_equal(lb.x, datagen.sample_labeled_bipartite(m, 30, 5, p_prime, seed=8).x)
        rng = np.random.default_rng()
        rng.bit_generator.state = states[0]
        same = lb.labels_x[:, None] == lb.labels_xt[None, :]
        present = rng.random((150, 150)) < np.where(same, 1.0 - p_prime, p_prime)
        assert lb.edges.dtype == np.int64
        assert np.array_equal(lb.edges, np.stack(np.nonzero(present), axis=1))

    def test_reproducible(self):
        m = datagen.random_model(6, 6, 2, seed=0)
        a = datagen.sample_labeled_bipartite(m, 4, 3, 0.2, seed=9)
        b = datagen.sample_labeled_bipartite(m, 4, 3, 0.2, seed=9)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.edges, b.edges)
