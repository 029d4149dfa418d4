"""Bipartite spectral partitioning: embedding, k-means, edge cleaning."""

import numpy as np
import pytest

from mmcl import bsgmp, datagen, linalg
from mmcl.bsgmp import BipartiteGraph
from mmcl.errors import InvalidInput, InvalidK

from conftest import adjusted_rand_index


def biclique_union(sizes_left, sizes_right):
    """Disjoint complete bipartite blocks; returns (graph, labels_l, labels_r)."""
    edges = []
    labels_l, labels_r = [], []
    i0 = j0 = 0
    for c, (a, b) in enumerate(zip(sizes_left, sizes_right)):
        for i in range(i0, i0 + a):
            for j in range(j0, j0 + b):
                edges.append((i, j))
        labels_l += [c] * a
        labels_r += [c] * b
        i0 += a
        j0 += b
    g = BipartiteGraph(n_left=i0, n_right=j0, edges=np.array(edges))
    return g, np.array(labels_l), np.array(labels_r)


def cluster_model():
    return datagen.random_model(60, 60, 4, snr=1.0, seed=0)


class TestBipartiteGraph:
    def test_basic_properties(self):
        g = BipartiteGraph(n_left=3, n_right=2, edges=np.array([[0, 0], [2, 1]]))
        assert g.m == 2
        a = g.adjacency()
        assert a.shape == (3, 2)
        assert a[0, 0] == 1.0 and a[2, 1] == 1.0 and a.sum() == 2.0
        dl, dr = g.degrees()
        assert np.array_equal(dl, [1.0, 0.0, 1.0])
        assert np.array_equal(dr, [1.0, 1.0])

    def test_weights(self):
        g = BipartiteGraph(n_left=2, n_right=2, edges=np.array([[0, 1]]),
                           weights=np.array([2.5]))
        assert g.adjacency()[0, 1] == 2.5

    def test_degrees_match_adjacency_sums(self):
        rng = np.random.default_rng(5)
        edges = np.argwhere(rng.random((40, 30)) < 0.3)
        g = BipartiteGraph(n_left=41, n_right=30, edges=edges)
        a = g.adjacency()
        dl, dr = g.degrees()
        assert dl.dtype == dr.dtype == np.float64
        assert np.array_equal(dl, a.sum(axis=1)) and np.array_equal(dr, a.sum(axis=0))
        gw = BipartiteGraph(n_left=41, n_right=30, edges=edges,
                            weights=rng.uniform(0.0, 3.0, edges.shape[0]))
        aw = gw.adjacency()
        dl, dr = gw.degrees()
        assert np.allclose(dl, aw.sum(axis=1), rtol=1e-14, atol=0.0)
        assert np.allclose(dr, aw.sum(axis=0), rtol=1e-14, atol=0.0)
        assert dl[40] == 0.0

    def test_validation(self):
        with pytest.raises(InvalidInput):
            BipartiteGraph(n_left=0, n_right=2, edges=np.empty((0, 2)))
        with pytest.raises(InvalidInput):
            BipartiteGraph(n_left=2, n_right=2, edges=np.array([[0, 2]]))
        with pytest.raises(InvalidInput):
            BipartiteGraph(n_left=2, n_right=2, edges=np.array([[-1, 0]]))
        with pytest.raises(InvalidInput):
            BipartiteGraph(n_left=2, n_right=2, edges=np.array([[0, 1], [0, 1]]))
        with pytest.raises(InvalidInput):
            BipartiteGraph(n_left=2, n_right=2, edges=np.array([[0, 1]]),
                           weights=np.array([-1.0]))
        with pytest.raises(InvalidInput):
            BipartiteGraph(n_left=2, n_right=2, edges=np.array([[0, 1]]),
                           weights=np.array([1.0, 2.0]))


    def test_duplicate_hidden_among_many_edges(self):
        rng = np.random.default_rng(47)
        codes = rng.choice(1000 * 1000, size=300_000, replace=False)
        edges = np.stack(np.divmod(codes, 1000), axis=1)
        assert BipartiteGraph(1000, 1000, edges).m == 300_000
        spot = int(rng.integers(0, edges.shape[0]))
        dup = np.insert(edges, spot, edges[int(rng.integers(0, edges.shape[0]))], axis=0)
        with pytest.raises(InvalidInput, match="duplicate"):
            BipartiteGraph(1000, 1000, dup)


class TestNormalizedAdjacency:
    def test_single_edge(self):
        g = BipartiteGraph(n_left=1, n_right=1, edges=np.array([[0, 0]]))
        assert np.array_equal(bsgmp.normalized_adjacency(g), [[1.0]])

    def test_complete_biclique_value(self):
        g, _, _ = biclique_union([2], [3])
        a_n = bsgmp.normalized_adjacency(g)
        assert np.allclose(a_n, np.full((2, 3), 1.0 / np.sqrt(6.0)), atol=1e-12)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(0)
        edges = np.array([(i, j) for i in range(5) for j in range(4)
                          if rng.random() < 0.6])
        g = BipartiteGraph(n_left=5, n_right=4, edges=edges)
        a = g.adjacency()
        dl, dr = g.degrees()
        a_n = bsgmp.normalized_adjacency(g)
        for i in range(5):
            for j in range(4):
                if dl[i] > 0 and dr[j] > 0:
                    expected = a[i, j] / np.sqrt(dl[i] * dr[j])
                else:
                    expected = 0.0
                assert a_n[i, j] == pytest.approx(expected, abs=1e-12)

    def test_isolated_nodes_stay_zero(self):
        g = BipartiteGraph(n_left=3, n_right=3, edges=np.array([[0, 0]]))
        a_n = bsgmp.normalized_adjacency(g)
        assert np.all(a_n[1:] == 0.0)
        assert np.all(a_n[:, 1:] == 0.0)


class TestEmbeddingWidth:
    def test_examples(self):
        assert bsgmp.embedding_width(2) == 1
        assert bsgmp.embedding_width(3) == 2
        assert bsgmp.embedding_width(4) == 2
        assert bsgmp.embedding_width(10) == 4

    def test_validation(self):
        with pytest.raises(InvalidK):
            bsgmp.embedding_width(1)


def unit_embed(a, k):
    """spectral_embed with unit degrees, which leaves the vectors unscaled."""
    return bsgmp.spectral_embed(a, k, np.ones(a.shape[0]), np.ones(a.shape[1]))


class TestSpectralEmbed:
    def test_two_bicliques_separate_by_sign(self):
        g, _, _ = biclique_union([4, 4], [4, 4])
        a_n = bsgmp.normalized_adjacency(g)
        dl, dr = g.degrees()
        z, _ = bsgmp.spectral_embed(a_n, 2, dl, dr)
        assert z.shape == (16, 1)
        z_l, z_r = z[:8], z[8:]
        for z in (z_l, z_r):
            assert np.ptp(z[:4]) < 1e-10
            assert np.ptp(z[4:]) < 1e-10
        assert np.sign(z_l[0, 0]) != np.sign(z_l[4, 0])
        assert np.sign(z_l[0, 0]) == np.sign(z_r[0, 0])
        assert np.sign(z_l[4, 0]) == np.sign(z_r[4, 0])

    def test_width_follows_k(self):
        rng = np.random.default_rng(1)
        a_n = rng.random((40, 40)) * 0.1
        z, info = unit_embed(a_n, 10)
        assert z.shape == (80, 4)
        assert info["l"] == 4
        assert info["singular_values"].shape[0] >= 5

    def test_single_biclique_is_degenerate(self):
        for sizes in (([5], [5]), ([3], [7]), ([7], [3])):
            g, _, _ = biclique_union(*sizes)
            a_n = bsgmp.normalized_adjacency(g)
            _, info = unit_embed(a_n, 2)
            assert info["singular_values"][0] == pytest.approx(1.0, abs=1e-14)
            assert info["degenerate"]

    def test_k_too_large(self):
        with pytest.raises(InvalidK):
            unit_embed(np.eye(3), 8)


def dense_embedding(a, l):
    """Vectors 2 .. l+1 from the full dense SVD, the embedding's oracle."""
    res = linalg.svd(a)
    u, v = bsgmp._canonicalize_top_tie(res.u, res.v, res.s, np.ones(a.shape[0]))
    return res.s, u[:, 1:l + 1], v[:, 1:l + 1]


def with_spectrum(rng, m, n, s):
    """An m x n matrix with the given leading singular values, zero beyond them."""
    u = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    return (u * s) @ v.T


class TestLeadingSingularBlock:
    """spectral_embed computes only the leading singular block; the dense
    SVD of the same matrix is the oracle wherever that block is unique."""

    def check_against_dense(self, a, k):
        l = bsgmp.embedding_width(k)
        z, info = unit_embed(a, k)
        s, u, v = dense_embedding(a, l)
        lead = info["singular_values"]
        assert lead.shape[0] >= l + 1
        assert np.max(np.abs(lead - s[:lead.shape[0]])) <= 1e-13 * s[0]
        nxt = np.append(s, 0.0)
        checked = 0
        for j in range(1, l + 1):
            if min(s[j - 1] - s[j], s[j] - nxt[j + 1]) >= 1e-3 * s[0]:
                assert np.max(np.abs(z[:a.shape[0], j - 1] - u[:, j - 1])) <= 1e-10
                assert np.max(np.abs(z[a.shape[0]:, j - 1] - v[:, j - 1])) <= 1e-10
                checked += 1
        return checked

    @pytest.mark.parametrize("shape", [(30, 50), (50, 30), (40, 40)])
    def test_matches_dense_svd_on_separated_spectra(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        spectrum = [3.0, 2.2, 1.7, 1.1, 0.8, 0.5] + list(rng.uniform(0.0, 0.4, 20))
        a = with_spectrum(rng, *shape, spectrum)
        assert self.check_against_dense(a, 10) == 4

    @pytest.mark.parametrize("shape", [(30, 50), (50, 30), (40, 40)])
    def test_matches_dense_svd_when_rank_deficient(self, shape):
        # Rank 3 with five vectors needed: the null-space vectors are not
        # determined and go unchecked, the rest must agree.
        rng = np.random.default_rng(7 + shape[0])
        a = with_spectrum(rng, *shape, [2.0, 1.0, 0.5])
        assert self.check_against_dense(a, 10) == 2
        _, info = unit_embed(a, 10)
        assert np.all(info["singular_values"][3:] <= 1e-13 * 2.0)

    @pytest.mark.parametrize("shape", [(300, 200), (200, 300), (250, 250)])
    def test_matches_dense_svd_on_random_graphs(self, shape):
        rng = np.random.default_rng(shape[0])
        mask = rng.random(shape) < 0.05
        g = BipartiteGraph(n_left=shape[0], n_right=shape[1],
                           edges=np.argwhere(mask), weights=rng.uniform(0.5, 2.0, mask.sum()))
        assert self.check_against_dense(bsgmp.normalized_adjacency(g), 10) >= 2

    def test_tie_run_longer_than_block(self):
        # Eight components tie sigma_1 eight ways while k = 4 needs three
        # vectors: the whole run is kept and rotated onto the Perron
        # direction, which leaves vectors 2 and 3 constant on each component
        # and orthogonal to that direction.
        g, labels_l, labels_r = biclique_union([3, 4, 2, 5, 3, 2, 4, 3], [2, 3, 4, 2, 5, 3, 2, 4])
        z, info = unit_embed(bsgmp.normalized_adjacency(g), 4)
        assert info["singular_values"].shape[0] == 8
        assert np.allclose(info["singular_values"], 1.0, rtol=0.0, atol=1e-13)
        assert not info["degenerate"]
        z_l, z_r = z[:g.n_left], z[g.n_left:]
        for c in range(8):
            assert np.max(np.ptp(z_l[labels_l == c], axis=0)) < 1e-12
            assert np.max(np.ptp(z_r[labels_r == c], axis=0)) < 1e-12
        assert np.allclose(z_l.T @ z_l, np.eye(2), rtol=0.0, atol=1e-12)
        assert np.max(np.abs(z_l.sum(axis=0))) < 1e-12

    def test_isolated_nodes_embed_at_zero(self):
        rng = np.random.default_rng(11)
        mask = rng.random((120, 90)) < 0.08
        mask[[3, 50, 119]] = False
        mask[:, [0, 44]] = False
        g = BipartiteGraph(n_left=120, n_right=90, edges=np.argwhere(mask))
        a_n = bsgmp.normalized_adjacency(g)
        assert self.check_against_dense(a_n, 10) >= 2
        dl, dr = g.degrees()
        z, _ = bsgmp.spectral_embed(a_n, 10, dl, dr)
        isolated = np.concatenate([dl, dr]) == 0.0
        assert isolated.sum() >= 5
        assert np.all(z[isolated] == 0.0)
        assert np.all(np.any(z[~isolated] != 0.0, axis=1))


def reference_kmeans(points, k, seed, restarts, max_iter=100, tol=1e-12):
    """Plain unweighted k-means++ with Lloyd iterations, the loop kmeans
    reduces to on input without duplicate points: (labels, centers,
    inertia, best_restart, iterations) of the best restart."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    best = None
    for rs in range(restarts):
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[int(rng.integers(n))]
        d2 = np.sum((points - centers[0]) ** 2, axis=1)
        for c in range(1, k):
            total = d2.sum()
            idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
            centers[c] = points[idx]
            d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
        labels, own = bsgmp._assign(points, centers)
        iters = max_iter
        for it in range(max_iter):
            sums = np.zeros_like(centers)
            np.add.at(sums, labels, points)
            counts = np.bincount(labels, minlength=k).astype(np.float64)
            new_centers = centers.copy()
            nonempty = counts > 0
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            reseed_own = own.copy()
            for cid in np.nonzero(~nonempty)[0]:
                far = int(np.argmax(reseed_own))
                new_centers[cid] = points[far]
                reseed_own[far] = -1.0
            shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
            centers = new_centers
            labels, own = bsgmp._assign(points, centers)
            if shift <= tol:
                iters = it + 1
                break
        inertia = float(own.sum())
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia, rs, iters)
    return best


class TestKmeans:
    def test_exact_atoms(self):
        # Duplicated points collapse onto three atoms; k-means must place
        # one center on each and report zero inertia.
        atoms = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        points = np.repeat(atoms, [5, 7, 3], axis=0)
        res = bsgmp.kmeans(points, 3, seed=0, restarts=5)
        assert res.inertia == pytest.approx(0.0, abs=1e-24)
        labels = res.labels
        assert len({labels[0], labels[5], labels[12]}) == 3
        assert np.ptp(labels[:5]) == 0
        assert np.ptp(labels[5:12]) == 0
        assert np.ptp(labels[12:]) == 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((30, 3))
        a = bsgmp.kmeans(points, 4, seed=9, restarts=6)
        b = bsgmp.kmeans(points.copy(), 4, seed=9, restarts=6)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia
        assert a.best_restart == b.best_restart

    def test_separated_blobs(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        truth = np.repeat(np.arange(3), 20)
        points = centers[truth] + 0.1 * rng.standard_normal((60, 2))
        res = bsgmp.kmeans(points, 3, seed=0, restarts=8)
        assert adjusted_rand_index(res.labels, truth) == 1.0

    def test_matches_unweighted_reference_without_duplicates(self):
        # Unit weights and first-occurrence order make the one weighted
        # path draw and compute exactly what plain k-means++ does.
        for t in range(120):
            rng = np.random.default_rng([61, t])
            n = int(rng.integers(5, 60))
            k = int(rng.integers(1, min(n, 7) + 1))
            points = rng.standard_normal((n, int(rng.integers(1, 5)))) * rng.uniform(0.01, 50)
            if t % 4 == 0:
                points[: n // 2] += 5.0  # two separated groups
            restarts = int(rng.integers(1, 5))
            labels, centers, inertia, best_restart, iters = reference_kmeans(
                points, k, [t, 3], restarts)
            res = bsgmp.kmeans(points, k, seed=[t, 3], restarts=restarts)
            assert np.array_equal(res.labels, labels)
            assert np.array_equal(res.centers, centers)
            assert res.inertia == inertia
            assert res.best_restart == best_restart
            assert res.iterations == iters

    def test_duplicates_share_a_label_and_count_in_the_inertia(self):
        for t in range(40):
            rng = np.random.default_rng([67, t])
            atoms = rng.standard_normal((int(rng.integers(3, 15)), 3))
            group = rng.integers(0, atoms.shape[0], size=int(rng.integers(20, 60)))
            points = atoms[group]
            k = int(rng.integers(1, min(np.unique(group).size, 5) + 1))
            res = bsgmp.kmeans(points, k, seed=t, restarts=3)
            for g in np.unique(group):
                assert np.ptp(res.labels[group == g]) == 0
            expanded = np.sum((points - res.centers[res.labels]) ** 2)
            assert res.inertia == pytest.approx(expanded, rel=1e-9, abs=1e-12)

    def test_validation(self):
        points = np.zeros((4, 2))
        with pytest.raises(InvalidK):
            bsgmp.kmeans(points, 5)
        with pytest.raises(InvalidK):
            bsgmp.kmeans(points, 0)
        with pytest.raises(InvalidInput):
            bsgmp.kmeans(points, 2, restarts=0)


class TestPartition:
    def test_clean_graph_drops_nothing_and_recovers_labels(self):
        # Uncorrupted planted graphs: the partition must keep every edge
        # and reproduce the planted clusters exactly, on every seed.
        model = cluster_model()
        for seed in range(20):
            lb = datagen.sample_labeled_bipartite(
                model, 20, 4, 0.0, seed=(3, seed), within_scale=0.3)
            g = BipartiteGraph(n_left=80, n_right=80, edges=lb.edges)
            part = bsgmp.partition(g, 4, seed=seed, restarts=10)
            assert part.dropped_edges.shape[0] == 0
            assert part.kept_edges.shape[0] == lb.edges.shape[0]
            assert adjusted_rand_index(part.labels_left, lb.labels_x) == 1.0
            assert adjusted_rand_index(part.labels_right, lb.labels_xt) == 1.0

    def test_clean_graph_idempotent_at_ten_clusters(self):
        model = cluster_model()
        for seed in range(20):
            lb = datagen.sample_labeled_bipartite(
                model, 50, 10, 0.0, seed=(3, seed), within_scale=0.3)
            g = BipartiteGraph(n_left=500, n_right=500, edges=lb.edges)
            part = bsgmp.partition(g, 10, seed=seed, restarts=10)
            assert part.dropped_edges.shape[0] == 0

    def test_noise_edges_dropped_true_edges_mostly_kept(self):
        # At 30% corruption the cleaner removes nearly all inter-cluster
        # edges; the price is roughly a fifth-to-a-third of true edges,
        # bounded by the 4-column embedding of 10 clusters.
        model = cluster_model()
        stats = {5: {"inter": [], "true": []}, 10: {"inter": [], "true": []}}
        for seed in range(20):
            lb = datagen.sample_labeled_bipartite(
                model, 50, 10, 0.3, seed=(17, seed, 300000), within_scale=0.3)
            same = lb.labels_x[lb.edges[:, 0]] == lb.labels_xt[lb.edges[:, 1]]
            g = BipartiteGraph(n_left=500, n_right=500, edges=lb.edges)
            for k in (5, 10):
                part = bsgmp.partition(g, k, seed=(23, seed, 300000, k), restarts=10)
                dropped = set(map(tuple, part.dropped_edges.tolist()))
                is_dropped = np.array(
                    [tuple(e) in dropped for e in lb.edges.tolist()])
                stats[k]["inter"].append(float(is_dropped[~same].mean()))
                stats[k]["true"].append(float(is_dropped[same].mean()))
        assert np.median(stats[10]["inter"]) >= 0.90
        assert np.median(stats[10]["true"]) <= 0.35
        assert np.max(stats[10]["true"]) <= 0.40
        # Under-clustering (k=5 on 10 planted clusters) weakens noise
        # removal: it drops strictly fewer inter-cluster edges.
        assert np.median(stats[5]["inter"]) < np.median(stats[10]["inter"])
        wins = sum(a > b for a, b in zip(stats[10]["inter"], stats[5]["inter"]))
        assert wins >= 18

    def test_kept_edges_connect_same_cluster(self):
        model = cluster_model()
        lb = datagen.sample_labeled_bipartite(
            model, 20, 4, 0.25, seed=(3, 2), within_scale=0.3)
        g = BipartiteGraph(n_left=80, n_right=80, edges=lb.edges)
        part = bsgmp.partition(g, 4, seed=5, restarts=10)
        kept = part.kept_edges
        assert np.all(part.labels_left[kept[:, 0]] == part.labels_right[kept[:, 1]])
        dropped = part.dropped_edges
        assert np.all(part.labels_left[dropped[:, 0]] != part.labels_right[dropped[:, 1]])
        assert kept.shape[0] + dropped.shape[0] == lb.edges.shape[0]

    def test_deterministic(self):
        model = cluster_model()
        lb = datagen.sample_labeled_bipartite(
            model, 20, 4, 0.2, seed=(3, 3), within_scale=0.3)
        g = BipartiteGraph(n_left=80, n_right=80, edges=lb.edges)
        a = bsgmp.partition(g, 4, seed=11, restarts=10)
        b = bsgmp.partition(g, 4, seed=11, restarts=10)
        assert np.array_equal(a.labels_left, b.labels_left)
        assert np.array_equal(a.kept_edges, b.kept_edges)
        assert a.inertia == b.inertia

    def test_exact_equivariance_on_clean_graphs(self):
        # Relabeling nodes of an uncorrupted graph permutes the partition
        # and nothing else.
        model = cluster_model()
        for seed in range(10):
            lb = datagen.sample_labeled_bipartite(
                model, 20, 4, 0.0, seed=(3, seed), within_scale=0.3)
            g = BipartiteGraph(n_left=80, n_right=80, edges=lb.edges)
            part = bsgmp.partition(g, 4, seed=7, restarts=10)
            rng = np.random.default_rng(100 + seed)
            pl, pr = rng.permutation(80), rng.permutation(80)
            g2 = BipartiteGraph(
                n_left=80, n_right=80,
                edges=np.stack([pl[lb.edges[:, 0]], pr[lb.edges[:, 1]]], axis=1))
            part2 = bsgmp.partition(g2, 4, seed=7, restarts=10)
            assert adjusted_rand_index(part.labels_left, part2.labels_left[pl]) == 1.0
            assert adjusted_rand_index(part.labels_right, part2.labels_right[pr]) == 1.0
            assert part2.dropped_edges.shape[0] == 0

    def test_near_equivariance_on_noisy_graphs(self):
        # With corrupted edges, node relabeling can flip a handful of
        # boundary points; the partition must still essentially agree.
        model = cluster_model()
        for seed in range(5):
            lb = datagen.sample_labeled_bipartite(
                model, 20, 4, 0.2, seed=(3, seed), within_scale=0.3)
            g = BipartiteGraph(n_left=80, n_right=80, edges=lb.edges)
            part = bsgmp.partition(g, 4, seed=7, restarts=10)
            rng = np.random.default_rng(200 + seed)
            pl, pr = rng.permutation(80), rng.permutation(80)
            g2 = BipartiteGraph(
                n_left=80, n_right=80,
                edges=np.stack([pl[lb.edges[:, 0]], pr[lb.edges[:, 1]]], axis=1))
            part2 = bsgmp.partition(g2, 4, seed=7, restarts=10)
            ari = adjusted_rand_index(part.labels_left, part2.labels_left[pl])
            inv_l, inv_r = np.argsort(pl), np.argsort(pr)
            k1 = set(map(tuple, part.kept_edges.tolist()))
            k2 = {(int(inv_l[i]), int(inv_r[j])) for i, j in part2.kept_edges}
            jaccard = len(k1 & k2) / max(len(k1 | k2), 1)
            assert ari >= 0.85
            assert jaccard >= 0.85

    def test_validation(self):
        g, _, _ = biclique_union([3, 3], [3, 3])
        with pytest.raises(InvalidK):
            bsgmp.partition(g, 1)
        with pytest.raises(InvalidK):
            bsgmp.partition(g, 40)

    def test_report_fields(self):
        g, _, _ = biclique_union([4, 4], [4, 4])
        part = bsgmp.partition(g, 2, seed=0, restarts=3)
        assert part.k == 2
        assert part.l == 1
        assert part.best_restart in range(3)
        assert not part.degenerate
