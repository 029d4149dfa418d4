"""Loss family: specs, similarity, weight tables, contrast matrix, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmcl import losses
from mmcl.errors import InvalidInput, NonFinite
from mmcl.losses import ContrastiveWeights, EncoderPair, LossSpec


def random_instance(seed, n=5, d1=4, d2=3, r=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d1))
    xt = rng.standard_normal((n, d2))
    enc = EncoderPair(g1=rng.standard_normal((r, d1)), g2=rng.standard_normal((r, d2)))
    return x, xt, enc


def phi_fn(spec):
    if spec.phi == "identity":
        return lambda a: a
    if spec.phi == "log":
        return lambda a: spec.tau * np.log(a)
    return lambda a: spec.tau * np.log1p(a)


def psi_fn(spec):
    if spec.psi == "identity":
        return lambda s: s
    return lambda s: np.exp(s / spec.tau)


def loss_by_loops(spec, enc, x, xt):
    """Literal double-loop evaluation of the loss definition."""
    n = x.shape[0]
    sims = (x @ enc.g1.T) @ (enc.g2 @ xt.T)
    cn = losses.c_n_value(spec.cn, n)
    phi, psi = phi_fn(spec), psi_fn(spec)
    total = 0.0
    for i in range(n):
        agg = 0.0
        for j in range(n):
            w = spec.epsilon if j == i else 1.0
            agg += w * psi(sims[i, j] - spec.nu * sims[i, i])
        total += phi(agg)
    for j in range(n):
        agg = 0.0
        for i in range(n):
            w = spec.epsilon if i == j else 1.0
            agg += w * psi(sims[i, j] - spec.nu * sims[j, j])
        total += phi(agg)
    ridge = 0.5 * spec.rho * np.sum((enc.g1.T @ enc.g2) ** 2)
    return total / (2.0 * cn) + ridge


def all_transform_specs(nu=1.0):
    """One spec per phi x psi x epsilon in {0, 0.5, 1}."""
    return [LossSpec(phi=phi, psi=psi, epsilon=eps, nu=nu, tau=0.7, cn="n", rho=0.5)
            for phi in losses.PHI_NAMES for psi in losses.PSI_NAMES
            for eps in (0.0, 0.5, 1.0)]


def positive_instance(seed, n=5, d=3):
    """Unit-norm paired rows scored by g1 = I, g2 = -I.

    Every shifted similarity s_ij - s_ii = 1 - <x_i, x_j> is positive off
    the diagonal and zero on it (nu = 1), so every aggregate of the
    identity-psi losses stays inside the domain of log and log1p.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x, x.copy(), EncoderPair(g1=np.eye(d), g2=-np.eye(d))


def central_differences(spec, enc, data, h=1e-6):
    """Central-difference gradients of loss_value in g1 and g2."""
    out = []
    for which in ("g1", "g2"):
        mat = getattr(enc, which)
        fd = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            bump = np.zeros_like(mat)
            bump[idx] = h
            plus = EncoderPair(
                g1=enc.g1 + (bump if which == "g1" else 0.0),
                g2=enc.g2 + (bump if which == "g2" else 0.0))
            minus = EncoderPair(
                g1=enc.g1 - (bump if which == "g1" else 0.0),
                g2=enc.g2 - (bump if which == "g2" else 0.0))
            fd[idx] = (losses.loss_value(spec, plus, data)
                       - losses.loss_value(spec, minus, data)) / (2.0 * h)
        out.append(fd)
    return out


def two_softmax_table(sims, tau):
    """Dense average of the row softmax and the column softmax of sims / tau."""
    a = sims / tau
    rows = np.exp(a - a.max(axis=1, keepdims=True))
    rows /= rows.sum(axis=1, keepdims=True)
    cols = np.exp(a - a.max(axis=0, keepdims=True))
    cols /= cols.sum(axis=0, keepdims=True)
    return (rows + cols) / 2.0


class TestLossSpec:
    def test_presets(self):
        lin = LossSpec.linear()
        assert (lin.phi, lin.psi, lin.cn, lin.epsilon, lin.nu) == (
            "identity", "identity", "n(n-1)", 1.0, 1.0)
        clip = LossSpec.clip(tau=0.5, nu=2.0)
        assert (clip.phi, clip.psi, clip.cn, clip.epsilon) == ("log", "exp", "n", 1.0)
        nce = LossSpec.infonce(tau=0.5)
        assert nce.epsilon == 0.0 and nce.phi == "log"
        assert LossSpec.infonce(tau=0.5, smoothed=True).phi == "log1p"

    def test_validation(self):
        with pytest.raises(InvalidInput):
            LossSpec(phi="square")
        with pytest.raises(InvalidInput):
            LossSpec(psi="softmax")
        with pytest.raises(InvalidInput):
            LossSpec(cn="n^2")
        with pytest.raises(InvalidInput):
            LossSpec(epsilon=1.5)
        with pytest.raises(InvalidInput):
            LossSpec(nu=0.5)
        with pytest.raises(InvalidInput):
            LossSpec(tau=0.0)
        with pytest.raises(InvalidInput):
            LossSpec(rho=0.0)
        with pytest.raises(InvalidInput):
            LossSpec(rho=-1.0)
        for name in ("epsilon", "nu", "tau", "rho"):
            for bad in (np.inf, -np.inf, np.nan, "1.0"):
                with pytest.raises(InvalidInput, match=f"^{name} must be a finite number"):
                    LossSpec(**{name: bad})

    def test_json_roundtrip(self):
        spec = LossSpec.clip(tau=0.25, rho=2.0, nu=2.0)
        assert LossSpec(**spec.to_json()) == spec


class TestNormalizerAndSchedule:
    def test_c_n_value(self):
        assert losses.c_n_value("n(n-1)", 6) == 30.0
        assert losses.c_n_value("n", 6) == 6.0
        with pytest.raises(InvalidInput):
            losses.c_n_value("n", 1)
        with pytest.raises(InvalidInput):
            losses.c_n_value("n^2", 6)

    def test_schedule_tau_formula(self):
        val = losses.schedule_tau(64, 400)
        assert val == pytest.approx(0.5 * np.sqrt(64.0 / np.log(400.0)), abs=1e-12)
        assert losses.schedule_tau(64, 400, scale=3.0) == pytest.approx(3.0 * val)
        with pytest.raises(InvalidInput):
            losses.schedule_tau(0, 400)
        with pytest.raises(InvalidInput):
            losses.schedule_tau(4, 1)


class TestEncoderPair:
    def test_product_and_rank(self):
        enc = EncoderPair(g1=np.ones((2, 4)), g2=np.ones((2, 3)))
        assert enc.r == 2
        assert enc.product.shape == (4, 3)
        assert np.allclose(enc.product, 2.0 * np.ones((4, 3)))

    def test_rejects_mismatched_output_dims(self):
        with pytest.raises(InvalidInput):
            EncoderPair(g1=np.ones((2, 4)), g2=np.ones((3, 4)))


class TestSimilarityMatrix:
    def test_identity_encoders_give_gram(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        xt = np.array([[1.0, 1.0], [0.0, 1.0]])
        enc = EncoderPair(g1=np.eye(2), g2=np.eye(2))
        assert np.allclose(losses.similarity_matrix(enc, x, xt), x @ xt.T)

    def test_zero_encoders_give_zero(self):
        x, xt, _ = random_instance(0)
        enc = EncoderPair(g1=np.zeros((2, 4)), g2=np.zeros((2, 3)))
        assert np.all(losses.similarity_matrix(enc, x, xt) == 0.0)

    def test_matches_elementwise_loop(self):
        x, xt, enc = random_instance(1)
        sims = losses.similarity_matrix(enc, x, xt)
        for i in range(5):
            for j in range(5):
                direct = float((enc.g1 @ x[i]) @ (enc.g2 @ xt[j]))
                assert sims[i, j] == pytest.approx(direct, abs=1e-12)


class TestLossValue:
    def test_loop_oracle_linear(self):
        x, xt, enc = random_instance(2)
        spec = LossSpec.linear(rho=0.7)
        assert losses.loss_value(spec, enc, (x, xt)) == pytest.approx(
            loss_by_loops(spec, enc, x, xt), abs=1e-12)

    def test_loop_oracle_softmax_family(self):
        x, xt, enc = random_instance(3)
        for spec in (LossSpec.clip(tau=0.7, nu=2.0, rho=0.5),
                     LossSpec.infonce(tau=0.4, nu=1.5),
                     LossSpec.infonce(tau=0.4, smoothed=True)):
            assert losses.loss_value(spec, enc, (x, xt)) == pytest.approx(
                loss_by_loops(spec, enc, x, xt), abs=1e-12)
        # Every phi x psi x epsilon: exp-psi losses on generic data at
        # nu = 1.5, and all of them where the aggregates stay positive.
        for spec in all_transform_specs(nu=1.5):
            if spec.psi == "exp":
                assert losses.loss_value(spec, enc, (x, xt)) == pytest.approx(
                    loss_by_loops(spec, enc, x, xt), rel=1e-12, abs=1e-12)
        px, pxt, penc = positive_instance(3)
        for spec in all_transform_specs():
            expected = loss_by_loops(spec, penc, px, pxt)
            assert np.isfinite(expected)
            assert losses.loss_value(spec, penc, (px, pxt)) == pytest.approx(
                expected, rel=1e-12, abs=1e-12)

    def test_out_of_domain_values_are_not_finite(self):
        # g2 = +I flips positive_instance: every identity-psi aggregate is
        # negative, below -1 here, so log and log1p leave their domain.
        x, xt, enc = positive_instance(17, n=8)
        flipped = EncoderPair(g1=enc.g1, g2=-enc.g2)
        for spec in all_transform_specs():
            if spec.psi == "identity" and spec.phi != "identity":
                assert np.isnan(losses.loss_value(spec, flipped, (x, xt)))
        # All-zero data: every identity-psi aggregate is exactly 0.
        zero = (np.zeros((4, 3)), np.zeros((4, 3)))
        for spec in all_transform_specs():
            value = losses.loss_value(spec, enc, zero)
            if spec.psi == "identity" and spec.phi == "log":
                assert value == -np.inf
            else:
                assert np.isfinite(value)
        # An exp-psi aggregate that overflows makes the identity-phi loss inf.
        big = (100.0 * np.eye(3), 100.0 * np.eye(3))
        for eps in (0.0, 0.5, 1.0):
            spec = LossSpec(phi="identity", psi="exp", epsilon=eps, nu=1.0, tau=0.01)
            neg = EncoderPair(g1=np.eye(3), g2=-np.eye(3))
            assert losses.loss_value(spec, neg, big) == np.inf

    def test_zero_data_closed_form(self):
        # All-zero data: every aggregate is (n - 1 + eps) * psi(0).
        enc = EncoderPair(g1=np.zeros((2, 3)), g2=np.zeros((2, 3)))
        data = (np.zeros((4, 3)), np.zeros((4, 3)))
        assert losses.loss_value(LossSpec.linear(), enc, data) == 0.0
        clip = LossSpec.clip(tau=0.5)
        assert losses.loss_value(clip, enc, data) == pytest.approx(
            0.5 * np.log(4.0), abs=1e-12)
        nce = LossSpec.infonce(tau=0.5, nu=2.0)
        assert losses.loss_value(nce, enc, data) == pytest.approx(
            0.5 * np.log(3.0), abs=1e-12)
        smooth = LossSpec.infonce(tau=0.5, smoothed=True)
        assert losses.loss_value(smooth, enc, data) == pytest.approx(
            0.5 * np.log1p(3.0), abs=1e-12)

    def test_clip_matches_log_softmax_form(self):
        # nu=1 CLIP equals the negative diagonal log-softmax, averaged
        # over rows and columns, which is the textbook pairing objective.
        x, xt, enc = random_instance(4, n=6)
        tau = 0.6
        spec = LossSpec.clip(tau=tau, rho=1.0)
        sims = losses.similarity_matrix(enc, x, xt)
        a = sims / tau

        def log_softmax_diag(mat):
            shifted = mat - mat.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1)) + mat.max(axis=1)
            return np.diag(mat) - lse

        row = -tau * log_softmax_diag(a)
        col = -tau * log_softmax_diag(a.T)
        ridge = 0.5 * spec.rho * np.sum(enc.product ** 2)
        expected = (row.sum() + col.sum()) / (2.0 * 6.0) + ridge
        assert losses.loss_value(spec, enc, (x, xt)) == pytest.approx(
            expected, abs=1e-12)

    def test_large_similarities_stay_finite(self):
        # Similarity magnitudes near 1e4 at tau = 0.01 overflow a naive
        # exp; the evaluator must shift before exponentiating.
        rng = np.random.default_rng(5)
        x = 100.0 * rng.standard_normal((5, 3))
        xt = 100.0 * rng.standard_normal((5, 3))
        enc = EncoderPair(g1=np.eye(3), g2=np.eye(3))
        spec = LossSpec.clip(tau=0.01, nu=2.0)
        val = losses.loss_value(spec, enc, (x, xt))
        g1d, g2d = losses.loss_gradient(spec, enc, (x, xt))
        assert np.isfinite(val)
        assert np.all(np.isfinite(g1d)) and np.all(np.isfinite(g2d))

    def test_accepts_dataset_objects(self):
        from mmcl import datagen
        model = datagen.random_model(4, 3, 2, seed=0)
        ds = datagen.sample_paired(model, 6, 0.0, seed=0)
        enc = EncoderPair(g1=np.zeros((2, 4)), g2=np.zeros((2, 3)))
        direct = losses.loss_value(LossSpec.linear(), enc, (ds.x, ds.xt))
        assert losses.loss_value(LossSpec.linear(), enc, ds) == direct


class TestComputeWeights:
    def test_linear_tables(self):
        x, xt, enc = random_instance(6, n=5)
        sims = losses.similarity_matrix(enc, x, xt)
        w = losses.compute_weights(LossSpec.linear(), sims)
        assert w.mode == "paired"
        assert np.allclose(w.beta_diag, 4.0 * np.ones(5), atol=1e-12)
        expected_off = np.ones((5, 5)) - np.eye(5)
        assert np.allclose(w.beta_off, expected_off, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x, xt, enc = random_instance(7, n=6)
        sims = losses.similarity_matrix(enc, x, xt)
        w = losses.compute_weights(LossSpec.clip(tau=0.5, nu=2.0), sims)
        assert np.allclose(w.alpha.sum(axis=1), np.ones(6), atol=1e-12)

    def test_sharp_temperature_limit(self):
        # Strongly diagonal similarities at tiny tau: the observed pair
        # absorbs all softmax mass, so beta_diag -> nu - 1 and the cross
        # weights vanish.
        sims = 10.0 * np.eye(6)
        for nu in (1.0, 2.0):
            spec = LossSpec.clip(tau=0.01, nu=nu)
            w = losses.compute_weights(spec, sims)
            assert np.allclose(w.beta_diag, (nu - 1.0) * np.ones(6), atol=1e-12)
            assert np.allclose(w.beta_off, np.zeros((6, 6)), atol=1e-12)

    def test_epsilon_zero_diag_weight_is_nu(self):
        # Without the diagonal in the aggregate the self weight is exactly nu.
        x, xt, enc = random_instance(8, n=6)
        sims = losses.similarity_matrix(enc, x, xt)
        for nu in (1.0, 2.0):
            w = losses.compute_weights(LossSpec.infonce(tau=0.4, nu=nu), sims)
            assert np.allclose(w.beta_diag, nu * np.ones(6), atol=1e-12)

    def test_flat_similarities_give_uniform_tables(self):
        sims = np.zeros((6, 6))
        w = losses.compute_weights(LossSpec.clip(tau=0.5, nu=2.0), sims)
        off = w.beta_off[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 1.0 / 6.0, atol=1e-12)
        assert np.allclose(w.beta_diag, (2.0 - 1.0 / 6.0) * np.ones(6), atol=1e-12)
        w = losses.compute_weights(LossSpec.infonce(tau=0.5, nu=2.0), sims)
        off = w.beta_off[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 1.0 / 5.0, atol=1e-12)
        assert np.allclose(w.beta_diag, 2.0 * np.ones(6), atol=1e-12)

    def test_extreme_ratio_tables_stay_finite(self):
        # |s| / tau near 1e4: alpha rows of each anchoring sum to one and
        # the unpaired table matches the shifted dense formula.
        rng = np.random.default_rng(18)
        sims = 10.0 * rng.standard_normal((9, 9))
        for spec in (LossSpec.clip(tau=1e-3, nu=2.0), LossSpec.infonce(tau=1e-3),
                     LossSpec.infonce(tau=1e-3, smoothed=True)):
            w = losses.compute_weights(spec, sims)
            for table in (w.alpha, w.alpha_bar, w.beta_off, w.beta_diag):
                assert np.all(np.isfinite(table))
            if spec.phi == "log":
                assert np.allclose(w.alpha.sum(axis=1), 1.0, atol=1e-12)
                assert np.allclose(w.alpha_bar.sum(axis=1), 1.0, atol=1e-12)
        beta = losses.unpaired_weights(sims[:, :7], 1e-3, 2.0, [[0, 0]]).beta_off
        assert np.all(np.isfinite(beta))
        assert np.allclose(beta, two_softmax_table(sims[:, :7], 1e-3), atol=1e-12)
        assert beta.sum() == pytest.approx((9 + 7) / 2.0, rel=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            losses.compute_weights(LossSpec.linear(), np.zeros((3, 4)))


class TestUnpairedWeights:
    def test_full_support_symmetrized_softmax(self):
        rng = np.random.default_rng(9)
        sims = rng.standard_normal((5, 5))
        edges = np.array([[0, 1], [2, 2]])
        w = losses.unpaired_weights(sims, tau=0.5, nu=2.0, edges=edges)
        assert w.mode == "unpaired"
        assert np.all(w.beta_diag == 0.0)
        assert np.allclose(w.beta_off, two_softmax_table(sims, 0.5), atol=1e-12)
        assert np.array_equal(w.edges, edges)
        assert w.nu == 2.0
        # Several row blocks with a ragged last one, on a non-square table.
        assert 700 > 2 * losses._BLOCK_ROWS and 700 % losses._BLOCK_ROWS
        sims = 3.0 * np.random.default_rng(19).standard_normal((700, 530))
        w = losses.unpaired_weights(sims, tau=0.4, nu=1.5, edges=[[0, 0], [699, 529]])
        assert w.beta_off.shape == (700, 530)
        assert np.abs(w.beta_off - two_softmax_table(sims, 0.4)).max() < 1e-14

    def test_peak_memory_stays_near_output(self):
        # The table is streamed in row blocks: besides the returned table
        # only a few row blocks are ever allocated.
        import tracemalloc
        sims = np.random.default_rng(20).standard_normal((2048, 1500))
        tracemalloc.start()
        try:
            w = losses.unpaired_weights(sims, tau=0.5, nu=1.0, edges=[[0, 0]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * w.beta_off.nbytes

    def test_validation(self):
        sims = np.zeros((4, 4))
        edges = np.array([[0, 0]])
        with pytest.raises(InvalidInput):
            losses.unpaired_weights(sims, tau=0.0, nu=2.0, edges=edges)
        with pytest.raises(InvalidInput):
            losses.unpaired_weights(sims, tau=0.5, nu=0.5, edges=edges)
        with pytest.raises(InvalidInput):
            losses.unpaired_weights(sims, tau=0.5, nu=2.0, edges=np.empty((0, 2)))
        with pytest.raises(InvalidInput):
            losses.unpaired_weights(sims, tau=0.5, nu=2.0, edges=np.array([[0, 7]]))


class TestContrastiveCrossCovariance:
    def test_single_pair_weight(self):
        x, xt, _ = random_instance(10, n=3)
        w = ContrastiveWeights(
            beta_diag=np.array([1.0, 0.0, 0.0]),
            beta_off=np.zeros((3, 3)),
            mode="paired")
        out = losses.contrastive_cross_covariance(w, x, xt, "n")
        assert np.allclose(out, np.outer(x[0], xt[0]) / 3.0, atol=1e-12)

    def test_paired_loop_oracle(self):
        x, xt, enc = random_instance(11, n=5)
        spec = LossSpec.clip(tau=0.6, nu=2.0)
        sims = losses.similarity_matrix(enc, x, xt)
        w = losses.compute_weights(spec, sims)
        out = losses.contrastive_cross_covariance(w, x, xt, spec.cn)
        expected = np.zeros((4, 3))
        for i in range(5):
            expected += w.beta_diag[i] * np.outer(x[i], xt[i])
            for j in range(5):
                expected -= w.beta_off[i, j] * np.outer(x[i], xt[j])
        expected /= 5.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_unpaired_loop_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3))
        xt = rng.standard_normal((4, 2))
        sims = rng.standard_normal((4, 4))
        edges = np.array([[0, 2], [1, 1], [3, 0]])
        w = losses.unpaired_weights(sims, tau=0.5, nu=2.0, edges=edges)
        out = losses.contrastive_cross_covariance(w, x, xt, "n")
        expected = np.zeros((3, 2))
        for i, j in edges:
            expected += 2.0 * np.outer(x[i], xt[j])
        for i in range(4):
            for j in range(4):
                expected -= w.beta_off[i, j] * np.outer(x[i], xt[j])
        expected /= 4.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_linear_weights_reduce_to_centered_covariance(self):
        # With all-ones tables and the n(n-1) normalizer the contrast is
        # exactly the (n-1)-normalized centered cross-covariance.
        x, xt, enc = random_instance(13, n=7)
        sims = losses.similarity_matrix(enc, x, xt)
        w = losses.compute_weights(LossSpec.linear(), sims)
        out = losses.contrastive_cross_covariance(w, x, xt, "n(n-1)")
        xc = x - x.mean(axis=0)
        xtc = xt - xt.mean(axis=0)
        assert np.allclose(out, xc.T @ xtc / 6.0, atol=1e-12)

    def test_normalizer_validation(self):
        x, xt, _ = random_instance(14, n=3)
        w = ContrastiveWeights(
            beta_diag=np.ones(3), beta_off=np.zeros((3, 3)), mode="paired")
        with pytest.raises(InvalidInput):
            losses.contrastive_cross_covariance(w, x, xt, "n^2")
        bad = ContrastiveWeights(
            beta_diag=np.ones(3), beta_off=np.zeros((3, 3)), mode="sideways")
        with pytest.raises(InvalidInput):
            losses.contrastive_cross_covariance(bad, x, xt, "n")


class TestLossGradient:
    def test_contrast_identity(self):
        # The gradient decomposes through the weighted contrast matrix:
        # dL/dg1 = -g2 S^T + rho (g2 g2^T) g1, and symmetrically for g2.
        for seed, spec in ((0, LossSpec.clip(tau=0.7, nu=2.0, rho=0.8)),
                           (1, LossSpec.linear(rho=0.5)),
                           (2, LossSpec.infonce(tau=0.4, nu=1.5))):
            x, xt, enc = random_instance(seed, n=4)
            g1d, g2d = losses.loss_gradient(spec, enc, (x, xt))
            sims = losses.similarity_matrix(enc, x, xt)
            w = losses.compute_weights(spec, sims)
            s = losses.contrastive_cross_covariance(w, x, xt, spec.cn)
            r1 = g1d + enc.g2 @ s.T - spec.rho * (enc.g2 @ enc.g2.T) @ enc.g1
            r2 = g2d + enc.g1 @ s - spec.rho * (enc.g1 @ enc.g1.T) @ enc.g2
            assert np.abs(r1).max() < 1e-10
            assert np.abs(r2).max() < 1e-10

    def test_zero_data_zero_encoders_zero_gradient(self):
        enc = EncoderPair(g1=np.zeros((2, 3)), g2=np.zeros((2, 4)))
        data = (np.zeros((5, 3)), np.zeros((5, 4)))
        for spec in (LossSpec.linear(), LossSpec.clip(tau=0.5, nu=2.0)):
            g1d, g2d = losses.loss_gradient(spec, enc, data)
            assert np.all(g1d == 0.0)
            assert np.all(g2d == 0.0)

    def test_matches_central_differences(self):
        x, xt, enc = random_instance(15, n=5)
        spec = LossSpec.linear(rho=0.9)
        g1d, g2d = losses.loss_gradient(spec, enc, (x, xt))
        for grad, fd in zip((g1d, g2d), central_differences(spec, enc, (x, xt))):
            assert np.abs(grad - fd).max() < 1e-6
        # Every phi x psi x epsilon: exp-psi losses on generic data at
        # nu = 1.5, and all of them where the aggregates stay positive.
        x, xt, enc = random_instance(21, n=5)
        px, pxt, _ = positive_instance(21, n=5, d=3)
        rng = np.random.default_rng(21)
        penc = EncoderPair(g1=np.eye(3) + 0.05 * rng.standard_normal((3, 3)),
                           g2=-np.eye(3) + 0.05 * rng.standard_normal((3, 3)))
        cases = [(spec, enc, (x, xt)) for spec in all_transform_specs(nu=1.5)
                 if spec.psi == "exp"]
        cases += [(spec, penc, (px, pxt)) for spec in all_transform_specs()]
        for spec, e, data in cases:
            assert np.isfinite(losses.loss_value(spec, e, data))
            grads = losses.loss_gradient(spec, e, data)
            for grad, fd in zip(grads, central_differences(spec, e, data)):
                assert np.abs(grad - fd).max() < 1e-6 * max(1.0, np.abs(fd).max()), spec

    def test_out_of_domain_gradients_raise(self):
        x, xt, enc = positive_instance(17, n=8)
        flipped = EncoderPair(g1=enc.g1, g2=-enc.g2)
        zero = (np.zeros((4, 3)), np.zeros((4, 3)))
        for spec in all_transform_specs():
            if spec.psi == "identity" and spec.phi != "identity":
                with pytest.raises(NonFinite):
                    losses.loss_gradient(spec, flipped, (x, xt))
            if spec.psi == "identity" and spec.phi == "log":
                with pytest.raises(NonFinite):
                    losses.loss_gradient(spec, enc, zero)
            else:
                grads = losses.loss_gradient(spec, enc, zero)
                assert all(np.all(np.isfinite(g)) for g in grads)
        # An overflowing identity-phi aggregate gives a non-finite
        # gradient rather than an error; the solvers reject it.
        big = (100.0 * np.eye(3), 100.0 * np.eye(3))
        spec = LossSpec(phi="identity", psi="exp", epsilon=1.0, nu=1.0, tau=0.01)
        with np.errstate(over="ignore", invalid="ignore"):
            grads = losses.loss_gradient(spec, EncoderPair(g1=np.eye(3), g2=-np.eye(3)), big)
        assert not all(np.all(np.isfinite(g)) for g in grads)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_gradient_residual_property(seed):
    rng = np.random.default_rng(seed)
    specs = [LossSpec.linear(rho=float(rng.uniform(0.2, 2.0))),
             LossSpec.clip(tau=float(rng.uniform(0.3, 1.5)),
                           nu=float(rng.uniform(1.0, 2.0))),
             LossSpec.infonce(tau=float(rng.uniform(0.3, 1.5)), smoothed=True)]
    spec = specs[int(rng.integers(3))]
    x, xt, enc = random_instance(seed + 1, n=4, d1=3, d2=3, r=2)
    from mmcl.harness import gradient_residual
    assert gradient_residual(spec, enc, (x, xt), h=1e-5) < 1e-5
