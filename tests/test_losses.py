"""Loss family: specs, similarity, weight tables, contrast matrix, gradients."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmcl import losses
from mmcl.errors import InvalidInput, NonFinite
from mmcl.losses import ContrastiveWeights, EncoderPair, LossSpec

from conftest import count_calls


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

    def test_table_is_rebuilt_on_each_access(self):
        sims = np.random.default_rng(22).standard_normal((130, 90))
        w = losses.unpaired_weights(sims, tau=0.5, nu=2.0, edges=[[0, 0]])
        first = w.beta_off
        first[:] = 0.0
        again = w.beta_off
        assert again is not first
        assert np.abs(again - two_softmax_table(sims, 0.5)).max() < 1e-14

    @pytest.mark.parametrize("where,value", [
        ((699, 3), np.nan),      # only in the ragged last block
        ((640, 529), np.nan),    # first row of the ragged last block
        ((5, 17), -np.inf),      # a lone -inf leaves every column max finite
        ((300, 0), np.inf),
    ])
    def test_non_finite_entry_rejected(self, where, value):
        sims = np.random.default_rng(23).standard_normal((700, 530))
        sims[where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="non-finite"):
                losses.unpaired_weights(sims, tau=0.5, nu=1.0, edges=[[0, 0]])

    def test_non_finite_tau_or_nu_rejected(self):
        sims = np.random.default_rng(24).standard_normal((6, 6))
        for tau, nu in ((np.inf, 2.0), (np.nan, 2.0), (-np.inf, 2.0),
                        (0.5, np.inf), (0.5, np.nan)):
            with pytest.raises(InvalidInput):
                losses.unpaired_weights(sims, tau=tau, nu=nu, edges=[[0, 0]])

    @pytest.mark.parametrize("tau", [1e-320, 5e-324, 1e-308])
    def test_overflowing_ratio_raises_non_finite_naming_tau(self, tau):
        # sims / tau overflows somewhere: a numerical error that names tau,
        # and no numpy warning on the way.
        sims = 3.0 * np.random.default_rng(25).standard_normal((200, 150))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="tau"):
                losses.unpaired_weights(sims, tau=tau, nu=2.0, edges=[[0, 0]])

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
            beta_off=np.zeros((3, 3)))
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

    @pytest.mark.parametrize("n,m,nu", [(70, 45, 1.0), (70, 45, 2.0), (130, 64, 2.0),
                                        (64, 130, 1.0), (65, 3, 2.0)])
    def test_streamed_unpaired_loop_oracle(self, n, m, nu):
        # Ragged last blocks (of one row at n = 65), non-square pools, and a
        # pool of exactly one block.
        rng = np.random.default_rng(n * m)
        x = rng.standard_normal((n, 3))
        xt = rng.standard_normal((m, 2))
        sims = 2.0 * rng.standard_normal((n, m))
        edges = np.stack([rng.integers(0, n, 9), rng.integers(0, m, 9)], axis=1)
        w = losses.unpaired_weights(sims, tau=0.6, nu=nu, edges=edges)
        out = losses.contrastive_cross_covariance(w, x, xt, "n(n-1)")
        beta = two_softmax_table(sims, 0.6)
        expected = np.zeros((3, 2))
        for i, j in edges:
            expected += nu * np.outer(x[i], xt[j])
        for i in range(n):
            for j in range(m):
                expected -= beta[i, j] * np.outer(x[i], xt[j])
        expected /= n * (n - 1.0)
        assert np.abs(out - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_streamed_unpaired_matches_dense_product(self, nu):
        # The parent route, x.T @ (beta @ xt) on the dense table, to 1e-14
        # relative: 700 rows span ten full blocks and a ragged one.
        rng = np.random.default_rng(26)
        x = rng.standard_normal((700, 12))
        xt = rng.standard_normal((530, 9))
        sims = 3.0 * rng.standard_normal((700, 530))
        edges = np.stack([np.arange(530), np.arange(530)], axis=1)
        w = losses.unpaired_weights(sims, tau=0.4, nu=nu, edges=edges)
        out = losses.contrastive_cross_covariance(w, x, xt, "n")
        pair_term = x[edges[:, 0]].T @ xt[edges[:, 1]]
        dense = (nu * pair_term - x.T @ (w.beta_off @ xt)) / 700.0
        assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_streamed_unpaired_never_builds_the_table(self, monkeypatch):
        # Neither the shape check nor the contrast touches beta_off.
        rng = np.random.default_rng(27)
        x, xt = rng.standard_normal((90, 3)), rng.standard_normal((90, 2))
        w = losses.unpaired_weights(rng.standard_normal((90, 90)), 0.5, 2.0, [[0, 1]])
        monkeypatch.setattr(losses.UnpairedWeights, "beta_off",
                            property(lambda self: pytest.fail("dense table built")))
        assert losses.contrastive_cross_covariance(w, x, xt, "n").shape == (3, 2)
        with pytest.raises(InvalidInput, match="does not match"):
            losses.contrastive_cross_covariance(w, x[:80], xt, "n")
        with pytest.raises(InvalidInput, match="does not match"):
            losses.contrastive_cross_covariance(w, x, xt[:80], "n")

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
        w = ContrastiveWeights(beta_diag=np.ones(3), beta_off=np.zeros((3, 3)))
        with pytest.raises(InvalidInput):
            losses.contrastive_cross_covariance(w, x, xt, "n^2")


def pool_instance(seed, n=700, m=530, d1=12, d2=9, scale=3.0):
    """x, xt, a pool sims with n > 2 blocks and a ragged last one, and edges."""
    rng = np.random.default_rng(seed)
    x, xt = rng.standard_normal((n, d1)), rng.standard_normal((m, d2))
    sims = scale * rng.standard_normal((n, m))
    edges = np.stack([rng.integers(0, n, 40), rng.integers(0, m, 40)], axis=1)
    return x, xt, sims, edges


def dense_contrast(x, xt, sims, tau, nu, edges, cn):
    """The unpaired contrast from the dense two_softmax_table oracle."""
    pair_term = x[edges[:, 0]].T @ xt[edges[:, 1]]
    return (nu * pair_term - x.T @ (two_softmax_table(sims, tau) @ xt)) / cn


def exp_entries(monkeypatch):
    """Wrap np.exp; return the list of the sizes of the arrays it is given."""
    sizes = []
    original = np.exp

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    return sizes


class TestSharedPoolExponential:
    """The unpaired contrast takes one exp(sims / tau - c) per pool entry, or two
    per entry, shifted per row and per column, when the pool is too spread."""

    @pytest.mark.parametrize("n,m", [(700, 530), (65, 3)])
    def test_fallback_route_matches_dense_oracle(self, monkeypatch, n, m):
        x, xt, sims, edges = pool_instance(n + m + 1, n=n, m=m)
        w = losses.unpaired_weights(sims, tau=0.4, nu=2.0, edges=edges)
        monkeypatch.setattr(losses, "_SHARED_RANGE", -np.inf)
        out = losses.contrastive_cross_covariance(w, x, xt, "n")
        dense = dense_contrast(x, xt, sims, 0.4, 2.0, edges, float(n))
        assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("n,m", [(700, 530), (530, 700), (65, 3)])
    def test_shared_route_matches_dense_oracle(self, n, m):
        assert n % losses._BLOCK_ROWS
        x, xt, sims, edges = pool_instance(n + m, n=n, m=m)
        w = losses.unpaired_weights(sims, tau=0.4, nu=1.5, edges=edges)
        out = losses.contrastive_cross_covariance(w, x, xt, "n(n-1)")
        dense = dense_contrast(x, xt, sims, 0.4, 1.5, edges, n * (n - 1.0))
        assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("route,per_entry", [("shared", 1), ("fallback", 2)])
    def test_exponential_count(self, monkeypatch, route, per_entry):
        # Neither route builds the dense table; only the contrast exponentiates.
        x, xt, sims, edges = pool_instance(52)
        if route == "fallback":
            monkeypatch.setattr(losses, "_SHARED_RANGE", -np.inf)
        monkeypatch.setattr(losses.UnpairedWeights, "beta_off",
                            property(lambda self: pytest.fail("dense table built")))
        sizes = exp_entries(monkeypatch)
        w = losses.unpaired_weights(sims, tau=0.4, nu=2.0, edges=edges)
        assert sizes == []
        assert losses.contrastive_cross_covariance(w, x, xt, "n").shape == (12, 9)
        assert sum(sizes) == per_entry * sims.size

    def test_far_row_takes_the_exact_route(self, monkeypatch):
        # Row 0 scaled by 1e3 sets c near 1.5e4; every other row's maximum of
        # sims / tau lies far more than _SHARED_RANGE below it.
        x, xt, sims, edges = pool_instance(51, n=150, m=120, scale=2.0)
        sims[0] *= 1e3
        self.check_exact_route(monkeypatch, x, xt, sims, edges)

    def test_far_column_takes_the_exact_route(self, monkeypatch):
        # Column 0 lowered by 1e3: every row maximum stays near c, but column
        # 0's maximum of sims / tau lies far more than _SHARED_RANGE below it.
        x, xt, sims, edges = pool_instance(54, n=150, m=120, scale=2.0)
        sims[:, 0] -= 1e3
        self.check_exact_route(monkeypatch, x, xt, sims, edges)

    @staticmethod
    def check_exact_route(monkeypatch, x, xt, sims, edges):
        dense = dense_contrast(x, xt, sims, 0.5, 2.0, edges, 150.0)
        sizes = exp_entries(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = losses.unpaired_weights(sims, tau=0.5, nu=2.0, edges=edges)
            out = losses.contrastive_cross_covariance(w, x, xt, "n")
        assert sum(sizes) == 2 * sims.size
        assert np.all(np.isfinite(out))
        assert np.abs(out - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_peak_memory_holds_no_pool_sized_table(self):
        # Weights plus contrast allocate a few row blocks and O(n d) arrays,
        # never an n x m temporary beside sims.
        import tracemalloc
        x, xt, sims, edges = pool_instance(53, n=2048, m=1500, d1=8, d2=8)
        tracemalloc.start()
        try:
            w = losses.unpaired_weights(sims, tau=0.5, nu=2.0, edges=edges)
            losses.contrastive_cross_covariance(w, x, xt, "n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sims.nbytes / 4


def factored_pool(seed, n, m, r=5, ties=False):
    """A PoolSimilarity of random factors and its dense table; integer factors
    with ties=True, so rows and columns repeat their maxima."""
    rng = np.random.default_rng(seed)
    if ties:
        a, bt = (rng.integers(-2, 3, size).astype(np.float64) for size in ((n, 2), (2, m)))
    else:
        a, bt = rng.standard_normal((n, r)), rng.standard_normal((r, m))
    src = losses.PoolSimilarity(a, bt)
    return src, src.dense()


class TestPoolSimilarity:
    """A factored pool gives the results of its dense table bit for bit."""

    # square and non-square, no side a multiple of the 64-row block (or of 32)
    SHAPES = [(131, 131), (97, 200), (200, 97), (65, 3)]

    # SHAPES at rank 5, a one-row last block (n % 64 == 1), and a shape at which
    # one gemm over all rows would round unlike the row blocks
    @pytest.mark.parametrize("n,m,r", [pytest.param(n, m, 5, id=f"{n}-{m}") for n, m in SHAPES]
                             + [(129, 129, 10), (65, 8, 10), (193, 40, 10), (500, 500, 10)])
    def test_blocks_are_the_rows_of_the_whole_product(self, n, m, r):
        # similarity_matrix, dense() and the stacked blocks() agree bit for bit.
        rng = np.random.default_rng(n * m + r)
        x, xt = rng.standard_normal((n, 7)), rng.standard_normal((m, 6))
        enc = EncoderPair(g1=rng.standard_normal((r, 7)), g2=rng.standard_normal((r, 6)))
        src = losses.PoolSimilarity.encode(enc, x, xt)
        sims = losses.similarity_matrix(enc, x, xt)
        assert np.array_equal(sims, src.dense())
        assert np.array_equal(sims, np.concatenate([b for _, b in src.blocks()]))
        assert len(src) == n and src.shape == (n, m)
        assert not hasattr(src, "ndim")  # never counted as a stored table

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_extrema_match_numpy(self, n, m, ties):
        src, dense = factored_pool(n + m, n, m, ties=ties)
        row_best, row_max, row_min, col_max, col_best = src.extrema
        assert np.array_equal(row_best, np.argmax(dense, axis=1))
        assert np.array_equal(row_max, np.max(dense, axis=1))
        assert np.array_equal(row_min, np.min(dense, axis=1))
        assert np.array_equal(col_max, np.max(dense, axis=0))
        assert np.array_equal(col_best, np.argmax(dense, axis=0))  # first row on ties

    @pytest.mark.parametrize("tau", [0.4, 1e-3])  # the shared and the fallback route
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_weights_and_contrast_match_dense(self, n, m, tau):
        src, dense = factored_pool(3 * n + m, n, m)
        rng = np.random.default_rng(n * m)
        x, xt = rng.standard_normal((n, 4)), rng.standard_normal((m, 3))
        edges = np.stack([rng.integers(0, n, 9), rng.integers(0, m, 9)], axis=1)
        factored = losses.unpaired_weights(src, tau, 2.0, edges)
        stored = losses.unpaired_weights(dense, tau, 2.0, edges)
        assert factored.sims is src
        for field in ("row_max", "col_max", "edges"):
            assert np.array_equal(getattr(factored, field), getattr(stored, field))
        assert np.array_equal(losses.contrastive_cross_covariance(factored, x, xt, "n"),
                              losses.contrastive_cross_covariance(stored, x, xt, "n"))
        assert np.array_equal(factored.beta_off, stored.beta_off)

    def test_encode_factors_similarity_matrix(self):
        x, xt, enc = random_instance(30, n=150)
        src = losses.PoolSimilarity.encode(enc, x, xt)
        sims = losses.similarity_matrix(enc, x, xt)
        assert np.array_equal(src.dense(), sims)
        with pytest.raises(InvalidInput, match="xt contains non-finite"):
            losses.PoolSimilarity.encode(enc, x, np.full_like(xt, np.nan))

    def test_overflowing_product_rejected_without_warning(self):
        # Finite factors whose product overflows in one block: the scan names
        # sims, and neither the rebuild nor the scan warns.
        src, _ = factored_pool(31, 131, 97)
        src.a[100] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="sims contains non-finite"):
                losses.unpaired_weights(src, 0.5, 2.0, [[0, 0]])

    def test_scan_is_shared_and_taken_once(self, monkeypatch):
        src, _ = factored_pool(32, 131, 97)
        built = []
        block = losses.PoolSimilarity.block
        monkeypatch.setattr(losses.PoolSimilarity, "block",
                            lambda self, lo: built.append(lo) or block(self, lo))
        losses.unpaired_weights(src, 0.5, 2.0, [[0, 0]])
        losses.unpaired_weights(src, 0.7, 1.5, [[1, 2]])
        assert built == [0, 64, 128]


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


def dense_oracle(spec, enc, x, xt):
    """Loss value from _anchored's two tables, and the gradient through the beta
    tables of compute_weights and the weighted contrast matrix."""
    sims = losses.similarity_matrix(enc, x, xt)
    (row, _), (col, _) = losses._anchored(spec, sims.copy())
    cn = losses.c_n_value(spec.cn, x.shape[0])
    value = (row.sum() + col.sum()) / (2.0 * cn) + 0.5 * spec.rho * np.sum(enc.product ** 2)
    s = losses.contrastive_cross_covariance(losses.compute_weights(spec, sims), x, xt, spec.cn)
    contrast = (enc.g2 @ s.T, enc.g1 @ s)
    ridge = (spec.rho * (enc.g2 @ enc.g2.T) @ enc.g1, spec.rho * (enc.g1 @ enc.g1.T) @ enc.g2)
    return value, contrast, ridge


def anchored_pass(spec, enc, x, xt):
    """Value and gradient of one pass taken by the anchored route on a fresh sims."""
    sims = losses.similarity_matrix(enc, x, xt)
    cn = losses.c_n_value(spec.cn, x.shape[0])
    row, col, wxt = losses._anchored_route(spec, sims, xt, cn, True)
    ridge = 0.5 * spec.rho * float(np.sum(enc.product ** 2))
    value = float((np.sum(row) + np.sum(col)) / (2.0 * cn) + ridge)
    p = x.T @ wxt
    return value, (enc.g2 @ p.T + spec.rho * (enc.g2 @ enc.g2.T) @ enc.g1,
                   enc.g1 @ p + spec.rho * (enc.g1 @ enc.g1.T) @ enc.g2)


class TestSharedExponential:
    """Softmax losses take both tables from one exp(sims / tau - c)."""

    @pytest.mark.parametrize("phi", ["log", "log1p"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("nu", [1.0, 2.0])
    @pytest.mark.parametrize("cn", ["n", "n(n-1)"])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 2.0])
    def test_matches_dense_oracle(self, monkeypatch, phi, epsilon, nu, cn, tau):
        x, xt, enc = random_instance(7, n=12, d1=5, d2=4, r=3)
        enc = EncoderPair(g1=0.3 * enc.g1, g2=0.3 * enc.g2)
        spec = LossSpec(phi=phi, psi="exp", epsilon=epsilon, nu=nu, tau=tau, cn=cn, rho=0.6)
        value, contrast, ridge = dense_oracle(spec, enc, x, xt)
        calls = count_calls(monkeypatch, losses, "_anchored")
        got = losses.loss_value(spec, enc, (x, xt))
        grads = losses.loss_gradient(spec, enc, (x, xt))
        assert calls == []  # neither pass took the anchored route
        assert abs(got - value) <= 1e-12 * abs(value)
        for grad, c, r in zip(grads, contrast, ridge):
            scale = max(np.abs(c).max(), np.abs(r).max())
            assert np.abs(grad - (r - c)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("far", ["scaled-sample", "row", "column"])
    def test_far_row_or_column_takes_the_anchored_route_exactly(self, monkeypatch, far):
        # Each case puts the off-diagonal maximum of a row or a column of
        # sims / tau far below the shared exponential's shift c.
        x, xt, enc = random_instance(31, n=10, d1=3, d2=3)
        spec = LossSpec.clip(tau=0.01)
        if far == "scaled-sample":
            x[0] *= 1e3
        else:
            # sims = x @ xt.T; a first coordinate of -1e3 against positive
            # ones makes row 0 (or column 0) very negative, every other row
            # and column keeps its ordinary maximum.
            enc = EncoderPair(g1=np.eye(3), g2=np.eye(3))
            spec = LossSpec.clip(tau=0.1, nu=2.0)
            x[:, 0] = np.abs(x[:, 0]) + 1.0
            xt[:, 0] = np.abs(xt[:, 0]) + 1.0
            (x if far == "row" else xt)[0] = [-1e3, 0.0, 0.0]
        want_value, want_grads = anchored_pass(spec, enc, x, xt)
        calls = count_calls(monkeypatch, losses, "_anchored")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = losses.loss_value(spec, enc, (x, xt))
            grads = losses.loss_gradient(spec, enc, (x, xt))
        assert len(calls) == 2
        assert value == want_value and np.isfinite(value)
        for grad, want in zip(grads, want_grads):
            assert np.array_equal(grad, want) and np.all(np.isfinite(grad))

    def test_peak_memory_holds_one_table(self, monkeypatch):
        # E overwrites the similarity matrix; beside it only n x 2d arrays.
        import tracemalloc
        n = 1200
        x, xt, enc = random_instance(40, n=n, d1=8, d2=8, r=4)
        enc = EncoderPair(g1=0.5 * enc.g1, g2=0.5 * enc.g2)
        calls = count_calls(monkeypatch, losses, "_anchored")
        tracemalloc.start()
        try:
            losses.loss_gradient(LossSpec.infonce(tau=0.5, smoothed=True), enc, (x, xt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak <= 1.25 * n * n * 8


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
