"""Solvers: closed forms, gradient descent, frozen-weight routes, baselines."""

import warnings

import numpy as np
import pytest

from mmcl import bsgmp, datagen, linalg, losses, solvers
from mmcl.datagen import PairedDataset
from mmcl.errors import (ConfigurationError, DegenerateData, InvalidInput, InvalidRank,
                         NonFinite)
from mmcl.losses import EncoderPair, LossSpec

from conftest import count_calls
from oracle import compute_weights, paired_contrast


def right_error(product, model, r=None):
    r = r if r is not None else model.r
    sub = linalg.right_singular_subspace(product, r)
    return linalg.sin_theta(sub, model.u2_star)


def make_dataset(x, xt, truth=None):
    n = x.shape[0]
    diag = np.stack([np.arange(n), np.arange(n)], axis=1).astype(np.int64)
    return PairedDataset(
        x=np.asarray(x, dtype=np.float64),
        xt=np.asarray(xt, dtype=np.float64),
        observed_edges=diag,
        truth_edges=diag if truth is None else np.asarray(truth, dtype=np.int64),
        distortion=0.0,
        meta={"kind": "paired"})


class TestCenteredCrossCovariance:
    def test_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        xt = rng.standard_normal((6, 3))
        out = solvers.centered_cross_covariance(x, xt)
        xc = x - x.mean(axis=0)
        xtc = xt - xt.mean(axis=0)
        expected = np.zeros((4, 3))
        for i in range(6):
            expected += np.outer(xc[i], xtc[i])
        assert np.allclose(out, expected / 5.0, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 5))
        xt = rng.standard_normal((20, 4))
        perm = rng.permutation(20)
        a = solvers.centered_cross_covariance(x, xt)
        b = solvers.centered_cross_covariance(x[perm], xt[perm])
        assert np.allclose(a, b, atol=1e-12)

    def test_degenerate_and_invalid(self):
        with pytest.raises(DegenerateData):
            solvers.centered_cross_covariance(np.ones((4, 3)), np.random.default_rng(2).standard_normal((4, 2)))
        with pytest.raises(InvalidInput):
            solvers.centered_cross_covariance(np.eye(3), np.eye(4))
        with pytest.raises(InvalidInput):
            solvers.centered_cross_covariance(np.ones((1, 3)), np.ones((1, 3)))


class TestLinearClosedForm:
    def test_noiseless_recovery(self):
        model = datagen.random_model(20, 20, 3, seed=0)
        ds = datagen.sample_paired(model, 2000, 0.0, seed=0)
        fit = solvers.fit_linear_closed_form(ds, 3, rho=1.0)
        assert right_error(fit.product, model) < 0.05
        left = linalg.right_singular_subspace(fit.product.T, 3)
        assert linalg.sin_theta(left, model.u1_star) < 0.05
        assert fit.iterations == 0
        assert fit.trace is None

    def test_rho_scales_product_not_subspace(self):
        model = datagen.random_model(10, 9, 2, snr=2.0, seed=1)
        ds = datagen.sample_paired(model, 200, 0.1, seed=1)
        f1 = solvers.fit_linear_closed_form(ds, 2, rho=1.0)
        f2 = solvers.fit_linear_closed_form(ds, 2, rho=2.0)
        assert np.allclose(f1.product, 2.0 * f2.product, atol=1e-12)
        subs = [linalg.right_singular_subspace(
            solvers.fit_linear_closed_form(ds, 2, rho=rho).product, 2)
            for rho in (0.1, 1.0, 10.0)]
        for sub in subs[1:]:
            assert linalg.sin_theta(subs[0], sub) < 1e-9

    def test_final_loss_matches_evaluator(self):
        model = datagen.random_model(6, 5, 2, snr=2.0, seed=1)
        ds = datagen.sample_paired(model, 12, 0.0, seed=2)
        fit = solvers.fit_linear_closed_form(ds, 2, rho=0.7)
        direct = losses.loss_value(LossSpec.linear(rho=0.7), fit.enc, ds)
        assert fit.final_loss == pytest.approx(direct, abs=1e-12)

    def test_minimizes_among_perturbations(self):
        # Closed-form optimality: no perturbed encoder pair does better on
        # the same data, over 50 datasets x 100 perturbations.
        rng = np.random.default_rng(3)
        spec = LossSpec.linear(rho=1.0)
        for _ in range(50):
            x = rng.standard_normal((20, 4))
            xt = rng.standard_normal((20, 3))
            ds = make_dataset(x, xt)
            fit = solvers.fit_linear_closed_form(ds, 2, rho=1.0)
            base = losses.loss_value(spec, fit.enc, ds)
            for _ in range(100):
                enc = EncoderPair(
                    g1=fit.enc.g1 + 0.1 * rng.standard_normal(fit.enc.g1.shape),
                    g2=fit.enc.g2 + 0.1 * rng.standard_normal(fit.enc.g2.shape))
                assert base <= losses.loss_value(spec, enc, ds) + 1e-12

    def test_degenerate_inputs(self):
        x = np.ones((2, 3))
        xt = np.ones((2, 3))
        with pytest.raises(DegenerateData):
            solvers.fit_linear_closed_form(make_dataset(x, xt), 1)
        with pytest.raises(InvalidInput):
            model = datagen.random_model(4, 3, 2, seed=0)
            ds = datagen.sample_paired(model, 10, 0.0, seed=0)
            solvers.fit_linear_closed_form(ds, 2, rho=0.0)

    @pytest.mark.parametrize("rho", [np.inf, np.nan, -1.0])
    def test_rho_must_be_positive_and_finite(self, rho):
        model = datagen.random_model(4, 3, 2, seed=0)
        ds = datagen.sample_paired(model, 10, 0.0, seed=0)
        with pytest.raises(InvalidInput, match="rho must be positive and finite"):
            solvers.fit_linear_closed_form(ds, 2, rho=rho)
        with pytest.raises(InvalidInput, match="rho must be positive and finite"):
            solvers.fit_sscl_baseline(ds.x, 2, rho=rho)

    def test_tied_spectrum_is_flagged(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((5, 3))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        x = q * 2.0
        ds = make_dataset(x, x)
        fit = solvers.fit_linear_closed_form(ds, 2)
        assert "degenerate-gap" in fit.flags

    def test_rank_validation(self):
        model = datagen.random_model(4, 3, 2, seed=0)
        ds = datagen.sample_paired(model, 10, 0.0, seed=0)
        with pytest.raises(InvalidRank):
            solvers.fit_linear_closed_form(ds, 4)

    @pytest.mark.parametrize("r", [2.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("fit", [
        lambda ds, r: solvers.fit_linear_closed_form(ds, r),
        lambda ds, r: solvers.fit_approx_infonce(
            ds, r, LossSpec.clip(tau=1.0), init=solvers.fit_linear_closed_form(ds, 2).enc),
        lambda ds, r: solvers.fit_semisupervised(ds, ds, r, LossSpec.clip(tau=1.0)),
        lambda ds, r: solvers.fit_sscl_baseline(ds.x, r),
        lambda ds, r: solvers.fit_gradient_descent(LossSpec.linear(), ds, r, max_iter=2),
        lambda ds, r: solvers.fit_semisupervised(ds, ds, r, LossSpec.clip(tau=1.0),
                                                 init_mode="infonce")],
        ids=["linear", "approx", "semi", "sscl", "gd", "semi-infonce"])
    def test_non_integer_rank_is_invalid(self, fit, r):
        # 2.0 used to index the spectrum (IndexError) and True to compare an
        # array in the gap test (ValueError); gradient descent raised a
        # TypeError on 2.0 from its random initialization.
        ds = datagen.sample_paired(datagen.random_model(4, 3, 2, seed=0), 10, 0.0, seed=0)
        with pytest.raises(InvalidRank, match="rank must be an integer"):
            fit(ds, r)

    def test_truncated_fit_puts_the_gap_flag_after_the_callers(self):
        fit = solvers._truncated_fit(np.diag([2.0, 1.0, 1.0]), 2, 4.0, lambda enc, prod: 0.5,
                                     flags=("nu-not-above-one",), edges=None)
        assert fit.flags == ("nu-not-above-one", "degenerate-gap")
        assert list(fit.meta) == ["singular_values", "edges"]
        assert np.array_equal(fit.meta["singular_values"], [2.0, 1.0])
        assert (fit.final_loss, fit.iterations, fit.trace) == (0.5, 0, None)
        assert np.allclose(fit.enc.product, fit.product, atol=1e-15)


class TestGradientDescent:
    def test_matches_closed_form(self):
        model = datagen.random_model(6, 5, 2, snr=2.0, seed=2)
        ds = datagen.sample_paired(model, 40, 0.0, seed=3)
        closed = solvers.fit_linear_closed_form(ds, 2, rho=1.0)
        gd = solvers.fit_gradient_descent(
            LossSpec.linear(rho=1.0), ds, 2, lr=0.3, max_iter=4000, tol=1e-14, seed=0)
        rel = np.linalg.norm(gd.product - closed.product) / np.linalg.norm(closed.product)
        assert rel < 1e-4

    def test_loss_trace_monotone_under_backtracking(self):
        model = datagen.random_model(10, 10, 2, snr=1 / 0.3, seed=0)
        ds = datagen.sample_paired(model, 100, 0.2, seed=13)
        fit = solvers.fit_gradient_descent(
            LossSpec.clip(tau=0.5, nu=1.0), ds, 2, lr=1e-2, max_iter=150)
        trace = np.asarray(fit.trace)
        assert trace.shape[0] >= 2
        assert np.all(np.diff(trace) <= 1e-12)
        assert fit.final_loss == pytest.approx(trace[-1])

    def test_zero_learning_rate_flags_no_progress(self):
        model = datagen.random_model(10, 10, 2, snr=1 / 0.3, seed=0)
        ds = datagen.sample_paired(model, 100, 0.2, seed=13)
        fit = solvers.fit_gradient_descent(
            LossSpec.clip(tau=0.5, nu=1.0), ds, 2, lr=0.0, max_iter=5)
        assert "no-progress" in fit.flags
        with pytest.raises(InvalidInput):
            solvers.fit_gradient_descent(
                LossSpec.clip(tau=0.5, nu=1.0), ds, 2, lr=-0.1)

    def test_input_checks(self):
        ds = datagen.sample_paired(datagen.random_model(6, 5, 2, seed=2), 10, 0.0, seed=3)
        spec = LossSpec.linear()
        with pytest.raises(InvalidInput, match="max_iter must be nonnegative"):
            solvers.fit_gradient_descent(spec, ds, 2, max_iter=-1)
        with pytest.raises(InvalidRank, match=r"rank 6 not in \[1, 5\] for shape \(6, 5\)"):
            solvers.fit_gradient_descent(spec, ds, 6)
        with pytest.raises(InvalidInput, match="init encoders do not match"):
            solvers.fit_gradient_descent(spec, ds, 2,
                                         init=EncoderPair(np.ones((2, 5)), np.ones((2, 5))))

    def test_accepts_initialization(self):
        model = datagen.random_model(6, 5, 2, snr=2.0, seed=2)
        ds = datagen.sample_paired(model, 40, 0.0, seed=3)
        closed = solvers.fit_linear_closed_form(ds, 2, rho=1.0)
        fit = solvers.fit_gradient_descent(
            LossSpec.linear(rho=1.0), ds, 2, lr=0.1, max_iter=50,
            init=closed.enc)
        assert fit.final_loss <= closed.final_loss + 1e-10


def two_pass_descent(spec, data, r, lr, max_iter, tol, seed=0, init=None):
    """fit_gradient_descent's loop with a loss_value per candidate and a
    loss_gradient per step: the independent oracle for the one-pass loop.
    Each step after the first has size ||s|| / ||y||, s the step before it and
    y the change in loss_gradient across s, unless y is 0 or not finite."""
    enc = init if init is not None else solvers._random_encoders(
        r, data.x.shape[1], data.xt.shape[1], seed)
    cur = losses.loss_value(spec, enc, data)
    trace, flags, steps, halvings, out_of_domain = [cur], [], 0, 0, 0
    last = None  # (gradient before the last accepted step, ||s||)
    for _ in range(max_iter):
        grad1, grad2 = losses.loss_gradient(spec, enc, data)
        assert np.all(np.isfinite(grad1)) and np.all(np.isfinite(grad2))
        if last is not None:
            (old1, old2), s_norm = last
            with np.errstate(over="ignore", invalid="ignore"):
                y_norm = np.sqrt(np.sum((grad1 - old1) ** 2) + np.sum((grad2 - old2) ** 2))
            if 0 < y_norm < np.inf and 0 < s_norm / y_norm < np.inf:
                lr = s_norm / y_norm
        g_norm = np.sqrt(np.sum(grad1**2) + np.sum(grad2**2))
        if g_norm < tol:
            flags.append("converged")
            break
        accepted = False
        while True:
            cand = EncoderPair(g1=enc.g1 - lr * grad1, g2=enc.g2 - lr * grad2)
            cand_loss = losses.loss_value(spec, cand, data)
            out_of_domain += not np.isfinite(cand_loss)
            if np.isfinite(cand_loss) and cand_loss <= cur:
                enc, cur, accepted = cand, cand_loss, True
                last = ((grad1, grad2), lr * g_norm)
                break
            if halvings >= 20:
                break
            lr *= 0.5
            halvings += 1
        if not accepted:
            flags.append("step-budget-exhausted")
            break
        steps += 1
        trace.append(cur)
    fit = solvers.FitResult(enc=enc, product=enc.product, iterations=steps, final_loss=cur,
                            trace=trace, flags=tuple(flags))
    return fit, halvings, out_of_domain


def unit_rows_dataset():
    """Unit-norm rows seen twice: with g2 = -g1 orthogonal every psi-identity
    log aggregate is positive, and large steps leave the log domain."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return make_dataset(x, x), EncoderPair(g1=q, g2=-q)


def oracle_case(name):
    """(spec, data, r, keyword arguments of fit_gradient_descent) of a named case."""
    small = datagen.sample_paired(datagen.random_model(6, 5, 2, snr=2.0, seed=2), 40, 0.0, seed=3)
    if name == "infonce":  # the infonce-gd workload, shrunk
        data = datagen.sample_paired(datagen.random_model(10, 10, 4, snr=1 / 0.3, seed=0),
                                     80, 0.2, seed=5)
        return LossSpec.infonce(tau=0.5, smoothed=True), data, 4, dict(lr=0.05, max_iter=8,
                                                                        tol=0.0, seed=5)
    if name == "clip":
        return LossSpec.clip(tau=0.5), small, 2, dict(lr=0.5, max_iter=30, tol=0.0)
    if name == "linear":
        return LossSpec.linear(), small, 2, dict(lr=0.3, max_iter=30, tol=0.0)
    if name == "psi-identity-log":
        data, init = unit_rows_dataset()
        spec = LossSpec(phi="log", psi="identity", epsilon=1.0, tau=1.0, cn="n")
        return spec, data, 3, dict(lr=5.0, max_iter=10, tol=0.0, init=init)
    if name == "exhausted":
        data, init = unit_rows_dataset()
        spec = LossSpec(phi="log", psi="identity", epsilon=1.0, tau=1.0, cn="n")
        return spec, data, 3, dict(lr=10.0, max_iter=50, tol=0.0, init=init)
    if name == "converged":
        return LossSpec.linear(), small, 2, dict(lr=0.3, max_iter=500, tol=1e-3)
    assert name == "no-iterations"
    return LossSpec.infonce(tau=0.5, smoothed=True), small, 2, dict(lr=0.1, max_iter=0, tol=0.0)


class TestOnePassDescent:
    """Each candidate's value and gradient come from one weight-table pass."""

    @pytest.mark.parametrize("name", ["infonce", "clip", "linear", "psi-identity-log",
                                      "exhausted", "converged", "no-iterations"])
    def test_bit_identical_to_two_pass_loop(self, name):
        spec, data, r, kwargs = oracle_case(name)
        fit = solvers.fit_gradient_descent(spec, data, r, **kwargs)
        want, halvings, out_of_domain = two_pass_descent(spec, data, r, **kwargs)
        assert fit.trace == want.trace
        assert fit.iterations == want.iterations
        assert fit.flags == want.flags
        assert fit.final_loss == want.final_loss
        assert np.array_equal(fit.enc.g1, want.enc.g1)
        assert np.array_equal(fit.enc.g2, want.enc.g2)
        # the linear case reaches its rounding floor in 22 of its 30 steps
        expected_flags = {"exhausted": ("step-budget-exhausted",), "converged": ("converged",),
                          "linear": ("step-budget-exhausted",)}
        assert fit.flags == expected_flags.get(name, ())
        if name in ("psi-identity-log", "exhausted"):
            assert halvings > 0 and out_of_domain > 0 and fit.iterations > 0
        if name == "no-iterations":
            assert fit.iterations == 0 and fit.trace == [fit.final_loss]

    def test_one_paired_pass_per_identity_candidate(self, monkeypatch):
        spec, data, r, kwargs = oracle_case("psi-identity-log")
        _, halvings, _ = two_pass_descent(spec, data, r, **kwargs)
        calls = count_calls(monkeypatch, losses, "_paired_pass")
        fit = solvers.fit_gradient_descent(spec, data, r, **kwargs)
        assert fit.flags == () and halvings > 0
        # one value and one gradient at the start, then one pass per
        # candidate: k accepted steps and h rejected ones (the two-pass loop
        # takes 2k + h + 1)
        assert len(calls) == fit.iterations + halvings + 2

    @pytest.mark.parametrize("tau", [0.5, 1e-6])
    def test_one_paired_pass_per_softmax_candidate(self, monkeypatch, tau):
        # At tau 1e-6 the rows of sims / tau spread far beyond the shared
        # exponential's range in the first 8 steps, so each pass streams the
        # table twice; no pass at either tau takes the anchored route.
        data = datagen.sample_paired(datagen.random_model(6, 5, 2, snr=2.0, seed=2), 40, 0.0,
                                     seed=3)
        spec = LossSpec.clip(tau=tau)
        kwargs = dict(lr=0.5, max_iter=8, tol=0.0)
        _, halvings, _ = two_pass_descent(spec, data, 2, **kwargs)
        passes = count_calls(monkeypatch, losses, "_paired_pass")
        fit = solvers.fit_gradient_descent(spec, data, 2, **kwargs)
        assert fit.iterations > 0
        assert len(passes) == fit.iterations + halvings + 2

    def test_spread_descent_equals_forced_two_shift_descent(self, monkeypatch):
        data = datagen.sample_paired(datagen.random_model(6, 5, 2, snr=2.0, seed=2), 40, 0.0,
                                     seed=3)
        spec = LossSpec.clip(tau=1e-6)
        kwargs = dict(lr=0.5, max_iter=8, tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = solvers.fit_gradient_descent(spec, data, 2, **kwargs)
        monkeypatch.setattr(losses, "_SHARED_RANGE", -np.inf)  # no pass may share
        want = solvers.fit_gradient_descent(spec, data, 2, **kwargs)
        assert fit.iterations > 0 and np.isfinite(fit.final_loss)
        assert fit.trace == want.trace
        assert np.array_equal(fit.enc.g1, want.enc.g1)
        assert np.array_equal(fit.enc.g2, want.enc.g2)

    def test_out_of_domain_init(self):
        data, init = unit_rows_dataset()
        spec = LossSpec(phi="log", psi="identity", epsilon=1.0, tau=1.0, cn="n")
        bad = EncoderPair(g1=init.g1, g2=-init.g2)
        fit = solvers.fit_gradient_descent(spec, data, 3, lr=0.1, max_iter=0, init=bad)
        assert np.isnan(fit.final_loss) and fit.iterations == 0
        with pytest.raises(NonFinite, match="nonpositive aggregate"):
            solvers.fit_gradient_descent(spec, data, 3, lr=0.1, max_iter=1, init=bad)


class TestApproxInfonce:
    def test_requires_softmax_family(self):
        model = datagen.random_model(4, 3, 2, seed=0)
        ds = datagen.sample_paired(model, 10, 0.0, seed=0)
        with pytest.raises(InvalidInput):
            solvers.fit_approx_infonce(ds, 2, LossSpec.linear())

    @staticmethod
    def oracle(ds, r, spec, init):
        """The dense beta tables of compute_weights at init, and the top-r SVD
        of their contrast matrix."""
        weights = compute_weights(spec, losses.similarity_matrix(init, ds.x, ds.xt))
        contrast = paired_contrast(weights, ds.x, ds.xt, spec.cn)
        u, s, vt = np.linalg.svd(contrast)
        return weights, (u[:, :r] * s[:r]) @ vt[:r]

    def test_zero_init_gives_uniform_tables(self):
        model = datagen.random_model(5, 4, 2, seed=1)
        ds = datagen.sample_paired(model, 6, 0.0, seed=1)
        init = EncoderPair(g1=np.zeros((2, 5)), g2=np.zeros((2, 4)))
        spec = LossSpec.clip(tau=0.5, nu=2.0)
        fit = solvers.fit_approx_infonce(ds, 2, spec, init=init)
        weights, product = self.oracle(ds, 2, spec, init)
        off = weights.beta_off[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 1.0 / 6.0, atol=1e-12)
        assert np.allclose(weights.beta_diag, (2.0 - 1.0 / 6.0) * np.ones(6), atol=1e-12)
        assert np.abs(fit.product - product).max() <= 1e-12 * np.abs(product).max()

    def test_corrupted_pair_weights_concentrate(self):
        # Ground-truth initialization at twice the natural scale, schedule
        # temperature: the weight on every hidden true pair approaches its
        # ceiling while non-edges fall below 1 / n.
        model = datagen.random_model(80, 80, 64, snr=1 / 0.3, seed=0)
        tau = losses.schedule_tau(64, 400)
        spec = LossSpec.clip(tau=tau, nu=2.0)
        init = EncoderPair(
            g1=2.0 * np.sqrt(model.sigma_z)[:, None] * model.u1_star.T,
            g2=2.0 * np.sqrt(model.sigma_zt)[:, None] * model.u2_star.T)
        for seed in range(10):
            ds = datagen.sample_paired(model, 400, 0.2, seed=(3, seed))
            beta = self.oracle(ds, 64, spec, init)[0].beta_off
            truth = ds.truth_edges
            broken = truth[truth[:, 0] != truth[:, 1]]
            assert broken.shape[0] > 0
            true_mask = np.zeros((400, 400), dtype=bool)
            true_mask[truth[:, 0], truth[:, 1]] = True
            non_edges = ~np.eye(400, dtype=bool) & ~true_mask
            assert beta[broken[:, 0], broken[:, 1]].min() >= 0.9
            assert beta[non_edges].max() <= 1.0 / 400.0

    def test_product_converges_to_population_contrast(self):
        # Median operator distance to (nu - 1 - nu p) U1 S S~ U2^T shrinks
        # roughly by half per doubling of n.
        model = datagen.random_model(40, 40, 16, snr=1 / 0.3, seed=0)
        target = 0.6 * model.u1_star @ model.u2_star.T
        medians = []
        for n in (200, 800, 3200):
            spec = LossSpec.clip(tau=losses.schedule_tau(16, n), nu=2.0)
            errs = []
            for s in range(10):
                ds = datagen.sample_paired(model, n, 0.2, seed=(7, s, n))
                fit = solvers.fit_approx_infonce(ds, 16, spec)
                errs.append(np.linalg.norm(fit.product - target, 2))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]
        for a, b in zip(medians, medians[1:]):
            assert 1.0 <= a / b <= 3.0

    def test_product_is_truncated_svd_of_oracle_contrast(self):
        # The fit takes its contrast from the loss gradient's paired pass,
        # never from the dense beta tables.
        model = datagen.random_model(5, 4, 2, seed=1)
        ds = datagen.sample_paired(model, 8, 0.0, seed=2)
        specs = (LossSpec.clip(tau=0.5, nu=2.0), LossSpec.infonce(tau=0.3, nu=1.5, smoothed=True))
        init = solvers.fit_linear_closed_form(ds, 2).enc
        want = [self.oracle(ds, 2, spec, init)[1] for spec in specs]
        for spec, product in zip(specs, want):
            fit = solvers.fit_approx_infonce(ds, 2, spec)
            assert set(fit.meta) == {"singular_values"}
            assert np.abs(fit.product - product).max() <= 1e-12 * np.abs(product).max()


def estimate_edges_by_sets(sims):
    """Set-based mutual-argmax pool, the reference for estimate_edges."""
    n = sims.shape[0]
    row_best = np.argmax(sims, axis=1)
    col_best = np.argmax(sims, axis=0)
    pool = {(int(i), int(row_best[i])) for i in range(n)}
    pool.update((int(col_best[j]), int(j)) for j in range(n))
    ranked = sorted(pool, key=lambda ij: (-sims[ij], ij[0], ij[1]))
    kept = ranked[:min(n, len(ranked))]
    edges = np.array(sorted(kept), dtype=np.int64).reshape(-1, 2)
    return edges, float(sims[kept[-1]]), len(pool), len(pool) < n


class TestEstimateEdges:
    def test_matches_set_based_pool(self, rows64):
        # Gaussian and tie-heavy integer tables, square sizes 1 to 300,
        # which spans several argmax row blocks.
        rng = np.random.default_rng(16)
        for trial in range(200):
            n = int(rng.integers(1, 301))
            if trial % 2:
                sims = rng.integers(-2, 3, size=(n, n)).astype(np.float64)
            else:
                sims = rng.standard_normal((n, n))
            edges, threshold, pool_size, _ = estimate_edges_by_sets(sims)
            est = solvers.estimate_edges(sims)
            assert est.edges.dtype == np.int64
            assert np.array_equal(est.edges, edges)
            assert est.threshold == threshold
            assert est.pool_size == pool_size
            assert est.pool_size >= n

    def test_identity_similarities(self):
        est = solvers.estimate_edges(np.eye(4))
        assert np.array_equal(est.edges, np.stack([np.arange(4)] * 2, axis=1))
        assert est.threshold == 1.0
        assert est.pool_size == 4
        assert est.pool_size >= 4

    def test_permutation_similarities(self):
        perm = np.array([2, 0, 3, 1])
        sims = np.zeros((4, 4))
        sims[np.arange(4), perm] = 1.0
        est = solvers.estimate_edges(sims)
        assert np.array_equal(est.edges[np.argsort(est.edges[:, 0]), 1], perm)

    def test_deterministic_on_ties(self):
        sims = np.zeros((4, 4))
        a = solvers.estimate_edges(sims)
        b = solvers.estimate_edges(sims.copy())
        assert np.array_equal(a.edges, b.edges)
        assert a.edges.shape == (4, 2)

    @pytest.mark.parametrize("where,value", [
        ((99, 40), np.nan),      # only in the ragged last scan block
        ((96, 0), np.nan),
        ((7, 3), -np.inf),       # a lone -inf moves no column maximum
        ((50, 50), np.inf),
        ((64, 0), np.nan),       # first row of the ragged last scan block
    ])
    def test_non_finite_entry_rejected(self, rows64, where, value):
        sims = np.random.default_rng(17).standard_normal((100, 100))
        sims[where] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            solvers.estimate_edges(sims)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            solvers.estimate_edges(np.zeros((3, 4)))
        with pytest.raises(InvalidInput):
            solvers.estimate_edges(np.zeros((0, 0)))

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [1, 97, 131, 200])
    def test_factored_pool_matches_its_dense_table(self, rows64, n, ties):
        # Sizes that are no multiple of the 64-row block (nor of 32), and
        # integer factors whose products tie.
        rng = np.random.default_rng(n)
        r = 2 if ties else 5
        a, bt = rng.standard_normal((n, r)), rng.standard_normal((r, n))
        if ties:
            a, bt = np.round(2 * a), np.round(2 * bt)
        src = losses.PoolSimilarity(a, bt)
        factored, dense = solvers.estimate_edges(src), solvers.estimate_edges(src.dense())
        assert np.array_equal(factored.edges, dense.edges)
        assert factored.threshold == dense.threshold
        assert factored.pool_size == dense.pool_size
        with pytest.raises(InvalidInput, match="square"):
            solvers.estimate_edges(losses.PoolSimilarity(a, bt[:, 1:]))


class TestSemisupervised:
    def test_matches_paired_route_when_edges_are_exact(self):
        # Feeding the paired data itself as the pool must reproduce the
        # paired frozen-weight product once every estimated edge is a
        # true diagonal pair.
        model = datagen.random_model(80, 80, 64, snr=1 / 0.3, seed=0)
        ds = datagen.sample_paired(model, 200, 0.0, seed=(21, 0))
        spec = LossSpec.clip(tau=0.8, nu=2.0, rho=1.0)
        semi = solvers.fit_semisupervised(ds, ds, 64, spec)
        paired = solvers.fit_approx_infonce(ds, 64, spec)
        edges = semi.meta["edges"]
        assert np.all(edges[:, 0] == edges[:, 1])
        rel = (np.linalg.norm(semi.product - paired.product)
               / np.linalg.norm(paired.product))
        assert rel < 1e-8

    def test_unknown_init_mode(self):
        ds = datagen.sample_paired(datagen.random_model(6, 5, 2, seed=0), 10, 0.0, seed=1)
        with pytest.raises(InvalidInput, match="init_mode must be 'linear' or 'infonce'"):
            solvers.fit_semisupervised(ds, ds, 2, LossSpec.clip(tau=1.0), init_mode="bogus")

    @pytest.mark.parametrize("d1,d2", [(11, 10), (12, 9)])
    def test_pool_of_other_widths_is_rejected(self, d1, d2):
        ds = datagen.sample_paired(datagen.random_model(12, 10, 2, seed=0), 20, 0.0, seed=1)
        pool = datagen.sample_unpaired(datagen.random_model(d1, d2, 2, seed=0), 20, seed=2)
        with pytest.raises(InvalidInput, match=rf"unpaired widths \({d1}, {d2}\) differ "
                                               r"from the paired widths \(12, 10\)"):
            solvers.fit_semisupervised(ds, pool, 2, LossSpec.clip(tau=1.0))

    def test_infonce_anchor_descent_stops_in_tens_of_steps(self, monkeypatch):
        # Criterion 5's shapes at its seed 0. The halving descent of be3697d
        # ran all 2000 steps and ended at 0.6459853788454923.
        model = datagen.random_model(40, 40, 16, snr=1 / 0.3, seed=0)
        paired = datagen.sample_paired(model, 200, 0.0, seed=[51, 0])
        pool = datagen.sample_unpaired(model, 400, seed=[53, 0])
        spec = LossSpec(phi="log", psi="exp", epsilon=1.0, nu=2.0,
                        tau=losses.schedule_tau(16, 400), cn="n", rho=1.0)
        anchors = []
        descent = solvers.fit_gradient_descent

        def recorded(*args, **kwargs):
            anchors.append(descent(*args, **kwargs))
            return anchors[-1]

        monkeypatch.setattr(solvers, "fit_gradient_descent", recorded)
        solvers.fit_semisupervised(paired, pool, 16, spec, init_mode="infonce")
        (anchor,) = anchors
        assert anchor.iterations <= 100
        assert anchor.final_loss <= 0.6459853788454923

    def test_two_sample_noiseless_pool(self):
        model = datagen.random_model(4, 3, 1, seed=2)
        paired = datagen.sample_paired(model, 30, 0.0, seed=3)
        pool = datagen.sample_unpaired(model, 2, seed=4)
        fit = solvers.fit_semisupervised(paired, pool, 1, LossSpec.clip(tau=0.5, nu=2.0))
        est = fit.meta["edges"]
        order = np.argsort(est[:, 0])
        truth = pool.truth_edges[np.argsort(pool.truth_edges[:, 0])]
        assert np.array_equal(est[order], truth)
        assert right_error(fit.product, model) < 1e-6

    def test_large_pool_beats_paired_only(self):
        # Eight unpaired samples per paired one: the two-step route wins
        # on every seed at this size.
        model = datagen.random_model(40, 39, 10, snr=1 / 0.3, seed=0)
        spec = LossSpec.clip(tau=losses.schedule_tau(10, 800), nu=2.0)
        semi_err, paired_err = [], []
        for s in range(20):
            ds = datagen.sample_paired(model, 100, 0.2, seed=(11, s, 100, 8))
            pool = datagen.sample_unpaired(model, 800, seed=(13, s, 100, 8))
            fp = solvers.fit_linear_closed_form(ds, 10, rho=1.0)
            fs = solvers.fit_semisupervised(ds, pool, 10, spec)
            paired_err.append(right_error(fp.product, model))
            semi_err.append(right_error(fs.product, model))
        assert np.median(semi_err) < np.median(paired_err)
        wins = sum(s < p for s, p in zip(semi_err, paired_err))
        assert wins >= 18
        assert np.median(semi_err) < 0.45
        assert np.median(paired_err) > 0.60

    def test_peak_memory_holds_one_pool_table(self):
        # No n x n array: the similarity is held as two factors and the
        # softmax table is streamed into the contrast in row blocks.
        import tracemalloc
        model = datagen.random_model(40, 39, 10, snr=1 / 0.3, seed=0)
        ds = datagen.sample_paired(model, 200, 0.0, seed=(28, 1))
        pool = datagen.sample_unpaired(model, 1500, seed=(28, 2))
        spec = LossSpec.clip(tau=losses.schedule_tau(10, 1500), nu=2.0)
        tracemalloc.start()
        try:
            solvers.fit_semisupervised(ds, pool, 10, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 1500 * 1500 * 8

    def test_each_pool_block_is_built_twice(self, monkeypatch):
        # Once for the extrema scan that estimate_edges and unpaired_weights
        # share, once for the contrast; the pool table itself is never built.
        # Blocks of 96 x 300 entries: three full ones and a ragged last one.
        monkeypatch.setattr(losses, "_BLOCK_ENTRIES", 100 * 300)
        model = datagen.random_model(12, 10, 3, snr=2.0, seed=0)
        ds = datagen.sample_paired(model, 60, 0.0, seed=(29, 1))
        pool = datagen.sample_unpaired(model, 300, seed=(29, 2))
        built = []
        block = losses.PoolSimilarity.block
        monkeypatch.setattr(losses.PoolSimilarity, "block",
                            lambda self, lo: built.append(lo) or block(self, lo))
        dense = losses.PoolSimilarity.dense  # the paired closing loss builds its blocks
        monkeypatch.setattr(losses.PoolSimilarity, "dense", lambda self: dense(self)
                            if self.shape != (300, 300) else pytest.fail("pool table built"))
        solvers.fit_semisupervised(ds, pool, 3, LossSpec.clip(tau=0.5, nu=2.0))
        assert losses._block_rows(300) == 96
        assert sorted(built) == sorted(2 * list(range(0, 300, 96)))

    @pytest.mark.parametrize("tau", [None, 0.7, 1e-3])  # schedule, fixed, fallback route
    def test_factored_fit_matches_the_dense_route(self, tau):
        # The dense oracle: the same steps on the stacked pool table. The edges
        # come from the same unscaled blocks; the contrast divides the factor,
        # not the table, by tau, so the product agrees to rounding.
        model = datagen.random_model(12, 10, 3, snr=2.0, seed=0)
        ds = datagen.sample_paired(model, 60, 0.0, seed=(30, 1))
        pool = datagen.sample_unpaired(model, 193, seed=(30, 2))
        spec = LossSpec.clip(tau=tau or losses.schedule_tau(3, 193), nu=2.0)
        fit = solvers.fit_semisupervised(ds, pool, 3, spec)
        anchors = solvers.fit_linear_closed_form(ds, 3).enc
        sims = losses.PoolSimilarity.encode(anchors, pool.x, pool.xt).dense()
        est = solvers.estimate_edges(sims)
        weights = losses.unpaired_weights(sims, spec.tau, spec.nu, est.edges)
        s_hat = losses.contrastive_cross_covariance(weights, pool.x, pool.xt, "n")
        product = solvers._truncated_fit(s_hat, 3, 1.0 / spec.rho, lambda *_: 0.0).product
        assert np.array_equal(fit.meta["edges"], est.edges)
        assert np.abs(fit.product - product).max() <= 1e-13 * np.abs(product).max()

    @pytest.mark.parametrize("seed,pool_size", [
        pytest.param(seed, pool_size, id=str(seed) if pool_size == 4000 else f"{seed}-{pool_size}")
        for pool_size in (4000, 650, 4002) for seed in range(5)])
    def test_edges_match_the_benchmark_rederivation(self, seed, pool_size):
        # The benchmark's semi-pool check re-derives the edge set from the dense
        # similarity_matrix at its own shape (500 pairs, a pool of 4000, rank
        # 10) and requires fit.json's edge count and threshold exactly; pools
        # of 650 and 4002 are shapes whose whole product OpenBLAS rounds unlike
        # its row blocks.
        model = datagen.random_model(40, 39, 10, snr=1 / 0.3, seed=0)
        ds = datagen.sample_paired(model, 500, 0.0, seed=(seed, 0, 1))
        pool = datagen.sample_unpaired(model, pool_size, seed=(seed, 0, 2))
        fit = solvers.fit_semisupervised(ds, pool, 10, LossSpec(
            nu=2.0, tau=losses.schedule_tau(10, pool_size), cn="n"))
        anchors = solvers.fit_linear_closed_form(ds, 10).enc
        est = solvers.estimate_edges(losses.similarity_matrix(anchors, pool.x, pool.xt))
        assert np.array_equal(fit.meta["edges"], est.edges)
        assert fit.meta["edge_threshold"] == est.threshold

    def test_pool_16000_holds_no_pool_table(self):
        # A 16000 x 16000 table is 1953 MiB; the fit stays under 100 MiB above
        # its inputs.
        import tracemalloc
        model = datagen.random_model(40, 39, 10, snr=1 / 0.3, seed=0)
        ds = datagen.sample_paired(model, 500, 0.0, seed=(31, 1))
        pool = datagen.sample_unpaired(model, 16000, seed=(31, 2))
        spec = LossSpec(nu=2.0, tau=losses.schedule_tau(10, 16000), cn="n")
        tracemalloc.start()
        try:
            solvers.fit_semisupervised(ds, pool, 10, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_meta_and_flags(self):
        model = datagen.random_model(6, 5, 2, snr=2.0, seed=1)
        ds = datagen.sample_paired(model, 30, 0.0, seed=5)
        pool = datagen.sample_unpaired(model, 40, seed=6)
        fit = solvers.fit_semisupervised(ds, pool, 2, LossSpec.clip(tau=0.5, nu=2.0))
        assert {"edges", "edge_threshold", "edge_pool_size", "init_product",
                "init_flags"} <= set(fit.meta)
        low_nu = solvers.fit_semisupervised(ds, pool, 2, LossSpec.clip(tau=0.5, nu=1.0))
        assert "nu-not-above-one" in low_nu.flags

class TestSsclBaseline:
    def test_expected_matches_sampled(self):
        model = datagen.random_model(20, 20, 3, snr=2.0, seed=0)
        ds = datagen.sample_paired(model, 2000, 0.0, seed=9)
        exp = solvers.fit_sscl_baseline(ds.x, 3, mode="expected")
        mc = solvers.fit_sscl_baseline(ds.x, 3, mode="sampled", k_draws=2000, seed=11)
        rel = (np.linalg.norm(exp.product - mc.product, 2)
               / np.linalg.norm(exp.product, 2))
        assert rel < 0.05

    def test_diagonal_covariance_is_degenerate(self):
        # Centered, mutually orthogonal columns: the masked contrast has
        # nothing off the diagonal to keep, so the expected matrix is 0.
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        had = np.kron(np.kron(h2, h2), h2)
        x = had[:, 1:]
        fit = solvers.fit_sscl_baseline(x, 2, mode="expected")
        assert np.all(fit.product == 0.0)
        assert "degenerate-masked-covariance" in fit.flags
        assert "degenerate-gap" in fit.flags

    def test_masked_flag_follows_the_gap_flag(self):
        x = np.kron(np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]]),
                    [[1.0, 1.0], [1.0, -1.0]])[:, 1:]
        fit = solvers.fit_sscl_baseline(x, 2, mode="expected")
        assert fit.flags == ("degenerate-gap", "degenerate-masked-covariance")

    def test_sample_checks(self):
        with pytest.raises(InvalidInput, match="need at least 2 samples"):
            solvers.fit_sscl_baseline(np.ones((1, 4)), 2)
        with pytest.raises(DegenerateData, match="all samples identical"):
            solvers.fit_sscl_baseline(np.tile([1.0, 2.0, 3.0, 4.0], (5, 1)), 2)

    def test_mode_validation(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        with pytest.raises(InvalidInput):
            solvers.fit_sscl_baseline(x, 2, mode="bootstrap")
        with pytest.raises(InvalidInput):
            solvers.fit_sscl_baseline(x, 2, mode="sampled", k_draws=0)


def _two_bicliques():
    edges = np.array([(i, j) for i in range(3) for j in range(3)]
                     + [(i, j) for i in range(3, 6) for j in range(3, 6)])
    return bsgmp.BipartiteGraph(6, 6, edges)


@pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("call, message", [
    (lambda ds, v: solvers.fit_gradient_descent(LossSpec.linear(), ds, 2, max_iter=v),
     "max_iter must be nonnegative"),
    (lambda ds, v: solvers.fit_sscl_baseline(ds.x, 2, mode="sampled", k_draws=v),
     "k_draws must be at least 1"),
    (lambda ds, v: bsgmp.kmeans(ds.x, 2, restarts=v), "restarts must be at least 1"),
    (lambda ds, v: bsgmp.kmeans(ds.x, v), "cluster count must be a positive integer"),
    (lambda ds, v: bsgmp.partition(_two_bicliques(), 2, restarts=v),
     "restarts must be at least 1")],
    ids=["gd-max_iter", "sscl-k_draws", "kmeans-restarts", "kmeans-k", "partition-restarts"])
def test_count_arguments_must_be_integers(call, message, value):
    # A float count, and True as sscl's k_draws or kmeans's k, used to raise a
    # raw TypeError; True as max_iter or restarts was taken as a count of 1.
    ds = datagen.sample_paired(datagen.random_model(6, 5, 2, seed=2), 10, 0.0, seed=3)
    with pytest.raises(ConfigurationError, match=message):
        call(ds, value)
