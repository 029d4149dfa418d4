"""Fitting routines: closed forms, gradient descent, and the two-step
semi-supervised procedure that learns from an unpaired pool.

Every solver returns a FitResult whose product equals g1.T @ g2 up to
floating-point roundoff. Closed forms realize the encoders from the
truncated SVD of a contrast matrix: product U C V^T / rho gives
g1 = (C / rho)^(1/2) U^T and g2 = (C / rho)^(1/2) V^T.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import DegenerateData, InvalidInput, InvalidRank, NonFinite
from .losses import (
    EncoderPair,
    LossSpec,
    PoolSimilarity,
    _value_and_gradient,
    compute_weights,
    contrastive_cross_covariance,
    loss_gradient,
    loss_value,
    similarity_matrix,
    unpaired_weights,
)


@dataclass
class FitResult:
    """Outcome of a fit.

    Attributes:
      enc: the fitted encoder pair.
      product: g1.T @ g2, the learned cross-modal score matrix.
      iterations: accepted iteration count (0 for closed forms).
      final_loss: loss value at the returned encoders.
      trace: per-iteration loss values for iterative solvers, else None.
      flags: short diagnostic strings ("degenerate-gap", "no-progress", ...).
      meta: solver-specific extras (singular values, weight tables, edges).
    """

    enc: EncoderPair
    product: np.ndarray
    iterations: int
    final_loss: float
    trace: list | None = None
    flags: tuple = ()
    meta: dict = field(default_factory=dict)


def _truncated_fit(mat: np.ndarray, r: int, scale: float):
    """Encoders realizing the top-r SVD of mat scaled by scale.

    Returns (enc, product, top-r singular values, flags); flags holds
    "degenerate-gap" when the r-th singular gap is (near) zero.
    """
    res = linalg.svd(_finite(mat, "contrast matrix"))
    if r < 1 or r > res.s.shape[0]:
        raise InvalidRank(f"rank {r} not in [1, {res.s.shape[0]}] for shape {mat.shape}")
    s_next = res.s[r] if r < res.s.shape[0] else 0.0
    flags = ("degenerate-gap",) if res.s[r - 1] - s_next <= linalg.GAP_TOL else ()
    u_r, s_r, v_r = res.u[:, :r], res.s[:r].copy(), res.v[:, :r]
    c = np.sqrt(scale * s_r)
    enc = EncoderPair(g1=c[:, None] * u_r.T, g2=c[:, None] * v_r.T)
    product = (u_r * (scale * s_r)) @ v_r.T
    return enc, product, s_r, flags


def _finite(value, stage: str):
    """value itself, or NonFinite naming stage when it holds an inf or a NaN."""
    if not np.all(np.isfinite(value)):
        raise NonFinite(f"{stage} is not finite")
    return value


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFinite instead
def _linear_objective(product: np.ndarray, s_mat: np.ndarray, rho: float) -> float:
    """-<product, s_mat> + rho / 2 * ||product||^2, the linear loss in closed form."""
    return _finite(float(-np.sum(product * s_mat) + 0.5 * rho * np.sum(product**2)),
                   "linear loss")


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFinite instead
def centered_cross_covariance(x, xt) -> np.ndarray:
    """Sample cross-covariance with the (n - 1) normalizer; NonFinite if it overflows."""
    x = linalg.as_matrix(x, "x")
    xt = linalg.as_matrix(xt, "xt")
    if x.shape[0] != xt.shape[0]:
        raise InvalidInput("modalities must have equally many samples")
    if x.shape[0] < 2:
        raise InvalidInput("need at least 2 samples")
    xc = x - x.mean(axis=0)
    xtc = xt - xt.mean(axis=0)
    if not np.any(xc) or not np.any(xtc):
        raise DegenerateData("all samples identical in one modality")
    return _finite(xc.T @ xtc / (x.shape[0] - 1), "centered cross-covariance")


def fit_linear_closed_form(data, r: int, rho: float = 1.0) -> FitResult:
    """Minimizer of the linear contrastive loss: truncated SVD of the
    centered cross-covariance, scaled by 1 / rho."""
    if not 0 < rho < np.inf:
        raise InvalidInput(f"rho must be positive and finite, got {rho}")
    sbar = centered_cross_covariance(data.x, data.xt)
    enc, product, s_r, flags = _truncated_fit(sbar, r, 1.0 / rho)
    # the linear loss reduces exactly to -<product, sbar> plus the ridge,
    # which avoids materializing the n x n similarity matrix
    final = _linear_objective(product, sbar, rho)
    meta = {"singular_values": s_r}
    return FitResult(enc=enc, product=product, iterations=0, final_loss=final,
                     trace=None, flags=flags, meta=meta)


def _random_encoders(r: int, d1: int, d2: int, seed) -> EncoderPair:
    rng = np.random.default_rng(seed)
    g1 = 0.1 * rng.standard_normal((r, d1)) / np.sqrt(d1)
    g2 = 0.1 * rng.standard_normal((r, d2)) / np.sqrt(d2)
    return EncoderPair(g1=g1, g2=g2)


def fit_gradient_descent(
    spec: LossSpec,
    data,
    r: int,
    lr: float = 0.1,
    max_iter: int = 500,
    tol: float = 1e-9,
    seed=0,
    init: EncoderPair | None = None,
) -> FitResult:
    """Full-batch gradient descent with backtracking on the step size.

    A step that does not decrease the loss halves the learning rate and
    retries, with at most 20 halvings over the whole run. Each candidate
    is scored and differentiated in one pass over its weight tables, so
    an accepted step carries the next iteration's gradient. lr = 0
    returns the initialization unchanged with iterations = max_iter and
    a no-progress flag.
    """
    x = linalg.as_matrix(data.x, "x")
    xt = linalg.as_matrix(data.xt, "xt")
    for name, value in (("lr", lr), ("tol", tol)):
        if not 0 <= value < np.inf:
            raise InvalidInput(f"{name} must be nonnegative and finite, got {value}")
    if max_iter < 0:
        raise InvalidInput(f"max_iter must be nonnegative, got {max_iter}")
    if r < 1 or r > min(x.shape[1], xt.shape[1]):
        raise InvalidRank(f"rank {r} not representable for dims {x.shape[1]}, {xt.shape[1]}")
    enc = init if init is not None else _random_encoders(r, x.shape[1], xt.shape[1], seed)
    if enc.g1.shape != (r, x.shape[1]) or enc.g2.shape != (r, xt.shape[1]):
        raise InvalidInput("init encoders do not match the requested shape")
    cur_loss = loss_value(spec, enc, data)
    trace = [cur_loss]
    if lr == 0.0:
        return FitResult(enc=enc, product=enc.product, iterations=max_iter,
                         final_loss=cur_loss, trace=trace, flags=("no-progress",))
    flags: list[str] = []
    halvings = 0
    steps = 0
    grad = loss_gradient(spec, enc, data) if max_iter > 0 else None
    for _ in range(max_iter):
        grad1, grad2 = grad
        if not (np.all(np.isfinite(grad1)) and np.all(np.isfinite(grad2))):
            raise NonFinite(f"gradient not finite at iteration {steps}")
        with np.errstate(over="ignore"):  # an infinite norm is above any tol
            gnorm = math.sqrt(float(np.sum(grad1**2) + np.sum(grad2**2)))
        if gnorm < tol:
            flags.append("converged")
            break
        accepted = False
        while True:
            cand = EncoderPair(g1=enc.g1 - lr * grad1, g2=enc.g2 - lr * grad2)
            try:
                cand_loss, cand_grad = _value_and_gradient(spec, cand, x, xt)
            except NonFinite:  # a log aggregate outside its domain
                cand_loss = math.nan
            if np.isfinite(cand_loss) and cand_loss <= cur_loss:
                enc, cur_loss, grad = cand, cand_loss, cand_grad
                accepted = True
                break
            if halvings >= 20:
                break
            lr *= 0.5
            halvings += 1
        if not accepted:
            flags.append("step-budget-exhausted")
            break
        steps += 1
        trace.append(cur_loss)
    return FitResult(enc=enc, product=enc.product, iterations=steps,
                     final_loss=cur_loss, trace=trace, flags=tuple(flags))


def fit_approx_infonce(data, r: int, spec: LossSpec,
                       init: EncoderPair | None = None) -> FitResult:
    """One-shot surrogate for a softmax-family loss.

    Freezes the beta weight tables at the initialization (the linear
    closed form when none is given), forms the weighted contrast matrix,
    and returns its truncated SVD as the product (no 1 / rho scaling; the
    ridge is not part of the frozen-weight objective).
    """
    if spec.psi != "exp" or spec.phi not in ("log", "log1p"):
        raise InvalidInput("frozen-weight surrogate needs a softmax-family loss")
    if init is None:
        init = fit_linear_closed_form(data, r, spec.rho).enc
    sims = similarity_matrix(init, data.x, data.xt)
    weights = compute_weights(spec, sims)
    s_mat = contrastive_cross_covariance(weights, data.x, data.xt, spec.cn)
    enc, product, s_r, flags = _truncated_fit(s_mat, r, 1.0)
    final = _finite(loss_value(spec, enc, data), "final loss")
    meta = {
        "singular_values": s_r,
        "beta_diag": weights.beta_diag,
        "beta_off": weights.beta_off,
    }
    return FitResult(enc=enc, product=product, iterations=0, final_loss=final,
                     trace=None, flags=flags, meta=meta)


@dataclass(frozen=True)
class EdgeEstimate:
    """Output of estimate_edges: the kept pairs, the score of the last pair
    kept, and the size of the mutual-argmax pool (at least n entries)."""

    edges: np.ndarray
    threshold: float
    pool_size: int


def estimate_edges(sims) -> EdgeEstimate:
    """The n best pairs of the pool that holds each row's and each column's
    argmax in a square similarity matrix, ties broken lexicographically by
    index. The pairs are not necessarily one-to-one: a row or a column may
    appear in more than one of them. sims is a PoolSimilarity or a 2-D array;
    everything is read from its extrema scan, which unpaired_weights reuses."""
    sims = PoolSimilarity.of(sims)
    if sims.shape[0] != sims.shape[1]:
        raise InvalidInput(f"similarity matrix must be square, got {sims.shape}")
    n = sims.shape[0]
    if n < 1:
        raise InvalidInput("similarity matrix is empty")
    row_best, row_max, _, col_max, col_best = sims.extrema
    # Pool pairs as codes i * n + j; ascending codes are lexicographic pairs.
    items = np.arange(n, dtype=np.int64)
    codes = linalg.sorted_unique(np.concatenate([items * n + row_best,
                                                 col_best * n + items]))
    rows, cols = np.divmod(codes, n)
    # each pool pair is its row's argmax or its column's, so its score is that maximum
    scores = np.where(row_best[rows] == cols, row_max[rows], col_max[cols])
    ranked = np.lexsort((cols, rows, -scores))[:n]
    threshold = float(scores[ranked[-1]])
    kept = np.sort(ranked)
    edges = np.stack([rows[kept], cols[kept]], axis=1)
    return EdgeEstimate(edges=edges, threshold=threshold, pool_size=codes.size)


def fit_semisupervised(paired, unpaired, r: int, spec: LossSpec,
                       init_mode: str = "linear") -> FitResult:
    """Two-step learning from a paired set plus an unpaired pool.

    Step one fits anchor encoders on the paired set (linear closed form,
    or gradient descent on the smoothed softmax loss when
    init_mode="infonce"). Step two scores the unpaired pool with the
    anchors, estimates a pair set, forms the unpaired contrast matrix
    with the symmetrized softmax table, and returns its truncated SVD
    scaled by 1 / rho. The pool's scores are held as two n x r factors
    (PoolSimilarity), never as an n x n table.
    """
    flags = ("nu-not-above-one",) if spec.nu <= 1.0 else ()
    if init_mode == "linear":
        anchor_fit = fit_linear_closed_form(paired, r, spec.rho)
    elif init_mode == "infonce":
        anchor_fit = fit_gradient_descent(replace(spec, phi="log1p", psi="exp"), paired, r,
                                          lr=0.05, max_iter=2000, tol=1e-10, seed=0)
    else:
        raise InvalidInput(f"init_mode must be 'linear' or 'infonce', got {init_mode!r}")

    xu = linalg.as_matrix(unpaired.x, "unpaired x")
    xtu = linalg.as_matrix(unpaired.xt, "unpaired xt")
    sims_u = PoolSimilarity.encode(anchor_fit.enc, xu, xtu)
    est = estimate_edges(sims_u)
    weights = unpaired_weights(sims_u, spec.tau, spec.nu, est.edges)
    s_hat = contrastive_cross_covariance(weights, xu, xtu, "n")
    enc, product, s_r, gap_flags = _truncated_fit(s_hat, r, 1.0 / spec.rho)
    meta = {
        "singular_values": s_r,
        "edges": est.edges,
        "edge_threshold": est.threshold,
        "edge_pool_size": est.pool_size,
        "init_product": anchor_fit.product,
        "init_flags": anchor_fit.flags,
    }
    return FitResult(enc=enc, product=product, iterations=0,
                     final_loss=_finite(loss_value(spec, enc, paired), "final loss"),
                     trace=None, flags=flags + gap_flags, meta=meta)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFinite instead
def fit_sscl_baseline(
    x,
    r: int,
    rho: float = 1.0,
    mode: str = "expected",
    k_draws: int = 2000,
    seed=0,
) -> FitResult:
    """Single-modality baseline that contrasts random coordinate maskings.

    A mask a splits a sample into (a * x, (1 - a) * x); the contrast
    matrix is the centered second moment restricted to coordinate pairs
    split across the two halves. mode="expected" uses the closed form
    (off-diagonal of the second moment, scaled by 1/4); mode="sampled"
    averages over k_draws Bernoulli(1/2) masks. The product is the
    truncated SVD scaled by 1 / rho.
    """
    x = linalg.as_matrix(x, "x")
    if x.shape[0] < 2:
        raise InvalidInput("need at least 2 samples")
    if not 0 < rho < np.inf:
        raise InvalidInput(f"rho must be positive and finite, got {rho}")
    xc = x - x.mean(axis=0)
    if not np.any(xc):
        raise DegenerateData("all samples identical")
    second = xc.T @ xc / (x.shape[0] - 1)
    if mode == "expected":
        s_mask = 0.25 * (second - np.diag(np.diag(second)))
    elif mode == "sampled":
        if k_draws < 1:
            raise InvalidInput(f"k_draws must be at least 1, got {k_draws}")
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, 2, size=(k_draws, x.shape[1])).astype(np.float64)
        pair_freq = masks.T @ (1.0 - masks) / k_draws
        s_mask = second * pair_freq
    else:
        raise InvalidInput(f"mode must be 'expected' or 'sampled', got {mode!r}")
    enc, product, s_r, flags = _truncated_fit(s_mask, r, 1.0 / rho)
    if not np.any(s_mask):
        flags = flags + ("degenerate-masked-covariance",)
    final = _linear_objective(product, s_mask, rho)
    meta = {"singular_values": s_r, "mode": mode, "contrast_matrix": s_mask}
    return FitResult(enc=enc, product=product, iterations=0, final_loss=final,
                     trace=None, flags=flags, meta=meta)
