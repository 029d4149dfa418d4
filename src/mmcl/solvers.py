"""Fitting routines: closed forms, gradient descent, and the two-step
semi-supervised procedure that learns from an unpaired pool.

Every solver returns a FitResult whose product equals g1.T @ g2 up to
floating-point roundoff. Closed forms realize the encoders from the
truncated SVD of a contrast matrix: product U C V^T / rho gives
g1 = (C / rho)^(1/2) U^T and g2 = (C / rho)^(1/2) V^T.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateData, InvalidInput, InvalidRank, NonFinite
from .losses import (
    EncoderPair,
    LossSpec,
    compute_weights,
    contrastive_cross_covariance,
    loss_gradient,
    loss_value,
    similarity_matrix,
    unpaired_weights,
)

_ARGMAX_BLOCK_ROWS = 32  # rows per block of the column argmax in estimate_edges


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


def _realize(u_r: np.ndarray, s_r: np.ndarray, v_r: np.ndarray, scale: float):
    c = np.sqrt(scale * s_r)
    enc = EncoderPair(g1=c[:, None] * u_r.T, g2=c[:, None] * v_r.T)
    product = (u_r * (scale * s_r)) @ v_r.T
    return enc, product


def _truncate(mat: np.ndarray, r: int):
    """Top-r SVD triple plus a degenerate-gap indicator."""
    res = linalg.svd(mat)
    if r < 1 or r > res.s.shape[0]:
        raise InvalidRank(f"rank {r} not in [1, {res.s.shape[0]}] for shape {mat.shape}")
    s_next = res.s[r] if r < res.s.shape[0] else 0.0
    degenerate = bool(res.s[r - 1] - s_next <= linalg.GAP_TOL)
    return res.u[:, :r], res.s[:r].copy(), res.v[:, :r], degenerate


def centered_cross_covariance(x, xt) -> np.ndarray:
    """Sample cross-covariance with the (n - 1) normalizer."""
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
    return xc.T @ xtc / (x.shape[0] - 1)


def fit_linear_closed_form(data, r: int, rho: float = 1.0) -> FitResult:
    """Minimizer of the linear contrastive loss: truncated SVD of the
    centered cross-covariance, scaled by 1 / rho."""
    if not rho > 0:
        raise InvalidInput(f"rho must be positive, got {rho}")
    sbar = centered_cross_covariance(data.x, data.xt)
    u_r, s_r, v_r, degenerate = _truncate(sbar, r)
    enc, product = _realize(u_r, s_r, v_r, 1.0 / rho)
    flags = ("degenerate-gap",) if degenerate else ()
    # the linear loss reduces exactly to -<product, sbar> plus the ridge,
    # which avoids materializing the n x n similarity matrix
    final = float(-np.sum(product * sbar) + 0.5 * rho * np.sum(product**2))
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
    retries, with at most 20 halvings over the whole run. lr = 0 returns
    the initialization unchanged with iterations = max_iter and a
    no-progress flag.
    """
    x = linalg.as_matrix(data.x, "x")
    xt = linalg.as_matrix(data.xt, "xt")
    if not lr >= 0:
        raise InvalidInput(f"learning rate must be nonnegative, got {lr}")
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
    for _ in range(max_iter):
        grad1, grad2 = loss_gradient(spec, enc, data)
        if not (np.all(np.isfinite(grad1)) and np.all(np.isfinite(grad2))):
            raise NonFinite(f"gradient not finite at iteration {steps}")
        gnorm = math.sqrt(float(np.sum(grad1**2) + np.sum(grad2**2)))
        if gnorm < tol:
            flags.append("converged")
            break
        accepted = False
        while True:
            cand = EncoderPair(g1=enc.g1 - lr * grad1, g2=enc.g2 - lr * grad2)
            cand_loss = loss_value(spec, cand, data)
            if np.isfinite(cand_loss) and cand_loss <= cur_loss:
                enc, cur_loss = cand, cand_loss
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
    u_r, s_r, v_r, degenerate = _truncate(s_mat, r)
    enc, product = _realize(u_r, s_r, v_r, 1.0)
    flags = ("degenerate-gap",) if degenerate else ()
    final = loss_value(spec, enc, data)
    meta = {
        "singular_values": s_r,
        "beta_diag": weights.beta_diag,
        "beta_off": weights.beta_off,
    }
    return FitResult(enc=enc, product=product, iterations=0, final_loss=final,
                     trace=None, flags=flags, meta=meta)


@dataclass(frozen=True)
class EdgeEstimate:
    """Pair set read off a similarity matrix by mutual-argmax pooling.

    The candidate pool holds each row's argmax and each column's argmax;
    the n largest pool entries (ties broken lexicographically by index)
    form the estimate. threshold is the value of the last pair kept.
    short_pool records the structurally impossible case of a pool smaller
    than n, in which the whole pool is returned.
    """

    edges: np.ndarray
    threshold: float
    pool_size: int
    short_pool: bool = False


def estimate_edges(sims) -> EdgeEstimate:
    """Estimate a one-to-one pair set from a square similarity matrix."""
    sims = linalg.as_matrix(sims, "sims")
    if sims.shape[0] != sims.shape[1]:
        raise InvalidInput(f"similarity matrix must be square, got {sims.shape}")
    n = sims.shape[0]
    if n < 1:
        raise InvalidInput("similarity matrix is empty")
    # np.argmax(sims, axis=0), as a running maximum over row blocks that
    # moves only on a strictly larger value, so ties keep the first row.
    col_max = np.full(n, -np.inf)
    col_best = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _ARGMAX_BLOCK_ROWS):
        block = sims[lo:lo + _ARGMAX_BLOCK_ROWS]
        block_max = np.max(block, axis=0)
        cols = np.flatnonzero(block_max > col_max)
        col_max[cols] = block_max[cols]
        col_best[cols] = lo + np.argmax(block[:, cols] == block_max[cols], axis=0)
    # Pool pairs as codes i * n + j; ascending codes are lexicographic pairs.
    items = np.arange(n, dtype=np.int64)
    codes = linalg.sorted_unique(np.concatenate([items * n + np.argmax(sims, axis=1),
                                                 col_best * n + items]))
    rows, cols = np.divmod(codes, n)
    scores = sims[rows, cols]
    ranked = np.lexsort((cols, rows, -scores))[:n]
    threshold = float(scores[ranked[-1]])
    kept = np.sort(ranked)
    edges = np.stack([rows[kept], cols[kept]], axis=1)
    return EdgeEstimate(edges=edges, threshold=threshold,
                        pool_size=codes.size, short_pool=codes.size < n)


def matching_accuracy(enc: EncoderPair, data) -> float:
    """Fraction of left samples whose similarity argmax is their true partner."""
    truth = np.asarray(data.truth_edges, dtype=np.int64)
    if truth.shape[0] == 0:
        raise InvalidInput("dataset carries no truth edges")
    sims = similarity_matrix(enc, data.x, data.xt)
    partner = np.full(sims.shape[0], -1, dtype=np.int64)
    partner[truth[:, 0]] = truth[:, 1]
    pred = np.argmax(sims, axis=1)
    known = partner >= 0
    return float(np.mean(pred[known] == partner[known]))


def fit_semisupervised(
    paired,
    unpaired,
    r: int,
    spec: LossSpec,
    init_mode: str = "linear",
    gd_options: dict | None = None,
    max_rounds: int = 1,
    anchor_gain: float = 1.1,
    validation=None,
) -> FitResult:
    """Two-step learning from a paired set plus an unpaired pool.

    Step one fits anchor encoders on the paired set (linear closed form,
    or gradient descent on the smoothed softmax loss when
    init_mode="infonce"). Step two scores the unpaired pool with the
    anchors, estimates a pair set, forms the unpaired contrast matrix
    with the symmetrized softmax table, and returns its truncated SVD
    scaled by 1 / rho.

    With max_rounds > 1 the estimate is repeated; the anchors are
    replaced by the new encoders only when matching accuracy on the
    validation set improves by the factor anchor_gain.
    """
    if max_rounds < 1:
        raise InvalidInput(f"max_rounds must be at least 1, got {max_rounds}")
    if max_rounds > 1 and validation is None:
        raise InvalidInput("iterative refinement needs a validation set")
    flags: list[str] = []
    if spec.nu <= 1.0:
        flags.append("nu-not-above-one")
    if init_mode == "linear":
        anchor_fit = fit_linear_closed_form(paired, r, spec.rho)
    elif init_mode == "infonce":
        gd_spec = spec.with_updates(phi="log1p", psi="exp")
        opts = {"lr": 0.05, "max_iter": 2000, "tol": 1e-10, "seed": 0}
        opts.update(gd_options or {})
        anchor_fit = fit_gradient_descent(gd_spec, paired, r, **opts)
    else:
        raise InvalidInput(f"init_mode must be 'linear' or 'infonce', got {init_mode!r}")

    anchors = anchor_fit.enc
    anchor_acc = matching_accuracy(anchors, validation) if validation is not None else None
    xu = linalg.as_matrix(unpaired.x, "unpaired x")
    xtu = linalg.as_matrix(unpaired.xt, "unpaired xt")
    result = None
    rounds_run = 0
    anchor_updates = 0
    est = None
    for _ in range(max_rounds):
        sims_u = similarity_matrix(anchors, xu, xtu)
        est = estimate_edges(sims_u)
        weights = unpaired_weights(sims_u, spec.tau, spec.nu, est.edges)
        s_hat = contrastive_cross_covariance(weights, xu, xtu, "n")
        u_r, s_r, v_r, degenerate = _truncate(s_hat, r)
        enc, product = _realize(u_r, s_r, v_r, 1.0 / spec.rho)
        round_flags = tuple(flags) + (("degenerate-gap",) if degenerate else ())
        result = FitResult(
            enc=enc, product=product, iterations=0,
            final_loss=loss_value(spec, enc, paired),
            trace=None, flags=round_flags,
            meta={"singular_values": s_r},
        )
        rounds_run += 1
        if rounds_run < max_rounds:
            new_acc = matching_accuracy(enc, validation)
            if anchor_acc is not None and new_acc >= anchor_gain * anchor_acc:
                anchors = enc
                anchor_acc = new_acc
                anchor_updates += 1
    result.meta.update({
        "edges": est.edges,
        "edge_threshold": est.threshold,
        "edge_pool_size": est.pool_size,
        "init_product": anchor_fit.product,
        "init_flags": anchor_fit.flags,
        "rounds_run": rounds_run,
        "anchor_updates": anchor_updates,
    })
    if est.short_pool:
        result.flags = result.flags + ("short-pool",)
    return result


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
    if not rho > 0:
        raise InvalidInput(f"rho must be positive, got {rho}")
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
    u_r, s_r, v_r, degenerate = _truncate(s_mask, r)
    enc, product = _realize(u_r, s_r, v_r, 1.0 / rho)
    flags = ("degenerate-gap",) if degenerate else ()
    if not np.any(s_mask):
        flags = flags + ("degenerate-masked-covariance",)
    final = float(-np.sum(product * s_mask) + 0.5 * rho * np.sum(product**2))
    meta = {"singular_values": s_r, "mode": mode, "contrast_matrix": s_mask}
    return FitResult(enc=enc, product=product, iterations=0, final_loss=final,
                     trace=None, flags=flags, meta=meta)
