"""Dense reference implementations that the tests check the library against.

Each builds its weight table densely from the loss definition and shares no
kernel with the library's routes, _paired_pass and the streamed unpaired
contrast (test_losses.py checks that this module names none of them).
"""

from dataclasses import dataclass

import numpy as np

from mmcl.errors import InvalidInput, NonFinite
from mmcl.linalg import _check_rank, as_matrix, svd
from mmcl.losses import LossSpec, c_n_value


def _log_sum_exp(z: np.ndarray, axis: int, log1p: bool = False,
                 normalize: bool = False) -> np.ndarray:
    """Log-sum-exp L along axis (log(1 + sum exp z) with log1p), keeping the axis.

    One exponentiation per entry: z becomes exp(z - m), m the maximum along
    axis, and with normalize is scaled by exp(m - L) <= 1 to exp(z - L).
    """
    m = np.max(z, axis=axis, keepdims=True)
    z -= m
    np.exp(z, out=z)
    lse = m + np.log(np.sum(z, axis=axis, keepdims=True))
    if log1p:
        lse = np.logaddexp(0.0, lse)
    if normalize:
        z *= np.exp(m - lse)
    return lse


def _aggregate(spec: LossSpec, z: np.ndarray, axis: int, want_alpha: bool = False):
    """phi of each epsilon-weighted psi aggregate along axis, and the alpha table.

    z is square with entry (i, j) = s_ij - nu * s_ii for axis=1 and
    s_ij - nu * s_jj for axis=0. It is used as scratch; with want_alpha it
    ends up holding epsilon-weighted phi'(aggregate) * psi'(entry).
    """
    diag = np.einsum("ii->i", z)  # writable view of the diagonal
    if spec.psi == "exp":
        z /= spec.tau
        diag += np.log(spec.epsilon)
        if spec.phi != "identity":
            lse = _log_sum_exp(z, axis, log1p=spec.phi == "log1p", normalize=want_alpha)
            return spec.tau * lse.ravel(), z
        np.exp(z, out=z)
        return np.sum(z, axis=axis), (z / spec.tau if want_alpha else z)
    # psi identity: psi' = 1 and the aggregate is a plain weighted sum
    diag *= spec.epsilon
    t = np.sum(z, axis=axis, keepdims=True)
    if spec.phi == "identity":
        dphi = 1.0
    else:
        arg = t if spec.phi == "log" else 1.0 + t
        if want_alpha and np.any(arg <= 0):
            raise NonFinite("log of a nonpositive aggregate" if spec.phi == "log"
                            else "log1p of an aggregate at or below -1")
        dphi = spec.tau / arg
        t = spec.tau * (np.log(t) if spec.phi == "log" else np.log1p(t))
    if want_alpha:
        z[...] = dphi
        diag *= spec.epsilon
    return t.ravel(), z


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf / nan, no warning
def _anchored(spec: LossSpec, sims: np.ndarray, want_alpha: bool = False):
    """_aggregate of the row-anchored and the column-anchored tables; sims is overwritten."""
    nu_diag = spec.nu * np.diag(sims)
    row = _aggregate(spec, sims - nu_diag[:, None], 1, want_alpha)
    sims -= nu_diag[None, :]
    return row, _aggregate(spec, sims, 0, want_alpha)


@dataclass(frozen=True)
class ContrastiveWeights:
    """Paired weight tables that express a loss as a pair-versus-cross contrast:
    beta_diag on each observed pair, the zero-diagonal beta_off on cross
    pairs, and the raw alpha tables for diagnostics."""

    beta_diag: np.ndarray
    beta_off: np.ndarray
    alpha: np.ndarray | None = None
    alpha_bar: np.ndarray | None = None


def compute_weights(spec: LossSpec, sims) -> ContrastiveWeights:
    """Beta weight tables of the loss at the given similarity matrix."""
    sims = as_matrix(np.array(sims, dtype=np.float64), "sims")
    if sims.shape[0] != sims.shape[1]:
        raise InvalidInput(f"paired similarities must be square, got {sims.shape}")
    if sims.shape[0] < 2:
        raise InvalidInput("need at least 2 samples")
    (_, alpha), (_, alpha_bar_t) = _anchored(spec, sims, want_alpha=True)
    tot = np.sum(alpha, axis=1) + np.sum(alpha_bar_t, axis=0)
    beta_diag = spec.nu * tot / 2.0 - (np.diag(alpha) + np.diag(alpha_bar_t)) / 2.0
    beta_off = (alpha + alpha_bar_t) / 2.0
    np.fill_diagonal(beta_off, 0.0)
    return ContrastiveWeights(
        beta_diag=beta_diag, beta_off=beta_off, alpha=alpha, alpha_bar=alpha_bar_t.T,
    )


def paired_contrast(weights: ContrastiveWeights, x, xt, c_n: str) -> np.ndarray:
    """x.T (diag(beta_diag) - beta_off) xt over the normalizer rule c_n."""
    mixed = weights.beta_diag[:, None] * xt - weights.beta_off @ xt
    return x.T @ mixed / c_n_value(c_n, x.shape[0])


def svd_top_r(a, r: int) -> np.ndarray:
    """Best rank-r approximation of a in Frobenius norm."""
    arr = as_matrix(a)
    _check_rank(r, arr.shape)
    res = svd(arr)
    return (res.u[:, :r] * res.s[:r]) @ res.v[:, :r].T


def two_softmax_table(sims, tau):
    """Dense average of the row softmax and the column softmax of sims / tau."""
    a = sims / tau
    rows = np.exp(a - a.max(axis=1, keepdims=True))
    rows /= rows.sum(axis=1, keepdims=True)
    cols = np.exp(a - a.max(axis=0, keepdims=True))
    cols /= cols.sum(axis=0, keepdims=True)
    return (rows + cols) / 2.0


def dense_contrast(x, xt, sims, tau, nu, edges, cn):
    """The unpaired contrast from the dense two_softmax_table oracle."""
    pair_term = x[edges[:, 0]].T @ xt[edges[:, 1]]
    return (nu * pair_term - x.T @ (two_softmax_table(sims, tau) @ xt)) / cn
