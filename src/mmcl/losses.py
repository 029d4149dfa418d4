"""Contrastive losses over similarity matrices, their weight tables and gradients.

The loss family is parameterized by an outer transform phi, an inner
transform psi, a diagonal weight epsilon, a margin multiplier nu, a
temperature tau, a normalizer rule, and a ridge penalty rho on the
encoder product. Identity transforms give the linear loss; log/exp with
epsilon=1 gives the CLIP loss; log/exp with epsilon=0 gives InfoNCE.

Weight tables (alpha, alpha-bar, beta) express any loss in this family as
a weighted contrast between observed pairs and cross pairs; the gradient
assembles the same alpha tables into a per-entry weight matrix instead,
which gives an independent route to the same derivative.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .errors import InvalidInput, NonFinite

PHI_NAMES = ("identity", "log", "log1p")
PSI_NAMES = ("identity", "exp")
CN_RULES = ("n(n-1)", "n")
_BLOCK_ROWS = 64  # rows per block when unpaired_weights streams its table


@dataclass(frozen=True)
class LossSpec:
    """Full description of one member of the contrastive loss family.

    Attributes:
      phi: outer transform, one of identity / log / log1p (the log family
        is scaled by tau).
      psi: inner transform, identity or exp(. / tau).
      epsilon: weight of the diagonal (observed-pair) term inside the
        aggregate, in [0, 1].
      nu: multiplier on the observed-pair similarity subtracted inside
        psi, at least 1.
      tau: temperature, positive.
      cn: normalizer rule, "n(n-1)" or "n".
      rho: ridge penalty on the encoder product, positive.
    """

    phi: str = "identity"
    psi: str = "identity"
    epsilon: float = 1.0
    nu: float = 1.0
    tau: float = 1.0
    cn: str = "n(n-1)"
    rho: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "nu", "tau", "rho"):
            val = getattr(self, name)
            if not isinstance(val, numbers.Real) or not np.isfinite(val):
                raise InvalidInput(f"{name} must be a finite number, got {val!r}")
        if self.phi not in PHI_NAMES:
            raise InvalidInput(f"phi must be one of {PHI_NAMES}, got {self.phi!r}")
        if self.psi not in PSI_NAMES:
            raise InvalidInput(f"psi must be one of {PSI_NAMES}, got {self.psi!r}")
        if self.cn not in CN_RULES:
            raise InvalidInput(f"cn must be one of {CN_RULES}, got {self.cn!r}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise InvalidInput(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not self.nu >= 1.0:
            raise InvalidInput(f"nu must be at least 1, got {self.nu}")
        if not self.tau > 0.0:
            raise InvalidInput(f"tau must be positive, got {self.tau}")
        if not self.rho > 0.0:
            raise InvalidInput(f"rho must be positive, got {self.rho}")

    @classmethod
    def linear(cls, rho: float = 1.0) -> "LossSpec":
        """Identity transforms, normalizer n(n-1)."""
        return cls(phi="identity", psi="identity", epsilon=1.0, nu=1.0,
                   tau=1.0, cn="n(n-1)", rho=rho)

    @classmethod
    def clip(cls, tau: float, rho: float = 1.0, nu: float = 1.0) -> "LossSpec":
        """Symmetric log-softmax with the observed pair kept in the aggregate."""
        return cls(phi="log", psi="exp", epsilon=1.0, nu=nu, tau=tau, cn="n", rho=rho)

    @classmethod
    def infonce(cls, tau: float, rho: float = 1.0, nu: float = 1.0,
                smoothed: bool = False) -> "LossSpec":
        """Log-softmax over cross pairs only (epsilon = 0).

        smoothed=True replaces log with log1p, which stays finite at zero
        aggregate and is the variant used for gradient-based pretraining.
        """
        return cls(phi="log1p" if smoothed else "log", psi="exp", epsilon=0.0,
                   nu=nu, tau=tau, cn="n", rho=rho)

    def to_json(self) -> dict:
        return {
            "phi": self.phi, "psi": self.psi, "epsilon": self.epsilon,
            "nu": self.nu, "tau": self.tau, "cn": self.cn, "rho": self.rho,
        }


def c_n_value(rule: str, n: int) -> float:
    """Numeric normalizer for a batch of n pairs."""
    if n < 2:
        raise InvalidInput(f"contrastive losses need at least 2 samples, got {n}")
    if rule == "n":
        return float(n)
    if rule == "n(n-1)":
        return float(n) * float(n - 1)
    raise InvalidInput(f"cn must be one of {CN_RULES}, got {rule!r}")


def schedule_tau(r: int, n_unpaired: int, scale: float = 1.0) -> float:
    """Temperature scale / 2 * sqrt(r / log n) for an unpaired pool."""
    if r < 1:
        raise InvalidInput(f"rank must be at least 1, got {r}")
    if n_unpaired < 2:
        raise InvalidInput(f"pool size must be at least 2, got {n_unpaired}")
    return float(scale / 2.0 * np.sqrt(r / np.log(n_unpaired)))


@dataclass(frozen=True)
class EncoderPair:
    """Linear encoders g1 (r x d1) and g2 (r x d2) for the two modalities."""

    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        g1 = as_matrix(self.g1, "g1")
        g2 = as_matrix(self.g2, "g2")
        if g1.shape[0] != g2.shape[0]:
            raise InvalidInput(
                f"encoders must share the output dimension, got {g1.shape} and {g2.shape}"
            )
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    @property
    def r(self) -> int:
        return self.g1.shape[0]

    @property
    def product(self) -> np.ndarray:
        return self.g1.T @ self.g2


def similarity_matrix(enc: EncoderPair, x, xt) -> np.ndarray:
    """Pairwise inner products of encoded samples, rows indexing x."""
    x = as_matrix(x, "x")
    xt = as_matrix(xt, "xt")
    return (x @ enc.g1.T) @ (enc.g2 @ xt.T)


def _data_arrays(data):
    if hasattr(data, "x") and hasattr(data, "xt"):
        return as_matrix(data.x, "x"), as_matrix(data.xt, "xt")
    if isinstance(data, (tuple, list)) and len(data) == 2:
        return as_matrix(data[0], "x"), as_matrix(data[1], "xt")
    raise InvalidInput("data must expose x and xt arrays")


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
        with np.errstate(divide="ignore"):
            diag += np.log(spec.epsilon)
        if spec.phi != "identity":
            lse = _log_sum_exp(z, axis, log1p=spec.phi == "log1p", normalize=want_alpha)
            return spec.tau * lse.ravel(), z
        with np.errstate(over="ignore"):
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
        with np.errstate(invalid="ignore", divide="ignore"):
            dphi = spec.tau / arg
            t = spec.tau * (np.log(t) if spec.phi == "log" else np.log1p(t))
    if want_alpha:
        z[...] = dphi
        diag *= spec.epsilon
    return t.ravel(), z


def _anchored(spec: LossSpec, sims: np.ndarray, want_alpha: bool = False):
    """_aggregate of the row-anchored and the column-anchored tables; sims is overwritten."""
    nu_diag = spec.nu * np.diag(sims)
    row = _aggregate(spec, sims - nu_diag[:, None], 1, want_alpha)
    sims -= nu_diag[None, :]
    return row, _aggregate(spec, sims, 0, want_alpha)


def _alpha_tables(spec: LossSpec, sims: np.ndarray):
    """alpha and alpha-bar transposed at the given similarities, which are overwritten."""
    sims = as_matrix(sims, "sims")
    if sims.shape[0] != sims.shape[1]:
        raise InvalidInput(f"paired similarities must be square, got {sims.shape}")
    if sims.shape[0] < 2:
        raise InvalidInput("need at least 2 samples")
    (_, alpha), (_, alpha_bar_t) = _anchored(spec, sims, want_alpha=True)
    return alpha, alpha_bar_t


def loss_value(spec: LossSpec, enc: EncoderPair, data) -> float:
    """Value of the contrastive loss plus the ridge penalty.

    May return inf or nan when an identity-phi aggregate overflows or a
    log leaves its domain; iterative solvers treat such steps as
    rejected rather than fatal.
    """
    x, xt = _data_arrays(data)
    sims = similarity_matrix(enc, x, xt)
    if sims.shape[0] != sims.shape[1]:
        raise InvalidInput("paired loss needs equally many samples per modality")
    cn = c_n_value(spec.cn, sims.shape[0])
    (row_totals, _), (col_totals, _) = _anchored(spec, sims)
    contrast = np.sum(row_totals) + np.sum(col_totals)
    ridge = 0.5 * spec.rho * float(np.sum(enc.product ** 2))
    return float(contrast / (2.0 * cn) + ridge)


@dataclass(frozen=True)
class ContrastiveWeights:
    """Weight tables that express a loss as a pair-versus-cross contrast.

    In paired mode beta_diag holds the per-sample weight on the observed
    pair and beta_off the (zero-diagonal) weights on cross pairs, and the
    raw alpha tables are kept for diagnostics. In unpaired mode beta_off
    holds the full symmetrized softmax table (diagonal included),
    beta_diag is zero, and edges carries the pair set whose empirical
    cross-covariance enters with weight nu.
    """

    beta_diag: np.ndarray
    beta_off: np.ndarray
    mode: str
    alpha: np.ndarray | None = None
    alpha_bar: np.ndarray | None = None
    edges: np.ndarray | None = None
    nu: float | None = None


def compute_weights(spec: LossSpec, sims) -> ContrastiveWeights:
    """Beta weight tables of the loss at the given similarity matrix."""
    alpha, alpha_bar_t = _alpha_tables(spec, np.array(sims, dtype=np.float64))
    tot = np.sum(alpha, axis=1) + np.sum(alpha_bar_t, axis=0)
    beta_diag = spec.nu * tot / 2.0 - (np.diag(alpha) + np.diag(alpha_bar_t)) / 2.0
    beta_off = (alpha + alpha_bar_t) / 2.0
    np.fill_diagonal(beta_off, 0.0)
    return ContrastiveWeights(
        beta_diag=beta_diag, beta_off=beta_off, mode="paired",
        alpha=alpha, alpha_bar=alpha_bar_t.T,
    )


def unpaired_weights(sims, tau: float, nu: float, edges) -> ContrastiveWeights:
    """Symmetrized full-support softmax table plus a pair set for unpaired data.

    The table averages the row softmax and the column softmax of
    sims / tau over all entries (no diagonal anchoring: nothing marks any
    entry as an observed pair).
    """
    sims = as_matrix(sims, "sims")
    if not tau > 0:
        raise InvalidInput(f"tau must be positive, got {tau}")
    if not nu >= 1.0:
        raise InvalidInput(f"nu must be at least 1, got {nu}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] == 0:
        raise InvalidInput("unpaired weights need a nonempty pair set")
    if (np.any(edges[:, 0] < 0) or np.any(edges[:, 0] >= sims.shape[0])
            or np.any(edges[:, 1] < 0) or np.any(edges[:, 1] >= sims.shape[1])):
        raise InvalidInput("pair indices out of range")
    # Two passes over row blocks: the first parks exp(a - column max) in
    # beta and sums the columns, the second adds each block's row softmax.
    col_max = np.max(sims, axis=0) / tau
    col_sum = np.zeros(sims.shape[1])
    beta = np.empty(sims.shape)
    blocks = [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, sims.shape[0], _BLOCK_ROWS)]
    for rows in blocks:
        block = np.divide(sims[rows], tau, out=beta[rows])
        block -= col_max
        col_sum += np.sum(np.exp(block, out=block), axis=0)
    half_col = 0.5 / col_sum
    for rows in blocks:
        row_part = sims[rows] / tau
        _log_sum_exp(row_part, 1, normalize=True)
        row_part *= 0.5
        block = beta[rows]
        block *= half_col
        block += row_part
    return ContrastiveWeights(
        beta_diag=np.zeros(sims.shape[0]), beta_off=beta, mode="unpaired",
        edges=edges, nu=float(nu),
    )


def contrastive_cross_covariance(weights: ContrastiveWeights, x, xt, c_n: str) -> np.ndarray:
    """Weighted contrast of pair outer products against cross outer products.

    c_n is a normalizer rule, "n(n-1)" or "n". Paired mode contrasts the
    diagonal against off-diagonal cross terms; unpaired mode contrasts the
    stored pair set (weight nu) against the full softmax table.
    """
    x = as_matrix(x, "x")
    xt = as_matrix(xt, "xt")
    n = x.shape[0]
    cn = c_n_value(c_n, n)
    if weights.beta_off.shape != (n, xt.shape[0]):
        raise InvalidInput("weight table does not match the data shape")
    if weights.mode == "paired":
        mixed = weights.beta_diag[:, None] * xt - weights.beta_off @ xt
        return (x.T @ mixed) / cn
    if weights.mode == "unpaired":
        if weights.edges is None or weights.nu is None:
            raise InvalidInput("unpaired weights must carry a pair set and nu")
        pair_term = x[weights.edges[:, 0]].T @ xt[weights.edges[:, 1]]
        return (weights.nu * pair_term - x.T @ (weights.beta_off @ xt)) / cn
    raise InvalidInput(f"unknown weights mode {weights.mode!r}")


def loss_gradient(spec: LossSpec, enc: EncoderPair, data):
    """Gradients of loss_value with respect to g1 and g2.

    Assembled from the alpha tables as a per-entry weight matrix on the
    similarity derivatives (an independent route from the beta tables of
    compute_weights; the two agree analytically).
    """
    x, xt = _data_arrays(data)
    sims = similarity_matrix(enc, x, xt)
    if sims.shape[0] != sims.shape[1]:
        raise InvalidInput("paired loss needs equally many samples per modality")
    cn = c_n_value(spec.cn, sims.shape[0])
    w, alpha_bar_t = _alpha_tables(spec, sims)
    tot = np.sum(w, axis=1) + np.sum(alpha_bar_t, axis=0)
    diag_w = (np.diag(w) + np.diag(alpha_bar_t) - spec.nu * tot) / (2.0 * cn)
    w += alpha_bar_t
    w /= 2.0 * cn
    np.fill_diagonal(w, diag_w)
    p = x.T @ (w @ xt)
    grad_g1 = enc.g2 @ p.T + spec.rho * (enc.g2 @ enc.g2.T) @ enc.g1
    grad_g2 = enc.g1 @ p + spec.rho * (enc.g1 @ enc.g1.T) @ enc.g2
    return grad_g1, grad_g2
