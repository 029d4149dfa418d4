"""Contrastive losses over similarity matrices, their weight tables and gradients.

The loss family is parameterized by an outer transform phi, an inner
transform psi, a diagonal weight epsilon, a margin multiplier nu, a
temperature tau, a normalizer rule, and a ridge penalty rho on the
encoder product. Identity transforms give the linear loss; log/exp with
epsilon=1 gives the CLIP loss; log/exp with epsilon=0 gives InfoNCE.

Weight tables (alpha, alpha-bar, beta) express any loss in this family as
a weighted contrast between observed pairs and cross pairs; compute_weights
builds them densely. The loss value and gradient take a different route to
the same derivative: softmax losses (psi exp, phi log or log1p) share one
exponential of sims / tau between the row and the column tables, and the
other losses, or a similarity spread too wide for one shift, assemble the
alpha tables into a per-entry weight matrix. An unpaired pool's similarity
is never stored: PoolSimilarity keeps its two rank-r factors and rebuilds row
blocks, once for an extrema scan that the edge estimator and the weights share
and once for the contrast, which takes one exponential per pool entry; a pool
too spread for one shift takes two in the same pass, one shifted per row and
one per column.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_2d, as_matrix, require_finite
from .errors import InvalidInput, NonFinite

PHI_NAMES = ("identity", "log", "log1p")
PSI_NAMES = ("identity", "exp")
CN_RULES = ("n(n-1)", "n")
_BLOCK_ROWS = 64  # rows per block of a PoolSimilarity
_SHARED_RANGE = 600.0  # exp(-600) ~ 1e-261: a row or column sum stays a normal number


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
    """Inner products of encoded samples, PoolSimilarity.encode(enc, x, xt).dense()."""
    return PoolSimilarity.encode(enc, x, xt).dense()


class PoolSimilarity:
    """An n x m similarity table held as its factors a = x g1.T (n x r) and
    bt = g2 xt.T (r x m), or a dense table held as a (bt None).

    The table is the stack of its row blocks a[lo:hi] @ bt, rebuilt on demand;
    every score table in the package, similarity_matrix's included, is built
    from these blocks. The extrema of one pass over them are kept for
    estimate_edges and unpaired_weights. It has a length but no ndim: it is
    not a stored table.
    """

    def __init__(self, a: np.ndarray, bt: np.ndarray | None = None):
        self.a, self.bt = a, bt
        self.shape = (a.shape[0], a.shape[1] if bt is None else bt.shape[1])

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # the extrema scan reports inf / nan
    def encode(cls, enc: EncoderPair, x, xt) -> "PoolSimilarity":
        """The two factors whose product similarity_matrix(enc, x, xt) forms."""
        return cls(as_matrix(x, "x") @ enc.g1.T, enc.g2 @ as_matrix(xt, "xt").T)

    @classmethod
    def of(cls, sims) -> "PoolSimilarity":
        """sims itself if it is a PoolSimilarity, else the 2-D array it holds."""
        return sims if isinstance(sims, cls) else cls(as_2d(sims, "sims"))

    def __len__(self) -> int:
        return self.shape[0]

    @np.errstate(over="ignore", invalid="ignore")  # an overflow leaves inf / nan, no warning
    def dense(self) -> np.ndarray:
        """The whole table, each row block written in place as block() builds it."""
        if self.bt is None:
            return self.a
        out = np.empty(self.shape)
        for lo in range(0, self.shape[0], _BLOCK_ROWS):
            np.matmul(self.a[lo:lo + _BLOCK_ROWS], self.bt, out=out[lo:lo + _BLOCK_ROWS])
        return out

    @np.errstate(over="ignore", invalid="ignore")  # the extrema scan reports inf / nan
    def block(self, lo: int) -> np.ndarray:
        """Rows lo to lo + _BLOCK_ROWS: a new array, or a view of a dense table."""
        rows = self.a[lo:lo + _BLOCK_ROWS]
        return rows if self.bt is None else rows @ self.bt

    def blocks(self):
        return ((lo, self.block(lo)) for lo in range(0, self.shape[0], _BLOCK_ROWS))

    @cached_property
    def extrema(self):
        """(row argmax, row max, row min, column max, column argmax), a column's
        argmax being the first row at its maximum, from one pass over the blocks.
        InvalidInput on a non-finite entry: a NaN or inf shows in its row's
        maximum, a -inf in its row's minimum."""
        n, m = self.shape
        row_best, row_max, row_min = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
        col_max, col_best = np.full(m, -np.inf), np.zeros(m, dtype=np.int64)
        for lo, block in self.blocks():
            rows = slice(lo, lo + block.shape[0])
            row_best[rows] = best = np.argmax(block, axis=1)
            row_max[rows] = block[np.arange(block.shape[0]), best]
            row_min[rows] = np.min(block, axis=1)
            block_max = np.max(block, axis=0)  # moves a column only when strictly larger
            cols = np.flatnonzero(block_max > col_max)
            col_max[cols] = block_max[cols]
            col_best[cols] = lo + np.argmax(block[:, cols] == block_max[cols], axis=0)
        require_finite(np.concatenate([row_max, row_min]), "sims")
        return row_best, row_max, row_min, col_max, col_best


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


def loss_value(spec: LossSpec, enc: EncoderPair, data) -> float:
    """Value of the contrastive loss plus the ridge penalty.

    May return inf or nan when an identity-phi aggregate overflows or a
    log leaves its domain; iterative solvers treat such steps as
    rejected rather than fatal.
    """
    return _value_and_gradient(spec, enc, *_data_arrays(data), want_gradient=False)[0]


@dataclass(frozen=True)
class ContrastiveWeights:
    """Paired weight tables that express a loss as a pair-versus-cross contrast:
    beta_diag on each observed pair, the zero-diagonal beta_off on cross
    pairs, and the raw alpha tables for diagnostics."""

    beta_diag: np.ndarray
    beta_off: np.ndarray
    alpha: np.ndarray | None = None
    alpha_bar: np.ndarray | None = None


@dataclass(frozen=True)
class UnpairedWeights:
    """An unpaired pool's symmetrized softmax table, never stored, plus the pair
    set whose empirical cross-covariance enters with weight nu. Holds the
    pool's PoolSimilarity and the row and column maxima of sims / tau; the
    contrast streams the table, and beta_off builds it densely on each call."""

    sims: PoolSimilarity
    tau: float
    row_max: np.ndarray
    col_max: np.ndarray
    edges: np.ndarray
    nu: float

    @property
    def beta_off(self) -> np.ndarray:
        rows = self.sims.dense() / self.tau
        beta = np.subtract(rows, self.col_max)
        np.exp(beta, out=beta)
        beta /= 2.0 * np.sum(beta, axis=0)
        rows -= self.row_max[:, None]
        np.exp(rows, out=rows)
        rows /= 2.0 * np.sum(rows, axis=1, keepdims=True)
        beta += rows
        return beta


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


def unpaired_weights(sims, tau: float, nu: float, edges) -> UnpairedWeights:
    """Full-support softmax table of sims / tau, the average of its row and its
    column softmax over all entries (nothing marks an entry as an observed
    pair), plus a pair set. sims is a PoolSimilarity or a 2-D array. The row
    and column maxima of sims / tau come from its extrema scan, which
    estimate_edges may already have taken, and no exponential is taken; a
    non-finite entry raises InvalidInput, an overflowing sims / tau NonFinite."""
    sims = PoolSimilarity.of(sims)
    if not 0 < tau < np.inf:
        raise InvalidInput(f"tau must be positive and finite, got {tau}")
    if not 1.0 <= nu < np.inf:
        raise InvalidInput(f"nu must be at least 1 and finite, got {nu}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] == 0:
        raise InvalidInput("unpaired weights need a nonempty pair set")
    if np.any(edges < 0) or np.any(edges >= sims.shape):
        raise InvalidInput("pair indices out of range")
    _, row_max, row_min, col_max, _ = sims.extrema
    with np.errstate(over="ignore"):  # max(s) / tau == max(s / tau), and so for min
        row_max, row_min, col_max = row_max / tau, row_min / tau, col_max / tau
    if not np.all(np.isfinite((row_max, row_min))):
        raise NonFinite(f"sims / tau overflows at tau {tau}")
    return UnpairedWeights(sims=sims, tau=tau, row_max=row_max, col_max=col_max,
                           edges=edges, nu=float(nu))


@np.errstate(over="ignore", invalid="ignore")  # an overflow leaves inf / nan, no warning
def contrastive_cross_covariance(weights: ContrastiveWeights | UnpairedWeights, x, xt,
                                 c_n: str) -> np.ndarray:
    """Weighted contrast of pair outer products against cross outer products.

    c_n is a normalizer rule, "n(n-1)" or "n". ContrastiveWeights contrast
    the diagonal against off-diagonal cross terms; UnpairedWeights contrast
    the stored pair set (weight nu) against the full softmax table, which is
    streamed in row blocks.
    """
    x = as_matrix(x, "x")
    xt = as_matrix(xt, "xt")
    n = x.shape[0]
    cn = c_n_value(c_n, n)
    unpaired = isinstance(weights, UnpairedWeights)
    if (weights.sims if unpaired else weights.beta_off).shape != (n, xt.shape[0]):
        raise InvalidInput("weight table does not match the data shape")
    if not unpaired:
        mixed = weights.beta_diag[:, None] * xt - weights.beta_off @ xt
        return (x.T @ mixed) / cn
    pair_term = x[weights.edges[:, 0]].T @ xt[weights.edges[:, 1]]
    return (weights.nu * pair_term - _pool_softmax_term(weights, x, xt)) / cn


def _pool_softmax_term(w: UnpairedWeights, x: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """x.T @ table @ xt of an unpaired pool from one pass over the row blocks of
    sims / tau. It sums E @ [xt | 1] (E xt, row sums R) and [x | 1].T @ F (x.T F,
    column sums C) into 0.5 (x.T (E xt / R) + (x.T F)(xt / C)). If c = max(sims /
    tau) is finite and every row and column maximum of sims / tau is within
    _SHARED_RANGE of it, E = F = exp(sims / tau - c), one exponential per entry.
    Otherwise E is shifted by each row's maximum and F by each column's, so every
    R and C is at least 1 at any range."""
    c = np.max(w.row_max)
    shared = np.isfinite(c) and min(np.min(w.row_max), np.min(w.col_max)) >= c - _SHARED_RANGE
    x1, xt1 = (np.pad(a, ((0, 0), (0, 1)), constant_values=1.0) for a in (x, xt))
    right, left = np.empty((x.shape[0], xt1.shape[1])), np.zeros((x1.shape[1], xt.shape[0]))
    for lo, block in w.sims.blocks():
        rows = slice(lo, lo + _BLOCK_ROWS)
        e = block / w.tau
        f = e if shared else np.exp(e - w.col_max)  # taken before e is overwritten
        np.exp(np.subtract(e, c if shared else w.row_max[rows, None], out=e), out=e)
        right[rows] = e @ xt1
        left += x1[rows].T @ f
    return 0.5 * (x.T @ (right[:, :-1] / right[:, -1:]) + left[:-1] @ (xt / left[-1][:, None]))


def loss_gradient(spec: LossSpec, enc: EncoderPair, data):
    """Gradients of loss_value with respect to g1 and g2.

    Softmax losses take both alpha tables from one shared exponential of
    sims / tau; other losses assemble them into a per-entry weight matrix on
    the similarity derivatives. Either way this is a route independent of
    the dense beta tables of compute_weights; the two agree analytically.
    """
    return _value_and_gradient(spec, enc, *_data_arrays(data))[1]


def _shared_softmax(spec: LossSpec, sims: np.ndarray, xt: np.ndarray, cn: float,
                    want_gradient: bool):
    """Row and column totals and W @ xt of a log / log1p softmax loss from one
    exponential E = exp(sims / tau - c), c the maximum of sims / tau; sims
    becomes E.

    The row-anchored table is E_ij exp(c - nu s_ii / tau) and the column-anchored
    one E_ij exp(c - nu s_jj / tau), so both log-sum-exps come from the row and
    column sums of E, and the weight matrix W times xt from one product of E with
    xt and a row-scaled xt side by side. Returns None, with sims untouched, unless c is finite and every
    row's and column's off-diagonal maximum of sims / tau lies within
    _SHARED_RANGE of c, which keeps every row and column sum a normal number.
    """
    diag = np.diag(sims).copy()
    np.fill_diagonal(sims, -np.inf)
    row_max, col_max = np.max(sims, axis=1), np.max(sims, axis=0)
    np.fill_diagonal(sims, diag)
    diag /= spec.tau
    c = max(np.max(row_max) / spec.tau, np.max(diag))  # max(s) / tau == max(s / tau)
    offset = c - spec.nu * diag  # log of the rank-one factor of row and column i
    lowest = min(np.min(row_max), np.min(col_max)) / spec.tau
    if not (np.isfinite(c) and lowest >= c - _SHARED_RANGE and np.all(np.isfinite(offset))):
        return None
    sims /= spec.tau
    sims -= c
    e = np.exp(sims, out=sims)
    np.einsum("ii->i", e)[...] *= spec.epsilon
    row_sum, col_sum = np.sum(e, axis=1), np.sum(e, axis=0)
    row_lse, col_lse = np.log(row_sum) + offset, np.log(col_sum) + offset
    if spec.phi == "log1p":
        row_agg, col_agg = np.logaddexp(0.0, row_lse), np.logaddexp(0.0, col_lse)
    else:
        row_agg, col_agg = row_lse, col_lse
    totals = spec.tau * row_agg, spec.tau * col_agg
    if not want_gradient:
        return *totals, None
    # alpha = a[:, None] * E and the transposed alpha-bar = E * b[None, :]
    a = np.exp(row_lse - row_agg) / row_sum
    b = np.exp(col_lse - col_agg) / col_sum
    d = xt.shape[1]
    y = e @ np.hstack([xt, b[:, None] * xt])
    wxt = a[:, None] * y[:, :d] + y[:, d:]
    wxt -= (spec.nu * (a * row_sum + b * col_sum))[:, None] * xt
    wxt /= 2.0 * cn
    return *totals, wxt


def _anchored_route(spec: LossSpec, sims: np.ndarray, xt: np.ndarray, cn: float,
                    want_gradient: bool):
    """Row and column totals and W @ xt of any loss from its two anchored
    alpha tables, assembled into the per-entry weight matrix W."""
    (row_totals, w), (col_totals, alpha_bar_t) = _anchored(spec, sims, want_gradient)
    if not want_gradient:
        return row_totals, col_totals, None
    tot = np.sum(w, axis=1) + np.sum(alpha_bar_t, axis=0)
    diag_w = (np.diag(w) + np.diag(alpha_bar_t) - spec.nu * tot) / (2.0 * cn)
    w += alpha_bar_t
    w /= 2.0 * cn
    np.fill_diagonal(w, diag_w)
    return row_totals, col_totals, w @ xt


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf / nan, no warning
def _value_and_gradient(spec: LossSpec, enc: EncoderPair, x: np.ndarray, xt: np.ndarray,
                        want_gradient: bool = True):
    """(loss_value, loss_gradient or None) from one similarity matrix and one
    pass over it; x and xt are validated 2-D arrays. With want_gradient a log
    aggregate outside its domain raises NonFinite."""
    sims = similarity_matrix(enc, x, xt)
    if sims.shape[0] != sims.shape[1]:
        raise InvalidInput("paired loss needs equally many samples per modality")
    cn = c_n_value(spec.cn, sims.shape[0])
    totals = None
    if spec.psi == "exp" and spec.phi != "identity":
        totals = _shared_softmax(spec, sims, xt, cn, want_gradient)
    if totals is None:
        totals = _anchored_route(spec, sims, xt, cn, want_gradient)
    row_totals, col_totals, wxt = totals
    contrast = np.sum(row_totals) + np.sum(col_totals)
    ridge = 0.5 * spec.rho * float(np.sum(enc.product ** 2))
    value = float(contrast / (2.0 * cn) + ridge)
    if not want_gradient:
        return value, None
    p = x.T @ wxt
    grad_g1 = enc.g2 @ p.T + spec.rho * (enc.g2 @ enc.g2.T) @ enc.g1
    grad_g2 = enc.g1 @ p + spec.rho * (enc.g1 @ enc.g1.T) @ enc.g2
    return value, (grad_g1, grad_g2)
