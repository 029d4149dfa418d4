"""Contrastive losses over similarity matrices, their gradients and contrasts.

The loss family is parameterized by an outer transform phi, an inner
transform psi, a diagonal weight epsilon, a margin multiplier nu, a
temperature tau, a normalizer rule, and a ridge penalty rho on the
encoder product. Identity transforms give the linear loss; log/exp with
epsilon=1 gives the CLIP loss; log/exp with epsilon=0 gives InfoNCE.

Weight tables (alpha, alpha-bar, beta) express any loss in this family as
a weighted contrast between observed pairs and cross pairs; no table is built
here (tests/oracle.py builds them densely, as the reference). One _paired_pass
gives every spec's value and gradient: row i of an alpha table is a scale times
a table E, exp(sims / tau - shift) streamed in row blocks for psi exp, and 1
off the diagonal and epsilon on it, never built, for psi identity. An unpaired
pool's similarity is never stored: PoolSimilarity keeps its rank-r factors and
rebuilds row blocks for an extrema scan that estimate_edges and unpaired_weights
share, and for contrastive_cross_covariance from the row factor divided by tau.
Both modes stream their blocks through one _softmax_sums kernel at a shift fixed
before the pass, one exponential per entry or two for a table too spread for one
shift, and take each row and column sum as a product with ones.
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
_BLOCK_ENTRIES = 1 << 18  # 2 MiB of float64 per row block, about an L2 cache
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


def _block_rows(width: int) -> int:
    """Rows per block: _BLOCK_ENTRIES entries in whole 16-row tiles, at least 64."""
    return max(64, _BLOCK_ENTRIES // max(width, 1) // 16 * 16)


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
        self.rows = _block_rows(self.shape[1])

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
        out = np.empty(self.shape)
        for lo in range(0, self.shape[0], self.rows):
            np.matmul(self.a[lo:lo + self.rows], self.bt, out=out[lo:lo + self.rows])
        return out

    @np.errstate(over="ignore", invalid="ignore")  # the extrema scan reports inf / nan
    def block(self, lo: int) -> np.ndarray:
        """Rows lo to lo + self.rows: a new array, or a view of a dense table."""
        rows = self.a[lo:lo + self.rows]
        return rows if self.bt is None else rows @ self.bt

    def blocks(self):
        return ((lo, self.block(lo)) for lo in range(0, self.shape[0], self.rows))

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


def loss_value(spec: LossSpec, enc: EncoderPair, data) -> float:
    """Value of the contrastive loss plus the ridge penalty.

    May return inf or nan when an identity-phi aggregate overflows or a
    log leaves its domain; iterative solvers treat such steps as
    rejected rather than fatal.
    """
    return _value_and_gradient(spec, enc, *_data_arrays(data), want_gradient=False)[0]


@dataclass(frozen=True)
class UnpairedWeights:
    """An unpaired pool's symmetrized softmax table, never stored, plus the pair
    set whose empirical cross-covariance enters with weight nu. Holds the
    pool's PoolSimilarity and the row and column maxima of sims / tau, from
    which contrastive_cross_covariance streams the table."""

    sims: PoolSimilarity
    tau: float
    row_max: np.ndarray
    col_max: np.ndarray
    edges: np.ndarray
    nu: float


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
def contrastive_cross_covariance(weights: UnpairedWeights, x, xt, c_n: str) -> np.ndarray:
    """Weighted contrast of pair outer products against cross outer products:
    the pair set (weight nu) against the full softmax table, streamed in row
    blocks. c_n is a normalizer rule, "n(n-1)" or "n".
    """
    x, xt = _data_arrays((x, xt))
    cn = c_n_value(c_n, x.shape[0])
    if weights.sims.shape != (x.shape[0], xt.shape[0]):
        raise InvalidInput("weight table does not match the data shape")
    pair_term = x[weights.edges[:, 0]].T @ xt[weights.edges[:, 1]]
    if weights.sims.bt is None:  # a dense table: each block divided by tau, never a view
        blocks = lambda: ((lo, b / weights.tau) for lo, b in weights.sims.blocks())
    elif np.all(np.isfinite(a := weights.sims.a / weights.tau)):  # tau in the row factor
        blocks = PoolSimilarity(a, weights.sims.bt).blocks
    else:
        raise NonFinite(f"sims / tau overflows at tau {weights.tau}")
    row_max, col_max, c = weights.row_max, weights.col_max, np.max(weights.row_max)
    fits = np.isfinite(c) and min(np.min(row_max), np.min(col_max)) >= c - _SHARED_RANGE
    x1, xt1 = (np.hstack([d, np.ones((len(d), 1))]) for d in (x, xt))  # sums: last column, row
    (_, right), (_, left) = _softmax_sums(
        blocks, weights.sims.shape, c if fits else (row_max, col_max), (x1,), (xt1,))
    pool = 0.5 * (x.T @ (right[:, :-1] / right[:, -1:]) + left[:-1] @ (xt / left[-1][:, None]))
    return (weights.nu * pair_term - pool) / cn


def _softmax_sums(blocks, shape, shift, lefts, rights):
    """E @ r for each r in rights and l.T @ F for each l in lefts, from one pass
    over the row blocks (lo, block) of an n x m table z that blocks() yields in
    order, each overwritten. The shift is fixed before the pass: a number c at
    or above every entry of z gives E = F = exp(z - c), one exponential per
    entry; the pair (row maxima, column maxima) of z gives E = exp(z - row max)
    and F = exp(z - column max), two per entry, every sum at least 1 and exact
    at any range. Returns (row shift, *E @ rights) and (column shift, *lefts.T
    @ F). A sum is a product with ones: a ones vector of its own in the paired
    pass, a ones column appended to the data in the pool's. log (E @ 1)_i + row
    shift_i is the log-sum-exp of z's row i.
    """
    (n, m), shared = shape, not isinstance(shift, tuple)
    row_shift, col_shift = (shift, shift) if shared else shift
    right = [np.empty((n,) + r.shape[1:]) for r in rights]
    left = [np.zeros(l.shape[1:] + (m,)) for l in lefts]
    for lo, e in blocks():
        rows = slice(lo, lo + e.shape[0])
        f = e if shared else np.exp(f := e - col_shift, out=f)  # F, taken before E overwrites e
        np.exp(np.subtract(e, shift if shared else row_shift[rows, None], out=e), out=e)
        for out, r in zip(right, rights):
            out[rows] = e @ r
        for out, l in zip(left, lefts):
            out += l[rows].T @ f
        del e, f  # before the next block is built
    return (row_shift, *right), (col_shift, *left)


def loss_gradient(spec: LossSpec, enc: EncoderPair, data):
    """Gradients of loss_value with respect to g1 and g2.

    Both come from the contrast p = x.T W xt of one _paired_pass over the
    similarity matrix. The tests check it against the dense beta tables of an
    independent reference; the two agree analytically.
    """
    return _value_and_gradient(spec, enc, *_data_arrays(data))[1]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf / nan, no warning
def _paired_pass(spec: LossSpec, enc: EncoderPair, x: np.ndarray, xt: np.ndarray,
                 want_gradient: bool):
    """(loss without its ridge, contrast p = x.T W xt or None) from one pass
    over the data; x and xt are validated 2-D arrays. With want_gradient a log
    aggregate outside its domain raises NonFinite.

    The row-anchored alpha table is a_i E_ij and the transposed column one
    E_ij b_j: for psi exp E = exp(sims / tau - c), log epsilon added on its
    diagonal, from one _softmax_sums pass over row blocks that similarity_matrix
    builds from g1 / tau, c the product of the two factors' largest row norms;
    if a sum ends below exp(-_SHARED_RANGE), a maxima pass and a two-shift pass
    follow. For psi identity E is 1 off the diagonal and epsilon on it, so
    E xt = 1 (1 @ xt) - (1 - eps) xt and the aggregates are anchored row and
    column sums of sims = xp @ xt.T, xp = x @ enc.product, which is not built:
    xp @ (1 @ xt), xt @ (1 @ xp) and its diagonal (xp * xt) @ 1. With R = E @ 1,
    C = 1 @ E, and a, b over 2cn so that no product outgrows p,
    p = (a x).T E xt + x.T E (b xt) - x.T (nu (a R + b C) xt).
    """
    n = x.shape[0]
    if n != xt.shape[0]:
        raise InvalidInput("paired loss needs equally many samples per modality")
    cn = c_n_value(spec.cn, n)
    totals, scales = [], []
    if spec.psi == "exp":
        if not np.all(np.isfinite(g1 := enc.g1 / spec.tau)):  # no block; solvers reject nan
            return np.nan, np.full((x.shape[1], xt.shape[1]), np.nan) if want_gradient else None
        scaled, anchor, rows = EncoderPair(g1, enc.g2), np.empty(n), _block_rows(n)
        def blocks():  # row blocks of sims / tau, log epsilon added to entries (i, i)
            for lo in range(0, n, rows):
                z = similarity_matrix(scaled, x[lo:lo + rows], xt)
                anchor[lo:lo + rows] = spec.nu * z.flat[lo::n + 1]  # the entries (i, i)
                z.flat[lo::n + 1] += np.log(spec.epsilon)
                yield lo, z
                del z  # freed before the next block is built
        c = np.prod([np.max(np.linalg.norm(a, axis=1)) for a in (x @ g1.T, xt @ enc.g2.T)])
        ones = np.ones(n)  # the row and column sums, each a product of its own
        data = ((ones, x), (ones, xt)) if want_gradient else ((ones,), (ones,))
        sides = _softmax_sums(blocks, (n, n), c, *data)  # Cauchy-Schwarz: c bounds every entry
        if not np.min(np.minimum(sides[0][1], sides[1][1])) >= np.exp(-_SHARED_RANGE):
            row_max, col_max = np.empty(n), np.full(n, -np.inf)  # exact maxima, then two shifts
            for lo, z in blocks():
                row_max[lo:lo + z.shape[0]] = np.max(z, axis=1)
                np.maximum(col_max, np.max(z, axis=0), out=col_max)
                del z  # freed before the next block is built
            sides = _softmax_sums(blocks, (n, n), (row_max, col_max), *data)
        for shift, total, *_ in sides:
            lse = np.log(total) + (shift - anchor)
            if spec.phi == "identity":  # the aggregate itself, e^lse
                totals.append(np.exp(lse))
                scales.append(totals[-1] / (spec.tau * total))
                continue
            agg = np.logaddexp(0.0, lse) if spec.phi == "log1p" else lse
            totals.append(spec.tau * agg)
            scales.append(np.exp(lse - agg) / total)
    else:
        xp, eps = x @ enc.product, spec.epsilon
        anchor = (1.0 - eps + spec.nu * (n - 1 + eps)) * np.sum(xp * xt, axis=1)
        for agg in (xp @ np.sum(xt, axis=0) - anchor, xt @ np.sum(xp, axis=0) - anchor):
            arg = 1.0 + agg if spec.phi == "log1p" else agg
            if want_gradient and spec.phi != "identity" and np.any(arg <= 0):
                raise NonFinite("log of a nonpositive aggregate" if spec.phi == "log"
                                else "log1p of an aggregate at or below -1")
            totals.append(agg if spec.phi == "identity" else
                          spec.tau * (np.log(agg) if spec.phi == "log" else np.log1p(agg)))
            scales.append(np.ones(n) if spec.phi == "identity" else spec.tau / arg)
        sides = ((None, np.full(n, n - 1 + eps), np.sum(xt, axis=0) - (1.0 - eps) * xt),
                 (None, np.full(n, n - 1 + eps), np.sum(x, axis=0)[:, None] - (1.0 - eps) * x.T))
    loss = (np.sum(totals[0]) + np.sum(totals[1])) / (2.0 * cn)
    if not want_gradient:
        return loss, None
    (a, b), ((_, row_sum, right), (_, col_sum, left)) = (s / (2.0 * cn) for s in scales), sides
    diag = spec.nu * (a * row_sum + b * col_sum)
    p = (a[:, None] * x).T @ right + left @ (b[:, None] * xt) - x.T @ (diag[:, None] * xt)
    return loss, p


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf / nan, no warning
def _value_and_gradient(spec: LossSpec, enc: EncoderPair, x: np.ndarray, xt: np.ndarray,
                        want_gradient: bool = True):
    """(loss_value, loss_gradient or None) from one _paired_pass; x and xt are
    validated 2-D arrays."""
    loss, p = _paired_pass(spec, enc, x, xt, want_gradient)
    ridge = 0.5 * spec.rho * float(np.sum(enc.product ** 2))
    value = float(loss + ridge)
    if not want_gradient:
        return value, None
    grad_g1 = enc.g2 @ p.T + spec.rho * (enc.g2 @ enc.g2.T) @ enc.g1
    grad_g2 = enc.g1 @ p + spec.rho * (enc.g1 @ enc.g1.T) @ enc.g2
    return value, (grad_g1, grad_g2)
