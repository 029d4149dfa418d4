"""Dense linear-algebra primitives used throughout the package.

Everything here is deterministic: the SVD carries a fixed sign convention
so repeated runs (and runs on byte-identical inputs) produce
byte-identical factors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivideByZero, InvalidInput, InvalidRank

GAP_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """a as a 2-D float64 array; InvalidInput, labelled with name in the
    message, when it is not 2-D or contains non-finite entries."""
    return require_finite(as_2d(a, name), name)


def as_2d(a, name: str = "matrix") -> np.ndarray:
    """as_matrix without the finiteness scan, for callers that check row blocks."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def require_finite(block: np.ndarray, name: str) -> np.ndarray:
    """block itself, or InvalidInput naming it when an entry is NaN or infinite."""
    if not np.all(np.isfinite(block)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return block


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of 1-D integer keys by a sort; np.unique hashes int64, ~50x slower."""
    keys = np.sort(keys)
    keep = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def pair_codes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """One int64 code per (left, right) pair; codes order as the pairs do."""
    lo_left, lo_right = left.min(), right.min()
    width = int(right.max()) - int(lo_right) + 1
    if (int(left.max()) - int(lo_left) + 1) * width > np.iinfo(np.int64).max:
        raise InvalidInput("pair indices span too wide for int64 codes")
    return (left - lo_left) * width + (right - lo_right)


@dataclass(frozen=True)
class SvdResult:
    """Compact SVD a = u @ diag(s) @ v.T with a deterministic sign choice.

    Attributes:
      u: (m, k) left singular vectors, one per column.
      s: (k,) singular values, nonincreasing.
      v: (n, k) right singular vectors, one per column.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis of a linear subspace, columns spanning it.

    The degenerate flag records that the basis was cut at a (near-)zero
    spectral gap, so the spanned space is not uniquely determined.
    """

    basis: np.ndarray
    degenerate: bool = False

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def svd(a) -> SvdResult:
    """Compact SVD with a fixed sign convention.

    The sign of each singular-vector pair is chosen so that the entry of
    largest absolute value in each right singular vector is nonnegative;
    ties go to the lowest index. A zero vector is left untouched.
    """
    arr = as_matrix(a)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    v = vt.T
    if v.shape[1]:
        pick = np.argmax(np.abs(v), axis=0)
        chosen = v[pick, np.arange(v.shape[1])]
        flip = chosen < 0
        v = v * np.where(flip, -1.0, 1.0)
        u = u * np.where(flip, -1.0, 1.0)
    return SvdResult(u=u, s=s, v=v)


def _check_rank(r: int, shape) -> None:
    if not isinstance(r, (int, np.integer)):
        raise InvalidRank(f"rank must be an integer, got {r!r}")
    if r < 1 or r > min(shape):
        raise InvalidRank(f"rank {r} not in [1, {min(shape)}] for shape {shape}")


def right_singular_subspace(a, r: int) -> Subspace:
    """Span of the top-r right singular vectors of a.

    The result is flagged degenerate when the spectral gap between the
    r-th and (r+1)-th singular values is at most GAP_TOL (the (r+1)-th
    value is taken as zero when r equals the smaller dimension).
    """
    arr = as_matrix(a)
    _check_rank(r, arr.shape)
    res = svd(arr)
    s_next = res.s[r] if r < res.s.shape[0] else 0.0
    gap = res.s[r - 1] - s_next
    return Subspace(basis=res.v[:, :r].copy(), degenerate=bool(gap <= GAP_TOL))


def _basis_of(u) -> np.ndarray:
    if isinstance(u, Subspace):
        return u.basis
    return as_matrix(u, "subspace basis")


def sin_theta(u1, u2) -> float:
    """sin-Theta distance between two equal-dimension subspaces.

    Equals sqrt(r - ||U1.T @ U2||_F^2), the root sum of squared
    principal-angle sines, for orthonormal bases U1, U2 of the same
    dimension r in the same ambient space. Evaluated through the
    complement residual (I - U1 U1.T) U2 so nearly equal subspaces keep
    full precision instead of losing half the digits to cancellation.
    Accepts Subspace objects or raw basis matrices with orthonormal
    columns.
    """
    b1 = _basis_of(u1)
    b2 = _basis_of(u2)
    if b1.shape != b2.shape:
        raise InvalidInput(f"subspace shapes differ: {b1.shape} vs {b2.shape}")
    r = b1.shape[1]
    resid = b2 - b1 @ (b1.T @ b2)
    return min(float(np.linalg.norm(resid)), float(np.sqrt(r)))


def effective_rank(a) -> float:
    """Trace divided by operator norm, for a PSD matrix given directly.

    For a general matrix the nuclear-to-operator ratio is not intended;
    this helper is used on covariance matrices. The all-zero matrix has
    no well-defined value and raises DivideByZero.
    """
    arr = as_matrix(a)
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise DivideByZero("effective rank of the zero matrix is undefined")
    return float(np.trace(arr) / s[0])
