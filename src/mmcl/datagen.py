"""Synthetic data from the shared-latent two-modality model.

A latent vector z with diagonal covariance drives both modalities through
orthonormal loading matrices; matched pairs share the latent coordinates
while broken pairs carry independent ones. Additive noise is independent
of everything else. Generators are deterministic given a seed and draw in
a fixed order, so datasets are reproducible byte for byte.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInput, InvalidProbability, InvalidRank

NOISE_FAMILIES = ("gaussian", "rademacher", "uniform")
_EDGE_BLOCK_ROWS = 64  # rows per block of the labeled-bipartite edge draw


def draw_coordinates(rng: np.random.Generator, shape, family: str) -> np.ndarray:
    """Draw iid zero-mean unit-variance coordinates of the given family.

    Families: "gaussian" (standard normal), "rademacher" (+/-1 equiprobable),
    "uniform" (uniform on [-sqrt(3), sqrt(3)]).
    """
    if family == "gaussian":
        return rng.standard_normal(shape)
    if family == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if family == "uniform":
        half = np.sqrt(3.0)
        return rng.uniform(-half, half, size=shape)
    raise InvalidInput(f"unknown coordinate family {family!r}")


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _check_loading(u: np.ndarray, d: int, r: int, name: str) -> None:
    if u.shape != (d, r):
        raise InvalidInput(f"{name} must have shape ({d}, {r}), got {u.shape}")
    gram = u.T @ u
    if not np.allclose(gram, np.eye(r), atol=1e-10):
        raise InvalidInput(f"{name} must have orthonormal columns")


def _check_latent_cov(diag: np.ndarray, r: int, name: str) -> None:
    if diag.shape != (r,):
        raise InvalidInput(f"{name} must be a length-{r} vector of variances")
    if np.any(diag <= 0):
        raise InvalidInput(f"{name} entries must be positive")
    if np.any(np.diff(diag) > 1e-12):
        raise InvalidInput(f"{name} entries must be nonincreasing")
    if abs(diag[0] - 1.0) > 1e-12:
        raise InvalidInput(f"{name} must have operator norm 1")


@dataclass(frozen=True)
class ModelParams:
    """Ground truth for the shared-latent model.

    Attributes:
      u1_star: (d1, r) orthonormal loading of the first modality.
      u2_star: (d2, r) orthonormal loading of the second modality.
      sigma_z: (r,) diagonal of the first latent covariance, nonincreasing,
        leading entry 1.
      sigma_zt: (r,) diagonal of the second latent covariance, same rules.
      sigma_xi: (d1, d1) PSD noise covariance of the first modality.
      sigma_xit: (d2, d2) PSD noise covariance of the second modality.
      family: coordinate family for latents and noise.
    """

    u1_star: np.ndarray
    u2_star: np.ndarray
    sigma_z: np.ndarray
    sigma_zt: np.ndarray
    sigma_xi: np.ndarray
    sigma_xit: np.ndarray
    family: str = "gaussian"

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise InvalidInput(f"unknown coordinate family {self.family!r}")
        d1, r = self.u1_star.shape
        d2 = self.u2_star.shape[0]
        if r < 1:
            raise InvalidRank("latent dimension must be at least 1")
        _check_loading(self.u1_star, d1, r, "u1_star")
        _check_loading(self.u2_star, d2, r, "u2_star")
        _check_latent_cov(self.sigma_z, r, "sigma_z")
        _check_latent_cov(self.sigma_zt, r, "sigma_zt")
        for cov, d, name in ((self.sigma_xi, d1, "sigma_xi"), (self.sigma_xit, d2, "sigma_xit")):
            if cov.shape != (d, d):
                raise InvalidInput(f"{name} must have shape ({d}, {d})")
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise InvalidInput(f"{name} must be symmetric")

    @property
    def d1(self) -> int:
        return self.u1_star.shape[0]

    @property
    def d2(self) -> int:
        return self.u2_star.shape[0]

    @property
    def r(self) -> int:
        return self.u1_star.shape[1]

    def noise_effective_ranks(self) -> tuple[float, float]:
        """Effective ranks of the two noise covariances, zero when noiseless."""
        out = []
        for cov in (self.sigma_xi, self.sigma_xit):
            if np.all(cov == 0.0):
                out.append(0.0)
            else:
                out.append(linalg.effective_rank(cov))
        return out[0], out[1]


def random_model(
    d1: int,
    d2: int,
    r: int,
    snr: float = np.inf,
    decay: float = 1.0,
    family: str = "gaussian",
    seed=0,
) -> ModelParams:
    """Sample ground-truth loadings and build isotropic-noise model params.

    The loadings are the Q factors of Gaussian matrices. sigma_z and
    sigma_zt share a geometric profile decay**j (decay in (0, 1] keeps
    them nonincreasing with leading entry 1). Noise is isotropic with
    per-coordinate variance 1/snr**2; snr=inf gives a noiseless model.
    """
    linalg._check_rank(r, (d1, d2))
    if not (0.0 < decay <= 1.0):
        raise InvalidInput("decay must lie in (0, 1]")
    if not snr > 0:
        raise InvalidInput("snr must be positive")
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((d1, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((d2, r)))
    prof = decay ** np.arange(r, dtype=np.float64)
    noise_var = 0.0 if np.isinf(snr) else 1.0 / snr**2
    return ModelParams(
        u1_star=q1,
        u2_star=q2,
        sigma_z=prof.copy(),
        sigma_zt=prof.copy(),
        sigma_xi=noise_var * np.eye(d1),
        sigma_xit=noise_var * np.eye(d2),
        family=family,
    )


@dataclass(frozen=True)
class PairedDataset:
    """Observed co-indexed samples plus the hidden truth matching.

    observed_edges lists the pairs presented to a learner, (i, i) for
    paired data and empty for unpaired pools. truth_edges is the hidden
    one-to-one matching under which latents are shared. distortion is the
    fraction of observed pairs that are not genuine.
    """

    x: np.ndarray
    xt: np.ndarray
    observed_edges: np.ndarray
    truth_edges: np.ndarray
    distortion: float
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _derangement(rng: np.random.Generator, idx: np.ndarray) -> np.ndarray:
    """Random permutation of idx with no fixed point (idx has length != 1)."""
    if idx.size == 0:
        return idx.copy()
    while True:
        cand = idx[rng.permutation(idx.size)]
        if not np.any(cand == idx):
            return cand


def _observations(params: ModelParams, w: np.ndarray, wt: np.ndarray, rng: np.random.Generator):
    """Both modalities of latents w and wt, each plus noise drawn here, x's first."""
    n, family = w.shape[0], params.family
    noise1 = draw_coordinates(rng, (n, params.d1), family) @ _psd_sqrt(params.sigma_xi).T
    noise2 = draw_coordinates(rng, (n, params.d2), family) @ _psd_sqrt(params.sigma_xit).T
    x = (w * np.sqrt(params.sigma_z)) @ params.u1_star.T + noise1
    xt = (wt * np.sqrt(params.sigma_zt)) @ params.u2_star.T + noise2
    return x, xt


def _matched(params: ModelParams, rng: np.random.Generator, truth: np.ndarray,
             observed: np.ndarray, distortion: float, meta: dict) -> PairedDataset:
    """One row per truth edge in each modality; xt row j shares x row i's latent for (i, j)."""
    w = draw_coordinates(rng, (truth.shape[0], params.r), params.family)
    wt = np.empty_like(w)
    wt[truth[:, 1]] = w[truth[:, 0]]
    x, xt = _observations(params, w, wt, rng)
    return PairedDataset(
        x=x,
        xt=xt,
        observed_edges=observed.astype(np.int64),
        truth_edges=truth[np.lexsort((truth[:, 1], truth[:, 0]))].astype(np.int64),
        distortion=float(distortion),
        meta=meta,
    )


def _check_count(n) -> None:
    if not linalg.is_count(n) or n < 2:
        raise InvalidInput(f"need at least 2 samples, got {n!r}")
    if n > np.iinfo(np.intp).max // 8:  # np.arange(n) has no rows near 2**63, and no error
        raise MemoryError(f"an index array of {n} samples exceeds the address space")


def sample_paired(params: ModelParams, n: int, p: float, seed=0) -> PairedDataset:
    """Draw n co-indexed pairs with a target fraction p of broken pairs.

    The number of genuine pairs is m = round((1 - p) * n); the remaining
    indices are matched by a derangement so no broken pair is accidentally
    genuine. A leftover set of size one cannot be deranged, so one extra
    pair is kept genuine in that case. The realized distortion is recorded
    exactly in the returned dataset.
    """
    _check_count(n)
    if not (0.0 <= p <= 1.0):
        raise InvalidProbability(f"broken-pair fraction must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    m = int(round((1.0 - p) * n))
    if n - m == 1:
        m += 1
    order = rng.permutation(n)
    kept = np.sort(order[:m])
    broken = np.sort(order[m:])
    truth = np.concatenate([np.stack([kept, kept], axis=1),
                            np.stack([broken, _derangement(rng, broken)], axis=1)])
    meta = {"kind": "paired", "seed_repr": repr(seed), "target_p": float(p)}
    return _matched(params, rng, truth, np.stack([np.arange(n)] * 2, axis=1), 1.0 - m / n, meta)


def sample_unpaired(params: ModelParams, n: int, seed=0) -> PairedDataset:
    """Draw n samples per modality with a hidden uniform random matching.

    Row order carries no information about the matching: the second
    modality is generated against a uniformly random permutation, and the
    observed edge list is empty.
    """
    _check_count(n)
    rng = np.random.default_rng(seed)
    truth = np.stack([np.arange(n), rng.permutation(n)], axis=1)
    meta = {"kind": "unpaired", "seed_repr": repr(seed)}
    return _matched(params, rng, truth, np.empty((0, 2)), 1.0, meta)


@dataclass(frozen=True)
class LabeledBipartite:
    """Cluster-labeled samples in both modalities with a noisy edge set.

    Edges connect left row i to right row j. Before corruption an edge is
    present iff the labels agree; corruption removes each intra-cluster
    edge with probability p_prime and adds each inter-cluster edge with
    the same probability.
    """

    x: np.ndarray
    xt: np.ndarray
    labels_x: np.ndarray
    labels_xt: np.ndarray
    edges: np.ndarray
    k: int
    centers: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_left(self) -> int:
        return self.x.shape[0]

    @property
    def n_right(self) -> int:
        return self.xt.shape[0]


def sample_labeled_bipartite(
    params: ModelParams,
    n_per_cluster: int,
    k: int,
    p_prime: float,
    seed=0,
    centers: np.ndarray | None = None,
    within_scale: float = 0.5,
) -> LabeledBipartite:
    """Draw k clusters of latent points per modality and a corrupted edge set.

    Cluster centers live in latent space (reused across calls when passed
    in, e.g. to draw a matching test set); members scatter around their
    center with standard deviation within_scale per coordinate.
    """
    if not linalg.is_count(k) or k < 2:
        raise InvalidInput(f"need at least 2 clusters, got {k!r}")
    if not linalg.is_count(n_per_cluster) or n_per_cluster < 1:
        raise InvalidInput(f"need at least 1 sample per cluster, got {n_per_cluster!r}")
    if not (0.0 <= p_prime <= 1.0):
        raise InvalidProbability(f"edge corruption must be in [0, 1], got {p_prime}")
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = draw_coordinates(rng, (k, params.r), params.family)
    else:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape != (k, params.r):
            raise InvalidInput(f"centers must have shape ({k}, {params.r})")
    n = k * n_per_cluster
    # A (k, n_per_cluster) repeat, whose size numpy checks; a 1-D repeat wraps past int64.
    labels = np.arange(k)[:, None].repeat(n_per_cluster, axis=1).ravel()

    w = centers[labels] + within_scale * draw_coordinates(rng, (n, params.r), params.family)
    wt = centers[labels] + within_scale * draw_coordinates(rng, (n, params.r), params.family)
    x, xt = _observations(params, w, wt, rng)

    edges = []
    for lo in range(0, n, _EDGE_BLOCK_ROWS):  # rng.random fills in C order: one (n, n) stream
        same = labels[lo:lo + _EDGE_BLOCK_ROWS, None] == labels[None, :]
        ii, jj = np.nonzero(rng.random(same.shape) < np.where(same, 1.0 - p_prime, p_prime))
        edges.append(np.stack([ii + lo, jj], axis=1))
    edges = np.concatenate(edges).astype(np.int64)
    meta = {"kind": "labeled-bipartite", "seed_repr": repr(seed), "p_prime": float(p_prime)}
    return LabeledBipartite(
        x=x,
        xt=xt,
        labels_x=labels.copy(),
        labels_xt=labels.copy(),
        edges=edges,
        k=int(k),
        centers=centers,
        meta=meta,
    )
