"""Bipartite spectral graph partitioning for cleaning noisy pair sets.

Left and right nodes are embedded jointly through the degree-normalized
adjacency matrix: the singular vectors 2 .. l+1 (l = ceil(log2 k)),
rescaled by inverse square-root degrees, give one point per node. The
points are clustered by k-means with restarts and edges whose endpoints
land in different clusters are dropped.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidInput, InvalidK


@dataclass(frozen=True)
class BipartiteGraph:
    """Unweighted bipartite graph given as an edge list.

    edges is an (m, 2) integer array of (left, right) endpoints. Duplicate
    edges are rejected, so every edge has weight 1.
    """

    n_left: int
    n_right: int
    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if self.n_left < 1 or self.n_right < 1:
            raise InvalidInput("graph must have at least one node per side")
        if edges.shape[0]:
            if np.any(edges[:, 0] < 0) or np.any(edges[:, 0] >= self.n_left):
                raise InvalidInput("left endpoint out of range")
            if np.any(edges[:, 1] < 0) or np.any(edges[:, 1] >= self.n_right):
                raise InvalidInput("right endpoint out of range")
            keys = linalg.pair_codes(edges[:, 0], edges[:, 1])
            if linalg.sorted_unique(keys).shape[0] != keys.shape[0]:
                raise InvalidInput("duplicate edges")

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def degrees(self):
        """Left and right degrees, counted over the edge list."""
        d_left = np.bincount(self.edges[:, 0], minlength=self.n_left)
        d_right = np.bincount(self.edges[:, 1], minlength=self.n_right)
        return d_left.astype(np.float64), d_right.astype(np.float64)


def _inv_sqrt(d: np.ndarray) -> np.ndarray:
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = 1.0 / np.sqrt(d[pos])
    return out


def normalized_adjacency(graph: BipartiteGraph) -> np.ndarray:
    """D_left^(-1/2) A D_right^(-1/2): 1 / sqrt(d_i d_j) at each edge (i, j), zero elsewhere."""
    d_left, d_right = graph.degrees()
    left, right = graph.edges[:, 0], graph.edges[:, 1]
    a = np.zeros((graph.n_left, graph.n_right))
    a[left, right] = _inv_sqrt(d_left)[left] * _inv_sqrt(d_right)[right]
    return a


def embedding_width(k: int) -> int:
    """Number of singular-vector coordinates used for k clusters."""
    if not linalg.is_count(k) or k < 2:
        raise InvalidK(f"cluster count must be an integer >= 2, got {k!r}")
    return int(math.ceil(math.log2(k)))


TIE_TOL = 1e-10


def _tie_run(s) -> int:
    """How many of the descending singular values s lie within TIE_TOL of s[0]."""
    return int(np.count_nonzero(s[0] - s <= TIE_TOL * max(s[0], 1)))


def _canonicalize_top_tie(u, v, s, deg_left):
    """Rotate an exactly tied leading singular block onto a fixed basis.

    A graph that splits into several connected components ties its leading
    singular values, leaving the returned basis for that block arbitrary.
    The block is rotated so its first vector aligns with the would-be
    Perron direction (degree-scaled constant); a Householder completion
    pins the remaining columns. Left and right vectors get the same
    rotation, which keeps the singular pairing within the tie tolerance.
    """
    run = _tie_run(s)
    if run < 2:
        return u, v
    t = np.sqrt(np.asarray(deg_left, dtype=np.float64))
    norm = np.linalg.norm(t)
    if norm == 0.0:
        return u, v
    coef = u[:, :run].T @ (t / norm)
    cnorm = np.linalg.norm(coef)
    if cnorm <= 1e-12:
        return u, v
    q1 = coef / cnorm
    h = np.eye(run)
    w = h[:, 0] - q1
    wnorm = np.linalg.norm(w)
    if wnorm > 1e-12:
        w = w / wnorm
        h = h - 2.0 * np.outer(w, w)
    u = u.copy()
    v = v.copy()
    u[:, :run] = u[:, :run] @ h
    v[:, :run] = v[:, :run] @ h
    return u, v


KRYLOV_BLOCK = 12  # columns per Krylov block
KRYLOV_DEPTH = 16  # blocks in the full Krylov basis
KRYLOV_MIN_SIDE = 4 * KRYLOV_BLOCK * KRYLOV_DEPTH  # smaller sides below this go dense
KRYLOV_TOL = 1e-13  # largest accepted Ritz residual, relative to lambda_1


def _ritz(basis, image, count: int):
    """Top count Ritz vectors of m m^T on the span of the orthonormal basis
    (image = m m^T basis) and their largest residual relative to lambda_1;
    the residual is inf when sigma_1 is tied or no Ritz value is positive."""
    t = basis.T @ image
    theta, y = np.linalg.eigh(0.5 * (t + t.T))
    theta, y = theta[::-1], y[:, ::-1][:, :count]
    s = np.sqrt(np.maximum(theta, 0.0))
    vecs = basis @ y
    if not theta[0] > 0.0 or _tie_run(s) > 1:
        return vecs, np.inf
    resid = np.linalg.norm(image @ y - vecs * theta[:count], axis=0)
    return vecs, float(np.max(resid)) / theta[0]


def _krylov_leading(m, count: int):
    """Top count eigenvectors of m m^T by randomized block Krylov iteration,
    or None when sigma_1 is tied or their Ritz residuals stay above KRYLOV_TOL.

    m m^T is applied as m @ (m^T @ X), so the Gram matrix is never formed.
    Each new block is orthogonalized against the basis so far in two passes,
    each followed by a QR. The start block is drawn from a fixed seed, so
    repeated calls on the same input agree bit for bit.
    """
    b = KRYLOV_BLOCK
    basis = np.empty((m.shape[0], b * KRYLOV_DEPTH))
    image = np.empty_like(basis)
    block = np.linalg.qr(np.random.default_rng(0).standard_normal((m.shape[0], b)))[0]
    scale = 0.0  # largest column norm of the image, at most lambda_1
    for j in range(1, KRYLOV_DEPTH + 1):
        done, cur = basis[:, :j * b], slice((j - 1) * b, j * b)
        basis[:, cur] = block
        image[:, cur] = m @ (m.T @ block)
        scale = max(scale, float(np.max(np.linalg.norm(image[:, cur], axis=0))))
        fresh = image[:, cur] - done @ (done.T @ image[:, cur])
        # the basis is full, or it spans an invariant subspace
        if j == KRYLOV_DEPTH or np.linalg.norm(fresh) <= KRYLOV_TOL * scale:
            vecs, resid = _ritz(done, image[:, :j * b], count)
            return vecs if resid <= KRYLOV_TOL else None
        block = np.linalg.qr(fresh)[0]
        block = np.linalg.qr(block - done @ (done.T @ block))[0]


def _leading_svd(a, count: int):
    """The top count singular triplets of a, widened over the run tied with the first.

    The leading subspace of the Gram matrix on the smaller side comes from
    block Krylov iteration when that side has at least KRYLOV_MIN_SIDE rows,
    count is at most KRYLOV_BLOCK, sigma_1 is simple and the Ritz residuals
    pass; otherwise from one dense eigendecomposition of the Gram matrix.
    A Rayleigh-Ritz step (linalg.svd of Q^T a, Q an orthonormal basis of the
    left subspace) keeps linalg.svd's sign rule and singular values accurate
    to about eps * s_1.
    """
    wide = a.shape[0] <= a.shape[1]
    m = a if wide else a.T
    krylov = m.shape[0] >= KRYLOV_MIN_SIDE and count <= KRYLOV_BLOCK
    q = _krylov_leading(m, count) if krylov else None
    if q is None:
        evals, evecs = np.linalg.eigh(m @ m.T)
        s = np.sqrt(np.maximum(evals[::-1], 0.0))
        q = evecs[:, ::-1][:, :max(count, _tie_run(s))]
    if not wide:
        q = np.linalg.qr(a @ q)[0]
    res = linalg.svd(q.T @ a)
    return linalg.SvdResult(u=q @ res.u, s=res.s, v=res.v)


def spectral_embed(a_n, k: int, deg_left, deg_right):
    """Joint node embedding from the normalized adjacency matrix.

    Returns (z, info): z stacks D_left^(-1/2) U and D_right^(-1/2) V,
    where U and V hold the singular vectors 2 .. l+1 of a_n and
    l = ceil(log2 k); info holds the leading singular values (the first
    l+1, or the whole run tied with the first if that is longer), l, and
    a degenerate flag raised when the second singular value is (near) zero.
    """
    a_n = linalg.as_matrix(a_n, "normalized adjacency")
    l = embedding_width(k)
    if l + 1 > min(a_n.shape):
        raise InvalidK(
            f"need {l + 1} singular vectors but the matrix is {a_n.shape[0]} x {a_n.shape[1]}"
        )
    res = _leading_svd(a_n, l + 1)
    u_all, v_all = _canonicalize_top_tie(res.u, res.v, res.s, deg_left)
    u_sel = _inv_sqrt(np.asarray(deg_left, dtype=np.float64))[:, None] * u_all[:, 1:l + 1]
    v_sel = _inv_sqrt(np.asarray(deg_right, dtype=np.float64))[:, None] * v_all[:, 1:l + 1]
    z = np.vstack([u_sel, v_sel])
    info = {
        "singular_values": res.s.copy(),
        "l": l,
        "degenerate": bool(res.s[1] <= linalg.GAP_TOL),
    }
    return z, info


KMEANS_MAX_ITER = 100  # Lloyd iterations per restart
KMEANS_TOL = 1e-12  # largest center shift that counts as converged


@dataclass(frozen=True)
class KMeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    best_restart: int
    iterations: int


def _pp_init(points: np.ndarray, w: np.ndarray, inverse: np.ndarray, k: int,
             rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over weighted representatives.

    Uniform draws pick an input point and take its representative, which
    is a draw proportional to weight; inverse maps input points to
    representatives.
    """
    def uniform() -> int:
        return int(inverse[int(rng.integers(inverse.shape[0]))])

    centers = np.empty((k, points.shape[1]))
    centers[0] = points[uniform()]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        mass = w * d2
        total = mass.sum()
        idx = int(rng.choice(points.shape[0], p=mass / total)) if total > 0 else uniform()
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray):
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    labels = np.argmin(d2, axis=1)
    own = d2[np.arange(points.shape[0]), labels]
    return labels, own


def _lloyd(points: np.ndarray, w: np.ndarray, centers: np.ndarray):
    k = centers.shape[0]
    weighted = np.ascontiguousarray((w[:, None] * points).T)
    labels, own = _assign(points, centers)
    for it in range(KMEANS_MAX_ITER):
        # bincount adds in input order, as np.add.at does, at a fraction of its cost
        sums = np.empty_like(centers)
        for c, col in enumerate(weighted):
            sums[:, c] = np.bincount(labels, weights=col, minlength=k)
        counts = np.bincount(labels, weights=w, minlength=k)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        # an empty cluster is reseeded at the point farthest from its center
        reseed_own = own.copy()
        for cid in np.nonzero(~nonempty)[0]:
            far = int(np.argmax(reseed_own))
            new_centers[cid] = points[far]
            reseed_own[far] = -1.0
        shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
        centers = new_centers
        labels, own = _assign(points, centers)
        if shift <= KMEANS_TOL:
            return labels, centers, float(np.sum(w * own)), it + 1
    return labels, centers, float(np.sum(w * own)), KMEANS_MAX_ITER


def kmeans(points, k: int, seed=0, restarts: int = 10) -> KMeansResult:
    """k-means with k-means++ restarts; best inertia wins, ties keep the
    earliest restart. Fully deterministic given the seed.

    There is one weighted path: exactly coincident points (up to a
    relative 1e-12 quantization) are collapsed to one representative,
    weighted by its copy count, so numerical noise can never split them
    across clusters. Representatives keep the order of first occurrence,
    so on input without duplicates every weight is 1 and the draws and
    arithmetic are those of plain unweighted k-means++.
    """
    points = linalg.as_matrix(points, "points")
    if not linalg.is_count(k) or k < 1:
        raise InvalidK(f"cluster count must be a positive integer, got {k!r}")
    if k > points.shape[0]:
        raise InvalidK(f"cannot form {k} clusters from {points.shape[0]} points")
    if not linalg.is_count(restarts) or restarts < 1:
        raise InvalidInput(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(seed)
    scale = float(np.max(np.abs(points))) if points.size else 0.0
    quant = np.round(points / scale, 12) if scale > 0.0 else points
    _, first_idx, inverse = np.unique(quant, axis=0, return_index=True,
                                      return_inverse=True)
    # representatives in order of first occurrence, weighted by copy count
    inverse = np.argsort(np.argsort(first_idx))[inverse.reshape(-1)]
    reps = points[np.sort(first_idx)]
    w = np.bincount(inverse).astype(np.float64)
    best = None
    for rs in range(restarts):
        init = _pp_init(reps, w, inverse, k, rng)
        labels, centers, inertia, iters = _lloyd(reps, w, init)
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels=labels[inverse], centers=centers,
                                inertia=inertia, best_restart=rs, iterations=iters)
    return best


@dataclass(frozen=True)
class Partition:
    """Joint clustering of both node sets and the induced edge split."""

    labels_left: np.ndarray
    labels_right: np.ndarray
    k: int
    kept_edges: np.ndarray
    dropped_edges: np.ndarray
    inertia: float
    l: int
    degenerate: bool
    best_restart: int
    meta: dict = field(default_factory=dict)


def partition(graph: BipartiteGraph, k: int, seed=0, restarts: int = 10) -> Partition:
    """Cluster both node sets jointly and drop edges crossing clusters."""
    a_n = normalized_adjacency(graph)
    d_left, d_right = graph.degrees()
    z, info = spectral_embed(a_n, k, d_left, d_right)
    km = kmeans(z, k, seed=seed, restarts=restarts)
    labels_left = km.labels[: graph.n_left].copy()
    labels_right = km.labels[graph.n_left:].copy()
    same = labels_left[graph.edges[:, 0]] == labels_right[graph.edges[:, 1]]
    return Partition(
        labels_left=labels_left,
        labels_right=labels_right,
        k=int(k),
        kept_edges=graph.edges[same],
        dropped_edges=graph.edges[~same],
        inertia=km.inertia,
        l=info["l"],
        degenerate=info["degenerate"],
        best_restart=km.best_restart,
        meta={"singular_values": info["singular_values"]},
    )
