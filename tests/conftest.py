"""Shared helpers for the test suite."""

import numpy as np
import pytest

from mmcl import losses


def random_orthonormal(rng, d, r):
    """Columns of a Haar-ish orthonormal d x r frame."""
    q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    return q[:, :r]


def adjusted_rand_index(a, b):
    """Adjusted Rand index between two label vectors, computed from scratch."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]

    def comb2(x):
        x = np.asarray(x, dtype=np.float64)
        return x * (x - 1.0) / 2.0

    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    cont = np.zeros((ua.size, ub.size))
    np.add.at(cont, (ia, ib), 1.0)
    sum_ij = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def subspace_distance(basis_a, basis_b):
    """Frobenius sin-theta via principal angles, independent of the library.

    sqrt(sum_i sin^2 theta_i) where cos theta_i are the singular values of
    Qa.T @ Qb; equals sqrt(r - ||Qa.T Qb||_F^2) for orthonormal bases.
    """
    qa, _ = np.linalg.qr(np.asarray(basis_a, dtype=np.float64))
    qb, _ = np.linalg.qr(np.asarray(basis_b, dtype=np.float64))
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    cos2 = np.clip(sv, 0.0, 1.0) ** 2
    return float(np.sqrt(max(0.0, qa.shape[1] - cos2.sum())))


def count_calls(monkeypatch, module, name):
    """Patch module.name with a pass-through counter; return its list of calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rows64(monkeypatch):
    """Row blocks of 64 rows at every width, so that small tables span several
    blocks and a ragged last one (the default rule sizes blocks by entries)."""
    monkeypatch.setattr(losses, "_block_rows", lambda width: 64)
