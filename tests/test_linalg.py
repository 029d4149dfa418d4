"""Deterministic SVD wrapper, subspaces, and angle metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmcl import linalg
from mmcl.errors import DivideByZero, InvalidInput, InvalidRank

from conftest import random_orthonormal, subspace_distance
from oracle import svd_top_r


class TestPairCodes:
    def test_codes_order_as_the_pairs(self):
        left, right = np.array([5, 3, 5, 3, 4]), np.array([9, 2, 1, 9, 2])
        codes = linalg.pair_codes(left, right)
        assert codes.dtype == np.int64
        assert np.array_equal(np.argsort(codes), np.lexsort((right, left)))
        assert linalg.sorted_unique(codes).size == 5

    def test_span_past_int64_is_rejected(self):
        with pytest.raises(InvalidInput, match="too wide for int64"):
            linalg.pair_codes(np.array([0, 2**62]), np.array([0, 3]))


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(3))
        assert np.allclose(res.s, np.ones(3))
        assert np.allclose(res.u @ np.diag(res.s) @ res.v.T, np.eye(3))

    def test_diagonal_ordering(self):
        res = linalg.svd(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(res.s, [3.0, 2.0, 1.0])

    def test_rectangular_reconstruction_matches_eigendecomposition(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 4))
        res = linalg.svd(a)
        assert res.u.shape == (5, 4)
        assert res.s.shape == (4,)
        assert res.v.shape == (4, 4)
        assert np.allclose(res.u @ np.diag(res.s) @ res.v.T, a, atol=1e-12)
        # Independent route: singular values from the eigenvalues of a.T a.
        evals = np.linalg.eigvalsh(a.T @ a)[::-1]
        assert np.allclose(res.s, np.sqrt(np.maximum(evals, 0.0)), atol=1e-10)
        assert np.allclose(res.u.T @ res.u, np.eye(4), atol=1e-12)
        assert np.allclose(res.v.T @ res.v, np.eye(4), atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 5))
        res = linalg.svd(a)
        pick = np.argmax(np.abs(res.v), axis=0)
        assert np.all(res.v[pick, np.arange(res.v.shape[1])] >= 0.0)

    def test_deterministic_across_calls(self):
        a = np.random.default_rng(2).standard_normal((7, 3))
        r1 = linalg.svd(a)
        r2 = linalg.svd(a.copy())
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.v, r2.v)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            linalg.svd(np.ones(4))
        with pytest.raises(InvalidInput):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            linalg.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSvdTopR:
    def test_diagonal_truncation(self):
        out = svd_top_r(np.diag([3.0, 2.0, 1.0]), 1)
        assert np.allclose(out, np.diag([3.0, 0.0, 0.0]), atol=1e-12)

    def test_full_rank_recovers_input(self):
        a = np.random.default_rng(3).standard_normal((4, 6))
        assert np.allclose(svd_top_r(a, 4), a, atol=1e-10)

    def test_truncation_error_is_tail_energy(self):
        a = np.random.default_rng(4).standard_normal((6, 5))
        s = np.linalg.svd(a, compute_uv=False)
        for r in (1, 2, 3):
            err = np.linalg.norm(a - svd_top_r(a, r), "fro")
            assert err == pytest.approx(np.sqrt(np.sum(s[r:] ** 2)), abs=1e-10)

    def test_rank_validation(self):
        a = np.eye(3)
        for r in (0, -1, 4):
            with pytest.raises(InvalidRank):
                svd_top_r(a, r)
        with pytest.raises(InvalidRank):
            svd_top_r(a, 1.5)

    def test_beats_random_rank_r_candidates(self):
        # Frobenius optimality against 50 random rank-r competitors for
        # each of 200 random matrices.
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, n = rng.integers(2, 8, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            a = rng.standard_normal((m, n))
            best = np.linalg.norm(a - svd_top_r(a, r), "fro")
            for _ in range(50):
                b = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                assert best <= np.linalg.norm(a - b, "fro") + 1e-12


class TestRightSingularSubspace:
    def test_diagonal_coordinate_span(self):
        sub = linalg.right_singular_subspace(np.diag([3.0, 2.0, 1.0]), 2)
        assert sub.dim == 2
        assert sub.ambient_dim == 3
        assert not sub.degenerate
        target = np.eye(3)[:, :2]
        assert subspace_distance(sub.basis, target) < 1e-12

    def test_recovers_planted_span(self):
        rng = np.random.default_rng(6)
        v = random_orthonormal(rng, 9, 3)
        u = random_orthonormal(rng, 7, 3)
        a = (u * np.array([5.0, 4.0, 3.0])) @ v.T
        sub = linalg.right_singular_subspace(a, 3)
        assert subspace_distance(sub.basis, v) < 1e-9

    def test_degenerate_on_tied_gap(self):
        sub = linalg.right_singular_subspace(np.diag([2.0, 1.0, 1.0]), 2)
        assert sub.degenerate
        assert linalg.right_singular_subspace(np.zeros((3, 3)), 1).degenerate

    def test_orthonormal_basis(self):
        a = np.random.default_rng(7).standard_normal((5, 8))
        sub = linalg.right_singular_subspace(a, 4)
        assert np.allclose(sub.basis.T @ sub.basis, np.eye(4), atol=1e-12)

    def test_rank_validation(self):
        a = np.eye(3)
        for r in (0, -1, 4, 1.5):
            with pytest.raises(InvalidRank):
                linalg.right_singular_subspace(a, r)


class TestSinTheta:
    def test_same_subspace_is_zero(self):
        u = random_orthonormal(np.random.default_rng(8), 6, 2)
        assert linalg.sin_theta(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_lines_are_one(self):
        e = np.eye(4)
        assert linalg.sin_theta(e[:, :1], e[:, 1:2]) == pytest.approx(1.0)

    def test_orthogonal_planes_reach_sqrt_r(self):
        # Frobenius convention: every principal angle at 90 degrees gives
        # sqrt(r), the metric's upper end.
        e = np.eye(4)
        assert linalg.sin_theta(e[:, :2], e[:, 2:]) == pytest.approx(np.sqrt(2.0))

    def test_forty_five_degrees(self):
        u1 = np.array([[1.0], [0.0]])
        u2 = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert linalg.sin_theta(u1, u2) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_rejects_bases_of_different_shapes(self):
        e = np.eye(4)
        with pytest.raises(InvalidInput, match=r"subspace shapes differ: \(4, 2\) vs \(4, 3\)"):
            linalg.sin_theta(e[:, :2], e[:, :3])

    def test_accepts_subspace_objects(self):
        sub = linalg.right_singular_subspace(np.diag([3.0, 2.0, 1.0]), 2)
        assert linalg.sin_theta(sub, np.eye(3)[:, :2]) < 1e-12

    def test_matches_independent_principal_angles(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u1 = random_orthonormal(rng, 10, 3)
            u2 = random_orthonormal(rng, 10, 3)
            assert linalg.sin_theta(u1, u2) == pytest.approx(
                subspace_distance(u1, u2), abs=1e-10)


class TestEffectiveRank:
    def test_examples(self):
        assert linalg.effective_rank(np.eye(5)) == pytest.approx(5.0)
        assert linalg.effective_rank(np.diag([1.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert linalg.effective_rank(np.diag([4.0, 2.0, 2.0])) == pytest.approx(2.0)

    def test_zero_matrix_raises(self):
        with pytest.raises(DivideByZero):
            linalg.effective_rank(np.zeros((3, 3)))

    def test_bounded_by_dimension(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((6, 6))
        cov = b @ b.T
        val = linalg.effective_rank(cov)
        assert 1.0 <= val <= 6.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_sin_theta_symmetry_and_range(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    r = int(rng.integers(1, d))
    u1 = random_orthonormal(rng, d, r)
    u2 = random_orthonormal(rng, d, r)
    a = linalg.sin_theta(u1, u2)
    b = linalg.sin_theta(u2, u1)
    assert abs(a - b) <= 1e-10
    assert -1e-12 <= a <= np.sqrt(r) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_sin_theta_invariances(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 9))
    r = int(rng.integers(1, d))
    u1 = random_orthonormal(rng, d, r)
    u2 = random_orthonormal(rng, d, r)
    # Rotating a basis within its own span changes nothing.
    rot = random_orthonormal(rng, r, r)
    assert linalg.sin_theta(u1, u1 @ rot) <= 1e-8
    # A common orthogonal change of ambient coordinates preserves angles.
    q = random_orthonormal(rng, d, d)
    before = linalg.sin_theta(u1, u2)
    after = linalg.sin_theta(q @ u1, q @ u2)
    assert abs(before - after) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_svd_reconstructs(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    a = rng.standard_normal((m, n)) * (10.0 ** rng.integers(-3, 4))
    res = linalg.svd(a)
    scale = max(1.0, np.abs(a).max())
    assert np.allclose(res.u @ np.diag(res.s) @ res.v.T, a, atol=1e-10 * scale)
    assert np.all(np.diff(res.s) <= 1e-12 * scale)
