import numpy as np
import pytest

from splitproj.linalg import (
    NumericalFailure,
    _operator_norms,
    _pinv_stack,
    operator_norm,
    pseudoinverse,
    rank,
    spectral_radius,
    svd,
)


def random_with_rank(rng, m, n, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])
    assert np.allclose(res.u @ res.vt, np.eye(3))


def test_svd_zero_matrix():
    res = svd(np.zeros((2, 2)))
    assert np.allclose(res.singular_values, [0.0, 0.0])


def test_svd_diagonal_singular_values():
    res = svd(np.diag([3.0, 4.0]))
    assert np.allclose(res.singular_values, [4.0, 3.0])


def test_svd_result_invariants():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, n = rng.integers(1, 13, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_with_rank(rng, m, n, r) if r else np.zeros((m, n))
        res = svd(a)
        s = res.singular_values
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        recon = res.u @ np.diag(s) @ res.vt
        top = s[0] if s.size else 0.0
        assert np.max(np.abs(recon - a)) <= 1e-10 * (1.0 + top)
        k = s.size
        assert np.allclose(res.u.T @ res.u, np.eye(k), atol=1e-12)
        assert np.allclose(res.vt @ res.vt.T, np.eye(k), atol=1e-12)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        svd(np.array([1.0, 2.0]))


def test_pseudoinverse_identity():
    assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4))


def test_pseudoinverse_of_projector_is_itself():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 2))
    p = b @ np.linalg.pinv(b)
    assert np.allclose(pseudoinverse(p), p, atol=1e-10)


def test_pseudoinverse_diagonal():
    assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_penrose_identities():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m, n = rng.integers(1, 13, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        a = random_with_rank(rng, m, n, r)
        ai = pseudoinverse(a)
        na, nai = np.linalg.norm(a), np.linalg.norm(ai)
        assert np.linalg.norm(a @ ai @ a - a) <= 1e-8 * na
        assert np.linalg.norm(ai @ a @ ai - ai) <= 1e-8 * nai
        assert np.linalg.norm((a @ ai).T - a @ ai) <= 1e-8 * max(1.0, na * nai)
        assert np.linalg.norm((ai @ a).T - ai @ a) <= 1e-8 * max(1.0, na * nai)


def test_operator_norm_examples():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert operator_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)
    assert operator_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)


def _orthogonal(rng, m):
    return np.linalg.qr(rng.standard_normal((m, m)))[0]


def test_stacked_operator_norms_match_the_svd():
    rng = np.random.default_rng(19)
    stacks = {
        "random": rng.standard_normal((20, 9, 9)),
        "rank-deficient": np.array([random_with_rank(rng, 9, 9, r) for r in range(1, 9)]),
        "zero": np.zeros((3, 9, 9)),
        # symmetric, and scaled orthogonal (every singular value equal)
        "normal": np.array([q @ np.diag(rng.standard_normal(9)) @ q.T
                            for q in (_orthogonal(rng, 9) for _ in range(5))]
                           + [c * _orthogonal(rng, 9) for c in (0.5, 1.0, 3.0)]),
        "100x100": rng.standard_normal((3, 100, 100)),
    }
    for name, stack in stacks.items():
        want = np.array([svd(a).singular_values[0] for a in stack])
        np.testing.assert_allclose(_operator_norms(stack), want, rtol=1e-13, atol=0.0,
                                   err_msg=name)


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([1.0, -2.0])) == pytest.approx(2.0)
    theta = 0.73
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert spectral_radius(rot) == pytest.approx(1.0)
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)


def test_spectral_radius_requires_square():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))


def test_rank_examples():
    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.eye(6)) == 6
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    assert rank(np.outer(u, v)) == 1


def test_rank_cutoff_boundary():
    # the cutoff is 1e-12 * sigma_max: 2e-12 lies above it, 5e-13 below
    a = np.diag([1.0, 2e-12, 5e-13])
    assert rank(a) == 2
    np.testing.assert_allclose(pseudoinverse(a), np.diag([1.0, 5e11, 0.0]),
                               rtol=1e-12, atol=1e-12)


def test_spectral_radius_below_operator_norm():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        a = rng.standard_normal((n, n))
        assert spectral_radius(a) <= operator_norm(a) + 1e-12


def test_symmetric_radius_equals_norm():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        assert abs(spectral_radius(a) - operator_norm(a)) <= 1e-9


def test_failure_exception_is_exported():
    assert issubclass(NumericalFailure, Exception)


def _failing_svd(monkeypatch, fail_shapes):
    """Make numpy's SVD raise LinAlgError for inputs of the given shapes."""
    real = np.linalg.svd

    def svd_or_fail(a, *args, **kwargs):
        if np.shape(a) in fail_shapes:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_or_fail)


def test_svd_falls_back_to_transpose(monkeypatch):
    rng = np.random.default_rng(12)
    a = random_with_rank(rng, 9, 5, 3)
    want = svd(a)
    _failing_svd(monkeypatch, {(9, 5)})
    res = svd(a)
    assert res.u.shape == (9, 5) and res.vt.shape == (5, 5)
    assert np.allclose(res.singular_values, want.singular_values, atol=1e-12)
    assert np.max(np.abs(res.u @ np.diag(res.singular_values) @ res.vt - a)) <= 1e-12
    assert np.allclose(res.u.T @ res.u, np.eye(5), atol=1e-12)
    assert np.allclose(res.vt @ res.vt.T, np.eye(5), atol=1e-12)


def test_svd_fails_when_transpose_fails_too(monkeypatch):
    _failing_svd(monkeypatch, {(4, 3), (3, 4)})
    with pytest.raises(NumericalFailure, match="4x3"):
        svd(np.ones((4, 3)))


def test_stacked_pseudoinverse_gives_each_matrix_its_own_bits(monkeypatch):
    # the stacked SVD and the 2-D one of each matrix make the same gesdd call;
    # when the stacked call fails, each matrix goes through svd and its
    # transpose retry
    rng = np.random.default_rng(13)
    stack = np.stack([random_with_rank(rng, 9, 5, r) for r in (5, 3, 1, 4)])
    want = _pinv_stack(stack)
    for a, w in zip(stack, want):
        assert np.array_equal(pseudoinverse(a), w)
        np.testing.assert_allclose(w, np.linalg.pinv(a, rcond=1e-12), rtol=0, atol=1e-10)
    real = np.linalg.svd

    def stacked_fails(a, *args, **kwargs):
        if np.ndim(a) > 2 or np.shape(a) == (9, 5) and not np.any(a - stack[1]):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", stacked_fails)
    got = _pinv_stack(stack)
    for i in (0, 2, 3):
        assert np.array_equal(got[i], want[i])
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
