import numpy as np
import pytest

from helpers import nullspace_intersection, random_instance
from splitproj import (
    AffineSubspace,
    Subspace,
    complement,
    feasible_dims,
    from_basis,
    intersect_all,
    intersect_pair,
    project,
    random_subspace,
    subspace_from_dict,
    sum_projector,
    to_dict,
)
from splitproj.subspaces import _bases

X_AXIS = Subspace(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_from_basis_identity():
    assert np.allclose(from_basis(np.eye(3)).projector, np.eye(3))


def test_from_basis_single_column():
    s = from_basis(np.array([[1.0], [0.0]]))
    assert np.allclose(s.projector, [[1.0, 0.0], [0.0, 0.0]])


def test_from_basis_diagonal_column():
    # rank-one oracle P = b b^T / ||b||^2 for b = (1, 1)
    s = from_basis(np.array([[1.0], [1.0]]))
    assert np.allclose(s.projector, [[0.5, 0.5], [0.5, 0.5]])


def test_from_basis_empty_columns_is_zero_subspace():
    s = from_basis(np.zeros((4, 0)))
    assert np.allclose(s.projector, np.zeros((4, 4)))
    assert s.dimension() == 0


@pytest.mark.parametrize("k", [0, 1, 4])
def test_basis_has_dimension_orthonormal_columns(k):
    rng = np.random.default_rng(k)
    s = from_basis(rng.standard_normal((4, k)))
    b = s.basis()
    assert s.dimension() == k and b.shape == (4, k)
    assert np.allclose(b.T @ b, np.eye(k), atol=1e-12)
    assert np.allclose(b @ b.T, s.projector, atol=1e-12)


def test_trivial_intersection_has_dimension_zero():
    # the computed projector is roundoff of about 1e-15; a cutoff relative
    # to its own largest singular value counted all of it as rank
    rng = np.random.default_rng(30)
    for dims in ((2, 2, 2), (3, 3, 3), (4, 4, 4)):
        subs = [random_subspace(6, k, rng) for k in dims]
        z = intersect_all(subs)
        assert not np.any(nullspace_intersection([s.projector for s in subs]))
        assert z.dimension() == 0 and z.basis().shape == (6, 0)
        assert complement(z).dimension() == 6


def test_projector_validation():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        Subspace(np.array([[0.5, 0.0], [0.0, 0.5]]))  # not idempotent


def test_complement_examples():
    whole = Subspace(np.eye(3))
    assert np.allclose(complement(whole).projector, np.zeros((3, 3)))
    zero = Subspace(np.zeros((3, 3)))
    assert np.allclose(complement(zero).projector, np.eye(3))
    assert np.allclose(complement(X_AXIS).projector, [[0.0, 0.0], [0.0, 1.0]])


def test_complement_involution():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_subspace(6, int(rng.integers(1, 6)), rng)
        assert np.linalg.norm(complement(complement(s)).projector - s.projector) <= 1e-10


def test_intersect_pair_examples():
    u = from_basis(np.array([[1.0, 0.0], [0.0, 0.0]])[:, :1])
    assert np.allclose(intersect_pair(u, u).projector, u.projector, atol=1e-12)
    diag = from_basis(np.array([[1.0], [1.0]]))
    assert np.allclose(intersect_pair(u, diag).projector, np.zeros((2, 2)), atol=1e-10)
    whole = Subspace(np.eye(2))
    assert np.allclose(intersect_pair(u, whole).projector, u.projector, atol=1e-12)


def test_intersect_pair_matches_nullspace_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        u, v, _ = random_instance(rng)
        got = intersect_pair(u, v).projector
        want = nullspace_intersection([u.projector, v.projector])
        assert np.linalg.norm(got - want) <= 1e-8


def test_intersect_all_examples():
    u, v, w = random_instance(np.random.default_rng(2))
    assert np.allclose(intersect_all([u]).projector, u.projector)
    assert np.allclose(intersect_all([u, u, u]).projector, u.projector, atol=1e-10)
    got = intersect_all([u, v, w]).projector
    want = nullspace_intersection([u.projector, v.projector, w.projector])
    assert np.linalg.norm(got - want) <= 1e-8


def test_absorption():
    rng = np.random.default_rng(23)
    for _ in range(20):
        u, v, _ = random_instance(rng)
        pi = intersect_pair(u, v).projector
        assert np.linalg.norm(pi @ u.projector - pi) <= 1e-8
        assert np.linalg.norm(u.projector @ pi - pi) <= 1e-8


def test_sum_projector_examples():
    u, _, _ = random_instance(np.random.default_rng(3))
    zero = Subspace(np.zeros((6, 6)))
    assert np.allclose(sum_projector(u, zero).projector, u.projector, atol=1e-10)
    y_axis = Subspace(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(sum_projector(X_AXIS, y_axis).projector, np.eye(2), atol=1e-12)


def test_sum_projector_self_consistency():
    rng = np.random.default_rng(29)
    for _ in range(15):
        u, v, _ = random_instance(rng)
        direct = sum_projector(u, v).projector
        via_complements = complement(intersect_pair(complement(u), complement(v))).projector
        assert np.linalg.norm(direct - via_complements) <= 1e-8


def test_dimension_identity():
    rng = np.random.default_rng(31)
    for _ in range(15):
        u, v, _ = random_instance(rng)
        d_sum = sum_projector(u, v).dimension()
        d_int = intersect_pair(u, v).dimension()
        assert d_sum == u.dimension() + v.dimension() - d_int


def test_project_examples():
    assert np.allclose(project(X_AXIS, [3.0, 4.0]), [3.0, 0.0])
    line = AffineSubspace(np.array([0.0, 1.0]), X_AXIS)
    assert np.allclose(project(line, [3.0, 4.0]), [3.0, 1.0])


def test_project_idempotent_and_nonexpansive():
    rng = np.random.default_rng(37)
    for _ in range(10):
        s = random_subspace(6, 3, rng)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        px = project(s, x)
        assert np.allclose(project(s, px), px, atol=1e-12)
        assert np.linalg.norm(px - project(s, y)) <= np.linalg.norm(x - y) + 1e-12


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(X_AXIS, [1.0, 2.0, 3.0])


def test_affine_anchor_canonicalization():
    line = AffineSubspace(np.array([3.0, 1.0]), X_AXIS)
    assert np.allclose(line.anchor, [0.0, 1.0])
    again = AffineSubspace(np.array([-7.5, 1.0]), X_AXIS)
    assert np.allclose(line.anchor, again.anchor)


def test_random_subspace_rank_and_determinism():
    s1 = random_subspace(6, 5, np.random.default_rng(42))
    s2 = random_subspace(6, 5, np.random.default_rng(42))
    assert s1.dimension() == 5
    assert np.array_equal(s1.projector, s2.projector)
    assert s1.projector.shape == (6, 6)


def test_random_subspace_bad_args():
    with pytest.raises(ValueError):
        random_subspace(6, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_subspace(6, 7, np.random.default_rng(0))


def test_feasible_dims():
    assert feasible_dims(6, (5, 5, 5))
    assert not feasible_dims(6, (4, 5, 5))
    assert feasible_dims(3, (3, 3, 3))
    assert not feasible_dims(6, (5, 5, 7))


def test_serialization_roundtrip():
    rng = np.random.default_rng(43)
    s = random_subspace(6, 4, rng)
    obj = to_dict(s)
    assert obj["d"] == 6 and len(obj["basis"]) == 4
    back = subspace_from_dict(obj)
    assert np.linalg.norm(back.projector - s.projector) <= 1e-12
    zero = subspace_from_dict({"d": 3, "basis": []})
    assert np.allclose(zero.projector, np.zeros((3, 3)))


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect_pair(X_AXIS, Subspace(np.eye(3)))


def test_failed_check_of_a_computed_projector_is_a_numerical_failure(monkeypatch):
    import splitproj.subspaces as subspaces
    from splitproj import NumericalFailure

    u = random_subspace(6, 3, np.random.default_rng(31))
    basis = u.basis()
    # a pseudoinverse 1% off makes each formula return 1.01 P, not a projector
    pinv = subspaces._pinv_stack
    monkeypatch.setattr(subspaces, "_pinv_stack", lambda a, scale=0.0: 1.01 * pinv(a, scale))
    for formula, args in ((intersect_pair, (u, u)), (sum_projector, (u, u)),
                          (from_basis, (basis,))):
        with pytest.raises(NumericalFailure, match="not idempotent"):
            formula(*args)
    # a caller's matrix that fails the same check stays an input error
    with pytest.raises(ValueError, match="not idempotent"):
        Subspace(1.01 * u.projector)


def test_a_stack_check_names_its_first_failing_matrix():
    from splitproj import NumericalFailure
    from splitproj.subspaces import _checked, _computed

    rng = np.random.default_rng(32)
    stack = np.stack([random_subspace(5, k, rng).projector for k in (1, 2, 3, 4)])
    assert np.array_equal(_checked(stack, stacked=True), stack)
    bad = stack.copy()
    bad[2] *= 1.01
    bad[3, 0, 1] += 1e-6  # not symmetric; the earlier matrix 2 is named
    with pytest.raises(NumericalFailure, match=r"not idempotent: .* \(matrix 2 of the stack\)$"):
        _computed(bad)
    with pytest.raises(ValueError, match=r"not symmetric: .* \(matrix 3 of the stack\)$"):
        _checked(np.concatenate([stack[:3], bad[3:]]), stacked=True)
    # a stack of one, like a single matrix, names none
    with pytest.raises(ValueError, match=r"not idempotent: \|\|P\^2 - P\|\|_F = [0-9.e+-]+$"):
        _checked(bad[2:3], stacked=True)
    # an input matrix fails as before, and a stack is not a Subspace
    with pytest.raises(ValueError, match=r"^projector not idempotent: \|\|P\^2 - P\|\|_F = [0-9.e+-]+$"):
        Subspace(bad[2])
    with pytest.raises(ValueError, match="square and nonempty"):
        Subspace(stack)


def test_stacked_rank_check_falls_back_to_one_matrix_at_a_time(monkeypatch):
    # when LAPACK fails on the stack, each projector is ranked through `svd`
    rng = np.random.default_rng(24)
    subs = [Subspace(np.zeros((6, 6))), *(random_subspace(6, k, rng) for k in (2, 5, 6))]
    stack = np.stack([s.projector for s in subs])
    real_svd = np.linalg.svd
    ndims = []

    def fail_stacked(a, *args, **kwargs):
        ndims.append(np.ndim(a))
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_stacked)
    assert _bases(stack)[1].tolist() == [s.dimension() for s in subs] == [0, 2, 5, 6]
    # the stack, then each matrix once; each dimension() is a failed stack of one, then its matrix
    assert ndims == [3, *[2] * 4, *[3, 2] * 4]


@pytest.mark.parametrize("n", [12, 14, 17])
@pytest.mark.parametrize("seed", [0, 1])
def test_dimension_of_many_intersected_subspaces_is_the_rank_of_their_complements(seed, n):
    # n subspaces of dimension 19 in R^20 meet in 20 - n dimensions; the fold
    # leaves singular values of 1e-12 to 4e-10 in P_Z, which a cutoff of
    # 1e-12 counted as dimension (10, 10, 10 at seed 0 and 10, 9, 9 at seed 1)
    from splitproj.cli import _instances

    [p] = _instances(seed, range(1), 20, (19,) * n, ("mt",))["mt"]
    complements = np.vstack([np.eye(20) - s.projector for s in p.subspaces])
    rank = np.linalg.matrix_rank(complements)
    assert intersect_all(p.subspaces).dimension() == 20 - rank == 20 - n
