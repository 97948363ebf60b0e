import numpy as np
import pytest

from helpers import (
    nullspace_intersection,
    random_instance,
    random_mt,
    random_ryu,
    relaxed_matrix,
    step,
    whole_space,
)
from splitproj import (
    AffineMap,
    complement,
    from_basis,
    InconsistentAffineError,
    MTProblem,
    RyuProblem,
    Subspace,
    affine_lift,
    fix_decomposition,
    forward_blocks,
    mt_fix_projector,
    operator_matrix,
    ryu_fix_projector,
    shadow,
)
from splitproj.linalg import spectral_radius


def ryu_forward_matrix(p):
    """Three-by-two block matrix of the Ryu forward pass (test oracle)."""
    pu, pv, pw = (s.projector for s in p.subspaces)
    z = np.zeros_like(pu)
    return np.block([
        [pu, z],
        [pv @ pu, pv],
        [pw @ pu + pw @ pv @ pu - pw, pw @ pv - pw],
    ])


def ryu_operator_matrix(p):
    """Hand-derived block matrix of the linear Ryu operator (test oracle)."""
    pu, pv, pw = (s.projector for s in p.subspaces)
    eye = np.eye(p.d)
    t11 = eye - pu + pw @ pu + pw @ pv @ pu - pw
    t12 = pw @ pv - pw
    t21 = pw @ pu + pw @ pv @ pu - pw - pv @ pu
    t22 = eye + pw @ pv - pv - pw
    return np.block([[t11, t12], [t21, t22]])


def mt_forward_matrix_n3(p):
    """Three-by-two block matrix of the MT forward pass for n = 3 (oracle)."""
    pu, pv, pw = (s.projector for s in p.subspaces)
    eye = np.eye(p.d)
    z = np.zeros_like(pu)
    return np.block([
        [pu, z],
        [-pv @ (eye - pu), pv],
        [pw @ (pu + pv @ pu - pv), -pw @ (eye - pv)],
    ])


def mt_operator_matrix_n3(p):
    """Closed-form MT operator matrix for n = 3 (test oracle).

    The (2, 2) block is (Id - P_W)(Id - P_V): expanding Id - P_V - P_W(Id - P_V)
    from the forward-pass product gives P_V, not P_U, in the last factor.
    """
    pu, pv, pw = (s.projector for s in p.subspaces)
    eye = np.eye(p.d)
    return np.block([
        [(eye - pv) @ (eye - pu), pv],
        [(eye - pw) @ pv @ (eye - pu) + pw @ pu, (eye - pw) @ (eye - pv)],
    ])


# ---------------------------------------------------------------------------
# Ryu operator
# ---------------------------------------------------------------------------

def test_ryu_forward_whole_space():
    d = 4
    p = RyuProblem(whole_space(d), whole_space(d), whole_space(d))
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    x1, x2, x3 = forward_blocks(p, np.concatenate([x, y]))
    assert np.allclose(x1, x) and np.allclose(x2, x + y) and np.allclose(x3, x)


def test_ryu_forward_consensus_fixed_point():
    rng = np.random.default_rng(1)
    u = random_instance(rng)[0]
    p = RyuProblem(u, u, u)
    x = u.projector @ rng.standard_normal(6)
    x1, x2, x3 = forward_blocks(p, np.concatenate([x, np.zeros(6)]))
    assert np.allclose(x1, x) and np.allclose(x2, x) and np.allclose(x3, x)


def test_ryu_forward_matches_block_matrix():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = random_ryu(rng)
        z = rng.standard_normal(12)
        want = ryu_forward_matrix(p) @ z
        got = np.concatenate(forward_blocks(p, z))
        assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))


def test_ryu_step_common_subspace():
    rng = np.random.default_rng(3)
    u = random_instance(rng)[0]
    p = RyuProblem(u, u, u)
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    xs, ys = np.split(step(p, np.concatenate([x, y])), 2)
    assert np.allclose(xs, x)
    assert np.allclose(ys, y - u.projector @ y)


def test_ryu_step_fixes_fixed_points():
    rng = np.random.default_rng(4)
    p = random_ryu(rng)
    fix = ryu_fix_projector(p)
    z = fix.projector @ rng.standard_normal(12)
    assert np.linalg.norm(step(p, z) - z) <= 1e-12


def test_ryu_step_nonexpansive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_ryu(rng)
        a, b = rng.standard_normal(12), rng.standard_normal(12)
        ta, tb = step(p, a), step(p, b)
        assert np.linalg.norm(ta - tb) <= np.linalg.norm(a - b) + 1e-12


def test_ryu_matrix_matches_step():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = random_ryu(rng)
        amap = operator_matrix(p)
        z = rng.standard_normal(12)
        want = step(p, z)
        assert np.linalg.norm(amap(z) - want) <= 1e-12 * (1 + np.linalg.norm(want))
        assert np.allclose(amap.offset, 0.0)


def test_ryu_matrix_whole_space():
    d = 3
    p = RyuProblem(whole_space(d), whole_space(d), whole_space(d))
    amap = operator_matrix(p)
    want = np.zeros((2 * d, 2 * d))
    want[:d, :d] = np.eye(d)
    assert np.allclose(amap.linear, want, atol=1e-14)


def test_ryu_fix_projector_whole_space():
    d = 3
    p = RyuProblem(whole_space(d), whole_space(d), whole_space(d))
    fix = ryu_fix_projector(p)
    want = np.zeros((2 * d, 2 * d))
    want[:d, :d] = np.eye(d)
    assert np.allclose(fix.projector, want, atol=1e-10)


def test_ryu_fix_projector_range_is_fixed():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_ryu(rng)
        fix = ryu_fix_projector(p)
        z = fix.projector @ rng.standard_normal(12)
        assert np.linalg.norm(step(p, z) - z) <= 1e-8


def test_ryu_fix_projector_iterate_limit_oracle():
    rng = np.random.default_rng(8)
    for _ in range(3):
        p = random_ryu(rng)
        fix = ryu_fix_projector(p)
        t_lam = relaxed_matrix(p, 0.5)
        z = rng.standard_normal(12)
        limit = np.linalg.matrix_power(t_lam, 100_000) @ z
        assert np.linalg.norm(limit - fix.projector @ z) <= 1e-6


# ---------------------------------------------------------------------------
# MT operator
# ---------------------------------------------------------------------------

def test_mt_forward_whole_space_n4():
    d = 3
    p = MTProblem([whole_space(d)] * 4)
    rng = np.random.default_rng(9)
    z = rng.standard_normal(3 * d)
    out = shadow(p, z)
    want = np.concatenate([z[:d], z[d:2 * d], z[2 * d:], z[:d]])
    assert np.allclose(out, want)


def test_mt_forward_diagonal_consensus():
    rng = np.random.default_rng(10)
    p = random_mt(rng)
    pz = nullspace_intersection([s.projector for s in p.subspaces])
    x0 = pz @ rng.standard_normal(6)
    z = np.tile(x0, 2)
    out = shadow(p, z)
    for i in range(3):
        assert np.linalg.norm(out[6 * i:6 * (i + 1)] - x0) <= 1e-10


def test_mt_forward_matches_block_matrix_n3():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_mt(rng)
        z = rng.standard_normal(12)
        want = mt_forward_matrix_n3(p) @ z
        assert np.linalg.norm(shadow(p, z) - want) <= 1e-12 * (1 + np.linalg.norm(want))


def test_mt_step_fixes_fixed_points():
    rng = np.random.default_rng(12)
    for n in (3, 4, 5):
        p = random_mt(rng, n=n)
        fix = mt_fix_projector(p)
        z = fix.projector @ rng.standard_normal(p.governing_dim)
        assert np.linalg.norm(step(p, z) - z) <= 1e-10


def test_mt_step_nonexpansive():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_mt(rng, n=4)
        a, b = rng.standard_normal(18), rng.standard_normal(18)
        assert np.linalg.norm(step(p, a) - step(p, b)) <= np.linalg.norm(a - b) + 1e-12


def test_mt_step_matches_closed_form_n3():
    rng = np.random.default_rng(14)
    for _ in range(30):
        p = random_mt(rng)
        z = rng.standard_normal(12)
        want = mt_operator_matrix_n3(p) @ z
        assert np.linalg.norm(step(p, z) - want) <= 1e-12 * (1 + np.linalg.norm(want))


def test_mt_matrix_matches_step_general_n():
    rng = np.random.default_rng(15)
    for n in (3, 4, 5):
        for _ in range(10):
            p = random_mt(rng, n=n)
            amap = operator_matrix(p)
            z = rng.standard_normal(p.governing_dim)
            want = step(p, z)
            assert np.linalg.norm(amap(z) - want) <= 1e-12 * (1 + np.linalg.norm(want))
            assert np.allclose(amap.offset, 0.0)


def test_mt_matrix_whole_space_is_swap():
    d = 2
    p = MTProblem([whole_space(d)] * 3)
    amap = operator_matrix(p)
    z = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(amap(z), [3.0, 4.0, 1.0, 2.0])


def test_mt_fix_projector_whole_space():
    d = 2
    p = MTProblem([whole_space(d)] * 3)
    fix = mt_fix_projector(p)
    eye = np.eye(d)
    want = 0.5 * np.block([[eye, eye], [eye, eye]])
    assert np.allclose(fix.projector, want, atol=1e-10)
    assert np.allclose(_fix_split(p)[1], 0.0, atol=1e-10)


def test_mt_fix_projector_iterate_limit_oracle():
    rng = np.random.default_rng(16)
    for n in (3, 4):
        p = random_mt(rng, n=n)
        fix = mt_fix_projector(p)
        t_lam = relaxed_matrix(p, 0.5)
        z = rng.standard_normal(p.governing_dim)
        limit = np.linalg.matrix_power(t_lam, 100_000) @ z
        assert np.linalg.norm(limit - fix.projector @ z) <= 1e-6


# ---------------------------------------------------------------------------
# Shared behaviour, affine handling
# ---------------------------------------------------------------------------

def test_operator_matrix_matches_closed_forms():
    rng = np.random.default_rng(28)
    cases = (
        (lambda s, a: RyuProblem(*s, affine_anchors=a), ryu_operator_matrix,
         lambda v: np.concatenate([v, np.zeros(6)])),
        (lambda s, a: MTProblem(s, affine_anchors=a), mt_operator_matrix_n3,
         lambda v: np.tile(v, 2)),
    )
    for make, oracle, fixed_point in cases:
        for _ in range(20):
            subs = random_instance(rng)
            v = rng.standard_normal(6)
            anchors = [v + s.projector @ rng.standard_normal(6) for s in subs]
            want = oracle(make(subs, None))
            # v lies on every translated subspace, so the affine operator
            # fixes (v, 0) (Ryu) or (v, v) (MT): T q = q gives the offset q - L q
            q = fixed_point(v)
            for anchored, offset in ((None, np.zeros_like(q)), (anchors, q - want @ q)):
                amap = operator_matrix(make(subs, anchored))
                assert np.linalg.norm(amap.linear - want) <= 1e-12 * (1 + np.linalg.norm(want))
                assert np.linalg.norm(amap.offset - offset) <= 1e-12 * (1 + np.linalg.norm(offset))


def _fix_split(p):
    """Oracle for the two parts of Fix T: the intersection part Z and the
    residual part E, each from null spaces rather than the closed forms.

    Ryu: Z x {0}, and E = {(x, y): x in U^perp, y in V^perp, x + y in W^perp}.
    MT: the diagonal copy of the intersection, and E = ran(S) cut with the
    last block's complement, S the block lower-triangular matrix of the
    complement projectors.
    """
    d, n = p.d, p.n
    eye = np.eye(d)
    projs = [s.projector for s in p.subspaces]
    pz = nullspace_intersection(projs)
    if isinstance(p, RyuProblem):
        z_block = np.zeros((2 * d, 2 * d))
        z_block[:d, :d] = pz
        comps = np.zeros((2 * d, 2 * d))
        comps[:d, :d] = eye - projs[0]
        comps[d:, d:] = eye - projs[1]
        pw = projs[2]
        return z_block, nullspace_intersection([comps, np.eye(2 * d) - 0.5 * np.block([[pw, pw], [pw, pw]])])
    m = (n - 1) * d
    z_block = np.tile(pz, (n - 1, n - 1)) / (n - 1)
    s = np.zeros((m, m))
    for i in range(n - 1):
        for j in range(i + 1):
            s[i * d:(i + 1) * d, j * d:(j + 1) * d] = eye - projs[j]
    u, sv, _ = np.linalg.svd(s)
    q = u[:, :int(np.sum(sv > 1e-10 * sv[0]))]
    last_axis = np.eye(m)
    last_axis[-d:, -d:] = eye - projs[-1]
    return z_block, nullspace_intersection([q @ q.T, last_axis])


def test_fix_projector_is_the_orthogonal_sum_of_its_two_parts():
    rng = np.random.default_rng(34)
    # generic draws have an empty E; the complements of a_1, ..., a_{n-1}
    # and of their span give E of dimension n - 1
    cases = [(random_ryu(rng), 0)] + [(random_mt(rng, n=n), 0) for n in (3, 4, 5)]
    for n in (3, 4, 5):
        a = rng.standard_normal((6, n - 1))
        subs = [complement(from_basis(a[:, [i]])) for i in range(n - 1)] + [complement(from_basis(a))]
        cases.append((MTProblem(subs), n - 1))
    cases.append((RyuProblem(*cases[4][0].subspaces), 2))
    for p, e_dim in cases:
        z_block, e = _fix_split(p)
        fix = fix_decomposition(p).projector
        case = (type(p).__name__, p.n, e_dim)
        assert np.linalg.norm(z_block + e - fix) <= 1e-8, case
        assert np.linalg.norm(z_block @ e) <= 1e-8, case
        assert round(np.trace(e)) == e_dim, case


def test_fix_projector_commutes_and_contracts():
    rng = np.random.default_rng(17)
    for make in (random_ryu, random_mt):
        p = make(rng)
        t = operator_matrix(p).linear
        fix = fix_decomposition(p).projector
        assert np.linalg.norm(t @ fix - fix) <= 1e-8
        for lam in (0.3, 0.7):
            t_lam = (1 - lam) * np.eye(t.shape[0]) + lam * t
            assert spectral_radius(t_lam - fix) < 1.0


def test_consensus_residual_decreases():
    rng = np.random.default_rng(18)
    p = random_ryu(rng)
    z = rng.standard_normal(12)
    residuals = []
    for _ in range(4000):
        blocks = forward_blocks(p, z)
        residuals.append(np.linalg.norm(
            np.concatenate([blocks[2] - blocks[0], blocks[2] - blocks[1]])))
        z = z + 0.5 * (step(p, z) - z)
    assert all(residuals[k + 1] <= residuals[k] + 1e-12 for k in range(len(residuals) - 1))
    blocks = forward_blocks(p, z)
    pairwise = max(np.linalg.norm(a - b) for a in blocks for b in blocks)
    assert pairwise < 1e-6


def test_problem_validation():
    rng = np.random.default_rng(19)
    u, v, w = random_instance(rng)
    with pytest.raises(ValueError):
        RyuProblem(u, v, whole_space(5))
    with pytest.raises(ValueError):
        MTProblem([u, v])
    with pytest.raises(ValueError):
        RyuProblem(u, v, w, affine_anchors=(np.zeros(6), np.zeros(6)))


def test_affine_problem_consistency_check():
    # two parallel, distinct lines in the plane never meet
    from splitproj import Subspace

    u = Subspace(np.diag([1.0, 0.0]))
    with pytest.raises(InconsistentAffineError):
        RyuProblem(u, u, u, affine_anchors=(np.zeros(2), np.array([0.0, 1.0]), np.zeros(2)))


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
def test_affine_consistency_check_scales_with_the_anchors(scale):
    from splitproj import IterationConfig, Subspace, iterate

    rng = np.random.default_rng(3)
    subs = random_instance(rng, dims=(5, 5, 5, 5))
    point = scale * rng.standard_normal(6)
    anchors = [point + scale * (s.projector @ rng.standard_normal(6)) for s in subs]
    x0 = scale * rng.standard_normal(6)
    for p in (RyuProblem(*subs[:3], affine_anchors=anchors[:3]),
              MTProblem(subs, affine_anchors=anchors)):
        config = IterationConfig(0.5, tol=1e-10 * scale, max_iters=100_000)
        trace = iterate(p, config, np.tile(x0, p.n - 1))
        want = point + nullspace_intersection([s.projector for s in p.subspaces]) @ (x0 - point)
        assert trace.converged
        assert np.linalg.norm(trace.final_shadow[:6] - want) <= 1e-8 * scale
    # parallel lines a scaled distance apart still never meet
    u = Subspace(np.diag([1.0, 0.0]))
    with pytest.raises(InconsistentAffineError):
        RyuProblem(u, u, u, affine_anchors=(np.zeros(2), np.array([0.0, scale]), np.zeros(2)))


@pytest.mark.parametrize("make", [lambda s, a: RyuProblem(*s[:3], affine_anchors=a[:3]),
                                  lambda s, a: MTProblem(s, affine_anchors=a)],
                         ids=["ryu", "mt"])
def test_problem_keeps_its_derived_forms_read_only(make):
    rng = np.random.default_rng(29)
    subs = random_instance(rng, dims=(5, 5, 5, 5))
    v = rng.standard_normal(6)
    affine = make(subs, [v] * 4)
    linear = affine.parallel()
    assert linear is affine.parallel() and linear.parallel() is linear
    assert affine.intersection() is linear.intersection()
    assert affine._step[0] is linear._step[0]
    # the kept forms are those the pure builders give
    assert np.array_equal(affine._fix.linear, fix_decomposition(linear).projector)
    assert np.array_equal(affine._fix.offset, affine_lift(operator_matrix(affine),
                                                         fix_decomposition(linear)).offset)
    for array in (affine.intersection().projector, affine._step[0], affine._step[1],
                  affine._fix.linear, affine._fix.offset):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_affine_lift_zero_offset():
    rng = np.random.default_rng(22)
    p = random_ryu(rng)
    fix = fix_decomposition(p)
    amap = operator_matrix(p)
    lifted = affine_lift(amap, fix)
    assert np.allclose(lifted.offset, 0.0)
    assert np.array_equal(lifted.linear, fix.projector)


def test_affine_lift_solves_displacement_equation():
    rng = np.random.default_rng(23)
    subs = random_instance(rng)
    anchors = [rng.standard_normal(6) for _ in range(3)]
    # anchors share a common point: translate each subspace by the same v
    v = rng.standard_normal(6)
    anchors = [v + s.projector @ rng.standard_normal(6) for s in subs]
    p = RyuProblem(*subs, affine_anchors=anchors)
    amap = operator_matrix(p)
    fix = fix_decomposition(p.parallel())
    lifted = affine_lift(amap, fix)
    eye = np.eye(12)
    assert np.linalg.norm((eye - amap.linear) @ lifted.offset - amap.offset) <= 1e-8
    assert np.array_equal(lifted.linear, fix.projector)


def test_affine_lift_rejects_inconsistency():
    # Id - L is singular along the first axis, so an offset there has no
    # fixed point (T shifts that axis forever)
    amap = AffineMap(np.diag([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(InconsistentAffineError):
        affine_lift(amap, Subspace(np.zeros((2, 2))))


@pytest.mark.parametrize("make", [lambda s, a: RyuProblem(*s[:3], affine_anchors=a[:3]),
                                  lambda s, a: MTProblem(s, affine_anchors=a)],
                         ids=["ryu", "mt"])
def test_affine_map_applies_to_each_column(make):
    rng = np.random.default_rng(35)
    subs = random_instance(rng, dims=(5, 5, 5, 5))
    v = rng.standard_normal(6)
    p = make(subs, [v + s.projector @ rng.standard_normal(6) for s in subs])
    columns = rng.standard_normal((p.governing_dim, 5))
    for amap in (operator_matrix(p), p._fix):
        assert np.linalg.norm(amap.offset) > 0.0
        images = np.column_stack([amap(c) for c in columns.T])
        assert np.allclose(amap(columns), images, rtol=0.0, atol=1e-12)


def test_ryu_shadow_limit_across_relaxations():
    rng = np.random.default_rng(26)
    for lam in (0.3, 0.5, 0.9):
        for _ in range(3):
            p = random_ryu(rng)
            pz = p.intersection().projector
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            target = pz @ x
            z = np.concatenate([x, y])
            hit = False
            for _ in range(10_000):
                if np.linalg.norm(p.subspaces[0].projector @ z[:6] - target) <= 1e-6:
                    hit = True
                    break
                z = z + lam * (step(p, z) - z)
            assert hit


def test_mt_shadow_limit_general_n_both_starts():
    rng = np.random.default_rng(27)
    for n in (3, 4, 5):
        p = random_mt(rng, n=n)
        pz = p.intersection().projector
        m = p.governing_dim
        x0 = rng.standard_normal(6)
        arbitrary = rng.standard_normal(m)
        cases = [
            (arbitrary, pz @ arbitrary.reshape(n - 1, 6).mean(axis=0)),
            (np.tile(x0, n - 1), pz @ x0),
        ]
        for z0, want in cases:
            z = z0.copy()
            hit = False
            for _ in range(40_000):
                blocks = forward_blocks(p, z)
                if max(np.linalg.norm(b - want) for b in blocks) <= 1e-6:
                    hit = True
                    break
                z = z + 0.5 * (step(p, z) - z)
            assert hit


def test_affine_iteration_is_shifted_linear_iteration():
    rng = np.random.default_rng(25)
    subs = random_instance(rng)
    v = rng.standard_normal(6)
    anchors = [v + s.projector @ rng.standard_normal(6) for s in subs]
    for affine in (RyuProblem(*subs, affine_anchors=anchors),
                   MTProblem(subs, affine_anchors=anchors)):
        linear = affine.parallel()
        amap = operator_matrix(affine)
        a = affine_lift(amap, fix_decomposition(linear)).offset
        lam = 0.5
        z_aff = rng.standard_normal(12)
        z_lin = z_aff - a
        for _ in range(200):
            z_aff = z_aff + lam * (step(affine, z_aff) - z_aff)
            z_lin = z_lin + lam * (step(linear, z_lin) - z_lin)
            assert np.linalg.norm(z_aff - a - z_lin) <= 1e-10
