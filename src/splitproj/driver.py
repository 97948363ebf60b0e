"""Relaxed fixed-point iteration, its stopping rule, and rate bounds.

The governing iteration is z <- (1 - lam) z + lam T z with 0 < lam < 1.
Because the operators are (affine) linear and averaged, the iterates converge
to the image of the start under the closed-form fixed-point projector, and
the shadow sequence (the stacked forward-pass blocks) converges to copies of
the projection of a start-dependent point onto the subspace intersection.
Every limit is thus known in closed form, so a run stops once its iterate
is within ``tol`` of that limit.

All distances are Euclidean norms on the stacked block vectors: governing
distances in R^{(n-1)d}, shadow distances in R^{nd}; the counts kernel takes
them split along Z (`_split_errors`), past the steps `_skips` proves above tol.

The rate bounds are the spectral radius and the operator norm of the error map
T_lam - P_Fix, which `_rate_curves` takes on (Z^perp)^{n-1} and on Z^{n-1}
apart, for a relaxation grid and an exp1 chunk of problems; `rate_curve` is
its one-problem call and `rate_bounds` the one-relaxation call of that.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .linalg import _eigvals, _norms, _operator_norms, pseudoinverse
from .splitting import _governing, forward_blocks, operator_matrix
from .subspaces import _bases, _computed, _integer

#: Distance ratios averaged by `tail_contraction`.
_TAIL_WINDOW = 50
#: `asymptotic_contraction` runs 2**_DOUBLINGS steps by repeated squaring.
_DOUBLINGS = 20
#: `orbit` yields at most this many steps per block, fewer when a block would
#: hold more than ``_BLOCK_ENTRIES`` entries (128 KiB; larger blocks cost memory
#: and gain no speed), and one when a column set is too wide for two.
#: The budget also bounds `batch_iteration_counts`' stepped and propagated
#: blocks, `_jumped`'s gathered powers, `_part_curves`' Gram slices and the
#: instance chunks of exp1 and exp3, each down to one unit that may exceed it:
#: one step of every live column (F' x over x, rows x columns entries), one
#: m x m power, one map at every relaxation (lam values x k^2) and one instance.
#: It does not bound `_jumped`'s per-lam power stack (lam values x m^2 entries),
#: the `_propagators` stacks (about 2^14 m entries per lam value, by the fit
#: rule), `_skips`' mode bounds (m x columns, complex) or `_rate_curves`'
#: np.kron(Id_{n-1}, W_r) bases ((n - 1)^2 d r entries per problem of a rank group).
_BLOCK_STEPS = 32
_BLOCK_ENTRIES = 1 << 14


@dataclass
class IterationConfig:
    """Relaxation, tolerance and iteration budget."""

    lam: float
    tol: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        _relaxations(self.lam)
        _check_stop(self.tol, self.max_iters)


def _relaxations(lams) -> np.ndarray:
    """``lams`` as a float array, after checking that they are real numbers in (0, 1)."""
    if np.asarray(lams).dtype.kind not in "biuf":
        raise ValueError(f"relaxation must be a real number, got {lams!r}")
    lam = np.asarray(lams, dtype=float)
    bad = lam[~((0.0 < lam) & (lam < 1.0))]
    if bad.size:
        raise ValueError(f"relaxation must lie in (0, 1), got {bad[0]}")
    return lam


def _check_stop(tol, max_iters) -> None:
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not _integer(max_iters) or max_iters < 0:
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    if max_iters > np.iinfo(np.int64).max:  # the counts are int64
        raise ValueError(f"max_iters must be at most 2**63 - 1, got {max_iters!r}")


@dataclass
class IterationTrace:
    """Outcome of a governing iteration run.

    Distance histories are empty arrays when history recording was off.
    """

    iterations: int
    converged: bool
    governing_distances: np.ndarray
    shadow_distances: np.ndarray
    final_governing: np.ndarray
    final_shadow: np.ndarray


@dataclass
class RateBounds:
    """Lower (spectral radius) and upper (operator norm) rate bounds."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper + 1e-9:
            raise ValueError(f"need 0 <= lower <= upper, got {self.lower}, {self.upper}")


def governing_limit(problem, start) -> np.ndarray:
    """Limit of the governing iteration: the fixed-point projection of start.

    ``start`` is a governing vector or a ``(governing_dim, k)`` matrix of
    start columns; the problem builds its fixed-point projector once.
    """
    return problem._fix(_governing(problem, start))


def shadow_limit(problem, start) -> np.ndarray:
    """Limit of the shadow sequence: n copies of the (affine) intersection
    projection of the mean of the start blocks where the problem's lift vector
    l is 1, the first block for Ryu and the block average for MT.  A
    ``(governing_dim, k)`` matrix of starts gives a ``(n d, k)`` matrix of limits.
    """
    start = _governing(problem, start)
    columns = (1,) * (start.ndim - 1)
    blocks = start.reshape((problem.n - 1, problem.d) + start.shape[1:])
    anchor = problem.intersection_point.reshape((-1,) + columns)
    solution = anchor + problem.intersection().projector @ (
        blocks[problem._lift == 1].mean(axis=0) - anchor)
    return np.tile(solution, (problem.n,) + columns)


def shadow(problem, z) -> np.ndarray:
    """Stacked forward-pass blocks (the shadow point) at a governing z."""
    return np.concatenate(forward_blocks(problem, z))


def orbit(problems, starts, lam):
    """Relaxed iterates of blocks of start columns, with their shadows.

    ``problems`` is a list of S problems whose step matrices share one
    shape, ``starts`` an ``(S, governing_dim, k)`` array of start columns,
    and ``lam`` one relaxation or one per column.  Yields blocks of
    consecutive steps, ``(j, S, rows, k)`` arrays whose slices are
    ``[F z_i; z_i]`` (shadow rows over iterate rows) for i = 0, 1, ... in
    order across blocks.  Each step is one stacked product with the
    problems' step matrices ``[F; Id; T - Id]``, followed by
    z_{i+1} = z_i + lam (T - Id) z_i; a stacked product makes the same
    products item by item, so every problem's blocks keep the bits of a
    stack of one.  `iterate` and exp3 step the iterate with it.
    """
    shapes = {p._step[0].shape for p in problems}
    if len(shapes) != 1:
        raise ValueError(f"stacked problems need one step shape, got {sorted(shapes)}")
    if len(starts) != len(problems):
        raise ValueError(f"need one start matrix per problem, got {len(starts)} "
                         f"for {len(problems)}")
    z = np.stack([_governing(p, s) for p, s in zip(problems, starts)])
    matrix = np.stack([p._step[0] for p in problems])
    offset = np.stack([p._step[1] for p in problems])
    affine = any(p.is_affine for p in problems)
    m = problems[0].governing_dim
    lam = np.asarray(lam, dtype=float)
    rows = matrix.shape[-2]
    while True:
        entries = rows * (z.size // m)  # of one step of every problem and column
        j = max(1, min(_BLOCK_STEPS, _BLOCK_ENTRIES // max(1, entries)))
        block = np.empty((j, len(z), rows, z.shape[-1]))
        for w in block:
            np.matmul(matrix, z, out=w)
            if affine:
                w += offset[..., None]
            z = z + lam * w[..., -m:, :]
        yield block[..., :-m, :]


def iterate(problem, config: IterationConfig, start, record_history: bool = True) -> IterationTrace:
    """Run the relaxed iteration until the iterate is within ``tol`` of its limit.

    The limit is `governing_limit` of the start, known in closed form.
    Hitting ``max_iters`` yields ``converged=False`` rather than an
    exception.  Per-iteration distance histories are recorded only when
    requested (long runs over many instances would otherwise hold every
    trace in memory).  This is the one-column run of `orbit`: the
    distances of a block come from one stacked product, and the steps of
    the last block past the stop are discarded.
    """
    z = _governing(problem, np.ravel(start))
    gov_lim = governing_limit(problem, z)
    sh_lim = shadow_limit(problem, z)
    nd = sh_lim.shape[0]
    gov_hist, sh_hist = [], []
    it = 0
    for block in orbit([problem], z[None, :, None], config.lam):
        block = block[:config.max_iters + 1 - it, 0, :, 0]
        gov = _norms(block[:, nd:] - gov_lim)
        hit = np.flatnonzero(gov <= config.tol)
        end = int(hit[0]) + 1 if hit.size else len(block)
        if record_history:
            gov_hist.append(gov[:end])
            sh_hist.append(_norms(block[:end, :nd] - sh_lim))
        it += end
        if hit.size or it > config.max_iters:
            break
    y = block[end - 1]
    return IterationTrace(it - 1, bool(hit.size), np.concatenate(gov_hist or [[]]),
                          np.concatenate(sh_hist or [[]]), final_governing=y[nd:],
                          final_shadow=y[:nd])


def iteration_counts(problem, config: IterationConfig, start) -> tuple:
    """First iterations at which governing and shadow reach ``tol``.

    Returns ``(governing_count, shadow_count)``: the first k at which the
    governing iterate z_k is within ``tol`` of its limit, and the first k
    at which the forward-pass blocks at z_k are within ``tol`` of theirs
    (0 when the start already is).  A sequence that never reaches ``tol``
    within ``max_iters`` is reported as ``max_iters`` (such runs count
    toward experiment medians rather than being dropped).  This is the
    one-column call of `batch_iteration_counts`.
    """
    gov, sh = batch_iteration_counts(problem, np.reshape(start, (-1, 1)), [config.lam],
                                     config.tol, config.max_iters)
    return int(gov[0]), int(sh[0])


def _propagators(d, lams) -> np.ndarray:
    """[M; M^2; ...; M^J] for M = Id + lam D and J = ``_BLOCK_STEPS``, for
    each relaxation of ``lams``: the errors of the next J steps from one
    error, by one product.  Each power is one stacked product."""
    step = np.eye(d.shape[0]) + lams[:, None, None] * d
    powers = [step]
    for _ in range(_BLOCK_STEPS - 1):
        powers.append(step @ powers[-1])
    return np.stack(powers, axis=1).reshape(len(lams), -1, d.shape[1])


def _split_errors(p, errors) -> tuple:
    """F', D' and the ``(governing_dim, k)`` errors of a linear problem in the
    coordinates x of `batch_iteration_counts`.  With (W, r) from `_fix_split`,
    the part on (Z^perp)^{n-1} is Q^T e for Q = Id_{n-1} (x) W_r, stepped by
    Q^T D Q, with shadow Q_s^T F Q.  On Z^{n-1} = R^{n-1} (x) Z, D and F act as
    D_Z (x) Id and F_Z (x) Id, and e is orthogonal to l (x) Z, so its Z
    coefficients are V Y, V an orthonormal basis of l^perp, and enter the norms
    only through Y Y^T: Y gives way to R^T of the QR factors of Y^T ((n - 2) x c,
    c = min(dim Z, n - 2)), stepped by Id_c (x) V^T D_Z V, with shadow
    Id_c (x) F_Z V.  D' and F' are the block-diagonal sums of the two parts."""
    (w, r), n, d, k = p._fix_split[:2], p.n, p.d, errors.shape[1]
    f, dm = (w.T @ a.reshape(-1, d, n - 1, d).swapaxes(1, 2) @ w  # the d x d blocks in W
             for a in (p._step[0][:n * d], p._step[0][-(n - 1) * d:]))
    v = np.linalg.svd(p._lift[None])[2][1:].T
    e = w.T @ errors.reshape(n - 1, d, k)
    y = (v.T @ e[:, r:].reshape(n - 1, -1)).reshape(n - 2, d - r, k)
    factor = np.linalg.qr(y.T, mode="r")  # (k, c, n - 2), each R^T R = Y Y^T
    c, parts = factor.shape[1], []  # W[:, -1] lies in Z when c > 0
    for x, on_z in ((f, f[:, :, -1, -1] @ v), (dm, v.T @ dm[:, :, -1, -1] @ v)):
        rows = len(x) * r
        out = np.zeros((rows + c * len(on_z), (n - 1) * r + c * (n - 2)))
        out[:rows, :(n - 1) * r] = x[:, :, :r, :r].swapaxes(1, 2).reshape(rows, (n - 1) * r)
        out[rows:, (n - 1) * r:] = (np.eye(c)[:, None, :, None] * on_z[:, None]).reshape(
            c * len(on_z), c * (n - 2))
        parts.append(out)
    return (*parts, np.vstack([e[:, :r].reshape((n - 1) * r, k), factor.reshape(k, -1).T]))


def _skips(f, d, x, lam, tol, max_iters) -> np.ndarray:
    """The steps s of `batch_iteration_counts`, as floats, at most ``max_iters + 1``."""
    eps = np.finfo(float).eps
    try:
        mu, v = np.linalg.eig(d.T)  # unit columns, v^T D' = mu v^T
    except np.linalg.LinAlgError:
        return np.zeros(x.shape[1])
    y = pseudoinverse(f).T @ v  # y^T F' = v^T where v lies in the row space of F'
    at, rho, steps = np.abs(v.T @ x), np.abs(1.0 + lam * mu[:, None]), []
    for scale, residual, size in ((np.ones(len(mu)), d.T @ v - v * mu, np.linalg.norm(d)),
                                  (np.linalg.norm(y, axis=0), f.T @ y - v, np.linalg.norm(f))):
        sound = np.linalg.norm(residual, axis=0) <= 64 * eps * size * scale
        with np.errstate(all="ignore"):  # low may be 0 and 2 tol / low overflow; masked below
            low = at / scale[:, None]  # each mode's bound at step 0
            k = np.ceil(np.log(2 * tol / low) / np.log(rho))
        steps.append(np.where(sound[:, None] & (rho < 1) & (low > 2 * tol), k, 0.0).max(axis=0))
    skips = np.minimum(np.minimum(*steps), max_iters + 1.0)
    skips[2 * tol < 1e5 * eps * np.linalg.norm(x, axis=0)] = 0.0  # near the rounding floor
    return skips


def _jumped(d, x, lam, skips) -> np.ndarray:
    """M^s x per column, s its skip and M = Id + lam D' at its lam (sorted).  The
    gathered powers of a squaring hold at most ``_BLOCK_ENTRIES`` entries (one
    m x m power when m^2 exceeds it), taken in column chunks that make each
    column's product as one gather of them all would."""
    firsts = np.r_[True, lam[1:] != lam[:-1]]
    power, at, x = np.eye(len(d)) + lam[firsts][:, None, None] * d, np.cumsum(firsts) - 1, x.copy()
    width = max(1, _BLOCK_ENTRIES // d.size)
    while skips.any():
        odd = np.flatnonzero(skips & 1)
        for a in range(0, odd.size, width):
            cols = odd[a:a + width]
            x[:, cols] = (power[at[cols]] @ x.T[cols, :, None])[..., 0].T
        skips, power = skips >> 1, power @ power
    return x


def batch_iteration_counts(problem, starts, lams, tol: float = 1e-6,
                           max_iters: int = 10_000) -> tuple:
    """`iteration_counts` for many runs of one problem, stepped together.

    Column j of the ``(governing_dim, k)`` matrix ``starts`` is run with
    relaxation ``lams[j]``; returns two integer arrays of length k, the
    governing and the shadow counts of each column.  The columns' limits
    come from one `governing_limit` call, for linear and affine problems alike.

    T is affine and z* = P_FixT z0 is a fixed point, so the error
    e = z - z* of a column obeys e <- e + lam D e, D the linear part of
    T - Id, and its shadow error is F e, F the linear forward pass.  As every
    P_i commutes with P_Z, the kernel steps e in the coordinates x of
    `_split_errors`, by D', with ||x|| = ||e|| and ||F' x|| = ||F e|| up to
    rounding: m = 7 rows of x and 12 of F' x on default instances, not 12
    and 18.  A left eigenpair v^T D' = mu v^T (unit v) gives, for
    M = Id + lam D', ||M^k x|| >= |1 + lam mu|^k |v^T x| and, with
    y^T = v^T F'^+, ||F' M^k x|| >= |1 + lam mu|^k |v^T x| / ||y|| if
    y^T F' = v^T.  Over the modes with |1 + lam mu| < 1 and residuals at
    rounding level, `_skips` takes the s leading steps these keep above
    2 tol, none where 2 tol < 1e5 eps ||x_0|| (near the rounding floor); a
    column steps on from M^s x_0 (`_jumped`, by repeated squaring), or
    reports ``max_iters`` unstepped if s > ``max_iters``.  The columns step
    x together into ``(steps, m, columns)`` blocks of at least one step and
    at most ``_BLOCK_ENTRIES`` entries of the rows of F' x over x; a block's
    shadow errors are one 2-D product with F', and its distances are plain
    column norms.  A column leaves the working set after the block in which
    both its counts become known or its step passes ``max_iters``, so a slow
    relaxation does not keep the fast ones stepping.  In the first block,
    and while the live columns are too many for a round of ``_BLOCK_STEPS``
    steps, each step is one product with the m x m D'.
    Then each block comes from the last tested error, in rounds, each one
    product per run of equal relaxations (the columns are sorted by lam) with
    its `_propagators` power stack, from the last error of the round before.
    Every column is checked at k = s, ..., ``max_iters``; a count still
    unknown after ``max_iters`` steps is reported as ``max_iters``.
    """
    z = _governing(problem, starts)
    if z.ndim != 2:
        raise ValueError("starts must be a (governing_dim, k) matrix")
    k = z.shape[1]
    lam = _relaxations(lams).reshape(-1)
    if lam.shape[0] != k:
        raise ValueError(f"need one relaxation per column, got {lam.shape[0]} for {k}")
    _check_stop(tol, max_iters)
    counts = np.full((2, k), max_iters, dtype=np.int64)
    if k == 0:
        return tuple(counts)
    f, d, last = _split_errors(problem.parallel(), z - governing_limit(problem, z))
    m = d.shape[0]
    rows = f.shape[0] + m  # F' x over x
    skips = _skips(f, d, last, lam, tol, max_iters)
    if skips.min() > max_iters:  # every column stays above tol to the budget
        return tuple(counts)
    cols = np.argsort(lam, kind="stable")  # equal relaxations side by side
    lam, offset = lam[cols], np.minimum(skips[cols], max_iters).astype(np.int64)
    last = _jumped(d, last[:, cols], lam, offset)  # the start error, then the last tested one
    open_ = np.ones((2, k), dtype=bool)
    it, propagators, runs, keep = 0, {}, None, None
    while True:  # column j is at step offset[j] + it
        c, left = cols.size, max_iters + 1 - it - int(offset.min())
        fit = _BLOCK_ENTRIES // (rows * c)  # steps of every live column in a block
        rounds = min(fit // _BLOCK_STEPS, -(-left // _BLOCK_STEPS))
        if it and rounds:
            if keep is not None or not runs:  # (a, b, propagator) per run of equal lam
                cuts = [0, *(np.flatnonzero(lam[1:] != lam[:-1]) + 1).tolist(), lam.size]
                if not propagators:  # the live columns only shrink from here
                    firsts = lam[cuts[:-1]]
                    propagators = dict(zip(firsts.tolist(), _propagators(d, firsts)))
                runs = [(a, b, propagators[lam[a]]) for a, b in zip(cuts, cuts[1:])]
            errors = np.empty((rounds, _BLOCK_STEPS * m, c))
            for r in range(rounds):  # each round from the last error of the one before
                for a, b, p in runs:
                    np.matmul(p, last[:, a:b], out=errors[r, :, a:b])
                last = errors[r, -m:]
            errors = errors.reshape(-1, m, c)[:left]
        else:
            errors = np.empty((max(1, min(_BLOCK_STEPS, fit, left)), m, c))
            errors[0] = last + lam * (d @ last) if it else last
            for e, after in zip(errors, errors[1:]):
                np.add(e, lam * (d @ e), out=after)
        flat = errors.transpose(1, 0, 2).reshape(m, -1)  # (m, steps * columns)
        blocks = flat.reshape(m, -1, c), (f @ flat).reshape(-1, len(errors), c)
        hit = open_[:, None] & (np.sqrt([np.einsum("ijk,ijk->jk", x, x) for x in blocks]) <= tol)
        hit &= offset + it + np.arange(len(errors))[:, None] <= max_iters
        done = hit.any(axis=1)
        which, j = np.nonzero(done)
        counts[which, cols[j]] = offset[j] + it + hit.argmax(axis=1)[which, j]
        open_ &= ~done
        it += len(errors)
        live, keep = open_.any(axis=0) & (offset + it <= max_iters), None
        if not live.all():
            if not live.any():
                break
            keep = live
            cols, open_, lam, offset = cols[live], open_[:, live], lam[live], offset[live]
        last = errors[-1] if keep is None else errors[-1][:, keep]
    return tuple(counts)


def rate_bounds(problem, lam: float) -> RateBounds:
    """Spectral-radius lower and operator-norm upper bound on the rate.

    Both bounds are for the error map of the relaxed operator,
    T_lam - P_Fix; the lower bound is sharp for the asymptotic rate.
    Requires a linear problem (affine rates equal those of the parallel
    linear problem).  This is the one-relaxation call of `rate_curve`.
    """
    lower, upper = rate_curve(problem, [lam])
    return RateBounds(lower=float(lower[0]), upper=float(upper[0]))


def rate_curve(problem, lams) -> tuple:
    """`rate_bounds` at every relaxation of ``lams``, as two arrays.

    T is the identity on Fix T and maps its orthogonal complement into
    itself, so with an orthonormal basis Q of Fix^perp and B = Q^T T Q the
    error map T_lam - P_Fix is zero on Fix T and (1 - lam) Id + lam B on
    Fix^perp.  Its spectrum is {0} and the values 1 - lam + lam mu over the
    eigenvalues mu of B, so one eigenvalue solve gives the whole lower
    curve; the upper curve is the largest singular value of each
    (1 - lam) Id + lam B, from one stacked eigensolve of their Gram
    matrices.  Both bounds are 0 when Fix T is the whole space.  Both are
    taken on Z^perp and on Z apart (`_rate_curves`).  On Z, T is
    (x, y) -> (x, 0) for Ryu and the cyclic block shift for MT, so where
    Z != {0} neither bound falls below 1 - lam (Ryu) or
    max_{j=1..n-2} |1 - lam + lam e^{2 pi i j / (n - 1)}| (MT; |1 - 2 lam| for
    n = 3), and both equal that floor when every subspace is R^d.  MT's floor
    rises again past lam = 1/2, one reason why its best relaxation lies well
    below 1.  This is the one-problem call of `_rate_curves`.
    """
    return tuple(_rate_curves([problem], lams)[:, 0])


def _rate_curves(problems, lams) -> np.ndarray:
    """`rate_curve` of each of a list of linear problems of one governing
    dimension, as a ``(2, problems, relaxations)`` array (lower, then upper).

    Every P_i commutes with P_Z, so T and P_Fix map (Z^perp)^{n-1} and Z^{n-1}
    into themselves, and each bound is the larger of the two restrictions'.
    Each problem's `_fix_split` (W, r, E_r), which its Fix T shares, gives
    them: Q^T T Q and E_r for Q = Id_{n-1} (x) W[:, :r], and, as T acts alike
    on every direction of Z, Q^T T Q and P_Fix = l l^T / sum(l) there, l the
    lift vector, for Q = Id_{n-1} (x) W[:, r].  Each rank group of an (n, d)
    passes both restrictions, the one on Z first, to `_part_curves`, and
    a chunk never builds an (n - 1) d square P_Fix.
    """
    if any(p.is_affine for p in problems):
        raise ValueError("rate bounds are defined on linear problems; use problem.parallel()")
    lam = _relaxations(lams).reshape(-1)
    curves = np.zeros((2, len(problems), lam.size))
    for n, d in sorted({(p.n, p.d) for p in problems}):
        items = np.array([i for i, p in enumerate(problems) if (p.n, p.d) == (n, d)])
        group = [problems[i] for i in items]
        w, ranks, e = zip(*(p._fix_split for p in group))
        u, ranks = np.stack(w), np.array(ranks)
        m = (n - 1) * d
        t = np.eye(m) + np.stack([p._step[0][-m:] for p in group])
        on_z = [np.outer(p._lift, p._lift) / p._lift.sum() for p in group]  # P_Fix on Z
        for r in sorted(set(ranks.tolist())):  # np.unique would import numpy.ma
            sel = np.flatnonzero(ranks == r)
            for cols, fix in ((u[sel, :, r:r + 1], on_z), (u[sel, :, :r], e)):
                if cols.shape[-1]:  # a direction of Z, then Z^perp
                    q = np.kron(np.eye(n - 1), cols)
                    part = _part_curves(np.swapaxes(q, 1, 2) @ t[sel] @ q,
                                        np.stack([fix[i] for i in sel]), lam)
                    curves[:, items[sel]] = np.maximum(curves[:, items[sel]], part)
    return curves


def _part_curves(t, fix, lam) -> np.ndarray:
    """The ``(2, maps, relaxations)`` curves of a stack of maps T with the stack
    ``fix`` of their P_Fix: Fix^perp bases from `_bases`, one eigenvalue solve
    per basis width k, and Gram eigensolves in slices of at most
    ``_BLOCK_ENTRIES`` entries."""
    u, dims = _bases(_computed(np.eye(t.shape[-1]) - fix))
    curves = np.zeros((2, len(t), lam.size))
    for k in sorted(set(dims.tolist()) - {0}):
        items = np.flatnonzero(dims == k)
        q = u[items, :, :k]
        b = np.swapaxes(q, 1, 2) @ t[items] @ q
        mu = _eigvals(b)[:, None]
        shift = (1.0 - lam)[:, None, None] * np.eye(k)
        size = max(1, _BLOCK_ENTRIES // max(1, shift.size))
        for a in range(0, len(items), size):
            rows, maps = items[a:a + size], lam[:, None, None] * b[a:a + size, None]
            maps += shift  # (1 - lam) Id + lam B, per map and relaxation
            curves[0, rows] = np.abs((1.0 - lam)[:, None] + lam[:, None] * mu[a:a + size]).max(-1)
            curves[1, rows] = _operator_norms(maps.reshape(-1, k, k)).reshape(len(rows), lam.size)
    return curves


def tail_contraction(distances) -> float:
    """Geometric mean of the last ``_TAIL_WINDOW`` distance ratios (or of all).

    Distances at or below zero are excluded (they carry no rate
    information once the iterate has numerically reached the limit).
    """
    d = np.asarray(distances, dtype=float)
    d = d[d > 0.0]
    if d.size < 2:
        raise ValueError("need at least two positive distances")
    w = min(_TAIL_WINDOW, d.size - 1)
    return float(np.exp((np.log(d[-1]) - np.log(d[-1 - w])) / w))


def asymptotic_contraction(problem, lam: float, probe) -> float:
    """Observed long-run contraction factor of the error iteration.

    Computes the K-step average tail ratio ``||(T_lam - P_Fix)^K e||^{1/K}``
    for ``K = 2**_DOUBLINGS`` by repeated squaring with renormalization.
    This is the geometric mean of the exact error-recurrence tail ratios,
    free of the floating-point floor that a stepwise run hits; it is
    bounded by the operator norm and, for a generic probe, matches the
    spectral radius to high accuracy.
    """
    _relaxations(lam)
    probe = np.asarray(probe, dtype=float).reshape(-1)
    t = operator_matrix(problem).linear
    a = (1.0 - lam) * np.eye(t.shape[0]) + lam * t - problem._fix.linear
    if probe.shape[0] != a.shape[0]:
        raise ValueError(f"probe has dimension {probe.shape[0]}, expected {a.shape[0]}")
    norm0 = np.linalg.norm(probe)
    if norm0 == 0.0:
        raise ValueError("probe must be nonzero")
    steps = 1 << _DOUBLINGS
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return 0.0
    m = a / scale
    log_scale = float(np.log(scale))
    for _ in range(_DOUBLINGS):
        m = m @ m
        log_scale *= 2.0
        s = float(np.linalg.norm(m))
        if s == 0.0:
            return 0.0
        m /= s
        log_scale += np.log(s)
    image = float(np.linalg.norm(m @ probe))
    if image == 0.0:
        return 0.0
    return float(np.exp((log_scale + np.log(image) - np.log(norm0)) / steps))
