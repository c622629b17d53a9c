"""Eigenvalue computations and analytic reference spectra.

The rescaled spectrum n^2 * Spec(Delta_n) of the discretized Laplacian
approximates the spectrum of the (Friedrichs/Neumann) Laplacian of the
continuum surface; this module computes discrete eigenpairs
deterministically (:func:`mesh_eigenpairs`, which chooses per mesh
between LAPACK on the dense Laplacian and matrix-free block Lanczos),
provides closed-form reference spectra for flat tori, rectangles and the
pillowcase, and fits empirical convergence orders.
"""

import math

import numpy as np

from . import lapack
from .stream import SplitMix64

# shift of the mesh solver's shift-invert, below the (nonnegative)
# spectrum, in units of the rescaled spectrum n^2 Spec(Delta_n): the solver
# of an n-mesh uses sigma = SHIFT / n^2, at the scale of the wanted values
SHIFT = -1.0
# mesh solver: Lanczos block (the torus's largest multiplicity; no larger
# than the count wanted; doubled while a returned group fills a smaller
# block), step limit, and the share of the residual gate that its Ritz
# pairs must meet
LANCZOS_BLOCK = 8
# the basis holds k + LANCZOS_BASIS blocks; a restart keeps k + LANCZOS_KEEP
LANCZOS_BASIS, LANCZOS_KEEP = 6, 2
# block Lanczos solves a mesh while its basis, k + LANCZOS_BASIS blocks of
# min(LANCZOS_BLOCK, k), stays below this share of the dimension; past it
# LAPACK ?syevr on the dense Laplacian is faster (which also takes
# k >= dim - 1, more than the basis can serve)
LANCZOS_SHARE = 1 / 8
LANCZOS_MAX_STEPS = 1000
# the Ritz residual of the shift-inverted operator that round-off in its
# solve still allows, relative to its largest eigenvalue 1 / |sigma|
LANCZOS_FLOOR = 1e-13
GATE_MARGIN = 1e-3
# the residual gate accepts RESIDUAL_TOL times max |lambda|, a scale no
# smaller than ZERO_SCALE |A|_1, so that a lone zero mode (returned as
# round-off) is judged against the matrix scale
RESIDUAL_TOL = 1e-8
ZERO_SCALE = 1e-6
# the inertia count of a warm-started mesh slices the spectrum at most
# this share below the last cluster of values that block Lanczos returned
CERTIFY_GAP = 1e-6
# eigenvalue_groups joins values closer than these
GROUP_REL_TOL, GROUP_ABS_TOL = 1e-6, 1e-9
# richardson_extrapolate looks for the convergence order in this interval
ORDER_BRACKET = (0.5, 8.0)


class InertiaMismatch(RuntimeError):
    """An inertia count that finds an eigenvalue which the mesh solver
    missed, also after its cold repair."""


def _check_residuals(vals, residuals, norm1):
    """Raise if a residual |A v - lambda v| exceeds RESIDUAL_TOL times the
    largest |lambda|, or times ZERO_SCALE |A|_1 if that is larger."""
    scale = max(np.max(np.abs(vals)), ZERO_SCALE * norm1)
    if residuals.max() > RESIDUAL_TOL * scale:
        raise RuntimeError(
            "eigenpair residual %.3e exceeds %.1e relative to scale %.3e"
            % (residuals.max(), RESIDUAL_TOL, scale))


def lowest_eigenpairs(mat, k):
    """The k smallest eigenpairs of a dense Hermitian matrix.

    `lapack.syevr` computes the pairs of index 1..k only, with no N x N
    eigenbasis (numpy's full ``eigh`` where numpy has no OpenBLAS); it
    returns the true lowest k, multiple eigenvalues included.  Returns
    (values, vectors, residuals)
    with values ascending and vectors in columns; raises if a residual
    fails the gate of :func:`_check_residuals`.
    """
    if k >= mat.shape[0]:
        raise ValueError("need k < matrix dimension")
    vals, vecs = lapack.syevr(mat, k)
    residuals = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    _check_residuals(vals, residuals, np.abs(mat).sum(axis=0).max())
    return vals, vecs, residuals


def _conj(a):
    return a.conj() if np.iscomplexobj(a) else a


def _project_off(w, rows):
    """Take from each row of ``w``, in place, its components along the
    orthonormal ``rows``; returns the coefficients <rows_i, w_a>, (len(rows),
    len(w)).  Only ``w`` is conjugated, never the basis."""
    coef = _conj(_conj(w) @ rows.T)
    w -= coef @ rows
    return coef.T


def _orthonormalize(w, against, floor, stream):
    """Orthonormal rows q spanning the rows of ``w`` (already orthogonal to
    each array of rows in ``against``), the coupling B = Q* W of the
    column form W = Q B, and the number of rows in q drawn from
    ``stream``.  Two Cholesky QR passes (Fukaya, Nakatsukasa, Yanagisawa
    & Yamamoto, 2014) when the Gram matrix is well conditioned; the
    second writes q over ``w``.  Otherwise rows are taken one by one into
    one block, projected twice: a row left below ``floor``, or below 1e-8
    of the largest row, spans nothing reliable (an invariant subspace was
    found) and gives way to a row of the stream, as long as the space has
    room."""
    q, lower = w, np.eye(len(w))
    for second in (False, True):  # W = Q R, R = (L1 L2)*, L the factors
        try:
            chol = np.linalg.cholesky(_conj(q) @ q.T)
        except np.linalg.LinAlgError:
            break
        diag = chol.diagonal().real
        if diag.min() <= 1e-7 * diag.max() or diag.max() <= floor:
            break
        # the second pass writes Q into w, which no fallback needs now
        q = np.matmul(_conj(np.linalg.inv(chol)), q,
                      out=w if second else None)
        lower = lower @ chol
    else:
        return q, _conj(lower).T, 0
    del q  # the first pass's rows, if any: the fallback starts from w
    # the norms' squares, a block of their own, are freed before the rows
    small = max(floor, 1e-8 * np.linalg.norm(w, axis=1).max())
    found = np.empty(w.shape, w.dtype)
    spanned = 0
    for x in w:
        spanned = _grow(found, spanned, x, against, small)
    count = spanned
    while count < len(w):
        x = stream.rows(1, w.shape[1], w.dtype)[0]
        if _grow(found, count, x, against, 1e-8 * np.linalg.norm(x)) == count:
            break  # the space is spanned
        count += 1
    found = found[:count]
    return found, _conj(found) @ w.T, count - spanned


def _grow(found, count, x, against, small):
    """Write x, projected twice off ``against`` and the first ``count``
    (orthonormal) rows of ``found``, as row ``count``, normalized, if more
    than ``small`` of it is left; returns the new count of rows."""
    row = found[count:count + 1]
    row[0] = x
    for _ in range(2):
        for rows in against + [found[:count]]:
            _project_off(row, rows)
    norm = np.linalg.norm(row)
    if norm <= small:
        return count
    row /= norm
    return count + 1


def _norms_within(coef, rows, bounds):
    """Whether |coef_i @ rows| <= bounds_i for every i, forming one
    combination of the rows at a time."""
    return all(np.linalg.norm(c @ rows) <= bound
               for c, bound in zip(coef, bounds))


def _rotate(rows, coef, hi):
    """rows[:len(coef)] = coef @ rows[:hi], in place, a slab of columns at
    a time, so that no temporary is larger than one row."""
    step = max(1, rows.shape[1] // len(coef))
    for start in range(0, rows.shape[1], step):
        cols = slice(start, start + step)
        rows[:len(coef), cols] = coef @ rows[:hi, cols]


def _start_block(solver, block, chain, stream):
    """The first Lanczos block, (block, dim): the leading rows that
    ``chain`` holds, cosine coordinates of a mesh of the same surface and
    bundle, as many as fit, then rows of ``stream``.  The rows are taken
    out of ``chain``, so that they are freed once copied.  DCT-II mode p
    samples cos(pi p x) at the cell centres of every n, so a row's (q, p)
    modes of each square and component go to the low corner of this
    mesh's, cut where this mesh is the smaller."""
    if not chain:
        return stream.rows(block, solver.dim, solver.dtype)
    warm = chain.pop()
    count = min(block, len(warm))
    start = np.zeros((block,) + solver.shape, solver.dtype)
    squares, rank, n, _ = solver.shape
    side = math.isqrt(warm.shape[1] // (squares * rank))
    coarse = warm[:count].reshape(count, squares, rank, side, side)
    cut = min(n, coarse.shape[-1])
    start[:count, :, :, :cut, :cut] = coarse[..., :cut, :cut]
    start = start.reshape(block, -1)
    start[count:] = stream.rows(block - count, solver.dim, solver.dtype)
    return start


def _block_lanczos(solver, k, block, gate, stream, chain=None):
    """The k lowest eigenpairs of A off its kernel, by block Lanczos on
    the shift-inverted operator T = (A - sigma I)^-1 of ``solver`` (a
    `capacitance.SeamCapacitance`, sigma its ``shift``), with full
    reorthogonalization and thick restart (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000).  The block is no larger than k: a block of b
    vectors finds at most b members of one eigenvalue, so one of k cannot
    miss a member that is wanted.

    The basis is one preallocated column-major array of k + LANCZOS_BASIS
    blocks, read as rows; its projection is kept whole, upper triangle by
    columns, from the reorthogonalization coefficients.  Each step
    applies T to the newest block and projects the image off the rows it
    is coupled to, then off the whole basis (classical Gram-Schmidt as
    BLAS-3 products) and off the kernel; :func:`_orthonormalize` makes
    the next block of the rest.  When that block would not fit, the
    k + LANCZOS_KEEP blocks of leading Ritz vectors become the basis.
    The first block is the rows that ``chain`` holds, as many as fit,
    then rows of ``stream`` (:func:`_start_block`).

    A Ritz pair (theta, y) has T-residual Q B s, for the next block Q,
    the coupling B and the newest block s of y's coefficients, so its
    residual |A y - lambda y| is |(A - sigma I) Q B s| / theta.  The run
    stops when every wanted pair's residual is within ``gate(values)``,
    or its T-residual is down to round-off (LANCZOS_FLOOR), or the basis
    spans the whole space; :func:`_refine` then finishes the pairs.
    Returns (values ascending, (k, dim) vectors in cosine coordinates).
    """
    dim, kernel, shift = solver.dim, solver.kernel.T, solver.shift
    room = dim - len(kernel)
    block = min(block, room, k)
    cap = min(room, k + LANCZOS_BASIS * block)
    basis = np.empty((dim, cap), solver.dtype, order="F")
    rows = basis.T
    proj = np.zeros((cap, cap), solver.dtype)
    # |T| is at most 1 / |sigma|: directions below this are round-off
    floor = 1e-14 / -shift
    start = _start_block(solver, block, chain, stream)
    _project_off(start, kernel)
    q, _, _ = _orthonormalize(start, [kernel], floor, stream)
    # the image of block lo:hi is coupled to rows near:hi only
    near, lo, hi = 0, 0, len(q)
    rows[:hi] = q
    del start, q  # the basis holds them now
    for _ in range(LANCZOS_MAX_STEPS):
        w = solver.apply(rows[lo:hi])
        proj[near:hi, lo:hi] += _project_off(w, rows[near:hi])
        proj[:hi, lo:hi] += _project_off(w, rows[:hi])
        _project_off(w, kernel)
        q, coupling, fresh = _orthonormalize(w, [rows[:hi], kernel], floor,
                                             stream)
        del w  # freed before the gate's products and the next solve
        if hi >= k:  # else too few Ritz pairs yet, and room in the basis
            theta, vecs = np.linalg.eigh(proj[:hi, :hi], UPLO="U")
            theta, vecs = theta[::-1], vecs[:, ::-1]
            coef = coupling @ vecs[lo:hi, :k]
            resid = np.linalg.norm(coef, axis=0)
            target = gate(shift + 1 / theta[:k]) * theta[:k]
            # fresh rows: an invariant subspace was found, go on through
            # them; |A - sigma I| >= |sigma| off the kernel, a lower bound
            if not fresh and (
                    not len(q) or resid.max() <= LANCZOS_FLOOR / -shift
                    or (-shift * resid <= target).all() and _norms_within(
                        coef.T, solver.shifted(q), target)):
                ritz = vecs[:, :k].T @ rows[:hi]
                del basis, rows, q  # freed before the refinement's solves
                return _refine(solver, ritz, stream)
            if hi + len(q) > cap:  # thick restart
                keep = k + LANCZOS_KEEP * block
                _rotate(rows, vecs[:, :keep].T, hi)
                proj[:] = 0
                proj[:keep, :keep] = np.diag(theta[:keep])
                lo = hi = keep
        rows[hi:hi + len(q)] = q
        near, lo, hi = 0 if lo == hi else lo, hi, hi + len(q)
        del q
    raise RuntimeError("block Lanczos did not converge in %d steps"
                       % LANCZOS_MAX_STEPS)


def _refine(solver, ritz, stream):
    """Eigenpairs of A from Ritz vectors (rows) of its shift-inverse: one
    step of block inverse iteration, its solve refined once by the
    residual (A - sigma I) y - x, then Rayleigh-Ritz with A itself.
    Takes the Ritz vectors from the round-off of the shift-inverted
    solve down to that of A.  Returns (values ascending, rows)."""
    image = solver.apply(ritz)
    resid = solver.shifted(image)
    np.subtract(ritz, resid, out=resid)
    image += solver.apply(resid)
    del resid
    _project_off(image, solver.kernel.T)
    q, _, _ = _orthonormalize(image, [solver.kernel.T], 0.0, stream)
    vals, vecs = np.linalg.eigh(_conj(q) @ solver.shifted(q).T)
    return solver.shift + vals, vecs.T @ q


def _lanczos_pairs(solver, k, gate, seed, chain=None):
    """The k lowest eigenvalues of A (the exact kernel's zeros first) and
    the rows, in cosine coordinates, of the vectors past the kernel: by
    :func:`_block_lanczos` from the rows that ``chain`` holds and a stream
    of ``seed``, block LANCZOS_BLOCK, run again with the block doubled
    (and the stream's start) while a group of equal values fills a block
    smaller than the count wanted."""
    size, block = min(k, solver.kernel.shape[1]), LANCZOS_BLOCK
    vals = np.zeros(k)
    while k > size:
        vals[size:], rows = _block_lanczos(solver, k - size, block, gate,
                                           SplitMix64(seed), chain)
        # the Krylov space of a block holds at most that many members of
        # a multiple eigenvalue: a group as large may have more, unless
        # the block holds as many vectors as values are wanted; groups of
        # the rescaled values n^2 lambda, as in _certified, since the raw
        # values of a fine mesh lie within the groups' absolute tolerance
        if block >= k - size or max(map(len, eigenvalue_groups(
                solver.shape[-1] ** 2 * vals[size:]))) < block:
            return vals, rows
        del rows
        block *= 2
    return vals, np.empty((0, solver.dim), solver.dtype)


def _certified(solver, vals):
    """Whether A has no eigenvalue below the last cluster of ``vals``
    (ascending; clusters of the rescaled values n^2 lambda, as
    :func:`eigenvalue_groups` finds them) that ``vals`` lacks.
    `capacitance.SeamCapacitance.count_below` counts A's eigenvalues
    below a point tau under that cluster, at most CERTIFY_GAP of its
    least value and half the gap to the value below it: the middle of
    the widest gap that D's spectrum leaves there, so that D - tau I is
    as far from singular as the interval allows."""
    first = eigenvalue_groups(solver.shape[-1] ** 2 * vals)[-1][0]
    top = vals[first]
    low = max(vals[first - 1] if first else 0.0, top * (1 - 2 * CERTIFY_GAP))
    modes = np.add.outer(solver.lam, solver.lam).ravel()  # D's spectrum
    # a handful of points, sorted as a list: numpy's sort and argmax
    # would page in code that nothing else in a sweep runs
    cuts = sorted([low, top, *modes[(low < modes) & (modes < top)].tolist()])
    _, tau = max((b - a, (a + b) / 2) for a, b in zip(cuts, cuts[1:]))
    return solver.count_below(tau) == first


def mesh_eigenpairs(disc, k, seed=0, chain=None):
    """The k smallest eigenpairs of a discretization's Laplacian A: the
    exact kernel, then the rest by LAPACK or by block Lanczos, whichever
    is faster for the mesh.

    A flat section is constant on each square, so the kernel of A is the
    null space of the small square-graph Laplacian
    (`capacitance.square_kernel`); its vectors come with eigenvalue
    exactly 0.0.  When the Lanczos basis, k + LANCZOS_BASIS
    min(LANCZOS_BLOCK, k) vectors, would fill LANCZOS_SHARE of the
    dimension or more, :func:`lowest_eigenpairs` solves the dense
    Laplacian and its round-off kernel pairs give way to the exact ones.
    Otherwise, on the kernel's complement, :func:`_lanczos_pairs` runs
    block Lanczos on (A - sigma I)^-1, sigma = SHIFT / n^2, applied by
    `capacitance.SeamCapacitance` in cosine coordinates, until its
    residuals pass GATE_MARGIN times the gate of :func:`_check_residuals`;
    only the k vectors return to vertex order.

    ``chain``, a list that the meshes of one sweep share in increasing n,
    hands Ritz rows on (nested iteration: Brandt, Math. Comp. 31, 1977):
    a mesh takes the rows that the mesh before it left there, and a
    Lanczos mesh leaves its own, the cosine coordinates of its vectors
    past the kernel.  A Lanczos mesh that takes rows starts from them,
    and its values must pass :func:`_certified`; if they do not, the mesh
    is solved again from the stream alone, and a second failure raises
    InertiaMismatch.  Without ``chain`` every start is the stream's.

    Returns (values, vectors, residuals) as :func:`lowest_eigenpairs`
    does, with the same gate, the residuals taken by
    `operators.apply_laplacian`: of every pair on the Lanczos route, of
    the exact kernel pairs only on the LAPACK route, where
    :func:`lowest_eigenpairs` has taken the others.
    """
    from .capacitance import SeamCapacitance, square_kernel
    from .operators import apply_laplacian, laplacian

    dim = disc.n_vertices * disc.bundle.rank
    if k >= dim:
        raise ValueError("need k < matrix dimension")
    # |A|_1 <= deg (1 + sqrt r): a degree block, and unitary blocks whose
    # columns have 1-norm at most sqrt r
    norm1 = disc.degrees.max() * (1 + np.sqrt(disc.bundle.rank))

    def residuals(vals, vecs):
        return np.array([np.linalg.norm(apply_laplacian(disc, v) - lam * v)
                         for lam, v in zip(vals, vecs.T)])

    def gate(lam):
        return GATE_MARGIN * RESIDUAL_TOL * max(lam.max(), ZERO_SCALE * norm1)

    if k + LANCZOS_BASIS * min(LANCZOS_BLOCK, k) >= LANCZOS_SHARE * dim:
        # lowest_eigenpairs has checked its residuals; only the exact
        # kernel vectors put in for its round-off ones need theirs
        if chain is not None:
            chain.clear()  # the mesh before's rows: this route takes none
        vals, vecs, res = lowest_eigenpairs(laplacian(disc), k)
        # the constant c_q of square q on each of its n^2 vertices
        null = square_kernel(disc)[:, :k] / disc.n
        size = null.shape[1]
        vals[:size] = 0.0
        vecs[:, :size] = np.repeat(null.reshape(
            disc.surface.n_squares, -1), disc.n ** 2, axis=0).reshape(dim, -1)
        res[:size] = residuals(vals[:size], vecs[:, :size])
    else:
        with lapack.one_blas_thread():
            solver = SeamCapacitance(disc, SHIFT / disc.n ** 2)
            # K and its factor, freed by the setup, leave before the basis
            lapack.release_free_heap()
            warm = bool(chain)
            vals, rows = _lanczos_pairs(solver, k, gate, seed, chain)
            if warm and len(rows) and not _certified(solver, vals):
                del rows  # freed before the repair
                vals, rows = _lanczos_pairs(solver, k, gate, seed)
                if not _certified(solver, vals):
                    raise InertiaMismatch(
                        "the n = %d mesh has eigenvalues below its last "
                        "returned cluster that block Lanczos missed"
                        % disc.n)
            if chain is not None:  # a start needs directions, not digits
                chain[:] = [rows.astype(np.complex64 if np.iscomplexobj(rows)
                                        else np.float32)]
            vecs = solver.to_vertices(np.concatenate(
                [solver.kernel[:, :k].T, rows]))
            del solver, rows
        res = residuals(vals, vecs)
        # and the solver's arrays before the caller's next step
        lapack.release_free_heap()
    _check_residuals(vals, res, norm1)
    return vals, vecs, res


def rescaled_spectrum(disc, k, seed=0, chain=None):
    """First k eigenvalues of n^2 * Delta_n, plus the eigenvectors, by
    :func:`mesh_eigenpairs`."""
    vals, vecs, _ = mesh_eigenpairs(disc, k, seed=seed, chain=chain)
    return disc.n ** 2 * vals, vecs


REFERENCE_PARAMS = {"rectangle": ("a", "b"),
                    "torus": ("a", "b", "alpha", "beta")}


def reference_spectrum(kind, params, k):
    """First k continuum eigenvalues for an analytically solvable surface.

    kind "rectangle": params (a, b); Neumann spectrum
        pi^2 (p^2 / a^2 + q^2 / b^2), p, q >= 0.
    kind "torus": params (a, b, alpha, beta); flat torus with a rank-1
        bundle of holonomies e^{i alpha}, e^{i beta}:
        4 pi^2 ((p + alpha / 2 pi)^2 / a^2 + (q + beta / 2 pi)^2 / b^2).
    """
    if kind not in REFERENCE_PARAMS:
        raise ValueError("unknown reference kind %r" % (kind,))
    names = REFERENCE_PARAMS[kind]
    if len(params) != len(names):
        raise ValueError("reference %s takes %d parameters %s, got %d"
                         % (kind, len(names), ",".join(names), len(params)))
    if kind == "rectangle":
        return np.array([m[0] for m in rectangle_modes(*params, k)])
    a, b, alpha, beta = params
    cut = int(np.ceil(np.sqrt(k))) + 3
    vals = [4 * np.pi ** 2 * ((p + alpha / (2 * np.pi)) ** 2 / a ** 2
                              + (q + beta / (2 * np.pi)) ** 2 / b ** 2)
            for p in range(-cut, cut + 1) for q in range(-cut, cut + 1)]
    return np.sort(np.array(vals))[:k]


def discrete_torus_spectrum(n, alpha=0.0, beta=0.0):
    """All n^2 eigenvalues of the twisted Laplacian on the n x n torus,
    from the Fourier closed form (independent of matrix assembly)."""
    p = np.arange(n)
    lam_x = 2 - 2 * np.cos(2 * np.pi * (p + alpha / (2 * np.pi)) / n)
    lam_y = 2 - 2 * np.cos(2 * np.pi * (p + beta / (2 * np.pi)) / n)
    return np.sort((lam_x[:, None] + lam_y[None, :]).ravel())


def discrete_pillowcase_spectrum(n):
    """All 2 n^2 eigenvalues of the Laplacian on the pillowcase's n x n
    mesh, closed form.  Cell centres never sit on a cone point, so the
    mesh is the quotient of the 2n x 2n cell-centred torus grid by
    z -> -z, and its spectrum is the even part of the torus grid's:
    4 - 2 cos(pi p / n) - 2 cos(pi q / n) once for each pair {(p, q),
    (-p, -q)} mod 2n with (p, q) != (-p, -q), plus (0, 0) and (n, n) (the
    even modes of the fixed pairs (0, n) and (n, 0) vanish on cell
    centres)."""
    m = 2 * n
    p, q = np.divmod(np.arange(m * m), m)
    pair, mirror = p * m + q, (-p % m) * m + (-q % m)
    keep = (pair < mirror) | (pair == 0) | (pair == n * m + n)
    return np.sort(4 - 2 * np.cos(np.pi * p[keep] / n)
                   - 2 * np.cos(np.pi * q[keep] / n))


def discrete_rectangle_spectrum(nx, ny):
    """All eigenvalues of the free-boundary Laplacian on an nx x ny grid,
    as the tensor sum of path-graph spectra 2 - 2 cos(pi p / n)."""
    lam_x = 2 - 2 * np.cos(np.pi * np.arange(nx) / nx)
    lam_y = 2 - 2 * np.cos(np.pi * np.arange(ny) / ny)
    return np.sort((lam_x[:, None] + lam_y[None, :]).ravel())


def convergence_table(ns, computed, reference):
    """Tabulate eigenvalue errors and observed orders over mesh sizes.

    ``computed`` maps n -> array of rescaled eigenvalues; ``reference`` is
    the array of continuum targets.  Returns a list of dict rows with keys
    n, i, value, reference, error, order (order compares to the previous n
    and is None on the first row of each eigenvalue).
    """
    rows = []
    ns = list(ns)
    k = len(reference)
    for i in range(k):
        prev_err = None
        prev_n = None
        for n in ns:
            val = computed[n][i]
            err = abs(val - reference[i])
            order = None
            if prev_err is not None and err > 0 and prev_err > 0:
                order = np.log(prev_err / err) / np.log(n / prev_n)
            rows.append({"n": n, "i": i, "value": val,
                         "reference": reference[i], "error": err,
                         "order": order})
            prev_err, prev_n = err, n
    return rows


def rectangle_modes(a, b, k):
    """First k Neumann modes of an a x b rectangle as (value, p, q)."""
    cut = int(np.ceil(np.sqrt(k) + 2)) * max(1, int(max(a, b))) + 2
    modes = sorted((np.pi ** 2 * (p ** 2 / a ** 2 + q ** 2 / b ** 2), p, q)
                   for p in range(cut) for q in range(cut))
    return modes[:k]


def rectangle_eigenfunction(layout, a, b, p, q):
    """L^2-normalized Neumann eigenfunction cos(p pi x / a) cos(q pi y / b)
    as a vectorized chart callable using the surface ``layout`` offsets."""
    scale = np.sqrt((2.0 if p else 1.0) * (2.0 if q else 1.0) / (a * b))

    def func(sq, x, y):
        ox, oy = layout[sq]
        return (scale * np.cos(p * np.pi * (ox + x) / a)
                * np.cos(q * np.pi * (oy + y) / b))

    return func


def eigenvalue_groups(values):
    """Split a sorted eigenvalue list into clusters of (near-)equal values,
    returned as lists of indices."""
    groups = []
    for i, v in enumerate(values):
        if groups and abs(v - values[groups[-1][-1]]) <= max(
                GROUP_ABS_TOL, GROUP_REL_TOL * max(abs(v), 1.0)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def richardson_extrapolate(ns, values):
    """Fit values(n) ~ limit + c * n^(-p) by least squares.

    Returns (limit, p, residual).  The order p minimizes the residual over
    ORDER_BRACKET by golden-section search (Kiefer, Proc. AMS 4, 1953): the
    bracket keeps the side of the lower of its two interior points, placed
    at the golden ratio so that one of them is reused, until it is
    narrower than 1e-8; limit and c are solved linearly for each trial p.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 3:
        raise ValueError("need at least three mesh sizes")

    def fit(p):
        basis = np.column_stack([np.ones_like(ns), ns ** (-p)])
        coeffs = np.linalg.lstsq(basis, values, rcond=None)[0]
        return coeffs, np.linalg.norm(basis @ coeffs - values)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = ORDER_BRACKET
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fit(c)[1], fit(d)[1]
    while b - a > 1e-8:
        if fc <= fd:  # the minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fit(c)[1]
        else:  # in [c, b]
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fit(d)[1]
    p = 0.5 * (a + b)
    coeffs, resid = fit(p)
    return float(coeffs[0]), p, float(resid)
