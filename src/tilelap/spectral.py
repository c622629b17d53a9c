"""Eigenvalue computations and analytic reference spectra.

The rescaled spectrum n^2 * Spec(Delta_n) of the discretized Laplacian
approximates the spectrum of the (Friedrichs/Neumann) Laplacian of the
continuum surface; this module computes discrete eigenpairs
deterministically, provides closed-form reference spectra for flat tori
and rectangles, and fits empirical convergence orders.
"""

import contextlib
import functools
import math

import numpy as np

# shift of the shift-invert factorization, below the (nonnegative) spectrum
SHIFT = -1e-2
# the largest eigen system a command solves densely, without scipy, in
# unknowns, a complex one counting double (kept from the full eigh): the
# k lowest pairs by ?syevr on one OpenBLAS thread take 0.11 s at real
# dimension 1024 (k = 8; full eigh 0.26 s) and 0.08 s at complex 512
# (k = 12; eigh 0.21 s), growing as dim^3; importing scipy costs 0.3-0.4 s
DENSE_CUTOFF = 1024
# the residual gate accepts RESIDUAL_TOL times max |lambda|, a scale no
# smaller than ZERO_SCALE |A|_1, so that a lone zero mode (returned as
# round-off) is judged against the matrix scale
RESIDUAL_TOL = 1e-8
ZERO_SCALE = 1e-6
# eigenvalue_groups joins values closer than these
GROUP_REL_TOL, GROUP_ABS_TOL = 1e-6, 1e-9
# richardson_extrapolate looks for the convergence order in this interval
ORDER_BRACKET = (0.5, 8.0)


def is_small(dim, is_complex=False):
    """Whether a system of ``dim`` unknowns is solved densely: at most
    DENSE_CUTOFF of them, complex ones counting double."""
    return dim * (2 if is_complex else 1) <= DENSE_CUTOFF


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, opened with ctypes, or None if it has none."""
    import ctypes
    import glob
    import os

    paths = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "*openblas*"))
    return ctypes.CDLL(paths[0]) if paths else None


def _blas_thread_control():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None."""
    for name in ("scipy_openblas_%s_num_threads64_",
                 "scipy_openblas_%s_num_threads",
                 "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        get, put = (getattr(_openblas(), name % op, None)
                    for op in ("get", "set"))
        if get is not None and put is not None:
            return get, put
    return None


def _lapacke(name):
    """The LAPACKE routine ``name`` (dsyevr, zheevr or dpbsv) of numpy's
    OpenBLAS, 64-bit integer build, or None when numpy does not bundle it.
    Its first argument is the matrix layout, 102 for column-major."""
    import ctypes as c

    func = getattr(_openblas(), "scipy_LAPACKE_%s64_" % name, None)
    if func is not None:  # the C prototypes, arrays as void pointers
        i, p, d, ch = c.c_int64, c.c_void_p, c.c_double, c.c_char
        func.restype = i
        func.argtypes = [c.c_int, ch] + (
            [i, i, i, p, i, p, i] if name == "dpbsv"
            else [ch, ch, i, p, i, d, d, i, i, d, p, p, p, i, p])
    return func


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread.  A dense eigensolve of these sizes
    makes
    thousands of short BLAS calls; on two threads, when another BLAS
    process spins on the same cores, a 0.1 s solve at dimension 768 took
    7 s, and on one it took 0.6-0.8 s."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def lowest_eigenpairs(mat, k, seed=0):
    """The k smallest eigenpairs of a Hermitian matrix.

    A dense numpy array (callers pass one when :func:`is_small` says so)
    goes to LAPACK ?syevr/?heevr of numpy's OpenBLAS on one BLAS thread
    for the pairs of index 1..k only, with no N x N eigenbasis and no
    scipy (numpy's full ``eigh`` where numpy has no OpenBLAS).  A sparse
    matrix is factored once as A - SHIFT I (sparse LU, MMD ordering on
    A^T + A), and shift-invert Lanczos runs on that factor from a seeded
    start vector, in real arithmetic when A is real; only k >= dim - 1,
    which Lanczos cannot serve, densifies it.  The dense path returns the
    true lowest k, while Lanczos can miss a member of a multiple
    eigenvalue.  Returns (values, vectors, residuals) with values
    ascending and vectors in columns; raises if any residual
    |A v - lambda v| exceeds RESIDUAL_TOL times the largest |lambda|
    returned, or times ZERO_SCALE |A|_1 if that is larger.
    """
    dim = mat.shape[0]
    if k >= dim:
        raise ValueError("need k < matrix dimension")
    if isinstance(mat, np.ndarray) or k >= dim - 1:
        # a column-major copy, which LAPACK overwrites
        dense = np.array(mat if isinstance(mat, np.ndarray) else
                         mat.toarray(), np.result_type(mat.dtype, float),
                         order="F")
        evr = _lapacke("zheevr" if np.iscomplexobj(dense) else "dsyevr")
        vals, vecs = np.empty(dim), np.empty((dim, k), dense.dtype, order="F")
        found, support = np.empty(1, np.int64), np.empty(2 * k, np.int64)
        with _one_blas_thread():
            if evr is None:  # numpy without its OpenBLAS: the whole spectrum
                vals, vecs = np.linalg.eigh(dense)
            elif evr(102, b"V", b"I", b"L", dim, dense.ctypes.data, dim, 0,
                     0, 1, k, 0, found.ctypes.data, vals.ctypes.data,
                     vecs.ctypes.data, dim, support.ctypes.data):
                raise RuntimeError("LAPACK ?syevr/?heevr failed")
        # a copy, so that a full dim x dim basis is freed
        vals, vecs = vals[:k], vecs[:, :k].copy()
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        mat = sp.csc_matrix(mat)
        lu = spla.splu(mat - SHIFT * sp.identity(dim, format="csc"),
                       permc_spec="MMD_AT_PLUS_A")
        op_inv = spla.LinearOperator((dim, dim), matvec=lu.solve,
                                     dtype=mat.dtype)
        v0 = np.random.default_rng(seed).standard_normal(dim)
        vals, vecs = spla.eigsh(mat, k=k, sigma=SHIFT, which="LM", v0=v0,
                                OPinv=op_inv)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    scale = max(np.max(np.abs(vals)), ZERO_SCALE * abs(mat).sum(axis=0).max())
    if residuals.max() > RESIDUAL_TOL * scale:
        raise RuntimeError(
            "eigenpair residual %.3e exceeds %.1e relative to scale %.3e"
            % (residuals.max(), RESIDUAL_TOL, scale))
    return vals, vecs, residuals


def rescaled_spectrum(disc, k, seed=0, dense=False):
    """First k eigenvalues of n^2 * Delta_n, plus the eigenvectors: from
    the dense Laplacian when ``dense`` is set, else from the sparse one."""
    from .operators import laplacian

    # no local name for the matrix: the solver frees it once it has its
    # own CSC copy
    vals, vecs, _ = lowest_eigenpairs(laplacian(disc, dense=dense), k,
                                      seed=seed)
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
