"""Eigenvalue computations and analytic reference spectra.

The rescaled spectrum n^2 * Spec(Delta_n) of the discretized Laplacian
approximates the spectrum of the (Friedrichs/Neumann) Laplacian of the
continuum surface; this module computes discrete eigenpairs
deterministically, provides closed-form reference spectra for flat tori
and rectangles, and fits empirical convergence orders.
"""

import math

import numpy as np

# shift of the shift-invert factorization, below the (nonnegative) spectrum
SHIFT = -1e-2
# dimensions at or below this take the dense path; tests raise it to force
# that path, which otherwise serves only k >= dim - 1
DENSE_CUTOFF = 0
# the residual gate scales by max |lambda| but by no less than this fraction
# of |A|_1, so that a lone zero mode (returned as round-off) is judged
# against the matrix scale
ZERO_SCALE = 1e-6


def lowest_eigenpairs(mat, k, seed=0, dense_cutoff=DENSE_CUTOFF,
                      residual_tol=1e-8):
    """The k smallest eigenpairs of a sparse Hermitian matrix.

    Factors A - SHIFT I once (sparse LU, MMD ordering on A^T + A) and runs
    shift-invert Lanczos on that factor from a deterministic seeded start
    vector, in real arithmetic when A is real.  A dense solve serves
    k >= dim - 1, which Lanczos cannot, and dimensions up to
    ``dense_cutoff``.  Returns (values, vectors, residuals) with values
    ascending and vectors in columns; raises if any residual
    |A v - lambda v| exceeds ``residual_tol`` times the largest |lambda|
    returned, or times ZERO_SCALE |A|_1 if that is larger.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    dim = mat.shape[0]
    if k >= dim:
        raise ValueError("need k < matrix dimension")
    if k >= dim - 1 or dim <= dense_cutoff:
        dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
        vals, vecs = np.linalg.eigh(dense)
        vals, vecs = vals[:k], vecs[:, :k]
    else:
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
    if residuals.max() > residual_tol * scale:
        raise RuntimeError(
            "eigenpair residual %.3e exceeds %.1e relative to scale %.3e"
            % (residuals.max(), residual_tol, scale))
    return vals, vecs, residuals


def rescaled_spectrum(disc, k, seed=0):
    """First k eigenvalues of n^2 * Delta_n, plus the eigenvectors."""
    from .operators import laplacian

    vals, vecs, _ = lowest_eigenpairs(laplacian(disc), k, seed=seed)
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


def eigenvalue_groups(values, rel_tol=1e-6, abs_tol=1e-9):
    """Split a sorted eigenvalue list into clusters of (near-)equal values,
    returned as lists of indices."""
    groups = []
    for i, v in enumerate(values):
        if groups and abs(v - values[groups[-1][-1]]) <= max(
                abs_tol, rel_tol * max(abs(v), 1.0)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _bounded_minimum(func, lo, hi, xatol):
    """Minimiser of a scalar function on [lo, hi] by Brent's method
    (Algorithms for Minimization without Derivatives, 1973, ch. 5):
    parabolic steps through the three best points where they fall well
    inside the bracket, golden-section steps otherwise, until both ends of
    the bracket lie within 2 (sqrt(eps) |x| + xatol / 3) of the best point
    x.  This is the iteration of scipy's bounded ``minimize_scalar``, step
    for step."""
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    sqrt_eps = math.sqrt(2.2e-16)
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = func(x)
    step = last = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x
        parabolic = False
        if abs(last) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, last = last, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                if x + step - a < tol2 or b - (x + step) < tol2:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            last = a - x if x >= mid else b - x
            step = golden * last
        u = x + (1.0 if step >= 0 else -1.0) * max(abs(step), tol1)
        fu = func(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def richardson_extrapolate(ns, values, order_guess=2.0):
    """Fit values(n) ~ limit + c * n^(-p) by least squares.

    Returns (limit, p, residual).  The order p is optimized over
    [guess / 4, 4 guess] with absolute tolerance 1e-8; limit and c are
    solved linearly for each trial p.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 3:
        raise ValueError("need at least three mesh sizes")

    def fit(p):
        basis = np.column_stack([np.ones_like(ns), ns ** (-p)])
        coeffs, res, _, _ = np.linalg.lstsq(basis, values, rcond=None)
        resid = np.linalg.norm(basis @ coeffs - values)
        return coeffs, resid

    p = float(_bounded_minimum(lambda p: fit(p)[1], order_guess / 4,
                               order_guess * 4, 1e-8))
    coeffs, resid = fit(p)
    return float(coeffs[0]), p, float(resid)
