"""Transfer operators between the mesh and the continuum surface.

``restrict`` samples a continuum function at cell centres; ``average``
equalizes a section over each singular cluster V_n(P) (the cells incident
to a cone point or boundary corner); ``linearize`` extends an averaged
section to a piecewise-linear field on the surface: affine on the two
halves of every half-cell (split along the main diagonal, which every
chart transition preserves), linear along the boundary strip of depth
1/(2n), and constant near singular points.

For averaged sections the Dirichlet energy of the extended field equals
the graph Dirichlet form edge for edge, and the L^2 pairing of extensions
reproduces n^-2 times the vertex pairing up to o(1); both quantities are
evaluated here in closed form.
"""

import numpy as np

from .surface import CORNER_XY

# 6-point degree-4 triangle quadrature (barycentric coordinates, weights
# summing to 1)
_QW = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_QA = 0.445948490915965
_QB = 0.091576213509771
_QBARY = np.array([
    [_QA, _QA, 1 - 2 * _QA],
    [_QA, 1 - 2 * _QA, _QA],
    [1 - 2 * _QA, _QA, _QA],
    [_QB, _QB, 1 - 2 * _QB],
    [_QB, 1 - 2 * _QB, _QB],
    [1 - 2 * _QB, _QB, _QB],
])
# grid offsets of the corners of the two triangles of a half-step cell
_TRIANGLES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


def _as_section(disc, f):
    rank = disc.bundle.rank
    return np.asarray(f, dtype=complex).reshape(disc.n_vertices, rank)


def restrict(disc, func):
    """Sample a continuum function at the cell centres.

    ``func(q, x, y)`` must accept arrays of chart coordinates and return
    values of shape x.shape (rank 1) or x.shape + (rank,).
    """
    n = disc.n
    out = np.empty((disc.surface.n_squares, n, n, disc.bundle.rank),
                   dtype=complex)
    centers = (np.arange(n) + 0.5) / n
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    for q in range(disc.surface.n_squares):
        vals = np.asarray(func(q, xs, ys), dtype=complex)
        if vals.shape == xs.shape:
            vals = vals[..., None]
        out[q] = vals.swapaxes(0, 1)  # vertices run over j, then i
    return out.ravel()


def average(disc, f):
    """Equalize a section over every singular cluster V_n(P).

    Values are compared in compatible frames (transported to the cluster's
    base cell) and replaced by their mean; the map is a projection.
    """
    g = _as_section(disc, f).copy()
    for point in disc.singular_points():
        cells, transports = point.distinct_cells()
        vals = [t @ g[c] for c, t in zip(cells, transports)]
        mean = np.mean(vals, axis=0)
        for c, t in zip(cells, transports):
            g[c] = t.conj().T @ mean
    return g.ravel()


class PiecewiseLinearField:
    """Piecewise-linear extension of a section, stored on a half-step grid.

    Per square the values on the (2n+1) x (2n+1) grid of step 1/(2n)
    determine the field: on each half-step cell it is affine on the two
    triangles cut by the main (lower-left to upper-right) diagonal.
    """

    def __init__(self, disc, grids):
        self.disc = disc
        self.grids = grids  # list of (2n+1, 2n+1, rank) arrays

    # ---- evaluation ----------------------------------------------------

    def value(self, q, x, y):
        g = self.grids[q]
        m = g.shape[0] - 1  # 2n subdivisions
        a = min(int(np.floor(x * m)), m - 1)
        b = min(int(np.floor(y * m)), m - 1)
        fx = x * m - a
        fy = y * m - b
        if fy <= fx:  # lower-right triangle (P00, P10, P11)
            v = (g[a, b] * (1 - fx) + g[a + 1, b] * (fx - fy)
                 + g[a + 1, b + 1] * fy)
        else:  # upper-left triangle (P00, P11, P01)
            v = (g[a, b] * (1 - fy) + g[a, b + 1] * (fy - fx)
                 + g[a + 1, b + 1] * fx)
        return v

    # ---- quadratic forms -----------------------------------------------

    def dirichlet_energy(self, other=None):
        """Exact integral of grad(self) . conj(grad(other)) over the surface."""
        other = self if other is None else other
        total = 0j
        for gu, gv in zip(self.grids, other.grids):
            du_x = gu[1:, :] - gu[:-1, :]
            dv_x = gv[1:, :] - gv[:-1, :]
            du_y = gu[:, 1:] - gu[:, :-1]
            dv_y = gv[:, 1:] - gv[:, :-1]
            wx = np.ones(gu.shape[1])
            wx[0] = wx[-1] = 0.5
            wy = np.ones(gu.shape[0])
            wy[0] = wy[-1] = 0.5
            total += np.einsum("abr,abr,b->", du_x, dv_x.conj(), wx)
            total += np.einsum("abr,abr,a->", du_y, dv_y.conj(), wy)
        return complex(total)

    def l2_pairing(self):
        """Exact integral of self . conj(self) over the surface."""
        m = self.grids[0].shape[0] - 1
        area = 1.0 / (2 * m * m)  # area of one half-step triangle
        total = 0j
        for gu in self.grids:
            for corners in _TRIANGLES:
                us = [gu[da:da + m, db:db + m] for (da, db) in corners]
                diag = sum(np.einsum("abr,abr->", u, u.conj()) for u in us)
                usum = sum(us)
                total += (area / 12.0) * (diag + np.einsum(
                    "abr,abr->", usum, usum.conj()))
        return complex(total)

    def l2_norm(self):
        return float(np.sqrt(max(self.l2_pairing().real, 0.0)))

    def pair_with(self, func):
        """Quadrature pairing integral of self . conj(func) (degree-4 rule).

        ``func(q, x, y)`` must be vectorized like in :func:`restrict`.
        """
        m = self.grids[0].shape[0] - 1
        area = 1.0 / (2 * m * m)
        idx = np.arange(m)
        A, B = np.meshgrid(idx, idx, indexing="ij")
        total = 0j
        for q, gu in enumerate(self.grids):
            for corners in _TRIANGLES:
                xs = [(A + da) / m for (da, db) in corners]
                ys = [(B + db) / m for (da, db) in corners]
                us = [gu[da:da + m, db:db + m] for (da, db) in corners]
                for k in range(len(_QW)):
                    l1, l2, l3 = _QBARY[k]
                    xq = l1 * xs[0] + l2 * xs[1] + l3 * xs[2]
                    yq = l1 * ys[0] + l2 * ys[1] + l3 * ys[2]
                    uq = l1 * us[0] + l2 * us[1] + l3 * us[2]
                    fq = np.asarray(func(q, xq, yq), dtype=complex)
                    if fq.shape == xq.shape:
                        fq = fq[..., None]
                    total += area * _QW[k] * np.einsum("abr,abr->", uq,
                                                       fq.conj())
        return complex(total)


def linearize(disc, f):
    """Extend a section to a :class:`PiecewiseLinearField`.

    The section is averaged first, so that the extension is single-valued
    (constant) around singular points.  Each square gets a ring of ghost
    cells, filled from the seam table: across a seam the cell on the other
    side, carried into the square's frame by the edge's transport (or its
    adjoint, seen from the second side); across a free side the cell
    itself.  Cell centres take the cell values, side midpoints average the
    two cells sharing the side, lattice points the two cells on their main
    diagonal; with the ring, this gives the values on the square's sides
    too.  Square corners come from the corner table.
    """
    n, rank = disc.n, disc.bundle.rank
    g = _as_section(disc, average(disc, f))
    sides = g[disc.side_vertex.ravel()]
    ghosts = sides.copy()  # flat [square, side, k]
    u, tails, heads = disc.seam_transports, disc.seam_tails, disc.seam_heads
    ghosts[tails] = np.einsum("eij,ej->ei", u, sides[heads])
    ghosts[heads] = np.einsum("eji,ej->ei", u.conj(), sides[tails])
    ghosts = ghosts.reshape(disc.side_vertex.shape + (rank,))
    cells = g.reshape(-1, n, n, rank).swapaxes(1, 2)  # [square, i, j]
    ring = np.zeros((len(cells), n + 2, n + 2, rank), dtype=complex)
    ring[:, 1:-1, 1:-1] = cells
    (ring[:, 1:-1, -1], ring[:, 1:-1, 0], ring[:, -1, 1:-1],
     ring[:, 0, 1:-1]) = ghosts.swapaxes(0, 1)  # N S E W
    grid = np.empty((len(cells), 2 * n + 1, 2 * n + 1, rank), dtype=complex)
    grid[:, 1::2, 1::2] = cells
    grid[:, ::2, 1::2] = 0.5 * (ring[:, :-1, 1:-1] + ring[:, 1:, 1:-1])
    grid[:, 1::2, ::2] = 0.5 * (ring[:, 1:-1, :-1] + ring[:, 1:-1, 1:])
    grid[:, ::2, ::2] = 0.5 * (ring[:, 1:, 1:] + ring[:, :-1, :-1])

    for lattice in disc.corner_points:
        m = lattice.quarters
        for k, (q, corner) in enumerate(lattice.corners):
            a, b = (2 * n * t for t in CORNER_XY[corner])
            if lattice.singular:  # averaged: constant on the cluster
                grid[q, a, b] = g[lattice.cells[k]]
                continue
            if not lattice.interior:
                pair = (0, 1)
            elif corner in ("SW", "NE"):  # the cell itself and its opposite
                pair = (k, (k + 2) % m)
            else:
                pair = ((k - 1) % m, (k + 1) % m)
            back = lattice.transports[k].conj().T
            grid[q, a, b] = 0.5 * sum(back @ lattice.transports[p]
                                      @ g[lattice.cells[p]] for p in pair)
    return PiecewiseLinearField(disc, list(grid))


def pairing_ratio(disc, f):
    """n^2 <L f, L f> / <f, f>; tends to 1 as the mesh refines."""
    f = np.asarray(f, dtype=complex).ravel()
    field = linearize(disc, f)
    g = average(disc, f)
    denom = np.vdot(g, g).real
    return disc.n ** 2 * field.l2_pairing().real / denom


def consistency_residual(disc, func, lap_func):
    """Max of |n^2 Delta_n (R_n f) - R_n (Delta f)| per vertex class.

    Classes are keyed by degree: "interior" (degree 4), "edge" (degree 3)
    and "corner" (degree <= 2).  ``lap_func`` evaluates the continuum
    (geometric) Laplacian -f_xx - f_yy of ``func``.
    """
    from .operators import apply_laplacian

    f = restrict(disc, func)
    target = restrict(disc, lap_func)
    resid = disc.n ** 2 * apply_laplacian(disc, f) - target
    rank = disc.bundle.rank
    resid = np.abs(resid.reshape(disc.n_vertices, rank)).max(axis=1)
    deg = disc.degrees
    classes = {"interior": deg >= 4, "edge": deg == 3, "corner": deg <= 2}
    return {key: float(resid[mask].max(initial=0.0))
            for key, mask in classes.items()}


def subspace_error(disc, eig_vectors, ref_funcs):
    """L^2 distance between extended discrete eigenvectors and a continuum
    eigenspace, after optimal unitary alignment.

    ``eig_vectors`` is an (n_vertices * rank, m) block of discrete
    eigenvectors spanning the group; ``ref_funcs`` lists m orthonormal
    continuum eigenfunctions.  Each restricted reference is projected onto
    the discrete span, extended, normalized in L^2, and compared with the
    references; with unit fields and references the squared distance is
    2 (m - ||B||_*), B the matrix of fields against references.
    """
    m = len(ref_funcs)
    basis, _ = np.linalg.qr(eig_vectors)
    b_gram = np.empty((m, m), dtype=complex)
    for i, func in enumerate(ref_funcs):
        r = restrict(disc, func)
        field = linearize(disc, basis @ (basis.conj().T @ r))
        norm = field.l2_norm()
        if norm == 0:
            raise ValueError("restricted reference is orthogonal to the "
                             "discrete eigenspace")
        b_gram[i] = [field.pair_with(ref) / norm for ref in ref_funcs]
    nuclear = np.linalg.svd(b_gram, compute_uv=False).sum()
    return float(np.sqrt(max(2 * (m - nuclear), 0.0)))
