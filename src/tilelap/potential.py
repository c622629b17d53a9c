"""Discrete potential theory on Z^2, the half-plane N x Z, and meshes.

Contains the Green function of a Euclidean ball in Z^2 (Delta G = delta_0
inside the ball, G = 0 outside, for the positive Laplacian deg - adj), its
half-plane counterpart on the Neumann graph N x Z over quasi-balls, an
explicit unit flow spreading from the corner of the quadrant N^2, a convex
barrier built from squared graph distances, and eigenvector regularity
diagnostics.
"""

import math

import numpy as np

from .lapack import pbsv

EULER_MASCHERONI = 0.5772156649015329

# lattice steps to the four neighbours of a point (row, column)
STEPS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])


class GreenFunction:
    """Solution of a lattice Dirichlet problem, Delta G = delta_source on a
    finite domain of Z^2 and G = 0 off it, held on a box grid: G at
    ``origin`` + (i, j) is grid[i, j], and grid is 0 off the domain, the
    boolean array ``mask``.  ``degree``, broadcast against the grid, is
    each point's degree in the graph whose Laplacian deg - adj G solves
    (4 on Z^2)."""

    def __init__(self, grid, mask, origin, source, degree=4):
        self.grid = grid
        self.mask = mask
        self.origin = tuple(origin)
        self.source = tuple(source)
        self.degree = degree

    @property
    def points(self):
        """The domain, an (N, 2) integer array, rows ascending and columns
        ascending within a row."""
        return np.argwhere(self.mask) + self.origin

    @property
    def values(self):
        """G at ``points``, in their order."""
        return self.grid[self.mask]

    def _index(self, p):
        """Grid index of the lattice point p, None outside the box."""
        i, j = int(p[0]) - self.origin[0], int(p[1]) - self.origin[1]
        rows, cols = self.grid.shape
        return (i, j) if 0 <= i < rows and 0 <= j < cols else None

    def __call__(self, p):
        """Value at a lattice point (0 outside the domain)."""
        k = self._index(p)
        return 0.0 if k is None else float(self.grid[k])

    def residual(self):
        """Max |(Delta G)(p) - delta_source(p)| over the domain."""
        grid = self.grid
        # the neighbours summed in STEPS order: row + 1, row - 1, column
        # + 1, column - 1 (the grid is 0 off the domain)
        around = np.zeros_like(grid)
        around[:-1] += grid[1:]
        around[1:] += grid[:-1]
        around[:, :-1] += grid[:, 1:]
        around[:, 1:] += grid[:, :-1]
        val = self.degree * grid
        val -= around
        val[self._index(self.source)] -= 1.0
        return float(np.abs(val, out=val).max(initial=0.0, where=self.mask))


def _solve_green(mask, degree, sources, weights=1, fold=False):
    """Solution u, on the cells of the boolean array ``mask`` in row-major
    order, of Delta u = 1 at each of ``sources`` (grid indices) and 0
    elsewhere, with u = 0 off the mask.

    ``degree`` and ``weights`` broadcast against the mask.  W Delta, with
    W = diag(``weights``) (by default the identity), must be symmetric.
    With ``fold`` the mask is the wedge 0 <= b <= a of a ball's offsets
    (a, b) and each neighbour is read at its image (max(|a|, |b|),
    min(|a|, |b|)) under the dihedral group of the square.  W Delta u =
    W delta is one banded positive definite system, neighbours about a row
    apart, solved by banded Cholesky (`lapack.pbsv`).
    """
    # cells numbered row by row; the pad of -1 reads "absent" at an index
    # of -1 or of the shape, so every step off the grid lands on it
    number = np.full((mask.shape[0] + 1, mask.shape[1] + 1), -1)
    i, j = np.nonzero(mask)
    cell = np.arange(len(i))
    number[:-1, :-1][mask] = cell
    weights = np.broadcast_to(weights, mask.shape)[mask].astype(float)
    lower = []
    for di, dj in STEPS:
        a, b = i + di, j + dj
        if fold:
            a, b = np.abs(a), np.abs(b)
            a, b = np.maximum(a, b), np.minimum(a, b)
        cols = number[a, b]
        rows = np.flatnonzero((cols >= 0) & (cols < cell))
        lower.append((rows, cols[rows]))
    width = max(int((rows - cols).max(initial=0)) for rows, cols in lower)
    # lower band storage: entry (i, j), i >= j, at band[j, i - j], which
    # LAPACK reads column-major as its (width + 1, N) array
    band = np.zeros((len(cell), width + 1))
    band[:, 0] = weights * np.broadcast_to(degree, mask.shape)[mask]
    for rows, cols in lower:
        band[cols, rows - cols] -= weights[rows]
    hit = number[tuple(np.transpose(sources))]
    rhs = np.zeros(len(cell))
    rhs[hit] = weights[hit]
    return pbsv(band, rhs)


def green_ball(radius, center=(0, 0)):
    """Green function of the Euclidean ball {|z - center| <= radius} in Z^2.

    Delta G = 1 at the center, 0 elsewhere in the ball, G = 0 outside.
    The ball and the Laplacian are invariant under the dihedral group of
    the square about the center, and so is the unique solution: it is
    solved on the wedge 0 <= b <= a of offsets (a, b), each neighbour
    folded into the wedge (the fold keeps |z|, so neighbours off the ball
    stay off), and unfolded to the (2r + 1)^2 grid of offsets, r the
    integer part of the radius, by G(a, b) = G(|a|, |b|) = G(|b|, |a|).
    """
    rr = int(math.floor(radius))
    fold = np.abs(np.arange(-rr, rr + 1))
    inside = fold[:, None] ** 2 + fold ** 2 <= radius * radius
    wedge = np.tril(inside[rr:, rr:])
    a, b = np.ogrid[:rr + 1, :rr + 1]
    # orbit sizes (1, 4 or 8) make the folded Laplacian symmetric
    values = _solve_green(wedge, 4, [(0, 0)], np.where(
        a == 0, 1, np.where((b == 0) | (a == b), 4, 8)), fold=True)
    quadrant = np.zeros((rr + 1, rr + 1))
    quadrant[wedge] = values
    quadrant.T[wedge] = values
    return GreenFunction(quadrant[np.ix_(fold, fold)], inside,
                         (center[0] - rr, center[1] - rr), center)


def fullplane_constant(radius):
    """Fit the additive constant of the full-plane expansion.

    Differences G(z) - G(0) of the ball Green function cancel the
    ball-dependent additive constant and recover the full-plane kernel
    normalized to vanish at the origin, which behaves like
    -(1/2 pi) log |z| + c.  Since G solves the degree-4 equation
    Delta G = delta, G(0) - G(z) tends to a(z)/4 as the ball grows, with
    a the potential kernel of simple random walk, a(z) = (2/pi) log |z| +
    (2 gamma + log 8)/pi + O(|z|^-2) (Lawler-Limic, Random Walk: A Modern
    Introduction, 2010, Thm 4.4.4), so c = -(2 gamma + log 8)/(4 pi)
    ~ -0.2573434.  The constant is fitted over the annulus
    radius/4 <= |z| <= radius/2, which holds a lattice point z != 0 from
    radius 2 on; returns (c, max deviation from the fit).
    """
    if not radius >= 2:
        raise ValueError("radius must be >= 2 for a lattice point z != 0 "
                         "with radius/4 <= |z| <= radius/2, got %r" % radius)
    green = green_ball(radius)
    a, b = green.points.T
    r = np.sqrt(a * a + b * b)
    ring = (radius / 4.0 <= r) & (r <= radius / 2.0)
    samples = ((green.values[ring] - green((0, 0)))
               + np.log(r[ring]) / (2 * math.pi))
    c = float(samples.mean())
    return c, float(np.max(np.abs(samples - c)))


def halfplane_embed(p):
    """Embed a half-plane vertex (row a >= 0, column b) as b + i(a + 1/2)."""
    a, b = p
    return complex(b, a + 0.5)


def quasi_ball(radius, source):
    """QB(radius, source) = {|(z - P)(z - conj P)| <= r^2} in the
    half-plane N x Z, with z the embedded coordinate, on a box: returns
    (mask, origin), mask[i, j] true where origin + (i, j) is a member."""
    zp = halfplane_embed(source)
    r2 = radius * radius
    # membership at distance d from P forces d (d - 2 Im P) <= r^2, so the
    # region fits in a box of half-width Im P + sqrt((Im P)^2 + r^2)
    h = zp.imag
    half = int(math.ceil(h + math.sqrt(h * h + r2))) + 2
    a0, b0 = source
    origin = (max(a0 - half, 0), b0 - half)
    a = np.arange(origin[0], a0 + half + 1)
    b = np.arange(origin[1], b0 + half + 1)
    z = b + 1j * (a[:, None] + 0.5)
    return np.abs((z - zp) * (z - zp.conjugate())) <= r2, origin


def green_halfplane(source, radius):
    """Green function on the Neumann half-plane graph N x Z, supported in
    the quasi-ball QB(radius, source); the source's row a must be >= 0."""
    if source[0] < 0:  # any other source lies in its own quasi-ball
        raise ValueError("row a of the source (a, b) must be >= 0 in "
                         "N x Z, got %d" % source[0])
    mask, origin = quasi_ball(radius, source)
    rows = np.arange(origin[0], origin[0] + len(mask))
    # degree 3 in row 0: its neighbour in row -1 is off the graph
    green = GreenFunction(np.zeros(mask.shape), mask, origin, source,
                          (3 + (rows > 0))[:, None])
    green.grid[mask] = _solve_green(mask, green.degree,
                                    [green._index(source)])
    return green


# ---- corner flow -------------------------------------------------------


def corner_flow(n):
    """Unit flow from the corner of the quadrant N^2 to the diagonal a+b=n.

    Returns (horizontal, vertical): horizontal[a, b] is the flow on the
    edge (a, b) -> (a+1, b) and vertical[a, b] the flow on
    (a, b) -> (a, b+1); edges start at points with a + b <= n - 1 and the
    flow vanishes elsewhere.
    """
    size = n + 1
    horizontal = np.zeros((size, size))
    vertical = np.zeros((size, size))
    a = np.arange(size)[:, None]
    b = np.arange(size)[None, :]
    s = a + b
    active = s <= n - 1
    inv1 = 1.0 / (s + 1)
    inv2 = 1.0 / (s + 2)
    horizontal[active] = ((a + 1) * (inv1 - inv2))[active]
    vertical[active] = (inv2 - a * (inv1 - inv2))[active]
    return horizontal, vertical


def corner_flow_divergence(n):
    """Net inflow minus outflow of the corner flow at every lattice point
    of the (n+2) x (n+2) corner of the quadrant."""
    horizontal, vertical = corner_flow(n)
    size = n + 2
    div = np.zeros((size, size))
    div[:n + 1, :n + 1] -= horizontal + vertical
    div[1:n + 2, :n + 1] += horizontal
    div[:n + 1, 1:n + 2] += vertical
    return div


def corner_flow_norm_sq(n):
    horizontal, vertical = corner_flow(n)
    return float((horizontal ** 2).sum() + (vertical ** 2).sum())


def harmonic_number(n):
    return float(sum(1.0 / i for i in range(1, n + 1)))


# ---- convex barrier ----------------------------------------------------


def graph_distances(disc, sources):
    """Integer BFS distances (int64, -1 where unreachable) from a set of
    vertices in the mesh graph, one frontier per level."""
    ends = np.concatenate([disc.tails, disc.heads])
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    slots = np.arange(len(ends)) - np.searchsorted(ends, ends)
    # row v lists v's neighbours, padded with v itself, which the search
    # has reached before it looks at v's row
    table = np.repeat(np.arange(disc.n_vertices)[:, None],
                      slots.max(initial=0) + 1, axis=1)
    table[ends, slots] = np.concatenate([disc.heads, disc.tails])[order]
    dist = np.full(disc.n_vertices, -1, dtype=np.int64)
    # the next frontier, marked: flatnonzero lists it sorted and once, as
    # np.unique would without importing numpy.ma
    reached = np.zeros(disc.n_vertices, dtype=bool)
    reached[np.asarray(sources, dtype=np.int64)] = True
    front = np.flatnonzero(reached)
    level = 0
    while len(front):
        dist[front] = level
        level += 1
        reached[front] = False
        near = table[front].ravel()
        reached[near[dist[near] < 0]] = True
        front = np.flatnonzero(reached)
    return dist


def convex_barrier(disc, cluster_cells):
    """Squared graph distance to a singular cluster, with its Laplacian.

    Returns (h, lap_h, dist) as int64 arrays: h(Q) = dist(Q, cluster)^2
    and lap_h(Q) = deg(Q) h(Q) - sum of h over neighbours, both computed
    in exact integer arithmetic.
    """
    dist = graph_distances(disc, cluster_cells)
    if dist.min() < 0:
        raise ValueError("mesh graph is disconnected from the cluster")
    h = dist * dist
    lap = disc.degrees * h
    np.subtract.at(lap, disc.tails, h[disc.heads])
    np.subtract.at(lap, disc.heads, h[disc.tails])
    return h, lap, dist


def barrier_report(disc, point):
    """Check lap h <= -1 at full-degree vertices strictly inside the
    radius-n ball around the singular cluster of ``point``.

    Returns a dict with the number of checked vertices and violations.
    """
    cells, _ = point.distinct_cells()
    _, lap, dist = convex_barrier(disc, cells)
    checked = (disc.degrees == 4) & (dist <= disc.n - 1)
    bad = np.flatnonzero(checked & (lap > -1))
    worst = None
    if len(bad):
        v = int(bad[0])
        worst = (v, int(dist[v]), int(lap[v]))
    return {"checked": int(checked.sum()), "violations": len(bad),
            "worst": worst}


# ---- eigenvector regularity diagnostics --------------------------------

INTERIOR_MARGIN = 0.25


def harnack_diagnostics(disc, f):
    """Regularity diagnostics of a section normalized to |f|^2 = n^2.

    Returns max |f(t) - U f(h)| over edges, sup |f| / sqrt(log n), and
    sup |f| over vertices at chart distance at least INTERIOR_MARGIN
    from every singular point (None when no vertex qualifies).
    """
    from .operators import edge_differences

    rank = disc.bundle.rank
    f = np.asarray(f, dtype=complex).reshape(disc.n_vertices, rank)
    norm = np.linalg.norm(f)
    if norm == 0:
        raise ValueError("zero section")
    f = f * (disc.n / norm)
    gaps = edge_differences(disc, f)
    mags = np.linalg.norm(f, axis=1)
    sup = float(mags.max())
    dist = disc.distance_to_singular()
    interior = mags[dist >= INTERIOR_MARGIN]
    return {
        "max_edge_gap": float(gaps.max()),
        "sup_over_sqrt_log": sup / math.sqrt(math.log(disc.n))
        if disc.n > 1 else float("inf"),
        "interior_sup": float(interior.max()) if interior.size else None,
        "sup": sup,
    }
