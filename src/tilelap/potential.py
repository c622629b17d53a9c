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

EULER_MASCHERONI = 0.5772156649015329

# lattice steps to the four neighbours of a point (row, column)
STEPS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])


def _locator(points):
    """Function mapping integer points (an array ending in an axis of 2)
    to their row in the (N, 2) array ``points``, -1 where absent."""
    def key(coords):
        coords = np.asarray(coords, dtype=np.int64)
        return coords[..., 0] * (1 << 32) + coords[..., 1]

    keys = key(points)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]

    def locate(coords):
        wanted = key(coords)
        pos = np.minimum(np.searchsorted(ordered, wanted), len(ordered) - 1)
        return np.where(ordered[pos] == wanted, order[pos], -1)

    return locate


class GreenFunction:
    """Solution values of a lattice Dirichlet problem on a finite set,
    given as an (N, 2) integer array of points."""

    def __init__(self, points, values, source):
        self.points = np.asarray(points, dtype=np.int64).reshape(-1, 2)
        self.values = np.asarray(values)
        self.source = tuple(source)
        self._locate = _locator(self.points)

    def __contains__(self, p):
        return bool(self._locate(p) >= 0)

    def __call__(self, p):
        """Value at a lattice point (0 outside the domain)."""
        k = int(self._locate(p))
        return 0.0 if k < 0 else float(self.values[k])

    def residual(self, laplacian_row):
        """Max |(Delta G)(p) - delta_source(p)| over the domain, where
        ``laplacian_row(points)`` gives the degrees and (N, 4, 2) lattice
        neighbours of an (N, 2) array of points."""
        deg, nbrs = laplacian_row(self.points)
        k = self._locate(nbrs)
        around = np.where(k >= 0, self.values[k], 0.0)
        val = deg * self.values - around.sum(axis=1)
        val[self._locate(self.source)] -= 1.0
        return float(np.abs(val).max())


def _solve_green(points, laplacian_row, sources):
    """Solution u on the (N, 2) integer array ``points`` of Delta u = 1 at
    each of ``sources`` and 0 elsewhere, with u = 0 off ``points``."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    size = len(points)
    locate = _locator(points)
    deg, nbrs = laplacian_row(points)
    cols = locate(nbrs)
    inside = cols >= 0
    rows = np.broadcast_to(np.arange(size)[:, None], cols.shape)[inside]
    diag = np.arange(size)
    mat = sp.csc_matrix(
        (np.concatenate([deg.astype(float), -np.ones(len(rows))]),
         (np.concatenate([diag, rows]), np.concatenate([diag, cols[inside]]))),
        shape=(size, size))
    rhs = np.zeros(size)
    rhs[locate(sources)] = 1.0
    # the matrix is symmetric: minimum degree on A^T + A fills less than
    # the default column ordering
    return spsolve(mat, rhs, permc_spec="MMD_AT_PLUS_A")


def ball_laplacian_row(points):
    """Degrees and (N, 4, 2) neighbours of an (N, 2) array of points of
    Z^2."""
    return np.full(len(points), 4), points[:, None, :] + STEPS


def _fold(offsets):
    """Image (max(|a|, |b|), min(|a|, |b|)) of each offset (a, b) in the
    wedge 0 <= b <= a under the dihedral group of the square."""
    mags = np.abs(offsets)
    return np.stack([mags.max(axis=-1), mags.min(axis=-1)], axis=-1)


def green_ball(radius, center=(0, 0)):
    """Green function of the Euclidean ball {|z - center| <= radius} in Z^2.

    Delta G = 1 at the center, 0 elsewhere in the ball, G = 0 outside.
    The ball and the Laplacian are invariant under the dihedral group of
    the square about the center, and so is the unique solution: it is
    solved on the wedge 0 <= b <= a of offsets (a, b), each neighbour
    folded into the wedge (the fold keeps |z|, so neighbours off the ball
    stay off), and unfolded to every point of the ball.
    """
    rr = int(math.floor(radius))
    a, b = np.meshgrid(np.arange(-rr, rr + 1), np.arange(-rr, rr + 1),
                       indexing="ij")
    inside = a * a + b * b <= radius * radius
    offsets = np.column_stack([a[inside], b[inside]])
    wedge = offsets[(0 <= offsets[:, 1]) & (offsets[:, 1] <= offsets[:, 0])]
    values = _solve_green(
        wedge, lambda p: (np.full(len(p), 4), _fold(p[:, None, :] + STEPS)),
        [(0, 0)])
    return GreenFunction(offsets + center,
                         values[_locator(wedge)(_fold(offsets))], center)


def fullplane_constant(radius, seed_green=None):
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
    green = seed_green if seed_green is not None else green_ball(radius)
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
    """Lattice points of QB(radius, source) = {|(z - P)(z - conj P)| <= r^2}
    in the half-plane N x Z, with z the embedded coordinate."""
    zp = halfplane_embed(source)
    r2 = radius * radius
    # membership at distance d from P forces d (d - 2 Im P) <= r^2, so the
    # region fits in a box of half-width Im P + sqrt((Im P)^2 + r^2)
    h = zp.imag
    half = int(math.ceil(h + math.sqrt(h * h + r2))) + 2
    a0, b0 = source
    a = np.arange(max(a0 - half, 0), a0 + half + 1)
    b = np.arange(b0 - half, b0 + half + 1)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    z = bb + 1j * (aa + 0.5)
    mask = np.abs((z - zp) * (z - zp.conjugate())) <= r2
    return [(int(x), int(y)) for x, y in zip(aa[mask], bb[mask])]


def halfplane_laplacian_row(points):
    """Degrees and (N, 4, 2) lattice neighbours of an (N, 2) array of
    points of the half-plane graph N x Z.  Row 0 has degree 3: its
    neighbour in row -1 is off the graph, hence outside every domain."""
    return 3 + (points[:, 0] > 0), points[:, None, :] + STEPS


def green_halfplane(source, radius):
    """Green function on the Neumann half-plane graph N x Z, supported in
    the quasi-ball QB(radius, source)."""
    points = quasi_ball(radius, source)
    if tuple(source) not in set(points):
        raise ValueError("source not inside its quasi-ball")
    points = np.array(points)
    return GreenFunction(points, _solve_green(points, halfplane_laplacian_row,
                                              [source]), source)


def reflected_plane_green(source, radius):
    """Plane solve of the reflection-symmetrized problem for the half-plane.

    Solves Delta H = delta_P + delta_P' on Z^2 over the union of the
    quasi-ball and its mirror image, where P' = (-1 - a, b) is the mirror
    of P; the restriction of H to rows a >= 0 solves the half-plane
    problem, so it must agree with :func:`green_halfplane`.
    """
    a0, b0 = source
    upper = np.array(quasi_ball(radius, source))
    points = np.concatenate([upper, np.column_stack([-1 - upper[:, 0],
                                                     upper[:, 1]])])
    sol = _solve_green(points, ball_laplacian_row,
                       [(a0, b0), (-1 - a0, b0)])
    return GreenFunction(upper, sol[:len(upper)], source)


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
    front = np.unique(np.asarray(sources, dtype=np.int64))
    level = 0
    while len(front):
        dist[front] = level
        level += 1
        reached = table[front].ravel()
        front = np.unique(reached[dist[reached] < 0])
    return dist


def convex_barrier(disc, cluster_cells):
    """Squared graph distance to a singular cluster, with its Laplacian.

    Returns (h, lap_h, dist) as lists of Python integers: h(Q) =
    dist(Q, cluster)^2 and lap_h(Q) = deg(Q) h(Q) - sum of h over
    neighbours, both computed in exact int64 arithmetic.
    """
    dist = graph_distances(disc, cluster_cells)
    if dist.min() < 0:
        raise ValueError("mesh graph is disconnected from the cluster")
    h = dist * dist
    lap = disc.degrees * h
    np.subtract.at(lap, disc.tails, h[disc.heads])
    np.subtract.at(lap, disc.heads, h[disc.tails])
    return h.tolist(), lap.tolist(), dist.tolist()


def barrier_report(disc, point):
    """Check lap h <= -1 at full-degree vertices strictly inside the
    radius-n ball around the singular cluster of ``point``.

    Returns a dict with the number of checked vertices and violations.
    """
    cells, _ = point.distinct_cells()
    _, lap, dist = (np.array(x) for x in convex_barrier(disc, cells))
    checked = (disc.degrees == 4) & (dist <= disc.n - 1)
    bad = np.flatnonzero(checked & (lap > -1))
    worst = None
    if len(bad):
        v = int(bad[0])
        worst = (v, int(dist[v]), int(lap[v]))
    return {"checked": int(checked.sum()), "violations": len(bad),
            "worst": worst}


# ---- eigenvector regularity diagnostics --------------------------------


def harnack_diagnostics(disc, f, interior_margin=0.25):
    """Regularity diagnostics of a section normalized to |f|^2 = n^2.

    Returns max |f(t) - U f(h)| over edges, sup |f| / sqrt(log n), and
    sup |f| over vertices at chart distance at least ``interior_margin``
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
    interior = mags[dist >= interior_margin]
    return {
        "max_edge_gap": float(gaps.max()),
        "sup_over_sqrt_log": sup / math.sqrt(math.log(disc.n))
        if disc.n > 1 else float("inf"),
        "interior_sup": float(interior.max()) if interior.size else None,
        "sup": sup,
    }
