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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EULER_MASCHERONI = 0.5772156649015329


class GreenFunction:
    """Solution values of a lattice Dirichlet problem on a finite set."""

    def __init__(self, points, values, source):
        self.points = [tuple(p) for p in points]
        self.values = np.asarray(values)
        self.source = tuple(source)
        self._index = {p: k for k, p in enumerate(self.points)}

    def __contains__(self, p):
        return tuple(p) in self._index

    def __call__(self, p):
        """Value at a lattice point (0 outside the domain)."""
        k = self._index.get(tuple(p))
        return 0.0 if k is None else float(self.values[k])

    def residual(self, laplacian_row):
        """Max |(Delta G)(p) - delta_source(p)| over the domain, where
        ``laplacian_row(p)`` yields (degree, neighbour list)."""
        worst = 0.0
        for p in self.points:
            deg, nbrs = laplacian_row(p)
            val = deg * self(p) - sum(self(q) for q in nbrs)
            target = 1.0 if p == self.source else 0.0
            worst = max(worst, abs(val - target))
        return worst


def _solve_green(points, degree_of, neighbours_of, source):
    index = {p: k for k, p in enumerate(points)}
    rows, cols, vals = [], [], []
    for p, k in index.items():
        rows.append(k)
        cols.append(k)
        vals.append(float(degree_of(p)))
        for q in neighbours_of(p):
            kq = index.get(q)
            if kq is not None:
                rows.append(k)
                cols.append(kq)
                vals.append(-1.0)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(len(points),) * 2)
    rhs = np.zeros(len(points))
    rhs[index[source]] = 1.0
    sol = spla.spsolve(mat.tocsc(), rhs)
    return GreenFunction(points, sol, source)


def _plane_neighbours(p):
    a, b = p
    return [(a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)]


def green_ball(radius, center=(0, 0)):
    """Green function of the Euclidean ball {|z - center| <= radius} in Z^2.

    Delta G = 1 at the center, 0 elsewhere in the ball, G = 0 outside.
    """
    r2 = radius * radius
    rr = int(math.floor(radius))
    cx, cy = center
    points = [(cx + a, cy + b)
              for a in range(-rr, rr + 1) for b in range(-rr, rr + 1)
              if a * a + b * b <= r2]
    return _solve_green(points, lambda p: 4, _plane_neighbours, tuple(center))


def ball_laplacian_row(p):
    return 4, _plane_neighbours(p)


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
    radius/4 <= |z| <= radius/2; returns (c, max deviation from the fit).
    """
    green = seed_green if seed_green is not None else green_ball(radius)
    g0 = green((0, 0))
    lo, hi = radius / 4.0, radius / 2.0
    samples = []
    for p in green.points:
        r = math.hypot(*p)
        if lo <= r <= hi:
            samples.append((green(p) - g0) + math.log(r) / (2 * math.pi))
    samples = np.array(samples)
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


def _halfplane_neighbours(p):
    a, b = p
    out = [(a + 1, b), (a, b + 1), (a, b - 1)]
    if a > 0:
        out.append((a - 1, b))
    return out


def halfplane_laplacian_row(p):
    nbrs = _halfplane_neighbours(p)
    return len(nbrs), nbrs


def green_halfplane(source, radius):
    """Green function on the Neumann half-plane graph N x Z, supported in
    the quasi-ball QB(radius, source)."""
    points = quasi_ball(radius, source)
    if tuple(source) not in set(points):
        raise ValueError("source not inside its quasi-ball")
    return _solve_green(points, lambda p: len(_halfplane_neighbours(p)),
                        _halfplane_neighbours, tuple(source))


def reflected_plane_green(source, radius):
    """Plane solve of the reflection-symmetrized problem for the half-plane.

    Solves Delta H = delta_P + delta_P' on Z^2 over the union of the
    quasi-ball and its mirror image, where P' = (-1 - a, b) is the mirror
    of P; the restriction of H to rows a >= 0 solves the half-plane
    problem, so it must agree with :func:`green_halfplane`.
    """
    a0, b0 = source
    upper = quasi_ball(radius, source)
    points = upper + [(-1 - a, b) for (a, b) in upper]
    index = {p: k for k, p in enumerate(points)}
    rows, cols, vals = [], [], []
    for p, k in index.items():
        rows.append(k)
        cols.append(k)
        vals.append(4.0)
        for q in _plane_neighbours(p):
            kq = index.get(q)
            if kq is not None:
                rows.append(k)
                cols.append(kq)
                vals.append(-1.0)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(len(points),) * 2)
    rhs = np.zeros(len(points))
    rhs[index[(a0, b0)]] = 1.0
    rhs[index[(-1 - a0, b0)]] = 1.0
    sol = spla.spsolve(mat.tocsc(), rhs)
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
    vertices in the mesh graph."""
    from scipy.sparse.csgraph import dijkstra

    adj = sp.csr_matrix((np.ones(len(disc.tails)), (disc.tails, disc.heads)),
                        shape=(disc.n_vertices,) * 2)
    dist = dijkstra(adj, directed=False, unweighted=True,
                    indices=sources, min_only=True)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


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
