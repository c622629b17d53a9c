"""Lattice Green functions, corner flow, barrier, regularity diagnostics."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from tilelap import catalog, potential, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization

from conftest import make_disc


def test_green_ball_defining_equation():
    green = potential.green_ball(12)
    assert green.residual() <= 1e-10
    # zero outside, positive inside, maximal at the source
    assert green((13, 0)) == 0.0
    vals = np.asarray(green.values)
    assert vals.min() > 0
    assert green(green.source) == vals.max()


def test_green_ball_radial_monotone_on_axis():
    green = potential.green_ball(20)
    axis = [green((a, 0)) for a in range(21)]
    assert all(x > y for x, y in zip(axis, axis[1:]))


def test_green_ball_translation_covariance():
    g0 = potential.green_ball(6)
    g1 = potential.green_ball(6, center=(3, -5))
    for (a, b) in g0.points:
        assert g1((a + 3, b - 5)) == pytest.approx(g0((a, b)), abs=1e-12)


@pytest.mark.parametrize("radius,center", [
    (0, (0, 0)), (1, (0, 0)), (math.sqrt(18.5), (0, 0)), (4.301, (0, 0)),
    (16, (0, 0)), (4.301, (3, -5)), (16, (3, -5)), (40, (0, 0))])
def test_green_ball_wedge_fold_matches_full_solve(radius, center):
    # the wedge solve, unfolded, equals a direct solve over the whole ball;
    # at radius 40 the wedge has 663 points and the ball 5,025
    green = potential.green_ball(radius, center=center)
    direct = potential._solve_green(green.mask, 4, [green._index(center)])
    scale = green(center)
    assert np.abs(green.values - direct).max() <= 1e-13 * scale
    # and is invariant under the eight symmetries of the square about the
    # center
    a, b = (green.points - center).T
    for image in ((a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a),
                  (-b, -a)):
        moved = np.column_stack(image) + center
        assert np.array_equal(green.values, [green(p) for p in moved])


def _spsolve_green(points, sources, halfplane=False):
    # the oracle: the defining equations assembled point by point from a
    # dict of the domain, on Z^2 or on N x Z (degree 3 in row 0), solved by
    # scipy's sparse LU; it shares no code with potential._solve_green
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    index = {p: i for i, p in enumerate(map(tuple, np.asarray(points)
                                             .tolist()))}
    rows, cols, vals = [], [], []
    for (a, b), i in index.items():
        rows.append(i)
        cols.append(i)
        vals.append(3.0 if halfplane and a == 0 else 4.0)
        for q in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            if q in index:
                rows.append(i)
                cols.append(index[q])
                vals.append(-1.0)
    rhs = np.zeros(len(index))
    for source in sources:
        rhs[index[tuple(source)]] = 1.0
    return spsolve(sp.csc_matrix((vals, (rows, cols)),
                                 shape=(len(index), len(index))), rhs)


def _reflected_plane_green(source, radius):
    # the reflection oracle for the half-plane: Delta H = delta_P +
    # delta_P' on Z^2 over the quasi-ball and its mirror image, P' =
    # (-1 - a, b) the mirror of P = (a, b); H restricted to rows a >= 0
    # solves the half-plane problem
    mask, origin = potential.quasi_ball(radius, source)
    # rows -origin[0] - len(mask) up to origin[0] + len(mask) - 1, the
    # mirror of row a at -1 - a
    gap = np.zeros((2 * origin[0], mask.shape[1]), dtype=bool)
    both = np.concatenate([mask[::-1], gap, mask])
    shift = origin[0] + len(mask)
    sol = np.zeros(both.shape)
    sol[both] = potential._solve_green(
        both, 4, [(shift + source[0], source[1] - origin[1]),
                  (shift - 1 - source[0], source[1] - origin[1])])
    # degree 3 in row 0 of N x Z, 4 below it
    rows = np.arange(origin[0], origin[0] + len(mask))
    return potential.GreenFunction(sol[-len(mask):], mask, origin, source,
                                   (3 + (rows > 0))[:, None])


@pytest.mark.parametrize("center", [(0, 0), (3, -5)])
@pytest.mark.parametrize("radius", [1, math.sqrt(18.5), 4.301, 16, 40])
def test_green_ball_matches_sparse_lu_oracle(radius, center):
    green = potential.green_ball(radius, center=center)
    oracle = _spsolve_green(green.points, [center])
    direct = potential._solve_green(green.mask, 4, [green._index(center)])
    scale = oracle.max()
    assert np.abs(green.values - oracle).max() <= 1e-12 * scale
    assert np.abs(direct - oracle).max() <= 1e-12 * scale


@pytest.mark.parametrize("source", [(0, 3), (2, -1), (7, 0)])
def test_halfplane_greens_match_sparse_lu_oracle(source):
    gh = potential.green_halfplane(source, 6.5)
    oracle = _spsolve_green(gh.points, [source], halfplane=True)
    assert np.abs(gh.values - oracle).max() <= 1e-12 * oracle.max()
    # the reflected plane problem over the quasi-ball and its mirror image
    gr = _reflected_plane_green(source, 6.5)
    mirror = np.column_stack([-1 - gr.points[:, 0], gr.points[:, 1]])
    oracle = _spsolve_green(np.concatenate([gr.points, mirror]),
                            [source, (-1 - source[0], source[1])])
    assert np.abs(gr.values - oracle[:len(gr.points)]).max() <= (
        1e-12 * oracle.max())


def test_orbit_weights_make_the_wedge_laplacian_symmetric(monkeypatch):
    # green_ball weights its wedge by orbit sizes under the dihedral group
    # of the square: 1 at the origin, 4 on the axis and the diagonal, 8
    # elsewhere; diag(orbit) A_wedge must equal its transpose exactly
    calls = []
    solve = potential._solve_green

    def recording(mask, degree, sources, weights=1, fold=False):
        calls.append((mask, weights, fold))
        return solve(mask, degree, sources, weights, fold)

    monkeypatch.setattr(potential, "_solve_green", recording)
    potential.green_ball(16.5)
    (mask, weights, fold), = calls
    assert fold
    wedge = np.argwhere(mask)
    weights = np.broadcast_to(weights, mask.shape)[mask]
    a, b = wedge.T
    assert np.array_equal(weights, np.where(
        a == 0, 1, np.where((b == 0) | (a == b), 4, 8)))
    index = {p: i for i, p in enumerate(map(tuple, wedge.tolist()))}
    mat = 4 * np.eye(len(wedge))
    for (x, y), i in index.items():
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            image = tuple(sorted(map(abs, q), reverse=True))
            if image in index:
                mat[i, index[image]] -= 1
    weighted = weights[:, None] * mat
    assert not np.array_equal(mat, mat.T)
    assert np.array_equal(weighted, weighted.T)


def _annulus_with_slit():
    # the annulus 3 <= |z| <= 7 on its box, with a hole, cut open along
    # the positive column axis
    r = np.arange(-7, 8)
    norm = r[:, None] ** 2 + r ** 2
    mask = (9 <= norm) & (norm <= 49)
    mask[7, 7:] = False
    return mask, [(2, 7), (7, 1)]


def _random_mask():
    # about 60 % of a box, touching all four edges, in 5 components
    rng = np.random.default_rng(5)
    mask = rng.random((13, 17)) < 0.6
    return mask, [tuple(p) for p in np.argwhere(mask)[[0, 40, -1]]]


@pytest.mark.parametrize("domain", [_annulus_with_slit, _random_mask])
@pytest.mark.parametrize("halfplane", [False, True])
def test_solve_green_on_nonconvex_masks(domain, halfplane):
    # holes, slits and cells on the edges of the box, against the sparse
    # LU oracle; with halfplane, grid row 0 is row 0 of N x Z (degree 3)
    mask, sources = domain()
    degree = (3 + (np.arange(len(mask)) > 0))[:, None] if halfplane else 4
    got = potential._solve_green(mask, degree, sources)
    oracle = _spsolve_green(np.argwhere(mask), sources, halfplane=halfplane)
    assert np.abs(got - oracle).max() <= 1e-12 * oracle.max()


def test_fullplane_log_asymptotics():
    # G(z) - G(0) ~ -(1/2pi) log |z| + c with a radius-independent c
    c64, dev64 = potential.fullplane_constant(64)
    c128, dev128 = potential.fullplane_constant(128)
    assert abs(c64 - c128) < 2e-4
    assert dev128 < 1e-4
    # frozen reference: the known closed form -(2 gamma + log 8) / (4 pi)
    gamma = potential.EULER_MASCHERONI
    closed = -(2 * gamma + math.log(8)) / (4 * math.pi)
    assert c128 == pytest.approx(closed, abs=1e-5)


@pytest.mark.parametrize("radius", [0, 1])
def test_fullplane_constant_needs_radius_2(radius):
    # no lattice point z != 0 lies in the annulus radius/4 <= |z| <= radius/2
    with pytest.raises(ValueError, match="radius must be >= 2"):
        potential.fullplane_constant(radius)


def test_quasi_ball_contains_source_and_respects_halfplane():
    for source in ((0, 0), (3, -2), (10, 5)):
        mask, origin = potential.quasi_ball(4.0, source)
        assert mask[source[0] - origin[0], source[1] - origin[1]]
        assert origin[0] >= 0
    # membership matches the defining inequality over the box and a
    # margin around it
    zp = potential.halfplane_embed((2, 1))
    mask, origin = potential.quasi_ball(5.0, (2, 1))
    rows, cols = mask.shape
    for a in range(max(origin[0] - 3, 0), origin[0] + rows + 3):
        for b in range(origin[1] - 3, origin[1] + cols + 3):
            z = potential.halfplane_embed((a, b))
            inside = abs((z - zp) * (z - zp.conjugate())) <= 25.0
            i, j = a - origin[0], b - origin[1]
            assert inside == (0 <= i < rows and 0 <= j < cols
                              and bool(mask[i, j])), (a, b)


def _pointwise_residual(green, halfplane=False):
    # the oracle: max |(Delta G)(p) - delta_source(p)| over the domain,
    # assembled point by point from a dict of the domain's values, the
    # neighbours summed in potential.STEPS order
    value = dict(zip(map(tuple, green.points.tolist()), green.values))
    worst = 0.0
    for (a, b), g in value.items():
        around = sum(value.get(q, 0.0) for q in
                     ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)))
        val = (3 if halfplane and a == 0 else 4) * g - around
        if (a, b) == green.source:
            val -= 1.0
        worst = max(worst, abs(val))
    return worst


@pytest.mark.parametrize("center", [(0, 0), (3, -5)])
@pytest.mark.parametrize("radius", [0, 1, math.sqrt(18.5), 4.301, 16])
def test_green_ball_residual_matches_pointwise(radius, center):
    green = potential.green_ball(radius, center=center)
    assert green.residual() == _pointwise_residual(green)


@pytest.mark.parametrize("source", [(0, 3), (2, -1), (7, 0)])
def test_halfplane_residual_matches_pointwise(source):
    green = potential.green_halfplane(source, 6.5)
    assert green.residual() == _pointwise_residual(green, halfplane=True)


def test_green_ball_peak_memory(monkeypatch):
    # green_ball(128) holds its band and, beyond it, at most two
    # grid-sized arrays: the (2r + 1)^2 grid of values and quarter-grid
    # arrays on the wedge's box; its residual two more grids
    radius = 128
    bands = []
    pbsv = potential.pbsv

    def recording(band, rhs):
        bands.append(band.nbytes)
        return pbsv(band, rhs)

    monkeypatch.setattr(potential, "pbsv", recording)
    potential.green_ball(radius)  # imports and caches
    tracemalloc.start()
    try:
        green = potential.green_ball(radius)
        solve_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        green.residual()
        residual_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    grid = (2 * radius + 1) ** 2 * 8
    assert (solve_peak - bands[-1]) / grid <= 2.0
    assert residual_peak / grid <= 2.25


def test_halfplane_green_defining_equation():
    green = potential.green_halfplane((0, 3), 6.0)
    assert green.residual() <= 1e-10


def test_halfplane_green_equals_reflected_plane_solve():
    for source in ((0, 3), (2, -1)):
        gh = potential.green_halfplane(source, 6.0)
        gr = _reflected_plane_green(source, 6.0)
        worst = max(abs(gh(p) - gr(p)) for p in gh.points)
        assert worst <= 1e-10
        # the restriction solves the half-plane problem it is kept with
        assert gr.residual() <= 1e-10


def test_halfplane_green_symmetric_in_columns():
    # the quasi-ball and the graph are mirror symmetric about the source
    # column, so the Green function is too
    a0, b0 = 1, 4
    green = potential.green_halfplane((a0, b0), 5.0)
    for (a, b) in green.points:
        assert green((a, 2 * b0 - b)) == pytest.approx(green((a, b)),
                                                       abs=1e-12)


def test_deep_source_matches_translated_ball():
    # a quasi-ball around a deep interior source collapses to a lattice
    # ball, so the half-plane Green function equals the plane one there
    source = (95, 0)
    radius = math.sqrt(4.35 * (2 * 95 + 1))
    gh = potential.green_halfplane(source, radius)
    gb = potential.green_ball(math.sqrt(18.5))
    assert len(gh.points) == len(gb.points)
    worst = max(abs(gh((95 + a, b)) - gb((a, b))) for (a, b) in gb.points)
    assert worst <= 1e-8


def test_corner_flow_divergence_identity():
    for n in (1, 2, 7, 64):
        div = potential.corner_flow_divergence(n)
        size = n + 2
        a = np.arange(size)[:, None]
        b = np.arange(size)[None, :]
        expected = np.zeros((size, size))
        expected[0, 0] = -1.0
        expected[(a + b) == n] = 1.0 / (n + 1)
        assert np.abs(div - expected).max() <= 1e-12


def test_corner_flow_energy_bound():
    for n in (4, 64, 512):
        assert (potential.corner_flow_norm_sq(n)
                <= 2 * potential.harmonic_number(n))


def test_corner_flow_values_small_n():
    # n = 1: horizontal edge from the origin carries 1/2, vertical 1/2
    h, v = potential.corner_flow(1)
    assert h[0, 0] == pytest.approx(0.5)
    assert v[0, 0] == pytest.approx(0.5)
    assert h[1, 0] == v[0, 1] == 0.0


def test_graph_distances_torus():
    disc = make_disc("torus", 5)
    dist = potential.graph_distances(disc, [disc.vertex_index(0, 0, 0)])
    assert dist[disc.vertex_index(0, 0, 0)] == 0
    assert dist[disc.vertex_index(0, 2, 0)] == 2
    assert dist[disc.vertex_index(0, 4, 0)] == 1  # wraps around
    assert dist[disc.vertex_index(0, 2, 2)] == 4


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_graph_distances_match_dijkstra(named_surface, n):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    name, surf = named_surface
    disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), n)
    size = disc.n_vertices
    adj = csr_matrix((np.ones(len(disc.tails)), (disc.tails, disc.heads)),
                     shape=(size, size))
    rng = np.random.default_rng(n)
    for _ in range(4):
        count = rng.integers(1, min(3, size) + 1)
        sources = rng.choice(size, size=count, replace=False)
        want = dijkstra(adj, directed=False, unweighted=True,
                        indices=sources, min_only=True)
        got = potential.graph_distances(disc, sources)
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64)), (name, sources)


def test_graph_distances_unreachable():
    # two paths 0-1-2 and 3-4 with a self-loop at 4, and an isolated 5
    graph = SimpleNamespace(tails=np.array([0, 1, 3, 4]),
                            heads=np.array([1, 2, 4, 4]), n_vertices=6)
    assert potential.graph_distances(graph, [2]).tolist() == \
        [2, 1, 0, -1, -1, -1]
    assert potential.graph_distances(graph, [4, 0]).tolist() == \
        [0, 1, 2, 1, 0, -1]


def test_barrier_integer_arithmetic():
    disc = make_disc("lshape", 8)
    point = disc.singular_points()[0]
    cells, _ = point.distinct_cells()
    h, lap, dist = potential.convex_barrier(disc, cells)
    assert h.dtype == lap.dtype == dist.dtype == np.int64
    assert (h == dist ** 2).all()


def test_barrier_holds_on_lshape_and_pillowcase():
    for name in ("lshape", "pillowcase"):
        disc = make_disc(name, 16)
        for point in disc.singular_points():
            report = potential.barrier_report(disc, point)
            assert report["checked"] > 0
            assert report["violations"] == 0


def test_harnack_normalization_and_gap(lanczos_runs):
    disc = make_disc("torus", 8)
    _, vecs = spectral.rescaled_spectrum(disc, 2, seed=1)
    assert lanczos_runs == [1]
    diag = potential.harnack_diagnostics(disc, vecs[:, 1])
    # any unit combination of the four degenerate plane waves has sup <= 2
    assert diag["sup"] <= 2.0 * 1.01
    # an edge difference sees only the two waves along the edge, each
    # scaled by |1 - e^{2 pi i / n}| = 2 sin(pi / n), so by Cauchy-Schwarz
    # every vector of the eigenspace has gap <= 2 sqrt(2) sin(pi / n)
    bound = 2 * math.sqrt(2) * math.sin(math.pi / 8)
    assert 0 < diag["max_edge_gap"] <= bound * (1 + 1e-9)
    assert diag["interior_sup"] is not None
    with pytest.raises(ValueError):
        potential.harnack_diagnostics(disc, np.zeros(disc.n_vertices))


def test_harnack_gap_decreases_with_n():
    gaps = []
    for n in (8, 16, 32):
        disc = make_disc("lshape", n)
        _, vecs = spectral.rescaled_spectrum(disc, 2, seed=1)
        gaps.append(potential.harnack_diagnostics(
            disc, vecs[:, 1])["max_edge_gap"])
    assert gaps[0] > gaps[1] > gaps[2]
