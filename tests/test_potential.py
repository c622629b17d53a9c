"""Lattice Green functions, corner flow, barrier, regularity diagnostics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from tilelap import catalog, potential, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization

from conftest import make_disc


def test_green_ball_defining_equation():
    green = potential.green_ball(12)
    assert green.residual(potential.ball_laplacian_row) <= 1e-10
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
    (16, (0, 0)), (4.301, (3, -5)), (16, (3, -5))])
def test_green_ball_wedge_fold_matches_full_solve(radius, center):
    # the wedge solve, unfolded, equals a direct solve over the whole ball
    green = potential.green_ball(radius, center=center)
    direct = potential._solve_green(green.points, potential.ball_laplacian_row,
                                    [center])
    scale = green(center)
    assert np.abs(green.values - direct).max() <= 1e-13 * scale
    # and is invariant under the eight symmetries of the square about the
    # center
    a, b = (green.points - center).T
    for image in ((a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a),
                  (-b, -a)):
        moved = np.column_stack(image) + center
        assert np.array_equal(green.values,
                              green.values[green._locate(moved)])


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
        pts = potential.quasi_ball(4.0, source)
        assert tuple(source) in set(pts)
        assert all(a >= 0 for (a, b) in pts)
    # membership test matches the defining inequality
    zp = potential.halfplane_embed((2, 1))
    for p in potential.quasi_ball(5.0, (2, 1)):
        z = potential.halfplane_embed(p)
        assert abs((z - zp) * (z - zp.conjugate())) <= 25.0 + 1e-9


def test_halfplane_green_defining_equation():
    green = potential.green_halfplane((0, 3), 6.0)
    assert green.residual(potential.halfplane_laplacian_row) <= 1e-10


def test_halfplane_green_equals_reflected_plane_solve():
    for source in ((0, 3), (2, -1)):
        gh = potential.green_halfplane(source, 6.0)
        gr = potential.reflected_plane_green(source, 6.0)
        worst = max(abs(gh(p) - gr(p)) for p in gh.points)
        assert worst <= 1e-10


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
    assert all(isinstance(x, int) for x in h[:10])
    assert all(h[v] == dist[v] ** 2 for v in range(disc.n_vertices))


def test_barrier_holds_on_lshape_and_pillowcase():
    for name in ("lshape", "pillowcase"):
        disc = make_disc(name, 16)
        for point in disc.singular_points():
            report = potential.barrier_report(disc, point)
            assert report["checked"] > 0
            assert report["violations"] == 0


def test_harnack_normalization_and_gap():
    disc = make_disc("torus", 8)
    _, vecs = spectral.rescaled_spectrum(disc, 2, seed=1)
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
