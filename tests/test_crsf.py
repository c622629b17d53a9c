"""Connection-Laplacian determinants versus brute-force forest sums."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tilelap import catalog, operators
from tilelap.bundle import FlatUnitaryBundle
from tilelap.crsf import ConnectionGraph, random_connection_graph
from tilelap.discretize import Discretization
from tilelap.stream import SplitMix64


def w(theta):
    return np.exp(1j * theta)


def test_single_self_loop():
    g = ConnectionGraph(1, [(0, 0, w(0.7))])
    expect = 2 - 2 * np.cos(0.7)
    assert g.determinant() == pytest.approx(expect, abs=1e-12)
    assert g.forest_sum() == pytest.approx(expect, abs=1e-12)


def test_two_vertices_parallel_edges():
    # the only CRSF is the doubled edge; its cycle monodromy is w1 * w2^-1
    g = ConnectionGraph(2, [(0, 1, w(0.3)), (0, 1, w(1.9))])
    expect = 2 - 2 * np.cos(0.3 - 1.9)
    assert g.determinant() == pytest.approx(expect, abs=1e-12)
    assert g.forest_sum() == pytest.approx(expect, abs=1e-12)


def test_triangle_hand_count():
    # triangle with holonomy t = a + b + c around the cycle; the only CRSF
    # uses all three edges, so both sides equal 2 - 2 cos t
    a, b, c = 0.4, -1.1, 2.2
    g = ConnectionGraph(3, [(0, 1, w(a)), (1, 2, w(b)), (2, 0, w(c))])
    expect = 2 - 2 * np.cos(a + b + c)
    assert g.determinant() == pytest.approx(expect, abs=1e-12)
    assert g.forest_sum() == pytest.approx(expect, abs=1e-12)


def test_trivial_holonomy_gives_zero():
    g = ConnectionGraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert abs(g.determinant()) <= 1e-12
    assert abs(g.forest_sum()) <= 1e-12


def test_disconnected_graph():
    # two components, each must carry its own cycle
    g = ConnectionGraph(2, [(0, 0, w(0.5)), (1, 1, w(1.5))])
    expect = (2 - 2 * np.cos(0.5)) * (2 - 2 * np.cos(1.5))
    assert g.determinant() == pytest.approx(expect, abs=1e-12)
    assert g.forest_sum() == pytest.approx(expect, abs=1e-12)


def test_no_spanning_forest_means_zero():
    # a tree has fewer edges than vertices: determinant and sum vanish
    g = ConnectionGraph(2, [(0, 1, w(0.4))])
    assert abs(g.determinant()) <= 1e-12
    assert g.forest_sum() == 0.0


def test_edge_carries_weight_from_tail_to_head():
    # (u, v, w) carries f(u) to v: (Delta f)(v) has -w f(u), so L is not
    # conjugated, which no determinant can tell
    g = ConnectionGraph(2, [(0, 1, w(0.9))])
    lap = g.laplacian()
    assert lap[1, 0] == -w(0.9)
    assert lap[0, 1] == -np.conj(w(0.9))
    assert np.array_equal(np.diag(lap), [1, 1])


def _mesh_bundle(name):
    surface = catalog.BUILTIN[name]()
    if name == "torus":
        return surface, FlatUnitaryBundle.twisted_torus(surface, 0.7, -0.3)
    # around genus2's one cone point every seam is crossed once each way,
    # so any rank-1 transports are flat
    rng = np.random.default_rng(3)
    bundle = FlatUnitaryBundle(surface, 1, {
        seam.index: [[w(rng.uniform(0, 2 * np.pi))]]
        for seam in surface.seams})
    bundle.validate()
    return surface, bundle


@pytest.mark.parametrize("name, n, det", [("torus", 2, 18.0537),
                                          ("torus", 3, 6522.90),
                                          ("genus2", 1, 46.7965)])
def test_forest_identity_on_mesh(name, n, det):
    # a mesh edge (t, h) transports h -> t, so it enters as (h, t, U)
    disc = Discretization(*_mesh_bundle(name), n)
    g = ConnectionGraph(disc.n_vertices, zip(
        disc.heads, disc.tails, disc.transports[:, 0, 0]))
    assert np.array_equal(g.laplacian(),
                          np.asarray(operators.laplacian(disc)))
    forest = g.forest_sum()
    assert g.determinant() == pytest.approx(forest, rel=1e-12)
    assert forest == pytest.approx(det, rel=1e-5)


def test_edge_validation():
    with pytest.raises(ValueError):
        ConnectionGraph(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        ConnectionGraph(2, [(0, 1, 2.0)])


def test_random_graphs_fill_their_ranges():
    # uniform draws from the stream reach every vertex and edge count, and
    # every end lies on the graph (ConnectionGraph checks it)
    stream = SplitMix64(0)
    graphs = [random_connection_graph(stream) for _ in range(500)]
    assert {g.n_vertices for g in graphs} == set(range(1, 8))
    assert {len(g.edges) for g in graphs} == set(range(13))
    assert {u for g in graphs for u, _, _ in g.edges} == set(range(7))


def test_gauge_invariance():
    g = random_connection_graph(SplitMix64(11), max_vertices=5, max_edges=9)
    phases = np.random.default_rng(11).uniform(0, 2 * np.pi, g.n_vertices)
    # weight w on (u, v) becomes e^{i phi_v} w e^{-i phi_u}
    h = ConnectionGraph(g.n_vertices, [
        (u, v, np.exp(1j * (phases[v] - phases[u])) * w)
        for (u, v, w) in g.edges])
    assert g.determinant() == pytest.approx(h.determinant(), abs=1e-9)
    assert g.forest_sum() == pytest.approx(h.forest_sum(), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_identity_on_random_graphs(seed):
    g = random_connection_graph(SplitMix64(seed))
    det = g.determinant()
    forest = g.forest_sum()
    scale = max(1.0, abs(det), abs(forest))
    assert abs(det - forest) / scale <= 1e-9
