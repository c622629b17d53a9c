"""Mesh structure: indexing, seam edges, lattice-point clusters."""

import numpy as np
import pytest

from tilelap import catalog
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization
from tilelap.surface import CORNER_XY, SIDES

from conftest import halo, make_disc


def test_vertex_indexing_round_trip():
    disc = make_disc("lshape", 4)
    for v in range(disc.n_vertices):
        q, i, j = disc.vertex_cell(v)
        assert disc.vertex_index(q, i, j) == v
    pos = disc.positions()
    q, i, j = disc.vertex_cell(17)
    assert pos[17][0] == q
    assert pos[17][1] == pytest.approx((i + 0.5) / 4)
    assert pos[17][2] == pytest.approx((j + 0.5) / 4)


def test_torus_is_four_regular():
    disc = make_disc("torus", 4)
    assert disc.n_vertices == 16
    assert disc.degrees.min() == disc.degrees.max() == 4
    assert len(disc.edges) == 32


def test_free_sides_drop_edges():
    disc = make_disc("square", 4)
    # interior grid: 2 * n * (n-1) edges, none across the boundary
    assert len(disc.edges) == 2 * 4 * 3
    assert disc.degrees.min() == 2  # corner cells
    assert disc.degrees.max() == 4


def test_halfturn_seam_reverses_segments():
    surf = catalog.pillowcase()
    bundle = FlatUnitaryBundle.trivial(surf)
    disc = Discretization(surf, bundle, 4)
    # seam 2 glues the south sides of squares 0 and 1 by a half-turn: its
    # edges run from the bottom row of square 0 to the bottom row of
    # square 1 at the mirrored column, in both the seam table and its halo
    sides = disc.side_vertex.ravel()
    rows = slice(2 * 4, 3 * 4)
    tails = sides[disc.seam_tails[rows]]
    heads = sides[disc.seam_heads[rows]]
    south = halo(disc)[0][0, SIDES.index("S")]
    for i in range(4):
        assert disc.vertex_cell(int(tails[i])) == (0, i, 0)
        assert disc.vertex_cell(int(heads[i])) == (1, 4 - 1 - i, 0)
        assert disc.vertex_cell(int(south[i])) == (1, 4 - 1 - i, 0)


def test_doubled_edges_on_pillowcase():
    for n in (2, 3, 4, 8):
        disc = make_disc("pillowcase", n)
        assert disc.doubled_edge_count() == 4


def test_n1_torus_self_loops():
    disc = make_disc("torus", 1)
    assert disc.n_vertices == 1
    assert len(disc.edges) == 2
    assert (disc.tails == disc.heads).all()
    assert disc.degrees[0] == 4


def test_cluster_sizes_match_angles(named_surface):
    name, surf = named_surface
    bundle = FlatUnitaryBundle.trivial(surf)
    disc = Discretization(surf, bundle, 4)
    for p in disc.singular_points():
        cells, _ = p.distinct_cells()
        assert len(cells) == int(round(2 * p.angle / np.pi))


def test_lattice_points_partition_incidences(named_surface):
    # one corner point per class of square corners, and every square
    # corner in exactly one of them
    name, surf = named_surface
    for n in (1, 2, 3):
        disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), n)
        assert len(disc.corner_points) == len(surf.vertex_cycles())
        assert sum(p.quarters for p in disc.corner_points) == (
            4 * surf.n_squares)
        assert len({corner for p in disc.corner_points
                    for corner in p.corners}) == 4 * surf.n_squares


def test_singular_points_match_surface_census(named_surface):
    # the corner table's singular classes are the surface's cone points
    # and boundary corners at every level, n = 1 included
    name, surf = named_surface
    expected = sorted((c.interior, c.quarters)
                      for c in surf.vertex_cycles() if c.singular)
    for n in (1, 2, 3, 4):
        disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), n)
        found = sorted((p.interior, p.quarters)
                       for p in disc.singular_points())
        assert found == expected


def test_corner_cells_turn_counter_clockwise():
    # in the planar layout, consecutive cells around a square corner sit a
    # quarter turn apart, counter-clockwise (lshape's chains are stored
    # clockwise by the surface's corner sweep)
    for name in ("square", "rectangle2x1", "lshape"):
        for n in (1, 2, 3):
            disc = make_disc(name, n)
            layout = disc.surface.layout
            pos = disc.positions()
            for p in disc.corner_points:
                q, corner = p.corners[0]
                px, py = np.add(layout[q], CORNER_XY[corner])
                centres = [np.add(layout[int(pos[v, 0])], pos[v, 1:])
                           for v in p.cells]
                angles = [np.arctan2(y - py, x - px) for x, y in centres]
                turns = np.mod(np.diff(angles), 2 * np.pi)
                assert np.allclose(turns, np.pi / 2), (name, n, p.corners)


def test_lattice_point_count_euler(named_surface):
    # V - E + F of the subdivided complex equals the Euler characteristic
    name, surf = named_surface
    for n in (1, 2, 3):
        disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), n)
        free = len(surf.free_sides)
        # corner classes, n - 1 points inside each free side or seam, and
        # (n - 1)^2 inside each square
        v = (len(disc.corner_points) + (n - 1) * (free + len(surf.seams))
             + (n - 1) ** 2 * surf.n_squares)
        # interior grid edges, one edge per seam segment, free segments
        e = 2 * n * (n - 1) * surf.n_squares + n * len(surf.seams) + n * free
        f = n * n * surf.n_squares
        assert v - e + f == surf.euler_characteristic()


def test_cone_monodromy_trivial_for_flat_bundles():
    surf = catalog.torus()
    bundle = FlatUnitaryBundle.twisted_torus(surf, 1.1, -0.4)
    # the bundle's rule is the one monodromy check of every corner class
    assert bundle.cone_monodromy_defect() <= 1e-12
    for n in (1, 2, 4):
        disc = Discretization(surf, bundle, n)
        interior = [p for p in disc.corner_points if p.interior]
        assert interior
        for p in interior:
            for u in p.transports:
                assert np.abs(u.conj().T @ u - np.eye(1)).max() <= 1e-12


def test_pillowcase_census_all_n():
    for n in (2, 3, 4, 8):
        disc = make_disc("pillowcase", n)
        cen = disc.census()
        assert cen["n_cone_points"] == 4
        assert cen["cone_quarters"] == [2, 2, 2, 2]
        assert cen["doubled_edges"] == 4
        assert cen["degree_min"] == cen["degree_max"] == 4


def test_lshape_reflex_cluster():
    disc = make_disc("lshape", 8)
    reflex = [p for p in disc.singular_points()
              if not p.interior and p.quarters == 3]
    assert len(reflex) == 1
    cells, _ = reflex[0].distinct_cells()
    assert len(cells) == 3


def test_genus2_cluster():
    disc = make_disc("genus2", 4)
    cones = [p for p in disc.singular_points() if p.interior]
    assert len(cones) == 1
    assert cones[0].quarters == 12


def test_distance_to_singular():
    disc = make_disc("lshape", 4)
    dist = disc.distance_to_singular()
    assert dist.shape == (disc.n_vertices,)
    assert dist.min() >= 0
    # the reflex corner sits at chart position (1,1) of square 0 and at the
    # neighbouring corners of squares 1 and 2
    v = disc.vertex_index(0, 3, 3)
    assert dist[v] == pytest.approx(np.hypot(0.125, 0.125))
