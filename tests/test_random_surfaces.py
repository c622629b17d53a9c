"""Seeded random square-tiled surfaces against independent oracles."""

import numpy as np
import pytest

from tilelap import catalog, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization
from tilelap.surface import (CCW_EXIT, OPPOSITE, SIDE_ENDS, SIDES,
                             SquareTiledSurface)

from conftest import halo, random_unitary

SEEDS = range(200)


def random_surface(rng):
    """1-5 unit squares.  Sides are visited in random order; each stays
    free with probability 0.15, otherwise it is glued to a random unused
    side: by a translation to an opposite label or by a half-turn to the
    same label (free when no such side is left)."""
    m = int(rng.integers(1, 6))
    # this listing order fixes which surface each seed draws
    sides = [(q, s) for q in range(m) for s in "NESW"]
    used, gluings = set(), []
    for idx in rng.permutation(len(sides)):
        a = sides[idx]
        if a in used:
            continue
        used.add(a)
        if rng.random() < 0.15:
            continue
        kind = "halfturn" if rng.random() < 0.3 else "translation"
        want = a[1] if kind == "halfturn" else OPPOSITE[a[1]]
        options = [b for b in sides if b not in used and b[1] == want]
        if options:
            b = options[rng.integers(len(options))]
            used.add(b)
            gluings.append((a, b, kind))
    return SquareTiledSurface(m, gluings)


def corner_classes(surface):
    """{class of square corners: interior?} by union-find over side ends.

    A seam glues end e of its first side to end e of its second side, or
    to end 1 - e for a half-turn.  A class is on the boundary when one of
    its corners lies on a free side.
    """
    parent = {(q, c): (q, c) for q in range(surface.n_squares)
              for c in ("SW", "SE", "NE", "NW")}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for seam in surface.seams:
        (q, s), (q2, s2) = seam.first, seam.second
        flip = int(seam.kind == "halfturn")
        for e in (0, 1):
            parent[find((q, SIDE_ENDS[s][e]))] = find(
                (q2, SIDE_ENDS[s2][e ^ flip]))
    classes = {}
    for x in parent:
        classes.setdefault(find(x), set()).add(x)
    free = set(surface.free_sides)
    return {frozenset(c): not any((q, side) in free for q, corner in c
                                  for side in corner)
            for c in classes.values()}


def side_cell(n, q, side, k):
    """Vertex of the cell of square q next to segment k of ``side``."""
    i, j = {"N": (k, n - 1), "E": (n - 1, k), "S": (k, 0),
            "W": (0, k)}[side]
    return q * n * n + j * n + i


@pytest.mark.parametrize("block", range(4))
def test_vertex_cycles_match_union_find(block):
    for seed in SEEDS[block::4]:
        surface = random_surface(np.random.default_rng(seed))
        cycles = surface.vertex_cycles()
        found = {frozenset(c.corners): c.interior for c in cycles}
        assert found == corner_classes(surface), seed
        for c in cycles:
            assert len(set(c.corners)) == c.quarters
            assert len(c.seam_steps) == c.quarters - (not c.interior)
        assert surface.gauss_bonnet_defect() == pytest.approx(0.0,
                                                               abs=1e-12)


@pytest.mark.parametrize("block", range(4))
def test_halo_is_an_involution(block):
    # the seam table, and the halo read from it: each seam edge joins
    # segment k of the first side to segment k of the second, or n - 1 - k
    # across a half-turn, with the adjoint of the seam unitary (second ->
    # first) as its transport; what lies across the far side is the near
    # side again, and the two transports multiply to I (so are unitary)
    for seed in SEEDS[block::4]:
        rng = np.random.default_rng(seed)
        surface = random_surface(rng)
        rank = int(rng.integers(1, 3))
        bundle = FlatUnitaryBundle(surface, rank, {
            seam.index: random_unitary(rng, rank) for seam in surface.seams})
        partner = {}
        for seam in surface.seams:
            flip = seam.kind == "halfturn"
            partner[seam.first] = seam.second, flip, seam.index, -1
            partner[seam.second] = seam.first, flip, seam.index, +1
        for n in (1, 2, 3):
            disc = Discretization(surface, bundle, n)
            cells, transports = halo(disc)
            for q in range(surface.n_squares):
                for s, side in enumerate(SIDES):
                    assert disc.side_vertex[q, s].tolist() == [
                        side_cell(n, q, side, k) for k in range(n)]
                    if (q, side) not in partner:
                        assert (cells[q, s] == -1).all()
                        continue
                    (q2, side2), flip, index, back = partner[q, side]
                    s2 = SIDES.index(side2)
                    for k in range(n):
                        k2 = n - 1 - k if flip else k
                        assert cells[q, s, k] == side_cell(n, q2, side2,
                                                           k2), seed
                        assert cells[q2, s2, k2] == side_cell(n, q, side, k)
                        u = transports[q, s, k]
                        assert np.allclose(u, bundle.seam_unitary(index,
                                                                  back))
                        assert np.allclose(u @ transports[q2, s2, k2],
                                           np.eye(rank), atol=1e-14)
            # the table goes seam by seam; after the 2n(n - 1) interior
            # edges per square, the edges of the mesh are its rows
            sides = disc.side_vertex.ravel()
            first = sides[disc.seam_tails].reshape(-1, n)
            second = sides[disc.seam_heads].reshape(-1, n)
            inner = 2 * n * (n - 1) * surface.n_squares
            assert disc.tails[inner:].tolist() == first.ravel().tolist()
            assert disc.heads[inner:].tolist() == second.ravel().tolist()
            assert np.array_equal(disc.transports[inner:],
                                  disc.seam_transports)
            for seam in surface.seams:
                k = np.arange(n)
                k2 = k[::-1] if seam.kind == "halfturn" else k
                assert first[seam.index].tolist() == [
                    side_cell(n, *seam.first, kk) for kk in k]
                assert second[seam.index].tolist() == [
                    side_cell(n, *seam.second, kk) for kk in k2]


@pytest.mark.parametrize("block", range(4))
def test_corner_table_matches_halo(block):
    # each counter-clockwise step of a corner point crosses the side its
    # corner leaves by: the halo's cell at that corner, read from the seam
    # table, is the next cell, and the halo's transport the relative
    # transport of the two cells; the bundles need not be flat for either
    for seed in SEEDS[block::4]:
        rng = np.random.default_rng(seed)
        surface = random_surface(rng)
        rank = int(rng.integers(1, 3))
        bundle = FlatUnitaryBundle(surface, rank, {
            seam.index: random_unitary(rng, rank) for seam in surface.seams})
        for n in (1, 2, 3):
            disc = Discretization(surface, bundle, n)
            cells, transports = halo(disc)
            for point in disc.corner_points:
                for k in range(point.quarters - 1):
                    q, corner = point.corners[k]
                    side = CCW_EXIT[corner]
                    at = (q, SIDES.index(side),
                          (n - 1) * SIDE_ENDS[side].index(corner))
                    assert cells[at] == point.cells[k + 1], seed
                    assert np.allclose(
                        transports[at],
                        point.transports[k].conj().T
                        @ point.transports[k + 1], atol=1e-14), seed


def origami_cover(rng):
    """A translation origami of S = 1-5 squares from random permutations
    r, u: (q, E) glued to (r(q), W) and (q, N) to (u(q), S); and the
    one-square torus with the rank-S bundle of permutation matrices
    P(r), P(u) across its E-W and N-S seams.  The origami's mesh is an
    unbranched cover of the torus grid, so the two Laplacians have one
    spectrum (Sunada, Ann. Math. 121, 1985)."""
    squares = int(rng.integers(1, 6))
    perm = {"E": rng.permutation(squares), "N": rng.permutation(squares)}
    origami = SquareTiledSurface(squares, [
        ((q, side), (int(perm[side][q]), OPPOSITE[side]), "translation")
        for side in ("E", "N") for q in range(squares)])
    torus = catalog.torus()
    bundle = FlatUnitaryBundle(torus, squares, {
        seam.index: np.eye(squares)[:, perm[seam.first[1]]]
        for seam in torus.seams})
    return FlatUnitaryBundle.trivial(origami), bundle


@pytest.mark.parametrize("n", [2, 3])
def test_origami_spectrum_is_its_torus_bundle_lapack(n):
    # the LAPACK route, all but one pair of the spectrum
    for seed in SEEDS[:30]:
        sides = []
        for bundle in origami_cover(np.random.default_rng(seed)):
            disc = Discretization(bundle.surface, bundle, n)
            sides.append(spectral.mesh_eigenpairs(
                disc, disc.n_vertices * bundle.rank - 1)[0])
        assert np.abs(sides[0] - sides[1]).max() <= 1e-12, seed


@pytest.mark.parametrize("n", [6, 7, 8])
def test_origami_spectrum_is_its_torus_bundle_lanczos(n, lanczos_runs):
    # the Lanczos route: many seam end groups in K on the origami side, a
    # rank-S K on the torus side, and repeated values, up to 4 S-fold
    for seed in SEEDS[n::10]:
        sides = []
        for bundle in origami_cover(np.random.default_rng(seed)):
            runs = len(lanczos_runs)
            disc = Discretization(bundle.surface, bundle, n)
            sides.append(spectral.mesh_eigenpairs(disc, 8)[0])
            assert len(lanczos_runs) > runs, seed
        assert np.abs(sides[0] - sides[1]).max() <= 1e-10 * sides[0][-1], \
            seed
