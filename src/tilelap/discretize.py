"""Nearest-neighbour discretization of a square-tiled surface.

Each unit square is cut into n x n cells; the graph vertices are the cell
centres ((i + 1/2)/n, (j + 1/2)/n) and edges join cells sharing a side,
including sides identified through seams.  Edges crossing a seam carry the
seam's bundle transport; free sides contribute no edge, which encodes the
natural (Neumann) boundary condition.  Two cells meeting along two distinct
sides - which happens next to interior cone points of angle pi - are joined
by two parallel edges.

Vertices are ordered square-major, then row (j), then column (i).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .surface import CORNER_XY, CORNERS, SIDES, VertexCycle


@dataclass
class LatticePoint(VertexCycle):
    """One corner class of the subdivided complex: a vertex cycle of the
    surface, with its corners laid on the mesh.

    ``cells[k]`` is the cell vertex at ``corners[k]`` = (q, c), chart
    position ``CORNER_XY[c]`` of square q (a cell recurs when it wraps a
    low-angle cone, or at n = 1), and ``transports[k]`` the parallel
    transport from its frame into the frame of ``cells[0]``.
    """

    cells: list
    transports: list

    def distinct_cells(self):
        seen = []
        trans = []
        for v, u in zip(self.cells, self.transports):
            if v not in seen:
                seen.append(v)
                trans.append(u)
        return seen, trans


class Discretization:
    def __init__(self, surface, bundle, n):
        if n < 1:
            raise ValueError("subdivision must be >= 1")
        if bundle.surface is not surface:
            raise ValueError("bundle was built for a different surface")
        self.surface = surface
        self.bundle = bundle
        self.n = n
        self.n_vertices = surface.n_squares * n * n
        self._build_edges()

    # ---- indexing ------------------------------------------------------

    def vertex_index(self, q, i, j):
        n = self.n
        return q * n * n + j * n + i

    def vertex_cell(self, v):
        n = self.n
        q, rem = divmod(v, n * n)
        j, i = divmod(rem, n)
        return q, i, j

    def positions(self):
        """(n_vertices, 3) array of (square, x, y) chart coordinates."""
        q, i, j = self.vertex_cell(np.arange(self.n_vertices))
        return np.stack([q, (i + 0.5) / self.n, (j + 0.5) / self.n], axis=1)

    # ---- edges ---------------------------------------------------------

    def _build_edges(self):
        """The side cells and the seam table, then the edge arrays
        ``tails``, ``heads`` and ``transports``.

        ``side_vertex[q, s, k]`` is square q's own cell at segment k of side
        ``SIDES[s]``.  The seam table lists the n edges of each seam, seam
        by seam, in segment order of its first side: ``seam_tails`` and
        ``seam_heads`` are flat indices into ``side_vertex`` of the edge's
        cell on the first side and of the cell it faces on the second (in
        reversed segment order across a half-turn), ``seam_transports``
        the head -> tail transport, the adjoint of the seam's unitary.

        Interior edges come first, in (square, row, column, east-then-north)
        order, then the seam edges of the table.  The stack holds one
        head -> tail frame transport per edge; it is real when every seam
        unitary is.
        """
        n, rank = self.n, self.bundle.rank
        v = np.arange(self.n_vertices).reshape(-1, n, n)  # [square, j, i]
        self.side_vertex = np.stack([v[:, -1], v[:, 0], v[:, :, -1],
                                     v[:, :, 0]], axis=1)
        # per seam: square and side index of its first and second side,
        # and whether it is a half-turn
        q, s, q2, s2, flip = np.array(
            [(seam.first[0], SIDES.index(seam.first[1]), seam.second[0],
              SIDES.index(seam.second[1]), seam.kind == "halfturn")
             for seam in self.surface.seams], dtype=int).reshape(-1, 5).T
        k = np.arange(n)
        self.seam_tails = (((q * 4 + s) * n)[:, None] + k).ravel()
        self.seam_heads = (((q2 * 4 + s2) * n)[:, None]
                           + np.where(flip[:, None], n - 1 - k, k)).ravel()
        u = np.array(self.bundle.transports, complex).reshape(-1, rank, rank)
        u = np.repeat(u.conj().transpose(0, 2, 1), n, axis=0)
        self.seam_transports = u if u.imag.any() else u.real.copy()

        jj, ii = np.indices((n, n))
        keep = np.broadcast_to(np.stack([ii + 1 < n, jj + 1 < n], axis=-1),
                               v.shape + (2,))
        sides = self.side_vertex.ravel()
        self.tails = np.concatenate([np.stack([v, v], axis=-1)[keep],
                                     sides[self.seam_tails]])
        self.heads = np.concatenate([np.stack([v + 1, v + n], axis=-1)[keep],
                                     sides[self.seam_heads]])
        self.transports = np.concatenate([
            np.broadcast_to(np.eye(rank), (np.count_nonzero(keep), rank,
                                           rank)),
            self.seam_transports])
        self.degrees = (np.bincount(self.tails, minlength=self.n_vertices)
                        + np.bincount(self.heads, minlength=self.n_vertices))

    @property
    def edges(self):
        """(m, 2) array of the edges' (tail, head) vertices."""
        return np.stack([self.tails, self.heads], axis=1)

    def doubled_edge_count(self):
        """Number of vertex pairs joined by more than one edge."""
        loop = self.tails == self.heads
        pairs = np.sort(self.edges[~loop], axis=1)
        _, counts = np.unique(pairs, axis=0, return_counts=True)
        return int(np.count_nonzero(counts > 1))

    # ---- lattice points ------------------------------------------------

    @cached_property
    def corner_points(self):
        """Corner table: one :class:`LatticePoint` per class of square
        corners (``surface.vertex_cycles()``), the only lattice points that
        can be singular.

        Classes are ordered by their first incidence in (square, row,
        column, SW/SE/NE/NW) scan order; an interior class lists its cells
        counter-clockwise from that incidence, a boundary class from one
        free side to the other.  The transport of the k-th cell is the
        inverse monodromy of the cycle's first k steps.
        """
        n = self.n

        def cell(q, c):
            x, y = CORNER_XY[c]
            return self.vertex_index(q, (n - 1) * x, (n - 1) * y)

        points = []
        for cycle in self.surface.vertex_cycles():
            ring, links = cycle.corners, cycle.seam_steps
            # vertex order is (square, row, column) order
            keys = [(cell(q, c), CORNERS.index(c)) for q, c in ring]
            if cycle.interior:
                start = keys.index(min(keys))
                ring = ring[start:] + ring[:start]
                links = links[start:] + links[:start]
            points.append((min(keys), LatticePoint(
                ring, links, cycle.interior, [cell(q, c) for q, c in ring],
                [self.bundle.monodromy(links[:k]).conj().T
                 for k in range(len(ring))])))
        points.sort(key=lambda entry: entry[0])
        return [point for _, point in points]

    def singular_points(self):
        """Cone points and boundary corners at this subdivision level.

        For n >= 2 these coincide with the singular points of the surface;
        the incident-cell lists are the clusters V_n(P).
        """
        return [p for p in self.corner_points if p.singular]

    # ---- metric helpers ------------------------------------------------

    def distance_to_singular(self):
        """Per-vertex chart distance to the nearest singular point.

        The distance is measured inside the vertex's own square, which is
        exact whenever the nearest singular point lies on that square's
        closure (every singular point is recorded in each incident chart).
        """
        n = self.n
        out = np.full((self.surface.n_squares, n, n), np.inf)  # [q, j, i]
        centres = (np.arange(n) + 0.5) / n
        charts = {}  # square -> chart positions of its singular points
        for p in self.singular_points():
            for q, c in p.corners:
                charts.setdefault(q, []).append(CORNER_XY[c])
        for q, pts in charts.items():
            px, py = np.array(pts).T
            out[q] = np.hypot(centres[None, :, None] - px,
                              centres[:, None, None] - py).min(axis=-1)
        return out.ravel()

    # ---- census --------------------------------------------------------

    def census(self):
        """Structural summary used by validation reports and tests."""
        pts = self.singular_points()
        cones = [p for p in pts if p.interior]
        corners = [p for p in pts if not p.interior]
        return {
            "n_vertices": self.n_vertices,
            "n_edges": len(self.tails),
            "degree_min": int(self.degrees.min()),
            "degree_max": int(self.degrees.max()),
            "n_cone_points": len(cones),
            "cone_quarters": sorted(p.quarters for p in cones),
            "n_boundary_corners": len(corners),
            "corner_quarters": sorted(p.quarters for p in corners),
            "doubled_edges": self.doubled_edge_count(),
        }
