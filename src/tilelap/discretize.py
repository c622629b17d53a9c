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

from .surface import CORNERS, SIDES, facing


@dataclass
class Edge:
    tail: int
    head: int
    transport: np.ndarray  # maps head frame -> tail frame
    crosses_seam: bool


@dataclass
class LatticePoint:
    """One identified lattice point of the subdivided complex.

    ``cells`` lists the incident cell vertices in counter-clockwise order
    (with repetitions for cells wrapping around a low-angle cone; on the
    boundary from the free clockwise side to the other), ``transports``
    the parallel transports from each listed cell's frame into the frame of
    ``cells[0]``.  ``quarters`` counts incident cell corners, so the total
    angle at the point is quarters * pi / 2.
    """

    members: list  # distinct (square, a, b) lattice coordinates
    cells: list
    transports: list
    interior: bool
    quarters: int
    monodromy_defect: float

    @property
    def angle(self):
        return self.quarters * (np.pi / 2)

    @property
    def singular(self):
        return self.quarters != (4 if self.interior else 2)

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
        """The seam halo, then the edge arrays ``tails``, ``heads`` and
        ``transports``.

        The seam halo describes what each square sees across its sides:
        ``halo_vertex[q, s, k]`` is the cell across segment k of side
        ``SIDES[s]`` of square q (-1 on a free side) and
        ``halo_transport[q, s, k]`` maps that cell's frame into q's frame.
        Both are read from :meth:`SquareTiledSurface.across`.

        Interior edges come first, in (square, row, column, east-then-north)
        order, then the n edges of each seam, read off the halo of its first
        side.  The stack holds one head -> tail frame transport per edge; it
        is real when every seam unitary is.
        """
        n, rank = self.n, self.bundle.rank
        n_squares = self.surface.n_squares
        self._eye = np.eye(rank, dtype=complex)
        k = np.arange(n)
        # cell of a square next to segment k of each side, N E S W
        side_cells = np.stack([(n - 1) * n + k, k * n + n - 1, k, k * n])
        shape = (n_squares, len(SIDES), n)
        self.halo_vertex = np.full(shape, -1)
        halo = np.zeros(shape + (rank, rank), complex)
        for q in range(n_squares):
            for s, side in enumerate(SIDES):
                hit = self.surface.across(q, side)
                if hit is None:
                    continue
                q2, side2, index, role, flip = hit
                self.halo_vertex[q, s] = q2 * n * n + facing(
                    side_cells[SIDES.index(side2)], flip)
                halo[q, s] = self.bundle.seam_unitary(index, -role)
        self.halo_transport = halo if halo.imag.any() else halo.real.copy()

        v = np.arange(self.n_vertices).reshape(-1, n, n)  # [square, j, i]
        jj, ii = np.meshgrid(k, k, indexing="ij")
        keep = np.broadcast_to(np.stack([ii + 1 < n, jj + 1 < n], axis=-1),
                               v.shape + (2,))
        # each seam's first side: square and side index
        fq, fs = np.array([(q, SIDES.index(side)) for q, side in
                           (seam.first for seam in self.surface.seams)],
                          dtype=int).reshape(-1, 2).T
        self.tails = np.concatenate([np.stack([v, v], axis=-1)[keep],
                                     (fq[:, None] * n * n
                                      + side_cells[fs]).ravel()])
        self.heads = np.concatenate([np.stack([v + 1, v + n], axis=-1)[keep],
                                     self.halo_vertex[fq, fs].ravel()])
        self._n_interior_edges = int(np.count_nonzero(keep))
        self.transports = np.concatenate([
            np.broadcast_to(np.eye(rank), (self._n_interior_edges, rank,
                                           rank)),
            self.halo_transport[fq, fs].reshape(-1, rank, rank)])
        self.degrees = (np.bincount(self.tails, minlength=self.n_vertices)
                        + np.bincount(self.heads, minlength=self.n_vertices))

    @cached_property
    def edges(self):
        """Edge records, one per entry of the edge arrays."""
        return [Edge(t, h, u, k >= self._n_interior_edges)
                for k, (t, h, u) in enumerate(zip(
                    self.tails.tolist(), self.heads.tolist(),
                    self.transports))]

    def doubled_edge_count(self):
        """Number of vertex pairs joined by more than one edge."""
        loop = self.tails == self.heads
        pairs = np.sort(np.stack([self.tails, self.heads], axis=1)[~loop],
                        axis=1)
        _, counts = np.unique(pairs, axis=0, return_counts=True)
        return int(np.count_nonzero(counts > 1))

    # ---- lattice points ------------------------------------------------

    @property
    def corner_points(self):
        """Corner table: one :class:`LatticePoint` per class of square
        corners (``surface.vertex_cycles()``), the only lattice points that
        can be singular.

        Classes are ordered by their first incidence in (square, row,
        column, SW/SE/NE/NW) scan order; an interior class lists its cells
        counter-clockwise from that incidence, a boundary class from one
        free side to the other.  Transports compose the seam unitaries
        along the cycle.
        """
        return self._corner_table[0]

    @property
    def corner_slots(self):
        """Map (square, corner) -> (corner point, position in its cells)."""
        return self._corner_table[1]

    @cached_property
    def _corner_table(self):
        n = self.n
        cell_of = {"SW": (0, 0), "SE": (n - 1, 0), "NE": (n - 1, n - 1),
                   "NW": (0, n - 1)}
        point_of = {"SW": (0, 0), "SE": (n, 0), "NE": (n, n), "NW": (0, n)}

        def crossing(idx, role):  # cell across -> current cell frame
            return self.bundle.seam_unitary(idx, -role)

        points = []
        for cycle in self.surface.vertex_cycles():
            ring, links = cycle.corners, cycle.seam_steps
            m = len(ring)
            keys = [(q, cell_of[c][1], cell_of[c][0], CORNERS.index(c))
                    for q, c in ring]
            start = keys.index(min(keys))
            if cycle.interior:
                ring = ring[start:] + ring[:start]
                links = links[start:] + links[:start]
                start = 0
            # transports into the start cell's frame, walked both ways
            trans = [None] * m
            trans[start] = self._eye
            for k in range(start + 1, m):
                trans[k] = trans[k - 1] @ crossing(*links[k - 1])
            for k in range(start - 1, -1, -1):
                idx, role = links[k]
                trans[k] = trans[k + 1] @ crossing(idx, -role)
            defect = 0.0
            if cycle.interior:
                loop = trans[-1] @ crossing(*links[-1])
                defect = float(np.max(np.abs(loop - self._eye)))
            base_inv = trans[0].conj().T
            points.append((min(keys), LatticePoint(
                [(q,) + point_of[c] for q, c in ring],
                [self.vertex_index(q, *cell_of[c]) for q, c in ring],
                [base_inv @ t for t in trans], cycle.interior, m, defect),
                ring))
        points.sort(key=lambda entry: entry[0])
        slots = {corner: (point, k) for _, point, ring in points
                 for k, corner in enumerate(ring)}
        return [point for _, point, _ in points], slots

    def singular_points(self):
        """Cone points and boundary corners at this subdivision level.

        For n >= 2 these coincide with the singular points of the surface;
        the incident-cell lists are the clusters V_n(P).
        """
        return [p for p in self.corner_points if p.singular]

    def cone_points(self):
        return [p for p in self.singular_points() if p.interior]

    # ---- metric helpers ------------------------------------------------

    def singular_chart_positions(self):
        """Chart positions {square: [(x, y), ...]} of all singular points."""
        out = {}
        for p in self.singular_points():
            for (q, a, b) in p.members:
                out.setdefault(q, []).append((a / self.n, b / self.n))
        return out

    def distance_to_singular(self):
        """Per-vertex chart distance to the nearest singular point.

        The distance is measured inside the vertex's own square, which is
        exact whenever the nearest singular point lies on that square's
        closure (every singular point is recorded in each incident chart).
        """
        n = self.n
        out = np.full((self.surface.n_squares, n, n), np.inf)  # [q, j, i]
        centres = (np.arange(n) + 0.5) / n
        for q, pts in self.singular_chart_positions().items():
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
