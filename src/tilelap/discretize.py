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

from .surface import CORNERS, SIDES

DIR_DELTA = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}

# side through which a counter-clockwise turn around a square corner leaves
# the square; half-turn gluings preserve orientation, so a rotation that is
# counter-clockwise in one chart is counter-clockwise in every chart
CCW_EXIT = {"SW": "W", "SE": "S", "NE": "E", "NW": "N"}


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
    boundary from one free side to the other), ``transports``
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
        n = self.n
        q, rem = np.divmod(np.arange(self.n_vertices), n * n)
        j, i = np.divmod(rem, n)
        return np.stack([q, (i + 0.5) / n, (j + 0.5) / n], axis=1)

    # ---- stepping ------------------------------------------------------

    def step(self, q, i, j, direction):
        """Move one cell in chart direction ``direction``.

        Returns (q2, i2, j2, transport head->source frame, crossed_halfturn)
        or None when the step exits through a free side.
        """
        n = self.n
        di, dj = DIR_DELTA[direction]
        i2, j2 = i + di, j + dj
        if 0 <= i2 < n and 0 <= j2 < n:
            return q, i2, j2, self._eye, False
        hit = self.surface.cross(q, direction)
        if hit is None:
            return None
        q2, side2, kind, role = hit
        k = i if direction in ("N", "S") else j
        k2 = k if kind == "translation" else n - 1 - k
        i2, j2 = self._side_cell(side2, k2)
        seam, _ = self.surface.seam_at(q, direction)
        # value in the neighbour's frame, expressed in the source frame
        u = self.bundle.seam_unitary(seam.index, -role)
        return q2, i2, j2, u, kind == "halfturn"

    # ---- edges ---------------------------------------------------------

    def _build_edges(self):
        """Edge arrays ``tails``, ``heads``, ``transports`` and the halo.

        Interior edges come first, in (square, row, column, east-then-north)
        order, then n edges per seam.  The stack holds one head -> tail
        frame transport per edge; it is real when every seam unitary is.

        The seam halo describes what each square sees across its sides:
        ``halo_vertex[q, s, k]`` is the cell across segment k of side
        ``SIDES[s]`` of square q (-1 on a free side) and
        ``halo_transport[q, s, k]`` maps that cell's frame into q's frame.
        The first side of a seam sees its edges' heads through the stack
        entries, the second side their tails through the adjoints, at the
        mirrored segment for a half-turn.
        """
        n, rank = self.n, self.bundle.rank
        self._eye = np.eye(rank, dtype=complex)
        v = np.arange(self.n_vertices).reshape(-1, n, n)  # [square, j, i]
        jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        keep = np.broadcast_to(np.stack([ii + 1 < n, jj + 1 < n], axis=-1),
                               v.shape + (2,))
        tails = [np.stack([v, v], axis=-1)[keep]]
        heads = [np.stack([v + 1, v + n], axis=-1)[keep]]
        blocks = [np.broadcast_to(np.eye(rank), (len(tails[0]), rank, rank))]
        for seam in self.surface.seams:
            qa, sa = seam.first
            for k in range(n):
                cell = self._side_cell(sa, k)
                qb, ib, jb, u, _ = self.step(qa, *cell, sa)
                tails.append([self.vertex_index(qa, *cell)])
                heads.append([self.vertex_index(qb, ib, jb)])
                blocks.append(u[None])
        self._n_interior_edges = len(tails[0])
        self.tails = np.concatenate(tails)
        self.heads = np.concatenate(heads)
        stack = np.concatenate(blocks)
        self.transports = stack if stack.imag.any() else stack.real.copy()
        self.degrees = (np.bincount(self.tails, minlength=self.n_vertices)
                        + np.bincount(self.heads, minlength=self.n_vertices))

        shape = (self.surface.n_squares, len(SIDES), n)
        self.halo_vertex = np.full(shape, -1)
        self.halo_transport = np.zeros(shape + (rank, rank),
                                       self.transports.dtype)
        for seam in self.surface.seams:
            e = slice(self._n_interior_edges + seam.index * n,
                      self._n_interior_edges + (seam.index + 1) * n)
            (qa, sa), (qb, sb) = seam.first, seam.second
            k = slice(None) if seam.kind == "translation" else slice(None,
                                                                     None, -1)
            a, b = (qa, SIDES.index(sa)), (qb, SIDES.index(sb))
            self.halo_vertex[a] = self.heads[e]
            self.halo_transport[a] = self.transports[e]
            self.halo_vertex[b + (k,)] = self.tails[e]
            self.halo_transport[b + (k,)] = (
                self.transports[e].conj().swapaxes(1, 2))

    @cached_property
    def edges(self):
        """Edge records, one per entry of the edge arrays."""
        return [Edge(t, h, u, k >= self._n_interior_edges)
                for k, (t, h, u) in enumerate(zip(
                    self.tails.tolist(), self.heads.tolist(),
                    self.transports))]

    def _side_cell(self, side, k):
        """Cell adjacent to the given side at segment k, in-chart coords."""
        n = self.n
        if side == "S":
            return k, 0
        if side == "N":
            return k, n - 1
        if side == "W":
            return 0, k
        return n - 1, k

    def _side_point(self, side, k):
        """Lattice coordinates of point k along the given side."""
        n = self.n
        return {"S": (k, 0), "N": (k, n), "W": (0, k), "E": (n, k)}[side]

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
        seams = self.surface.seams

        def crossing(idx, role):  # cell across -> current cell frame
            return self.bundle.seam_unitary(idx, -role)

        points = []
        for cycle in self.surface.vertex_cycles():
            ring, links = list(cycle.corners), list(cycle.seam_steps)
            m = len(ring)
            if links:
                idx, role = links[0]
                exit_side = (seams[idx].first if role == +1
                             else seams[idx].second)[1]
                if exit_side != CCW_EXIT[ring[0][1]]:  # clockwise: reverse
                    ring = ring[::-1]
                    if cycle.interior:  # keep the link ring[-1] -> ring[0]
                        ring = ring[-1:] + ring[:-1]
                    links = [(idx, -role) for idx, role in links[::-1]]
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

    def lattice_points(self):
        """All identified lattice points of the subdivided complex: the
        corner table, then the points inside sides, then those inside
        squares.  Only corner points can be singular."""
        n, eye = self.n, self._eye
        points = list(self.corner_points)
        sides = [(q, s) for q in range(self.surface.n_squares) for s in SIDES
                 if self.surface.is_free(q, s)]
        sides += [seam.first for seam in self.surface.seams]
        for q, side in sides:
            halo = (q, SIDES.index(side))
            for k in range(1, n):
                # counter-clockwise: the cells of q, then those across
                own = [self.vertex_index(q, *self._side_cell(side, k - 1)),
                       self.vertex_index(q, *self._side_cell(side, k))]
                ks = [k - 1, k]
                if side in ("S", "E"):
                    own.reverse()
                    ks.reverse()
                members = [(q,) + self._side_point(side, k)]
                if self.halo_vertex[halo][0] < 0:
                    points.append(LatticePoint(members, own, [eye, eye],
                                               False, 2, 0.0))
                    continue
                seam, _ = self.surface.seam_at(q, side)
                q2, side2 = seam.second
                k2 = k if seam.kind == "translation" else n - k
                members.append((q2,) + self._side_point(side2, k2))
                across = [self.halo_transport[halo][kk] for kk in ks[::-1]]
                defect = float(np.max(np.abs(
                    across[0] @ across[1].conj().T - eye)))
                points.append(LatticePoint(
                    members, own + [int(self.halo_vertex[halo][kk])
                                    for kk in ks[::-1]],
                    [eye, eye] + across, True, 4, defect))
        for q in range(self.surface.n_squares):
            for b in range(1, n):
                for a in range(1, n):
                    cells = [self.vertex_index(q, i, j) for i, j in
                             ((a, b), (a - 1, b), (a - 1, b - 1), (a, b - 1))]
                    points.append(LatticePoint([(q, a, b)], cells, [eye] * 4,
                                               True, 4, 0.0))
        return points

    def singular_points(self):
        """Cone points and boundary corners at this subdivision level.

        For n >= 2 these coincide with the singular points of the surface;
        the incident-cell lists are the clusters V_n(P).
        """
        return [p for p in self.corner_points if p.singular]

    def cone_points(self):
        return [p for p in self.singular_points() if p.interior]

    def cluster_sizes(self):
        """Map from singular point index to the number of distinct incident
        cells (equal to 2 * angle / pi for n >= 2)."""
        return [len(p.distinct_cells()[0]) for p in self.singular_points()]

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
