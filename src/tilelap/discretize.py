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

DIR_DELTA = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}
DIR_FLIP = {"N": "S", "S": "N", "E": "W", "W": "E"}

# counter-clockwise rotation around a lattice point: the vertex sits at the
# given corner of the current cell; step in the given chart direction and
# the vertex is then found at the new corner of the new cell.
CCW_ROT = {"SW": ("W", "SE"), "SE": ("S", "NE"),
           "NE": ("E", "NW"), "NW": ("N", "SW")}
CW_ROT = {"SE": ("E", "SW"), "NE": ("N", "SE"),
          "NW": ("W", "NE"), "SW": ("S", "NW")}

# lattice coordinates of a cell corner relative to the cell (i, j)
CORNER_OFFSET = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}


@dataclass
class Edge:
    tail: int
    head: int
    transport: np.ndarray  # maps head frame -> tail frame
    crosses_seam: bool


@dataclass
class LatticePoint:
    """One identified lattice point of the subdivided complex.

    ``cells`` lists the incident cell vertices in rotational order (with
    repetitions for cells wrapping around a low-angle cone), ``transports``
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


class Walker:
    """Tracks a position in the mesh while crossing seams.

    Directions passed to :meth:`move` are expressed in the chart of the
    starting square; half-turn crossings flip the chart, which the walker
    accounts for internally.  ``transport`` maps the current cell's frame
    back into the starting square's frame.
    """

    def __init__(self, disc, q, i, j):
        self.disc = disc
        self.q, self.i, self.j = q, i, j
        self.flipped = False
        self.transport = np.eye(disc.bundle.rank, dtype=complex)

    def move(self, direction):
        """Step one cell in the given (logical) direction.

        Returns True on success, False when the step leaves the surface
        through a free side.
        """
        d = DIR_FLIP[direction] if self.flipped else direction
        res = self.disc.step(self.q, self.i, self.j, d)
        if res is None:
            return False
        self.q, self.i, self.j, u, crossed_halfturn = res
        self.transport = self.transport @ u
        if crossed_halfturn:
            self.flipped = not self.flipped
        return True

    @property
    def vertex(self):
        return self.disc.vertex_index(self.q, self.i, self.j)


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
        self._lattice_points = None

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
        out = np.empty((self.n_vertices, 3))
        for v in range(self.n_vertices):
            q, i, j = self.vertex_cell(v)
            out[v] = (q, (i + 0.5) / n, (j + 0.5) / n)
        return out

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
        """Edge arrays: ``tails``, ``heads`` and the ``transports`` stack.

        Interior edges come first, in (square, row, column, east-then-north)
        order, then n edges per seam.  The stack holds one head -> tail
        frame transport per edge; it is real when every seam unitary is.
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

    def doubled_edge_count(self):
        """Number of vertex pairs joined by more than one edge."""
        loop = self.tails == self.heads
        pairs = np.sort(np.stack([self.tails, self.heads], axis=1)[~loop],
                        axis=1)
        _, counts = np.unique(pairs, axis=0, return_counts=True)
        return int(np.count_nonzero(counts > 1))

    # ---- lattice points ------------------------------------------------

    def _rotate(self, q, i, j, corner):
        """Sweep around the lattice point at the given cell corner.

        Returns (incidences, transports, interior, monodromy_defect) where
        incidences is the rotationally ordered list of (q, i, j, corner).
        """
        start = (q, i, j, corner)
        incidences = [start]
        walker = Walker(self, q, i, j)
        transports = [walker.transport]
        cur_corner = corner
        interior = True
        defect = 0.0
        while True:
            d, nxt_corner = CCW_ROT[cur_corner]
            if not walker.move(d):
                interior = False
                break
            cur_corner = nxt_corner
            inc = (walker.q, walker.i, walker.j,
                   self._logical_to_chart_corner(cur_corner, walker.flipped))
            if inc == start:
                defect = float(np.max(np.abs(walker.transport - self._eye)))
                break
            incidences.append(inc)
            transports.append(walker.transport)
            if len(incidences) > 8 * self.n_vertices:  # pragma: no cover
                raise RuntimeError("rotation failed to close")
        if interior:
            return incidences, transports, True, defect
        # boundary point: sweep clockwise from the start to find the rest
        walker = Walker(self, q, i, j)
        cur_corner = corner
        pre_inc = []
        pre_trans = []
        while True:
            d, nxt_corner = CW_ROT[cur_corner]
            if not walker.move(d):
                break
            cur_corner = nxt_corner
            inc = (walker.q, walker.i, walker.j,
                   self._logical_to_chart_corner(cur_corner, walker.flipped))
            pre_inc.append(inc)
            pre_trans.append(walker.transport)
        pre_inc.reverse()
        pre_trans.reverse()
        return pre_inc + incidences, pre_trans + transports, False, 0.0

    @staticmethod
    def _logical_to_chart_corner(corner, flipped):
        if not flipped:
            return corner
        return {"SW": "NE", "NE": "SW", "SE": "NW", "NW": "SE"}[corner]

    def lattice_points(self):
        """All identified lattice points of the subdivided complex."""
        if self._lattice_points is not None:
            return self._lattice_points
        n = self.n
        seen = set()
        points = []
        for q in range(self.surface.n_squares):
            for j in range(n):
                for i in range(n):
                    for corner in CORNER_OFFSET:
                        key = (q, i, j, corner)
                        if key in seen:
                            continue
                        incs, trans, interior, defect = self._rotate(
                            q, i, j, corner)
                        seen.update(incs)
                        members = []
                        for (qq, ii, jj, cc) in incs:
                            da, db = CORNER_OFFSET[cc]
                            member = (qq, ii + da, jj + db)
                            if member not in members:
                                members.append(member)
                        cells = [self.vertex_index(qq, ii, jj)
                                 for (qq, ii, jj, _) in incs]
                        # re-base transports on the first listed cell
                        base = trans[0]
                        base_inv = base.conj().T
                        trans = [base_inv @ t for t in trans]
                        points.append(LatticePoint(
                            members, cells, trans, interior, len(incs),
                            defect))
        self._lattice_points = points
        return points

    def singular_points(self):
        """Cone points and boundary corners at this subdivision level.

        For n >= 2 these coincide with the singular points of the surface;
        the incident-cell lists are the clusters V_n(P).
        """
        return [p for p in self.lattice_points() if p.singular]

    def cone_points(self):
        return [p for p in self.lattice_points() if p.interior and p.singular]

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
        positions = self.singular_chart_positions()
        out = np.full(self.n_vertices, np.inf)
        n = self.n
        for v in range(self.n_vertices):
            q, i, j = self.vertex_cell(v)
            pts = positions.get(q)
            if not pts:
                continue
            x, y = (i + 0.5) / n, (j + 0.5) / n
            out[v] = min(np.hypot(x - px, y - py) for (px, py) in pts)
        return out

    # ---- census --------------------------------------------------------

    def census(self):
        """Structural summary used by validation reports and tests."""
        pts = self.lattice_points()
        cones = [p for p in pts if p.interior and p.singular]
        corners = [p for p in pts if not p.interior and p.singular]
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
