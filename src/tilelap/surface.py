"""Square-tiled flat surfaces described by unit squares and side gluings.

A surface is a finite set of unit squares together with a pairing of some
of their sides.  Each gluing is either a ``translation`` (z -> z + c) or a
``halfturn`` (z -> -z + c), so every chart transition is of the form
z -> +/- z + c and the glued-up object is a flat surface whose cone points
have angles that are integer multiples of pi/2.  Unglued sides are free
boundary.

Sides are labelled N, E, S, W.  A point on a side is located by the
absolute coordinate running along that side (x for horizontal sides, y for
vertical ones); a translation gluing preserves that coordinate while a
half-turn reverses it.
"""

from dataclasses import dataclass, field

import numpy as np

SIDES = ("N", "E", "S", "W")
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
HORIZONTAL = {"N", "S"}
CORNERS = ("SW", "SE", "NE", "NW")

# sides meeting at each corner of a square
CORNER_SIDES = {
    "SW": ("S", "W"),
    "SE": ("S", "E"),
    "NE": ("N", "E"),
    "NW": ("N", "W"),
}

# corner sitting at parameter 0 / parameter 1 of each side (absolute
# coordinate: x for N and S, y for E and W)
SIDE_ENDS = {
    "S": ("SW", "SE"),
    "N": ("NW", "NE"),
    "W": ("SW", "NW"),
    "E": ("SE", "NE"),
}


class SurfaceFormatError(ValueError):
    """Raised when a surface description is malformed or inconsistent."""


@dataclass(frozen=True)
class Seam:
    """A single gluing between two square sides."""

    index: int
    first: tuple  # (square, side)
    second: tuple  # (square, side)
    kind: str  # "translation" or "halfturn"


@dataclass
class VertexCycle:
    """A cyclically ordered list of square corners meeting at one point.

    ``corners`` lists (square, corner) pairs; ``seam_steps`` lists, for each
    consecutive corner transition, either ``(seam_index, +1)`` when the step
    crosses the seam from its first side or ``(seam_index, -1)`` when it
    crosses from the second side.  For boundary cycles the two ends are on
    free sides and there is one fewer step than corners.
    """

    corners: list
    seam_steps: list
    interior: bool

    @property
    def quarters(self):
        return len(self.corners)

    @property
    def angle(self):
        """Total angle at this point, in radians."""
        return self.quarters * (np.pi / 2)

    @property
    def singular(self):
        if self.interior:
            return self.quarters != 4
        return self.quarters != 2


class SquareTiledSurface:
    """A collection of unit squares with translation/half-turn gluings."""

    def __init__(self, n_squares, gluings, layout=None):
        """``gluings`` is a list of ((sq, side), (sq, side), kind) triples.

        ``layout`` may optionally give planar chart offsets {square: (ox, oy)}
        for surfaces that embed in the plane (used by reference functions);
        it does not affect the intrinsic geometry.
        """
        if n_squares < 1:
            raise SurfaceFormatError("need at least one square")
        self.n_squares = n_squares
        self.layout = layout
        self.seams = []
        self._side_seam = {}
        for first, second, kind in gluings:
            self._add_seam(first, second, kind)

    def _add_seam(self, first, second, kind):
        for sq, side in (first, second):
            if not (0 <= sq < self.n_squares):
                raise SurfaceFormatError("square index %r out of range" % (sq,))
            if side not in SIDES:
                raise SurfaceFormatError("unknown side label %r" % (side,))
        if first == second:
            raise SurfaceFormatError(
                "side %r cannot be glued to itself" % (first,))
        if kind == "translation":
            if OPPOSITE[first[1]] != second[1]:
                raise SurfaceFormatError(
                    "translation gluing must join opposite side labels, "
                    "got %s-%s" % (first[1], second[1]))
        elif kind == "halfturn":
            if (first[1] in HORIZONTAL) != (second[1] in HORIZONTAL):
                raise SurfaceFormatError(
                    "half-turn gluing must join two horizontal or two "
                    "vertical sides, got %s-%s" % (first[1], second[1]))
        else:
            raise SurfaceFormatError("unknown gluing kind %r" % (kind,))
        for key in (first, second):
            if key in self._side_seam:
                raise SurfaceFormatError("side %r glued twice" % (key,))
        seam = Seam(len(self.seams), first, second, kind)
        self.seams.append(seam)
        self._side_seam[first] = (seam, +1)
        self._side_seam[second] = (seam, -1)

    # ---- basic census -------------------------------------------------

    def seam_at(self, sq, side):
        """Return (seam, role) for a glued side, or None if the side is free."""
        return self._side_seam.get((sq, side))

    def is_free(self, sq, side):
        return (sq, side) not in self._side_seam

    @property
    def free_sides(self):
        return [(sq, s) for sq in range(self.n_squares) for s in SIDES
                if self.is_free(sq, s)]

    @property
    def is_closed(self):
        return not self.free_sides

    def cross(self, sq, side):
        """Cross a glued side: return (other square, other side, kind, dir).

        ``dir`` is +1 when crossing from the seam's first side.
        """
        hit = self.seam_at(sq, side)
        if hit is None:
            return None
        seam, role = hit
        if role == +1:
            osq, oside = seam.second
        else:
            osq, oside = seam.first
        return osq, oside, seam.kind, role

    # ---- corner cycles ------------------------------------------------

    def _step_around(self, sq, corner, in_side):
        """One rotation step around the vertex at (sq, corner).

        Leaves the current square through the side of ``corner`` other than
        ``in_side``.  Returns (next square, next corner, next in_side,
        (seam_index, dir)) or None when the exit side is free.
        """
        s1, s2 = CORNER_SIDES[corner]
        out_side = s2 if in_side == s1 else s1
        hit = self.seam_at(sq, out_side)
        if hit is None:
            return None
        seam, role = hit
        osq, oside, kind, _ = self.cross(sq, out_side)
        end = SIDE_ENDS[out_side].index(corner)  # 0 or 1
        oend = end if kind == "translation" else 1 - end
        ocorner = SIDE_ENDS[oside][oend]
        return osq, ocorner, oside, (seam.index, role)

    def vertex_cycles(self):
        """All equivalence classes of square corners, as ordered cycles."""
        cycles = []
        seen = set()

        # boundary chains: start on a free side and sweep to the other end
        for sq in range(self.n_squares):
            for corner in CORNERS:
                if (sq, corner) in seen:
                    continue
                s1, s2 = CORNER_SIDES[corner]
                free = [s for s in (s1, s2) if self.is_free(sq, s)]
                if not free:
                    continue
                in_side = free[0]
                corners = [(sq, corner)]
                steps = []
                state = (sq, corner, in_side)
                while True:
                    nxt = self._step_around(*state)
                    if nxt is None:
                        break
                    nsq, ncorner, nin, step = nxt
                    corners.append((nsq, ncorner))
                    steps.append(step)
                    state = (nsq, ncorner, nin)
                seen.update(corners)
                cycles.append(VertexCycle(corners, steps, interior=False))

        # interior cycles
        for sq in range(self.n_squares):
            for corner in CORNERS:
                if (sq, corner) in seen:
                    continue
                in_side = CORNER_SIDES[corner][0]
                corners = []
                steps = []
                state = (sq, corner, in_side)
                while True:
                    corners.append(state[:2])
                    nxt = self._step_around(*state)
                    if nxt is None:  # pragma: no cover - guarded above
                        raise SurfaceFormatError("inconsistent gluing data")
                    nsq, ncorner, nin, step = nxt
                    steps.append(step)
                    state = (nsq, ncorner, nin)
                    if state == (sq, corner, in_side):
                        break
                seen.update(corners)
                cycles.append(VertexCycle(corners, steps, interior=True))
        return cycles

    def cone_points(self):
        """Interior vertex classes whose angle differs from 2*pi."""
        return [c for c in self.vertex_cycles() if c.interior and c.singular]

    def boundary_corners(self):
        """Boundary vertex classes whose angle differs from pi/2 * 2."""
        return [c for c in self.vertex_cycles()
                if not c.interior and c.singular]

    def euler_characteristic(self):
        """V - E + F of the glued square complex."""
        v = len(self.vertex_cycles())
        e = 4 * self.n_squares - len(self.seams)
        f = self.n_squares
        return v - e + f

    def gauss_bonnet_defect(self):
        """Total curvature minus 2*pi*chi; zero for a consistent surface.

        Interior points of angle theta carry curvature 2*pi - theta, and
        boundary points of angle theta carry pi - theta.
        """
        total = 0.0
        for c in self.vertex_cycles():
            if c.interior:
                total += 2 * np.pi - c.angle
            else:
                total += np.pi - c.angle
        return total - 2 * np.pi * self.euler_characteristic()

    # ---- serialization ------------------------------------------------

    def to_text(self):
        lines = ["squares: %d" % self.n_squares]
        for seam in self.seams:
            lines.append("glue: (%d,%s) (%d,%s) %s" % (
                seam.first[0], seam.first[1],
                seam.second[0], seam.second[1], seam.kind))
        return "\n".join(lines) + "\n"


def _parse_side_ref(token, lineno):
    token = token.strip()
    if not (token.startswith("(") and token.endswith(")")):
        raise SurfaceFormatError(
            "line %d: expected (square,side), got %r" % (lineno, token))
    body = token[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 2:
        raise SurfaceFormatError(
            "line %d: expected (square,side), got %r" % (lineno, token))
    try:
        sq = int(parts[0])
    except ValueError:
        raise SurfaceFormatError(
            "line %d: bad square index %r" % (lineno, parts[0]))
    side = parts[1].upper()
    if side not in SIDES:
        raise SurfaceFormatError("line %d: bad side label %r" % (lineno, side))
    return (sq, side)


def _parse_complex(token, lineno):
    """Parse a complex entry written as a+bi / a-bi / a / bi."""
    t = token.strip().replace(" ", "")
    if not t:
        raise SurfaceFormatError("line %d: empty complex entry" % lineno)
    try:
        if t.endswith(("i", "I")):
            return complex(t[:-1].replace("I", "j") + "j")
        return complex(t)
    except ValueError:
        raise SurfaceFormatError(
            "line %d: bad complex entry %r" % (lineno, token))


def parse_surface(text):
    """Parse a surface description, returning (surface, bundle_spec).

    ``bundle_spec`` is None when the text has no bundle block, otherwise a
    dict {"rank": r, "transports": {seam_index: (r, r) ndarray}} that
    :func:`tilelap.bundle.FlatUnitaryBundle.from_spec` turns into a bundle.
    """
    n_squares = None
    gluings = []
    rank = None
    transports = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SurfaceFormatError("line %d: expected 'key: value'" % lineno)
        key, value = line.split(":", 1)
        key = key.strip().lower()
        value = value.strip()
        if key == "squares":
            if n_squares is not None:
                raise SurfaceFormatError(
                    "line %d: duplicate 'squares' line" % lineno)
            try:
                n_squares = int(value)
            except ValueError:
                raise SurfaceFormatError(
                    "line %d: bad square count %r" % (lineno, value))
        elif key == "glue":
            parts = value.split()
            if len(parts) != 3:
                raise SurfaceFormatError(
                    "line %d: expected 'glue: (a,S) (b,S) kind'" % lineno)
            first = _parse_side_ref(parts[0], lineno)
            second = _parse_side_ref(parts[1], lineno)
            kind = parts[2].lower()
            gluings.append((first, second, kind))
        elif key == "rank":
            try:
                rank = int(value)
            except ValueError:
                raise SurfaceFormatError(
                    "line %d: bad rank %r" % (lineno, value))
            if rank < 1:
                raise SurfaceFormatError("line %d: rank must be >= 1" % lineno)
        elif key == "transport":
            if rank is None:
                raise SurfaceFormatError(
                    "line %d: 'transport' before 'rank'" % lineno)
            parts = value.replace(",", " ").split()
            if len(parts) != 1 + rank * rank:
                raise SurfaceFormatError(
                    "line %d: transport needs seam id plus %d entries"
                    % (lineno, rank * rank))
            try:
                seam_id = int(parts[0])
            except ValueError:
                raise SurfaceFormatError(
                    "line %d: bad seam id %r" % (lineno, parts[0]))
            entries = [_parse_complex(p, lineno) for p in parts[1:]]
            mat = np.array(entries, dtype=complex).reshape(rank, rank)
            if seam_id in transports:
                raise SurfaceFormatError(
                    "line %d: duplicate transport for seam %d"
                    % (lineno, seam_id))
            transports[seam_id] = mat
        else:
            raise SurfaceFormatError(
                "line %d: unknown key %r" % (lineno, key))
    if n_squares is None:
        raise SurfaceFormatError("missing 'squares' line")
    surface = SquareTiledSurface(n_squares, gluings)
    for seam_id in transports:
        if not (0 <= seam_id < len(surface.seams)):
            raise SurfaceFormatError("transport for unknown seam %d" % seam_id)
    bundle_spec = None
    if rank is not None:
        bundle_spec = {"rank": rank, "transports": transports}
    return surface, bundle_spec
