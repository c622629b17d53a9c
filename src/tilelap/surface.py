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
half-turn reverses it.  :meth:`SquareTiledSurface.across` is the one
crossing rule, and corner cycles are read from it; the mesh's seam table
is read from the seams themselves.
"""

from dataclasses import dataclass

import numpy as np

# rows (N at the top, S at the bottom), then columns (E, W)
SIDES = ("N", "S", "E", "W")
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
# chart position of each square corner, in the corners' scan order
CORNER_XY = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}
CORNERS = tuple(CORNER_XY)

# corner sitting at parameter 0 / parameter 1 of each side (absolute
# coordinate: x for N and S, y for E and W)
SIDE_ENDS = {
    "S": ("SW", "SE"),
    "N": ("NW", "NE"),
    "W": ("SW", "NW"),
    "E": ("SE", "NE"),
}

# side through which a counter-clockwise turn around a square corner leaves
# the square (the corner's other side is its clockwise side); half-turn
# gluings preserve orientation, so a rotation that is counter-clockwise in
# one chart is counter-clockwise in every chart
CCW_EXIT = {"SW": "W", "SE": "S", "NE": "E", "NW": "N"}


def facing(seq, flip):
    """``seq``, laid along a side in its coordinate, read along the side
    glued to it: a half-turn (``flip``) reverses the coordinate."""
    return seq[::-1] if flip else seq


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
    """The square corners meeting at one point, in counter-clockwise order.

    ``corners`` lists (square, corner) pairs; ``seam_steps`` lists, for each
    consecutive corner transition, either ``(seam_index, +1)`` when the step
    crosses the seam from its first side or ``(seam_index, -1)`` when it
    crosses from the second side.  An interior cycle's last step returns to
    its first corner.  A boundary cycle runs from the corner whose clockwise
    side is free to the one whose counter-clockwise side is free, with one
    fewer step than corners.
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
        self._across = {}
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
            # z -> -z + c carries a side onto one with the same label; an
            # E-W or N-S pairing with a reversed coordinate is a reflection
            if first[1] != second[1]:
                raise SurfaceFormatError(
                    "half-turn gluing must join two sides with the same "
                    "label, got %s-%s" % (first[1], second[1]))
        else:
            raise SurfaceFormatError("unknown gluing kind %r" % (kind,))
        for key in (first, second):
            if key in self._across:
                raise SurfaceFormatError("side %r glued twice" % (key,))
        seam = Seam(len(self.seams), first, second, kind)
        self.seams.append(seam)
        flip = kind == "halfturn"
        self._across[first] = second + (seam.index, +1, flip)
        self._across[second] = first + (seam.index, -1, flip)

    # ---- crossing rule ------------------------------------------------

    def across(self, sq, side):
        """What lies across a side: (square, side, seam index, role, flip),
        or None when the side is free.

        ``role`` is +1 when (sq, side) is the seam's first side and -1 when
        it is the second; ``flip`` is True for a half-turn, which reverses
        the coordinate along the side (see :func:`facing`).
        """
        return self._across.get((sq, side))

    @property
    def free_sides(self):
        return [(sq, s) for sq in range(self.n_squares) for s in SIDES
                if (sq, s) not in self._across]

    # ---- corner cycles ------------------------------------------------

    def _turn(self, sq, corner):
        """One counter-clockwise step around the vertex at (sq, corner).

        Returns the (square, corner) reached through ``CCW_EXIT[corner]``
        and the (seam index, role) crossed, or None when that side is free.
        """
        side = CCW_EXIT[corner]
        hit = self.across(sq, side)
        if hit is None:
            return None
        osq, oside, index, role, flip = hit
        end = SIDE_ENDS[side].index(corner)
        return (osq, facing(SIDE_ENDS[oside], flip)[end]), (index, role)

    def vertex_cycles(self):
        """All equivalence classes of square corners, as counter-clockwise
        cycles: boundary classes first, then interior ones, each in the
        (square, SW/SE/NE/NW) order of their first corner."""
        corners = [(sq, c) for sq in range(self.n_squares) for c in CORNERS]
        # a boundary class starts where the clockwise side is free
        starts = [(sq, c) for sq, c in corners
                  if self.across(sq, c.replace(CCW_EXIT[c], "")) is None]
        cycles = []
        seen = set()
        for start in starts + corners:
            if start in seen:
                continue
            ring, steps = [start], []
            nxt = self._turn(*start)
            while nxt is not None and nxt[0] != start:
                ring.append(nxt[0])
                steps.append(nxt[1])
                nxt = self._turn(*nxt[0])
            if nxt is not None:
                steps.append(nxt[1])
            seen.update(ring)
            cycles.append(VertexCycle(ring, steps, interior=nxt is not None))
        return cycles

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
        value = complex(t[:-1].replace("I", "j") + "j"
                        if t.endswith(("i", "I")) else t)
    except ValueError:
        raise SurfaceFormatError(
            "line %d: bad complex entry %r" % (lineno, token))
    if not np.isfinite(value):
        raise SurfaceFormatError(
            "line %d: complex entry %r is not finite" % (lineno, token))
    return value


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
            if rank is not None:
                raise SurfaceFormatError(
                    "line %d: duplicate 'rank' line" % lineno)
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
