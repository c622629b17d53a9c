"""Surface combinatorics: gluing validation, vertex cycles, censuses."""

import re

import numpy as np
import pytest

from tilelap import catalog
from tilelap.surface import (SquareTiledSurface, SurfaceFormatError,
                             parse_surface)


def test_translation_must_join_opposite_sides():
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(2, [((0, "E"), (1, "E"), "translation")])


def test_halfturn_must_join_same_axis():
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(2, [((0, "E"), (1, "N"), "halfturn")])
    # z -> -z + c maps a side onto one with the same label; opposite labels
    # with a reversed coordinate would be a reflection
    SquareTiledSurface(2, [((0, "E"), (1, "E"), "halfturn")])
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(2, [((0, "E"), (1, "W"), "halfturn")])
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(1, [((0, "N"), (0, "S"), "halfturn")])


def test_no_self_gluing_and_no_double_gluing():
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(1, [((0, "E"), (0, "E"), "halfturn")])
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(3, [((0, "E"), (1, "W"), "translation"),
                               ((0, "E"), (2, "W"), "translation")])


def test_unknown_kind_and_bad_indices():
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(2, [((0, "E"), (1, "W"), "rotation")])
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(1, [((0, "E"), (1, "W"), "translation")])
    with pytest.raises(SurfaceFormatError):
        SquareTiledSurface(1, [((0, "X"), (0, "W"), "translation")])


def test_torus_census():
    surf = catalog.torus()
    cycles = surf.vertex_cycles()
    assert len(cycles) == 1
    assert cycles[0].interior and cycles[0].quarters == 4
    assert not cycles[0].singular
    assert surf.euler_characteristic() == 0
    assert not surf.free_sides


def test_square_census():
    surf = catalog.rectangle(1, 1)
    cycles = surf.vertex_cycles()
    assert len(cycles) == 4
    assert all(not c.interior and c.quarters == 1 for c in cycles)
    assert surf.euler_characteristic() == 1
    assert len(surf.free_sides) == 4


def test_lshape_census():
    surf = catalog.lshape()
    cycles = surf.vertex_cycles()
    assert surf.euler_characteristic() == 1
    reflex = [c for c in cycles if not c.interior and c.quarters == 3]
    assert len(reflex) == 1
    assert not [c for c in cycles if c.interior and c.singular]
    assert [c for c in cycles if not c.interior and c.singular]


def test_pillowcase_census():
    surf = catalog.pillowcase()
    assert not surf.free_sides
    assert surf.euler_characteristic() == 2
    cones = [c for c in surf.vertex_cycles() if c.interior and c.singular]
    assert len(cones) == 4
    assert all(c.quarters == 2 for c in cones)
    assert np.allclose([c.angle for c in cones], np.pi)


def test_genus_two_census():
    surf = catalog.genus_two()
    assert not surf.free_sides
    assert surf.euler_characteristic() == -2
    cones = [c for c in surf.vertex_cycles() if c.interior and c.singular]
    assert len(cones) == 1
    assert cones[0].quarters == 12
    assert np.isclose(cones[0].angle, 6 * np.pi)


def test_gauss_bonnet_exact_on_all_builtins(named_surface):
    _, surf = named_surface
    assert surf.gauss_bonnet_defect() == pytest.approx(0.0, abs=1e-12)


def test_parse_round_trip(named_surface):
    _, surf = named_surface
    text = surf.to_text()
    again, spec = parse_surface(text)
    assert spec is None
    assert again.to_text() == text
    assert again.euler_characteristic() == surf.euler_characteristic()


def test_parse_comments_and_errors():
    surf, spec = parse_surface(
        "# a torus\nsquares: 1\n"
        "glue: (0,E) (0,W) translation  # horizontal\n"
        "glue: (0,N) (0,S) translation\n")
    assert not surf.free_sides and spec is None
    for bad in ("glue: (0,E) (0,W) translation\n",  # missing squares
                "squares: one\n",
                "squares: 1\nglue: (0,E) translation\n",
                "squares: 1\nwhat: ever\n",
                "squares: 1\nsquares: 2\n"):
        with pytest.raises(SurfaceFormatError):
            parse_surface(bad)
    torus = ("squares: 1\nglue: (0,E) (0,W) translation\n"
             "glue: (0,N) (0,S) translation\nrank: 1\n")
    for bad, message in (
            ("squares: 0\n", "need at least one square"),
            ("squares: 1\nglue: 0,E (0,W) translation\n",
             "expected (square,side), got '0,E'"),
            ("squares: 1\nglue: (0,E,1) (0,W) translation\n",
             "expected (square,side), got '(0,E,1)'"),
            ("squares: 1\nglue: (x,E) (0,W) translation\n",
             "bad square index 'x'"),
            ("squares: 1\nglue: (0,Q) (0,W) translation\n",
             "bad side label 'Q'"),
            ("squares: 1\nno colon\n", "line 2: expected 'key: value'"),
            ("squares: 1\nrank: x\n", "bad rank 'x'"),
            ("squares: 1\nrank: 0\n", "rank must be >= 1"),
            (torus + "transport: 0 1 2\n", "needs seam id plus 1 entries"),
            (torus + "transport: x 1\n", "bad seam id 'x'"),
            (torus + "transport: 0 x\n", "bad complex entry 'x'"),
            (torus + "transport: 5 1\n", "transport for unknown seam 5")):
        with pytest.raises(SurfaceFormatError, match=re.escape(message)):
            parse_surface(bad)


def test_parse_bundle_block():
    text = ("squares: 1\n"
            "glue: (0,E) (0,W) translation\n"
            "glue: (0,N) (0,S) translation\n"
            "rank: 1\n"
            "transport: 0 -1\n"
            "transport: 1 0.6+0.8i\n")
    surf, spec = parse_surface(text)
    assert spec["rank"] == 1
    assert spec["transports"][0][0, 0] == -1
    assert spec["transports"][1][0, 0] == pytest.approx(0.6 + 0.8j)
    with pytest.raises(SurfaceFormatError):
        parse_surface(text + "transport: 0 1\n")  # duplicate seam
    with pytest.raises(SurfaceFormatError):
        parse_surface("squares: 1\ntransport: 0 1\n")  # before rank


def test_parse_rejects_duplicate_rank():
    # a second rank line used to replace the first, so that a transport
    # read before it failed later, naming no line
    text = ("squares: 1\n"
            "glue: (0,E) (0,W) translation\n"
            "glue: (0,N) (0,S) translation\n"
            "rank: 1\n"
            "transport: 0 -1\n"
            "rank: 2\n")
    with pytest.raises(SurfaceFormatError,
                       match=re.escape("line 6: duplicate 'rank' line")):
        parse_surface(text)


def test_catalog_load_from_file(tmp_path):
    path = tmp_path / "torus.surf"
    path.write_text(catalog.torus().to_text())
    surf, spec = catalog.load(str(path))
    assert not surf.free_sides and surf.n_squares == 1
