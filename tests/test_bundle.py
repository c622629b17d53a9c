"""Flat unitary bundles: unitarity, monodromy, validation."""

import numpy as np
import pytest

from tilelap import catalog
from tilelap.bundle import FLAT_TOL, FlatUnitaryBundle

from conftest import random_unitary


def test_trivial_bundle_validates(named_surface):
    _, surf = named_surface
    for rank in (1, 2):
        bundle = FlatUnitaryBundle.trivial(surf, rank)
        assert bundle.validate()
        assert bundle.unitarity_defect() == 0.0
        assert bundle.cone_monodromy_defect() == 0.0


def test_seam_unitary_directions():
    surf = catalog.torus()
    u = np.array([[0.6 + 0.8j]])
    bundle = FlatUnitaryBundle(surf, 1, {0: u})
    assert bundle.seam_unitary(0, +1)[0, 0] == pytest.approx(0.6 + 0.8j)
    assert bundle.seam_unitary(0, -1)[0, 0] == pytest.approx(0.6 - 0.8j)


def test_monodromy_order():
    surf = catalog.torus()
    rng = np.random.default_rng(0)
    u0 = random_unitary(rng, 2)
    u1 = random_unitary(rng, 2)
    bundle = FlatUnitaryBundle(surf, 2, {0: u0, 1: u1})
    mon = bundle.monodromy([(0, +1), (1, -1)])
    assert np.allclose(mon, u1.conj().T @ u0)


def test_twisted_torus_is_flat():
    surf = catalog.torus()
    bundle = FlatUnitaryBundle.twisted_torus(surf, 0.7, -1.3)
    assert bundle.validate()
    # holonomies sit on the right seams
    for seam in surf.seams:
        expect = 0.7 if seam.first[1] in ("E", "W") else -1.3
        assert bundle.transports[seam.index][0, 0] == pytest.approx(
            np.exp(1j * expect))


def test_nonunitary_transport_rejected():
    surf = catalog.torus()
    bundle = FlatUnitaryBundle(surf, 1, {0: np.array([[2.0]])})
    with pytest.raises(ValueError):
        bundle.validate()


@pytest.mark.parametrize("entry", [np.nan, 1j * np.nan, np.inf])
def test_non_finite_transport_fails_validate(entry):
    # max(0.0, nan) is 0.0: a defect folded that way read 0 here
    bundle = FlatUnitaryBundle(catalog.pillowcase(), 1,
                               {2: np.array([[entry]])})
    assert not bundle.unitarity_defect() <= FLAT_TOL
    assert not bundle.cone_monodromy_defect() <= FLAT_TOL
    with pytest.raises(ValueError):
        bundle.validate()


def test_cone_monodromy_must_be_trivial():
    # a generic unitary on one pillowcase seam twists the cone points
    surf = catalog.pillowcase()
    bundle = FlatUnitaryBundle(surf, 1, {2: np.array([[1j]])})
    assert bundle.unitarity_defect() == 0.0
    with pytest.raises(ValueError):
        bundle.validate()


def test_rank_mismatch_rejected():
    surf = catalog.torus()
    with pytest.raises(ValueError):
        FlatUnitaryBundle(surf, 2, {0: np.eye(3)})
    with pytest.raises(ValueError):
        FlatUnitaryBundle(surf, 0, {})


def test_from_spec_round_trip():
    surf = catalog.torus()
    spec = {"rank": 1, "transports": {0: np.array([[-1.0]])}}
    bundle = FlatUnitaryBundle.from_spec(surf, spec)
    assert bundle.rank == 1
    assert bundle.transports[0][0, 0] == -1.0
    assert FlatUnitaryBundle.from_spec(surf, None).rank == 1
