"""The LAPACK bindings and the fallback of each routine."""

import numpy as np
import pytest

from tilelap import capacitance, lapack, operators, potential, spectral

from conftest import assert_lowest_pairs, make_disc, twisted_rank2_torus


def _meshes():
    # a real and a complex mesh
    return [make_disc("genus2", 8), twisted_rank2_torus(8, seed=5)]


def _eigenpairs():
    mats = [operators.laplacian(disc) for disc in _meshes()]
    return [(mat,) + spectral.lowest_eigenpairs(mat, 12)[:2] for mat in mats]


def _same_eigenpairs(found, again):
    for (mat, vals, vecs), (_, again_vals, again_vecs) in zip(found, again):
        assert np.abs(again_vals - vals).max() <= 1e-10
        assert_lowest_pairs(mat, vals, vecs)
        assert_lowest_pairs(mat, again_vals, again_vecs)


def _greens():
    return [potential.green_ball(16.5, center=(3, -5)).values,
            potential.green_halfplane((2, -1), 6.5).values]


def _same_greens(found, again):
    for values, again_values in zip(found, again):
        assert np.abs(again_values - values).max() <= 1e-13 * values.max()


def _half_inverses():
    # L^-1 for the Cholesky factor L of each mesh's capacitance matrix
    return [capacitance.SeamCapacitance(disc, -1 / 64).half_inv
            for disc in _meshes()]


def _same_inverses(found, again):
    for inv, again_inv in zip(found, again):
        assert np.abs(again_inv - inv).max() <= 1e-12 * np.abs(inv).max()


# routine: its LAPACKE names, a computation that calls it, and the check
# that the computation's results with and without LAPACK agree
FALLBACKS = {"syevr": (("dsyevr", "zheevr"), _eigenpairs, _same_eigenpairs),
             "pbsv": (("dpbsv",), _greens, _same_greens),
             "lower_inverse": (("dtrtri", "ztrtri"), _half_inverses,
                               _same_inverses)}


@pytest.mark.parametrize("routine", list(FALLBACKS))
def test_fallback_matches_lapack(monkeypatch, routine):
    # where numpy bundles no OpenBLAS, each routine takes its fallback:
    # numpy's eigh, scipy's solveh_banded, numpy's inv
    if lapack._openblas() is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    names, compute, check = FALLBACKS[routine]
    assert all(lapack._lapacke(name) is not None for name in names)
    found = compute()
    monkeypatch.setattr(lapack, "_openblas", lambda: None)
    assert all(lapack._lapacke(name) is None for name in names)
    check(found, compute())


def test_lapacke_binds_only_listed_routines():
    # a routine's prototype comes from its PROTOTYPES row; an unlisted
    # routine would be called with the wrong arguments
    with pytest.raises(KeyError):
        lapack._lapacke("dpotrf")
