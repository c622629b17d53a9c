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


def _inertias():
    # the negative count of K_tau for each mesh at three shifts tau, and
    # of its dense eigenvalues
    found = []
    for disc in _meshes():
        solver = capacitance.SeamCapacitance(disc, -1 / 64)
        for tau in (0.05, 0.2, 0.6):
            cap = solver._capacitance(1 / (
                solver.lam[:, None] + solver.lam - tau))
            found.append((lapack.negative_count(cap.copy()),
                          np.count_nonzero(np.linalg.eigvalsh(cap) < 0)))
    return found


def _same_inertias(found, again):
    assert found == again
    assert all(count == dense for count, dense in found)
    assert len({dense for _, dense in found}) > 1


# routine: its LAPACKE names, a computation that calls it, and the check
# that the computation's results with and without LAPACK agree
FALLBACKS = {"syevr": (("dsyevr", "zheevr"), _eigenpairs, _same_eigenpairs),
             "pbsv": (("dpbsv",), _greens, _same_greens),
             "lower_inverse": (("dtrtri", "ztrtri"), _half_inverses,
                               _same_inverses),
             "sytrf": (("dsytrf",), _inertias, _same_inertias)}


@pytest.mark.parametrize("routine", list(FALLBACKS))
def test_fallback_matches_lapack(monkeypatch, routine):
    # where numpy bundles no OpenBLAS, each routine takes its fallback:
    # numpy's eigh, scipy's solveh_banded, numpy's inv, numpy's eigvalsh
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


@pytest.mark.parametrize("dtype", [float, complex])
def test_negative_count_of_known_spectra(dtype):
    # Q diag(d) Q* for a random unitary Q and entries |d| in (1e-9, 3),
    # none to all of them negative: the Bunch-Kaufman count is exact
    rng = np.random.default_rng(4)
    for size in (1, 2, 7, 40):
        for negative in sorted({0, 1, size // 2, size}):
            d = rng.uniform(1e-9, 3.0, size)
            d[:negative] *= -1
            q = np.linalg.qr(rng.standard_normal((size, size))
                             + (1j * rng.standard_normal((size, size))
                                if dtype is complex else 0))[0]
            sym = (q * d) @ q.conj().T
            sym = (sym + sym.conj().T) / 2
            assert lapack.negative_count(sym.astype(dtype)) == negative


def _anonymous_rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("RssAnon:")) / 1024


def test_release_free_heap_hands_back_freed_pages(monkeypatch):
    # 64 blocks of 64 kB, below any mmap threshold, are freed into the
    # heap, where a later block holds them below its top: their pages
    # stay resident until release_free_heap; without malloc_trim the
    # call does nothing
    if lapack._malloc_trim() is None:
        pytest.skip("the C library has no malloc_trim")
    for trim, released in ((None, False), (lapack._malloc_trim(), True)):
        monkeypatch.setattr(lapack, "_malloc_trim", lambda: trim)
        blocks = [np.ones(8192) for _ in range(64)]
        pin = np.ones(8192)
        del blocks
        before = _anonymous_rss_mb()
        lapack.release_free_heap()
        assert (before - _anonymous_rss_mb() > 2) == released
        del pin

