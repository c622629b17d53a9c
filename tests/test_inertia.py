"""Haynsworth's inertia count of the mesh Laplacian,
`SeamCapacitance.count_below`, against exact oracles: closed-form
spectra, unbranched covers and gauge partners.  Each count is compared
for equality, at a point tau in a gap of the oracle's spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tilelap import catalog, operators, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.capacitance import SeamCapacitance, square_kernel
from tilelap.discretize import Discretization

from conftest import (make_disc, random_flat_bundle, rank2_torus_spectrum,
                      twisted_rank2_torus)
from test_random_surfaces import origami_cover


def _solver(disc):
    return SeamCapacitance(disc, spectral.SHIFT / disc.n ** 2)


def _gaps(solver, spectrum, rng, draws=8):
    """``draws`` points tau, each with the number of values of
    ``spectrum`` (ascending) below it: in random gaps of ``spectrum``
    wider than 1e-6 of its top, each at the middle of the widest gap
    that D's spectrum leaves there, as `spectral._certified` places its
    count point."""
    modes = np.add.outer(solver.lam, solver.lam).ravel()
    gaps = np.flatnonzero(np.diff(spectrum) > 1e-6 * spectrum[-1])
    for j in np.sort(rng.permutation(gaps)[:draws]):
        low, high = spectrum[j:j + 2]
        cuts = np.sort(np.concatenate(
            [[low, high], modes[(low < modes) & (modes < high)]]))
        widest = np.argmax(np.diff(cuts))
        yield cuts[widest:widest + 2].mean(), j + 1


def _dense_spectrum(disc):
    return np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 40), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi),
       st.integers(0, 2 ** 32 - 1))
def test_twisted_torus_counts(n, alpha, beta, seed):
    # rank 1, complex: the Fourier closed form
    surf = catalog.torus()
    solver = _solver(Discretization(
        surf, FlatUnitaryBundle.twisted_torus(surf, alpha, beta), n))
    spectrum = spectral.discrete_torus_spectrum(n, alpha, beta)
    for tau, below in _gaps(solver, spectrum, np.random.default_rng(seed)):
        assert solver.count_below(tau) == below, tau


# the closed-form spectrum of each surface's n-mesh
CLOSED_FORMS = {
    "square": lambda n: spectral.discrete_rectangle_spectrum(n, n),
    "rectangle2x1": lambda n: spectral.discrete_rectangle_spectrum(2 * n, n),
    "pillowcase": spectral.discrete_pillowcase_spectrum}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_closed_form_surface_counts(name):
    rng = np.random.default_rng(2)
    for n in (8, 17, 32):
        solver = _solver(make_disc(name, n))
        for tau, below in _gaps(solver, CLOSED_FORMS[name](n), rng):
            assert solver.count_below(tau) == below, (n, tau)


@pytest.mark.parametrize("seed", range(4))
def test_rank2_torus_counts(seed):
    # commuting holonomies: the union of two rank-1 closed forms
    rng = np.random.default_rng(seed)
    for n in (8, 13, 24):
        solver = _solver(twisted_rank2_torus(n, seed))
        for tau, below in _gaps(solver, rank2_torus_spectrum(n, seed), rng):
            assert solver.count_below(tau) == below, (n, tau)


def test_origami_counts_equal_torus_bundle_counts():
    # a translation origami of S squares and the rank-S torus bundle of
    # its permutations share one spectrum, the bundle's dense one
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        discs = [Discretization(bundle.surface, bundle, n)
                 for bundle in origami_cover(rng)]
        solvers = [_solver(disc) for disc in discs]
        for tau, below in _gaps(solvers[1], _dense_spectrum(discs[1]), rng):
            assert [s.count_below(tau) for s in solvers] == [below] * 2, \
                (seed, tau)


def test_gauge_trivial_rank2_counts_twice_rank1(named_surface):
    # a complex rank-2 bundle gauge-equivalent to the trivial one, counted
    # by ?hetrf, against the real trivial rank-1 bundle, by ?sytrf
    _, surface = named_surface
    rng = np.random.default_rng(3)
    for n in (6, 11):
        discs = [Discretization(surface, bundle, n) for bundle in (
            FlatUnitaryBundle.trivial(surface),
            random_flat_bundle(surface, 2, rng, trivial=2))]
        solvers = [_solver(disc) for disc in discs]
        assert solvers[0].dtype == float
        assert solvers[1].dtype == complex or not surface.seams
        for tau, below in _gaps(solvers[0], _dense_spectrum(discs[0]), rng):
            assert [s.count_below(tau) for s in solvers] == [below,
                                                             2 * below], tau


def test_count_below_small_tau_is_the_kernel(named_surface):
    # below the least nonzero value, 1.45 / n^2 or more on the built-ins,
    # only the flat sections count, however close tau is to 0
    _, surface = named_surface
    rng = np.random.default_rng(5)
    for n in (8, 32):
        for bundle in (FlatUnitaryBundle.trivial(surface),
                       FlatUnitaryBundle.trivial(surface, 2),
                       random_flat_bundle(surface, 2, rng, trivial=2)):
            disc = Discretization(surface, bundle, n)
            solver = _solver(disc)
            for tau in (1e-6, 1e-2, 0.5):
                assert solver.count_below(tau / n ** 2) == \
                    square_kernel(disc).shape[1], (n, tau)
