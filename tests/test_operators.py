"""Operator algebra: Laplacian, edge differences, exact identities."""

import numpy as np
import pytest

from tilelap import catalog, operators
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization

from conftest import make_disc, random_unitary, sparse_laplacian


def _random_section(rng, disc, rank=1):
    size = disc.n_vertices * rank
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def test_laplacian_hermitian(named_surface):
    name, surf = named_surface
    disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), 3)
    lap = operators.laplacian(disc)
    assert abs(lap - lap.conj().T).max() <= 1e-13


def test_factorization_exact(named_surface):
    # Delta = div grad: the matrix-free Laplacian matches the assembled
    # one, and <f, Delta f> is the sum of squared edge differences
    name, surf = named_surface
    rng = np.random.default_rng(4)
    disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), 3)
    lap = sparse_laplacian(disc)
    for _ in range(3):
        f = _random_section(rng, disc)
        lap_f = operators.apply_laplacian(disc, f)
        assert np.abs(lap_f - lap @ f).max() <= 1e-13
        energy = np.sum(operators.edge_differences(disc, f) ** 2)
        assert np.vdot(f, lap_f) == pytest.approx(energy, rel=1e-13)


def test_spectrum_in_range(named_surface):
    name, surf = named_surface
    for rank in (1, 2):
        disc = Discretization(surf, FlatUnitaryBundle.trivial(surf, rank), 2)
        vals = np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))
        assert vals.min() >= -1e-10
        assert vals.max() <= 8 * rank + 1e-10


def test_kernel_dimension_closed_trivial():
    for name in ("torus", "pillowcase", "genus2"):
        for rank in (1, 2):
            disc = make_disc(name, 3, rank=rank)
            vals = np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))
            assert np.sum(vals < 1e-10) == rank


def test_twisted_torus_kills_kernel():
    surf = catalog.torus()
    bundle = FlatUnitaryBundle.twisted_torus(surf, np.pi, 0.0)
    disc = Discretization(surf, bundle, 4)
    vals = np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))
    assert vals.min() > 0.05


def test_dirichlet_form_matches_quadratic_form(named_surface):
    name, surf = named_surface
    rng = np.random.default_rng(3)
    disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), 3)
    lap = operators.laplacian(disc)
    f = _random_section(rng, disc)
    g = _random_section(rng, disc)
    direct = operators.dirichlet_form(disc, f, g)
    via_lap = np.vdot(g, lap @ f)
    assert direct == pytest.approx(via_lap, abs=1e-10)


def test_gradient_edge_values():
    # single seam with a known unitary: check the transported difference
    surf = catalog.torus()
    u = np.exp(0.4j)
    bundle = FlatUnitaryBundle(surf, 1, {0: np.array([[u]]),
                                         1: np.array([[1.0]])})
    disc = Discretization(surf, bundle, 2)
    rng = np.random.default_rng(0)
    f = _random_section(rng, disc)
    diffs = operators.edge_differences(disc, f)
    lap_f = np.zeros_like(f)
    for k, (t, h, u) in enumerate(zip(disc.tails, disc.heads,
                                      disc.transports)):
        expect = f[t] - u[0, 0] * f[h]
        assert diffs[k] == pytest.approx(abs(expect))
        # div: the difference at the tail, carried back by U* to the head
        lap_f[t] += expect
        lap_f[h] -= np.conj(u[0, 0]) * expect
    assert np.abs(operators.apply_laplacian(disc, f) - lap_f).max() <= 1e-13


def test_self_loop_assembly():
    # n = 1 torus with a twist: Delta = 4 - 2 cos a - 2 cos b exactly
    surf = catalog.torus()
    a, b = 0.9, -0.3
    bundle = FlatUnitaryBundle.twisted_torus(surf, a, b)
    disc = Discretization(surf, bundle, 1)
    lap = np.asarray(operators.laplacian(disc))
    assert lap.shape == (1, 1)
    assert lap[0, 0] == pytest.approx(4 - 2 * np.cos(a) - 2 * np.cos(b))


@pytest.mark.parametrize("rank", [1, 2])
def test_matrix_free_and_dense_laplacians_match_sparse(named_surface, rank):
    # seeded random unitary transports (flatness plays no part in the
    # assembly); n = 1 meshes have self-loops
    name, surf = named_surface
    rng = np.random.default_rng(rank)
    bundle = FlatUnitaryBundle(surf, rank, {
        seam.index: random_unitary(rng, rank) for seam in surf.seams})
    for n in (1, 2, 5):
        disc = Discretization(surf, bundle, n)
        lap = sparse_laplacian(disc)
        f = _random_section(rng, disc, rank)
        assert np.abs(operators.apply_laplacian(disc, f)
                      - lap @ f).max() <= 1e-13
        dense = operators.laplacian(disc)
        assert np.abs(dense - lap.toarray()).max() <= 1e-14
        assert dense.nnz == lap.count_nonzero()


def test_rank2_laplacian_unitary_conjugation():
    # conjugating every transport by a fixed unitary conjugates the blocks
    surf = catalog.torus()
    rng = np.random.default_rng(5)
    u0, u1 = random_unitary(rng, 2), random_unitary(rng, 2)
    w = random_unitary(rng, 2)
    b1 = FlatUnitaryBundle(surf, 2, {0: u0, 1: u1})
    b2 = FlatUnitaryBundle(surf, 2, {0: w @ u0 @ w.conj().T,
                                     1: w @ u1 @ w.conj().T})
    disc1 = Discretization(surf, b1, 3)
    disc2 = Discretization(surf, b2, 3)
    l1 = np.asarray(operators.laplacian(disc1))
    l2 = np.asarray(operators.laplacian(disc2))
    big_w = np.kron(np.eye(disc1.n_vertices), w)
    assert np.allclose(big_w @ l1 @ big_w.conj().T, l2, atol=1e-12)


def test_torus_constants_in_kernel():
    disc = make_disc("torus", 3)
    lap = sparse_laplacian(disc)
    f = np.ones(disc.n_vertices, dtype=complex)
    assert np.abs(lap @ f).max() <= 1e-13
