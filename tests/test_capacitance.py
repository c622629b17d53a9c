"""The mesh eigensolver: capacitance solves, exact kernel, block Lanczos,
against dense numpy on the built-in and seeded random surfaces."""

import tracemalloc

import numpy as np
import pytest

from tilelap import catalog, operators, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.capacitance import SeamCapacitance, dct_basis
from tilelap.discretize import Discretization

from conftest import (SURFACE_NAMES, make_disc, random_flat_bundle,
                      twisted_rank2_torus)
from test_random_surfaces import random_surface

# the module's own share of the dimension for the Lanczos basis, read
# before any fixture changes it
SHARE = spectral.LANCZOS_SHARE


def _surfaces(count):
    """The built-ins, then ``count`` seeded random origamis."""
    return ([catalog.BUILTIN[name]() for name in SURFACE_NAMES]
            + [random_surface(np.random.default_rng(seed))
               for seed in range(count)])


def _bundles(surface, rng):
    """Trivial real bundles and random complex flat ones, ranks 1 and 2."""
    for rank in (1, 2):
        yield FlatUnitaryBundle.trivial(surface, rank)
        yield random_flat_bundle(surface, rank, rng)


def holonomy_fixed_dimension(surface, bundle):
    """Sum over the components of the square graph of the dimension of
    the subspace that every loop's monodromy fixes, read in the frame of
    the component's first square through a spanning tree."""
    rank, frames, total = bundle.rank, {}, 0
    eye = np.eye(rank)
    for root in range(surface.n_squares):
        if root in frames:
            continue
        frames[root], stack, members = eye, [root], {root}
        while stack:
            q = stack.pop()
            for seam in surface.seams:
                for a, b, u in ((seam.first[0], seam.second[0],
                                 bundle.seam_unitary(seam.index, +1)),
                                (seam.second[0], seam.first[0],
                                 bundle.seam_unitary(seam.index, -1))):
                    if a == q and b not in frames:
                        frames[b] = u @ frames[q]
                        stack.append(b)
                        members.add(b)
        loops = [frames[s.second[0]].conj().T
                 @ bundle.seam_unitary(s.index, +1) @ frames[s.first[0]]
                 - eye for s in surface.seams if s.first[0] in members]
        total += rank - (np.linalg.matrix_rank(np.vstack(loops), tol=1e-9)
                         if loops else 0)
    return total


def test_dct_basis_diagonalizes_the_path():
    for n in (1, 2, 7):
        phi, lam = dct_basis(n)
        ends = (np.arange(n) == 0) + 0.0 + (np.arange(n) == n - 1)
        path = np.diag(2 - ends) - np.eye(n, k=1) - np.eye(n, k=-1)
        assert np.abs(phi.T @ phi - np.eye(n)).max() <= 1e-14
        assert np.abs(phi.T @ path @ phi - np.diag(lam)).max() <= 1e-13


def test_solve_matches_dense_solve():
    # (A - sigma I)^-1 x against numpy's dense solve, to 1e-12 relative,
    # real and complex, rank 1 and 2, at the mesh solver's sigma = SHIFT /
    # n^2 and at -0.01; a seam transport used where its adjoint belongs
    # misses by O(1) on the complex bundles
    rng = np.random.default_rng(1)
    worst = 0.0
    for surface in _surfaces(25):
        for bundle in _bundles(surface, rng):
            bundle.validate()
            for n in (2, 3, 5):
                disc = Discretization(surface, bundle, n)
                lap = np.asarray(operators.laplacian(disc))
                for shift in (spectral.SHIFT / n ** 2, -1e-2):
                    x = rng.standard_normal((len(lap), 3)).astype(lap.dtype)
                    if np.iscomplexobj(x):
                        x += 1j * rng.standard_normal(x.shape)
                    want = np.linalg.solve(lap - shift * np.eye(len(lap)), x)
                    solver = SeamCapacitance(disc, shift)
                    # the cosine transform is orthogonal: its transpose
                    # takes vertex values to cosine coordinates
                    to_vertices = solver.to_vertices(np.eye(len(lap)))
                    assert np.abs(to_vertices.T @ to_vertices
                                  - np.eye(len(lap))).max() <= 1e-13
                    got = to_vertices @ solver.apply((to_vertices.T @ x).T).T
                    worst = max(worst, np.linalg.norm(got - want)
                                / np.linalg.norm(want))
                    # and the shifted operator itself, A - sigma I
                    back = to_vertices @ solver.shifted(
                        (to_vertices.T @ want).T).T
                    assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()
    assert worst <= 1e-12


@pytest.mark.parametrize("name", ["genus2", "pillowcase", "lshape", "torus"])
def test_solve_residual_on_large_meshes(name):
    # |(A - sigma I) y - x| <= 1e-12 |x| for y the solve of x, at the
    # mesh solver's sigma = SHIFT / n^2, A applied as div grad on the
    # edge arrays; the torus carries a complex rank-2 bundle
    rng = np.random.default_rng(4)
    surface = catalog.BUILTIN[name]()
    bundle = (random_flat_bundle(surface, 2, rng) if name == "torus"
              else FlatUnitaryBundle.trivial(surface))
    for n in (32, 64):
        disc = Discretization(surface, bundle, n)
        shift = spectral.SHIFT / n ** 2
        solver = SeamCapacitance(disc, shift)
        assert np.iscomplexobj(disc.transports) == (name == "torus")
        x = rng.standard_normal((2, solver.dim)).astype(solver.dtype)
        if np.iscomplexobj(x):
            x += 1j * rng.standard_normal(x.shape)
        ys, xs = solver.to_vertices(solver.apply(x)), solver.to_vertices(x)
        for y, want in zip(ys.T, xs.T):
            got = operators.apply_laplacian(disc, y) - shift * y
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_kernel_is_the_holonomy_fixed_sections(monkeypatch, lanczos_runs):
    # kernel dimension: over the components, the dimension of the
    # subspace that every holonomy fixes; dense eigvalsh agrees, and the
    # mesh solver returns the kernel with eigenvalue exactly 0.0 on both
    # routes: by block Lanczos (the fixture's share) and by LAPACK (the
    # module's share, which takes these small meshes), there also for
    # k = dim - 1; both give the same kernel vectors
    rng = np.random.default_rng(2)
    for surface in _surfaces(25):
        for rank in (1, 2):
            for trivial in range(rank + 1):
                bundle = random_flat_bundle(surface, rank, rng, trivial)
                disc = Discretization(surface, bundle, 3)
                solver = SeamCapacitance(disc, spectral.SHIFT / disc.n ** 2)
                size = solver.kernel.shape[1]
                assert size == holonomy_fixed_dimension(surface, bundle)
                vals = np.linalg.eigvalsh(operators.laplacian(disc))
                assert size == np.count_nonzero(vals < 1e-9)
                k = min(size + 2, len(vals) - 2)
                kernels = []
                for share, want in ((np.inf, k), (SHARE, k),
                                    (SHARE, len(vals) - 1)):
                    monkeypatch.setattr(spectral, "LANCZOS_SHARE", share)
                    runs = len(lanczos_runs)
                    got, vecs, _ = spectral.mesh_eigenpairs(disc, want)
                    assert (len(lanczos_runs) > runs) == (share == np.inf)
                    assert np.all(got[:size] == 0.0)
                    assert np.all(got[size:] > 1e-9)
                    kernels.append(vecs[:, :size] @ vecs[:, :size].conj().T)
                assert np.abs(np.diff(kernels, axis=0)).max() <= 1e-12


def test_eigenvalues_match_dense_eigvalsh(lanczos_runs):
    # within 1e-10 of the spectral scale: the k-th eigenvalue, but no less
    # than 1e-4 |A|, so that the dense round-off on a zero mode, a few
    # 1e-15, passes; k runs past the basis cap and up to dim - 2, where
    # the basis spans the whole space; block Lanczos runs whenever k is
    # past the kernel
    rng = np.random.default_rng(3)
    for surface in _surfaces(8):
        for bundle in _bundles(surface, rng):
            for n in (3, 5):
                disc = Discretization(surface, bundle, n)
                ref = np.linalg.eigvalsh(operators.laplacian(disc))
                last = len(ref) - 2
                for k in ({9, min(40, last)} if n > 3 else {1, last}):
                    runs = len(lanczos_runs)
                    vals, vecs, res = spectral.mesh_eigenpairs(disc, k)
                    assert (len(lanczos_runs) > runs) == (
                        k > np.count_nonzero(vals == 0.0))
                    scale = max(ref[k - 1], 1e-4 * ref[-1])
                    assert np.abs(vals - ref[:k]).max() <= 1e-10 * scale
                    gram = vecs.conj().T @ vecs
                    assert np.abs(gram - np.eye(k)).max() <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_block_lanczos_respects_multiplicity(seed):
    # the rank-2 trivial torus repeats every torus eigenvalue twice, so
    # 4- and 8-fold values become 8- and 16-fold; past the kernel, k = 26
    # asks for three 8-fold values, each a group as large as the block of
    # 8.  The inertia count, not the group size, decides whether a run
    # missed a member and the block must double
    torus = catalog.torus()
    disc = Discretization(torus, FlatUnitaryBundle.trivial(torus, 2), 24)
    oracle = np.repeat(spectral.discrete_torus_spectrum(24), 2)
    vals, _, _ = spectral.mesh_eigenpairs(disc, 26, seed=seed)
    assert np.abs(vals - oracle[:26]).max() <= 1e-10 * oracle[25]


def test_block_is_cut_to_the_count_wanted(monkeypatch):
    # trivial torus, n = 32, k = 5: past the kernel the 4 wanted values
    # are one 4-fold value, so one block Lanczos run with a block of 4
    # finds them all; a block of 3 would hold only 3 of its members
    runs, rows = [], []
    lanczos, apply = spectral._block_lanczos, SeamCapacitance.apply

    def recorded(solver, k, *args):
        runs.append(k)
        return lanczos(solver, k, *args)

    def counted(self, z):
        rows.append(len(z))
        return apply(self, z)

    monkeypatch.setattr(spectral, "_block_lanczos", recorded)
    monkeypatch.setattr(SeamCapacitance, "apply", counted)
    vals, _, _ = spectral.mesh_eigenpairs(make_disc("torus", 32), 5)
    oracle = spectral.discrete_torus_spectrum(32)[:5]
    assert runs == [4]
    assert rows[0] == 4 and max(rows) == 4
    assert np.abs(vals - oracle).max() <= 1e-10 * oracle[-1]


def test_count_below_peak_memory():
    # the tracemalloc peak of an inertia count on a complex mesh, in units
    # of its K_tau: K_tau, factored in its own place, and the n x n Green
    # blocks that build it.  Measured: 1.9; 5.5 when a Hermitian K_tau was
    # counted as its real symmetric double [[X, -Y], [Y, X]]
    n = 64
    solver = SeamCapacitance(twisted_rank2_torus(n, seed=0),
                             spectral.SHIFT / n ** 2)
    solver.count_below(20.3 / n ** 2)  # imports and caches
    tracemalloc.start()
    try:
        solver.count_below(20.3 / n ** 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cap = (len(solver.tail_slots) * solver.shape[1]) ** 2 * 16
    assert solver.dtype == complex
    assert peak <= 2.5 * cap, peak / cap
