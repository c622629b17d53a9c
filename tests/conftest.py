"""Shared fixtures: example surfaces with trivial bundles, and records
of the route that the mesh eigensolver takes."""

import math

import numpy as np
import pytest

from tilelap import capacitance, catalog, operators, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization

SURFACE_NAMES = ["torus", "rectangle2x1", "square", "lshape", "pillowcase",
                 "genus2"]


@pytest.fixture(params=SURFACE_NAMES)
def named_surface(request):
    return request.param, catalog.BUILTIN[request.param]()


def record_routes(monkeypatch):
    """A list to which each `spectral.mesh_eigenpairs` call appends its
    route: "lapack" for the dense solve, "lanczos" for the capacitance
    solver, built whether or not block Lanczos then runs."""
    routes, lapack = [], spectral.lowest_eigenpairs

    def dense(*args):
        routes.append("lapack")
        return lapack(*args)

    class Lanczos(capacitance.SeamCapacitance):
        def __init__(self, *args):
            routes.append("lanczos")
            super().__init__(*args)

    monkeypatch.setattr(spectral, "lowest_eigenpairs", dense)
    monkeypatch.setattr(capacitance, "SeamCapacitance", Lanczos)
    return routes


@pytest.fixture
def lanczos_runs(monkeypatch):
    """Send every mesh solve to block Lanczos, however much of the
    dimension its basis fills, and list the count wanted of each
    `_block_lanczos` run.  Tests that use it ask for k < dim - 1 only,
    since the basis cannot serve more."""
    runs, lanczos = [], spectral._block_lanczos

    def counted(solver, k, *args):
        runs.append(k)
        return lanczos(solver, k, *args)

    monkeypatch.setattr(spectral, "LANCZOS_SHARE", math.inf)
    monkeypatch.setattr(spectral, "_block_lanczos", counted)
    return runs


def make_disc(name, n, bundle=None, rank=1):
    surface = catalog.BUILTIN[name]()
    if bundle is None:
        bundle = FlatUnitaryBundle.trivial(surface, rank)
    return Discretization(surface, bundle, n)


def halo(disc):
    """What each square sees across its sides, read from the seam table:
    the cell across segment k of side s of square q, ``cells[q, s, k]``
    (-1 on a free side), and ``transports[q, s, k]``, which maps that
    cell's frame into q's (0 on a free side)."""
    rank = disc.bundle.rank
    sides = disc.side_vertex.ravel()
    cells = np.full(sides.shape, -1)
    transports = np.zeros(sides.shape + (rank, rank), complex)
    tails, heads = disc.seam_tails, disc.seam_heads
    cells[tails], cells[heads] = sides[heads], sides[tails]
    transports[tails] = disc.seam_transports
    transports[heads] = disc.seam_transports.conj().transpose(0, 2, 1)
    return (cells.reshape(disc.side_vertex.shape),
            transports.reshape(disc.side_vertex.shape + (rank, rank)))


def random_unitary(rng, r):
    mat = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, _ = np.linalg.qr(mat)
    return q


def twisted_rank2_torus(n, seed):
    """The n-mesh of the torus with a seeded rank-2 bundle of commuting
    holonomies V diag(e^{i a}) V*, V diag(e^{i b}) V*: flat."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 2 * np.pi, size=(2, 2))
    v = random_unitary(rng, 2)
    surf = catalog.torus()
    bundle = FlatUnitaryBundle(surf, 2, {
        0: v @ np.diag(np.exp(1j * a)) @ v.conj().T,
        1: v @ np.diag(np.exp(1j * b)) @ v.conj().T})
    return Discretization(surf, bundle, n)


def rank2_torus_spectrum(n, seed):
    """All 2 n^2 eigenvalues of ``twisted_rank2_torus(n, seed)``: the
    bundle splits along the columns of V into two rank-1 twisted tori,
    with holonomies (a[j], b[j]), redrawn here from the seed."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 2 * np.pi, size=(2, 2))
    return np.sort(np.concatenate([
        spectral.discrete_torus_spectrum(n, a[j], b[j]) for j in range(2)]))


def assert_lowest_pairs(mat, vals, vecs):
    """The values, and the projectors onto whole eigenvalue clusters, equal
    those of numpy's full eigh within 1e-10."""
    k = len(vals)
    ref_vals, ref_vecs = np.linalg.eigh(np.asarray(mat))
    assert np.abs(vals - ref_vals[:k]).max() <= 1e-10
    # whole clusters only: the last group may continue past index k - 1
    for group in spectral.eigenvalue_groups(ref_vals[:k + 1])[:-1]:
        proj = vecs[:, group] @ vecs[:, group].conj().T
        ref_proj = ref_vecs[:, group] @ ref_vecs[:, group].conj().T
        assert np.abs(proj - ref_proj).max() <= 1e-10


def random_flat_bundle(surface, rank, rng, trivial=0):
    """A random flat unitary bundle: a gauge g_q per square times
    commuting holonomies, U_s = g_second V diag(e^{i theta_s}) V* g_first*
    for each seam s.  Each component's angles theta sum to zero around
    every interior vertex cycle (a random vector of that null space), so
    every cone monodromy is trivial; the first ``trivial`` components take
    gauge angles phi_second - phi_first instead, whose holonomy is
    trivial too."""
    seams = surface.seams
    cycles = [c for c in surface.vertex_cycles() if c.interior]
    incidence = np.zeros((len(cycles), len(seams)))
    for row, cycle in zip(incidence, cycles):
        for index, direction in cycle.seam_steps:
            row[index] += direction
    null = np.eye(len(seams))
    if len(cycles) and len(seams):
        _, sv, vt = np.linalg.svd(incidence)
        null = vt[np.count_nonzero(sv > 1e-10):].T
    firsts = np.array([s.first[0] for s in seams], dtype=int)
    seconds = np.array([s.second[0] for s in seams], dtype=int)
    angles = np.empty((rank, len(seams)))
    for j in range(rank):
        if j < trivial:
            phi = rng.uniform(0, 2 * np.pi, surface.n_squares)
            angles[j] = phi[seconds] - phi[firsts]
        else:
            angles[j] = 3 * null @ rng.standard_normal(null.shape[1])
    v = random_unitary(rng, rank)
    gauge = [random_unitary(rng, rank) for _ in range(surface.n_squares)]
    return FlatUnitaryBundle(surface, rank, {
        s.index: gauge[s.second[0]] @ v @ np.diag(np.exp(1j * angles[:, i]))
        @ v.conj().T @ gauge[s.first[0]].conj().T
        for i, s in enumerate(seams)})


def sparse_laplacian(disc):
    """The mesh Laplacian as a scipy CSR matrix, assembled here from
    `operators.laplacian_blocks`: an oracle for the library's dense and
    matrix-free forms, which share no assembly code with it."""
    import scipy.sparse as sp

    rows, cols, blocks = operators.laplacian_blocks(
        disc.n_vertices, disc.tails, disc.heads, disc.transports)
    rank = blocks.shape[-1]
    idx = np.arange(rank)
    rr = np.broadcast_to(rows[:, None, None] * rank + idx[:, None],
                         blocks.shape)
    cc = np.broadcast_to(cols[:, None, None] * rank + idx, blocks.shape)
    size = disc.n_vertices * rank
    return sp.coo_matrix((blocks.ravel(), (rr.ravel(), cc.ravel())),
                         shape=(size, size)).tocsr()
