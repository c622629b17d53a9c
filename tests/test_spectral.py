"""Eigenvalue machinery against closed-form lattice oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from tilelap import capacitance, catalog, lapack, operators, spectral
from tilelap.stream import SplitMix64
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization

from conftest import (SURFACE_NAMES, assert_lowest_pairs, make_disc,
                      record_routes, twisted_rank2_torus)


def test_assembled_torus_matches_fourier_oracle():
    surf = catalog.torus()
    for alpha, beta in ((0.0, 0.0), (np.pi, 0.0), (0.8, -1.9)):
        bundle = FlatUnitaryBundle.twisted_torus(surf, alpha, beta)
        disc = Discretization(surf, bundle, 6)
        vals = np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))
        oracle = spectral.discrete_torus_spectrum(6, alpha, beta)
        assert np.allclose(vals, oracle, atol=1e-12)


def test_assembled_rectangle_matches_path_oracle():
    disc = make_disc("square", 5)
    vals = np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))
    oracle = spectral.discrete_rectangle_spectrum(5, 5)
    assert np.allclose(vals, oracle, atol=1e-12)
    disc = make_disc("rectangle2x1", 4)
    vals = np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))
    oracle = spectral.discrete_rectangle_spectrum(8, 4)
    assert np.allclose(vals, oracle, atol=1e-12)


def test_dense_and_sparse_paths_agree(lanczos_runs):
    # the mesh solver sent to block Lanczos on meshes that the LAPACK
    # route would take
    discs = [make_disc(name, 6) for name in SURFACE_NAMES]
    for disc in discs + [twisted_rank2_torus(6, seed=11)]:
        dense_vals, _, _ = spectral.lowest_eigenpairs(
            operators.laplacian(disc), 8)
        runs = len(lanczos_runs)
        mesh_vals, _, res = spectral.mesh_eigenpairs(disc, 8)
        assert len(lanczos_runs) > runs
        assert np.allclose(mesh_vals, dense_vals, rtol=0, atol=1e-10)
        assert res.max() <= 1e-8


def test_dense_eigh_runs_on_one_blas_thread():
    control = lapack._blas_thread_control()
    if control is None:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    get, _ = control
    before, inside = get(), []
    with lapack.one_blas_thread():
        inside.append(get())
    assert inside == [1] and get() == before


def _rank2_torus_spectrum(n, seed):
    # the rank-2 bundle splits along the columns of V into two rank-1
    # twisted tori, with holonomies (a[j], b[j])
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 2 * np.pi, size=(2, 2))
    return np.sort(np.concatenate([
        spectral.discrete_torus_spectrum(n, a[j], b[j]) for j in range(2)]))


@pytest.mark.parametrize("case, n, route", [
    ("real", 21, "lapack"), ("real", 22, "lanczos"),
    ("rank2", 15, "lapack"), ("rank2", 16, "lanczos")])
def test_routes_match_closed_forms_at_the_share(monkeypatch, case, n,
                                                route):
    # k = 10 makes a Lanczos basis of 10 + 6 * 8 = 58 vectors, and
    # spectral.LANCZOS_SHARE = 1/8 of the dimension is 55.1 and 60.5 on a
    # real square mesh (n^2 unknowns) at n = 21 and 22, 56.25 and 64 on a
    # complex rank-2 torus mesh (2 n^2) at n = 15 and 16; the share set to
    # 0 or to infinity sends the mesh to the other route
    if case == "real":
        disc = make_disc("square", n)
        oracle = spectral.discrete_rectangle_spectrum(n, n)
    else:
        disc = twisted_rank2_torus(n, seed=11)
        oracle = _rank2_torus_spectrum(n, seed=11)
    k, routes, found = 10, record_routes(monkeypatch), []
    for share in (spectral.LANCZOS_SHARE,
                  0.0 if route == "lanczos" else np.inf):
        monkeypatch.setattr(spectral, "LANCZOS_SHARE", share)
        found.append(spectral.mesh_eigenpairs(disc, k, seed=3)[:2])
    assert routes == [route, ({"lapack", "lanczos"} - {route}).pop()]
    for vals, _ in found:
        assert np.abs(vals - oracle[:k]).max() <= 1e-10 * oracle[k - 1]
    # whole clusters only: the last group may continue past index k - 1
    (_, one), (_, other) = found
    for group in spectral.eigenvalue_groups(oracle[:k + 1])[:-1]:
        proj = one[:, group] @ one[:, group].conj().T
        other_proj = other[:, group] @ other[:, group].conj().T
        assert np.abs(proj - other_proj).max() <= 1e-10


@pytest.mark.parametrize("k, route", [
    (335, "lanczos"), (336, "lapack"), (400, "lapack")])
def test_share_rule_on_genus2(monkeypatch, k, route):
    # genus2 n = 32 has 3,072 unknowns, 1/8 of them 384: a basis of
    # k + 48 vectors reaches that share at k = 336; the route is read
    # from its first call, which stops the solve
    class Taken(Exception):
        pass

    def taken(name):
        def stop(*args):
            raise Taken(name)
        return stop

    monkeypatch.setattr(spectral, "lowest_eigenpairs", taken("lapack"))
    monkeypatch.setattr(capacitance, "SeamCapacitance", taken("lanczos"))
    with pytest.raises(Taken) as stopped:
        spectral.mesh_eigenpairs(make_disc("genus2", 32), k)
    assert stopped.value.args == (route,)


@pytest.mark.parametrize("name", SURFACE_NAMES + ["rank2"])
def test_dense_lowest_k_matches_full_eigh(name):
    disc = (twisted_rank2_torus(8, seed=5) if name == "rank2"
            else make_disc(name, 8))
    dense = operators.laplacian(disc)
    dim = len(dense)
    for k in (1, 12, dim - 1):
        vals, vecs, _ = spectral.lowest_eigenpairs(dense, k)
        assert_lowest_pairs(dense, vals, vecs)
    # the mesh solver asked for dim - 1 pairs, which Lanczos cannot give,
    # takes the LAPACK route, with the exact kernel
    vals, vecs, _ = spectral.mesh_eigenpairs(disc, dim - 1)
    assert_lowest_pairs(dense, vals, vecs)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_lone_zero_mode_passes_residual_gate(dense):
    # the only value returned is 0 (exactly from the mesh solver, as
    # round-off from the dense LAPACK solve); the gate must judge its
    # residual against the matrix scale, not against that value
    disc = make_disc("square", 8)
    vals, vecs, res = (
        spectral.lowest_eigenpairs(operators.laplacian(disc), 1) if dense
        else spectral.mesh_eigenpairs(disc, 1))
    assert abs(vals[0]) < 1e-12 and (dense or vals[0] == 0.0)
    assert np.allclose(abs(vecs[:, 0]), 1 / 8)
    assert res[0] < 1e-12


def test_lowest_eigenpairs_rejects_bad_k():
    disc = make_disc("torus", 2)
    with pytest.raises(ValueError):
        spectral.lowest_eigenpairs(operators.laplacian(disc), 4)
    with pytest.raises(ValueError):
        spectral.mesh_eigenpairs(disc, 4)


def test_pillowcase_closed_form_matches_dense():
    for n in range(1, 9):
        ref = np.linalg.eigvalsh(operators.laplacian(make_disc("pillowcase",
                                                               n)))
        oracle = spectral.discrete_pillowcase_spectrum(n)
        assert len(oracle) == len(ref)
        assert np.abs(oracle - ref).max() <= 1e-13


def test_mesh_solver_returns_whole_multiplets(lanczos_runs):
    # a seeded scan through the 4- and 8-fold values of the torus and the
    # pillowcase: every set of k values that block Lanczos returns is the
    # lowest k, also when the block is cut to the 1, 2 or 4 values wanted
    # past the kernel
    wrong = []
    for name, oracle in (("torus", spectral.discrete_torus_spectrum),
                         ("pillowcase", spectral.discrete_pillowcase_spectrum)):
        for n in (16, 32):
            disc, ref = make_disc(name, n), oracle(n)
            for k in (2, 3, 5, *range(4, 26, 3)):
                for seed in range(4):
                    runs = len(lanczos_runs)
                    vals, _, _ = spectral.mesh_eigenpairs(disc, k, seed=seed)
                    assert len(lanczos_runs) > runs
                    if np.abs(vals - ref[:k]).max() > 1e-10 * ref[k - 1]:
                        wrong.append((name, n, k, seed))
    assert wrong == []


def test_reference_spectra():
    # unit square Neumann: 0, pi^2, pi^2, 2 pi^2, 4 pi^2, ...
    ref = spectral.reference_spectrum("rectangle", (1.0, 1.0), 5)
    assert np.allclose(ref, np.pi ** 2 * np.array([0, 1, 1, 2, 4]))
    ref = spectral.reference_spectrum("rectangle", (2.0, 1.0), 4)
    assert np.allclose(ref, np.pi ** 2 * np.array([0, 0.25, 1, 1]))
    # half-twisted torus: 4 pi^2 ((p + 1/2)^2 + q^2), lowest pi^2 twice
    ref = spectral.reference_spectrum("torus", (1.0, 1.0, np.pi, 0.0), 2)
    assert np.allclose(ref, [np.pi ** 2, np.pi ** 2])
    with pytest.raises(ValueError):
        spectral.reference_spectrum("pretzel", (), 3)


def test_rescaled_spectrum_converges_to_continuum():
    surf = catalog.torus()
    bundle = FlatUnitaryBundle.twisted_torus(surf, np.pi, 0.0)
    errs = []
    for n in (8, 16, 32):
        disc = Discretization(surf, bundle, n)
        vals, _ = spectral.rescaled_spectrum(disc, 1, seed=0)
        errs.append(abs(vals[0] - np.pi ** 2))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / np.pi ** 2 < 1e-3


def test_rectangle_modes_and_eigenfunctions():
    modes = spectral.rectangle_modes(1.0, 1.0, 3)
    assert modes[0] == (0.0, 0, 0)
    assert {m[1:] for m in modes[1:]} == {(0, 1), (1, 0)}
    layout = {0: (0, 0)}
    func = spectral.rectangle_eigenfunction(layout, 1.0, 1.0, 1, 0)
    xs = np.linspace(0.01, 0.99, 7)
    assert np.allclose(func(0, xs, xs),
                       np.sqrt(2) * np.cos(np.pi * xs))
    # L^2 normalization via quadrature
    from scipy.integrate import dblquad
    val, _ = dblquad(lambda y, x: func(0, x, y) ** 2, 0, 1, 0, 1)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_eigenvalue_groups():
    vals = [0.0, 1.0, 1.0 + 1e-9, 2.5]
    groups = spectral.eigenvalue_groups(vals)
    assert groups == [[0], [1, 2], [3]]


def test_convergence_table_orders():
    computed = {n: np.array([1.0 + 3.0 / n ** 2]) for n in (8, 16, 32)}
    rows = spectral.convergence_table([8, 16, 32], computed, np.array([1.0]))
    orders = [r["order"] for r in rows]
    assert orders[0] is None
    assert orders[1] == pytest.approx(2.0, abs=1e-9)
    assert orders[2] == pytest.approx(2.0, abs=1e-9)


def test_richardson_extrapolation_recovers_limit():
    ns = [8, 16, 32, 64]
    values = [5.0 - 2.7 * n ** -2.0 for n in ns]
    limit, p, resid = spectral.richardson_extrapolate(ns, values)
    assert limit == pytest.approx(5.0, abs=1e-6)
    assert p == pytest.approx(2.0, abs=1e-3)
    assert resid < 1e-8
    with pytest.raises(ValueError):
        spectral.richardson_extrapolate([8, 16], [1.0, 2.0])


def test_richardson_order_minimizes_the_residual():
    # the fitted order is the best one of a fine grid over the bracket
    # [0.5, 8], up to the search tolerance, also where the best is the bound
    def residuals(ns, values, orders):
        # least-squares residual against (1, n^-p) for each p, by QR
        bases = np.stack(np.broadcast_arrays(1.0, ns ** -orders[:, None]),
                         axis=-1)
        q = np.linalg.qr(bases)[0]
        fit = np.einsum("pnk,pk->pn", q, np.einsum("pnk,n->pk", q, values))
        return np.linalg.norm(fit - values, axis=1)

    rng = np.random.default_rng(3)
    series = []
    for sizes in ([16, 24, 32], [8, 12, 16, 24, 32]):
        ns = np.array(sizes, dtype=float)
        for _ in range(10):
            p = rng.uniform(0.8, 4.0)
            series.append((ns, 2.0 + rng.normal() * ns ** -p
                           + 1e-6 * rng.standard_normal(len(ns))))
    # decay faster than the upper bound allows: the best p is there
    at_bound = np.array([2.0, 3.0, 4.0, 6.0, 8.0])
    series.append((at_bound, 1.0 + at_bound ** -12.0))
    grid = np.linspace(0.5, 8.0, 3001)
    for ns, values in series:
        _, p, _ = spectral.richardson_extrapolate(ns, values)
        best = residuals(ns, values, grid).min()
        assert residuals(ns, values, np.array([p]))[0] <= (
            (1 + 1e-6) * best + 1e-15)
    assert p >= 8.0 - 1e-6  # the order of the last, at-bound series


def test_eigenpairs_deterministic_with_seed():
    disc = make_disc("lshape", 12)
    v1, w1, _ = spectral.mesh_eigenpairs(disc, 3, seed=7)
    v2, w2, _ = spectral.mesh_eigenpairs(disc, 3, seed=7)
    assert np.array_equal(v1, v2) and np.array_equal(w1, w2)


def test_laplacian_dtype_follows_transports():
    surf = catalog.torus()
    real = [FlatUnitaryBundle.trivial(surf, 2),
            FlatUnitaryBundle(surf, 1, {0: np.array([[-1.0]])})]
    for bundle in real:
        lap = operators.laplacian(Discretization(surf, bundle, 4))
        assert lap.dtype == np.float64
    twisted = FlatUnitaryBundle.twisted_torus(surf, 0.8, -1.9)
    lap = operators.laplacian(Discretization(surf, twisted, 4))
    assert lap.dtype == np.complex128
    assert operators.laplacian(twisted_rank2_torus(4, 3)).dtype == \
        np.complex128


def test_k_dim_minus_one_takes_dense_path(monkeypatch):
    disc = make_disc("torus", 3)

    def no_lanczos(*args, **kwargs):
        raise AssertionError("Lanczos cannot serve k >= dim - 1")

    monkeypatch.setattr(spectral, "_block_lanczos", no_lanczos)
    vals, vecs, _ = spectral.mesh_eigenpairs(disc, 8)
    oracle = spectral.discrete_torus_spectrum(3)
    assert np.allclose(vals, oracle[:8], atol=1e-12)
    assert vecs.shape == (9, 8)


def test_residual_gate_rejects_perturbed_pair(monkeypatch):
    # raw eigenvalues here are at most 0.04, so an absolute 1e-8 gate would
    # let a residual of a few 1e-9 through; the relative gate does not
    disc = make_disc("torus", 32)
    vals, _, res = spectral.mesh_eigenpairs(disc, 4)
    assert res.max() <= 1e-8 * vals.max()
    lanczos = spectral._block_lanczos

    def perturbed(*args, **kwargs):
        w, v = lanczos(*args, **kwargs)
        noise = np.random.default_rng(0).standard_normal(v.shape[1])
        v[-1] += 1e-9 * noise / np.linalg.norm(noise)
        return w, v

    monkeypatch.setattr(spectral, "_block_lanczos", perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        spectral.mesh_eigenpairs(disc, 4)


def _splitmix64(seed, count):
    """The first ``count`` values of the start stream in Python integers:
    splitmix64 from state ``seed``, top 53 bits scaled to [-1, 1)."""
    mask, values, state = 2 ** 64 - 1, [], seed % 2 ** 64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        values.append((z ^ (z >> 31)) >> 11)
    return np.array(values) * 2.0 ** -52 - 1.0


def test_start_stream():
    # the Lanczos start rows: splitmix64 by counter, mixed mod 2^64 with
    # no overflow warning (seeds past 2^64 wrap); the same seed repeats
    # its rows, other seeds change them, the values lie in [-1, 1), and a
    # second draw continues the stream rather than repeating the start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = SplitMix64(7).rows(4, 500)
        assert np.array_equal(rows.ravel()[:50], _splitmix64(7, 50))
        assert np.array_equal(rows, SplitMix64(7).rows(4, 500))
        assert np.array_equal(rows,
                              SplitMix64(7 + 2 ** 64).rows(4, 500))
        for seed in (0, 6, 8, 2 ** 63, 2 ** 64 - 1):
            other = SplitMix64(seed).rows(4, 500)
            assert np.array_equal(other.ravel()[:50], _splitmix64(seed, 50))
            assert not np.isin(other, rows).any()
        stream = SplitMix64(7)
        first, more = stream.rows(4, 500), stream.rows(8, 500)
        assert np.array_equal(first, rows)
        assert not np.isin(more, rows).any()
        assert np.array_equal(np.concatenate([first, more]).ravel(),
                              SplitMix64(7).rows(1, 6000)[0])
        # a complex value takes two values of the stream in turn
        pairs = SplitMix64(7).rows(2, 250, complex)
        assert np.array_equal(pairs.view(float).ravel(), rows[:2].ravel())
        every = SplitMix64(3).rows(100, 1000)
    assert every.min() >= -1.0 and every.max() < 1.0
    assert abs(every.mean()) < 0.01 and abs(np.mean(every ** 2) - 1 / 3) < 0.01


def test_lapack_route_checks_only_kernel_residuals(monkeypatch):
    # lowest_eigenpairs has checked the residuals of its pairs; on the
    # LAPACK route the mesh solver applies the Laplacian only to the exact
    # kernel vectors it puts in, and returns every pair's residual
    calls, apply = [], operators.apply_laplacian

    def counted(disc, v):
        calls.append(len(v))
        return apply(disc, v)

    monkeypatch.setattr(operators, "apply_laplacian", counted)
    routes = record_routes(monkeypatch)
    for rank, size in ((1, 1), (2, 2)):
        disc = make_disc("genus2", 4, rank=rank)
        calls.clear()
        vals, vecs, res = spectral.mesh_eigenpairs(disc, 8)
        assert routes[-1] == "lapack" and len(calls) == size
        assert np.all(vals[:size] == 0.0)
        lap = np.asarray(operators.laplacian(disc))
        want = np.linalg.norm(lap @ vecs - vecs * vals, axis=0)
        assert np.abs(res - want).max() <= 1e-13


# the tracemalloc peak of a Lanczos-route solve, above its basis (k' +
# LANCZOS_BASIS blocks of b = min(LANCZOS_BLOCK, k') rows, for the k'
# values wanted past the kernel) and the inverse Cholesky factor of the
# capacitance matrix K, counted in (b, dim) arrays.  Measured: 3.3 on the
# rank-2 torus and 3.1 on genus2, a margin of 0.7 array; 14.7 and 9.6
# when the seam solves and the thick restart built full-size temporaries
# and the basis stayed alive through the refinement
PEAK_BLOCKS = 4


@pytest.mark.parametrize("case, n, k", [("torus-rank2", 48, 12),
                                        ("genus2", 64, 6)])
def test_mesh_solver_peak_memory(case, n, k):
    disc = (twisted_rank2_torus(n, seed=0) if case == "torus-rank2"
            else make_disc(case, n))
    spectral.mesh_eigenpairs(disc, k)  # imports and caches
    tracemalloc.start()
    try:
        vals, vecs, _ = spectral.mesh_eigenpairs(disc, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    item = vecs.itemsize
    dim = len(vecs)
    wanted = k - capacitance.square_kernel(disc).shape[1]
    block = min(spectral.LANCZOS_BLOCK, wanted)
    basis = (wanted + spectral.LANCZOS_BASIS * block) * dim * item
    factor = (len(disc.seam_tails) * disc.bundle.rank) ** 2 * item
    # the Lanczos route
    assert (k + spectral.LANCZOS_BASIS * min(spectral.LANCZOS_BLOCK, k)
            < spectral.LANCZOS_SHARE * dim)
    blocks = (peak - basis - factor) / (block * dim * item)
    assert blocks <= PEAK_BLOCKS, blocks


def test_orthonormalize_fallback_peak_memory():
    # a block whose Gram matrix fails the Cholesky test is taken row by
    # row into one new block: its rows and the count of stream rows that
    # replace a dependent row are right, and the traced peak above the
    # input is that one block and a few rows (the row norms' squares, a
    # block of their own, are freed before it is made)
    stream = SplitMix64(3)
    w = stream.rows(6, 20000)
    w[-1] = w[1] + 1e-12 * w[0]
    base = w.copy()
    tracemalloc.start()
    try:
        q, coupling, fresh = spectral._orthonormalize(w, [], 0.0, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fresh == 1 and q.shape == w.shape
    assert np.abs(q @ q.T - np.eye(len(q))).max() <= 1e-13
    assert np.abs(q[:-1].T @ coupling[:-1] - base.T).max() <= 1e-9
    assert peak - q.nbytes <= 4 * w.nbytes // len(w), peak / q.nbytes


@pytest.mark.parametrize("case", ["genus2", "pillowcase", "lshape", "rank2"])
def test_inertia_count_matches_dense_count(case):
    # Haynsworth's count of eigenvalues below tau, from K_tau, against a
    # dense eigvalsh count: at random tau, and at tau 1e-4 and 1e-8 of a
    # value away from it on either side; real meshes and a complex one
    rng = np.random.default_rng(1)
    for n in (8, 12, 16):
        disc = (twisted_rank2_torus(n, seed=0) if case == "rank2"
                else make_disc(case, n))
        vals = np.linalg.eigvalsh(np.asarray(operators.laplacian(disc)))
        solver = capacitance.SeamCapacitance(disc, spectral.SHIFT / n ** 2)
        near = np.outer(vals[[1, 3, 7]], 1 + np.array([-1e-4, 1e-4, -1e-8,
                                                        1e-8]))
        for tau in np.concatenate([rng.uniform(0.003, 0.4, 8), near.ravel()]):
            assert solver.count_below(tau) == np.count_nonzero(vals < tau)


def _twisted_tori(seed):
    """The seeded rank-1 and rank-2 flat bundles on the torus that the
    benchmark's `twisted` workload draws for ``seed``: commuting
    holonomies V diag(e^{i alpha}) V*, V diag(e^{i beta}) V*, and a
    rank-1 twist."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2 * np.pi, size=(3, 2))
    q, r = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    surf = catalog.torus()
    rank2 = FlatUnitaryBundle(surf, 2, {
        0: v @ np.diag(np.exp(1j * angles[:2, 0])) @ v.conj().T,
        1: v @ np.diag(np.exp(1j * angles[:2, 1])) @ v.conj().T})
    rank1 = FlatUnitaryBundle.twisted_torus(surf, *angles[2])
    return rank1, rank2


def _certificates(monkeypatch):
    """A list to which each inertia count of a warm-started mesh appends
    whether the mesh passed it."""
    found, certified = [], spectral._certified

    def counted(*args):
        found.append(bool(certified(*args)))
        return found[-1]

    monkeypatch.setattr(spectral, "_certified", counted)
    return found


@pytest.mark.parametrize("case, ns, k, warm", [
    ("genus2", (32, 48, 64), 6, 2), ("pillowcase", (32, 48, 64), 6, 2),
    ("lshape", (32, 48, 64), 6, 2), ("rectangle2x1", (32, 48, 64), 6, 2),
    *[("%s-seed%d" % (rank, seed), ns, 12, 1) for seed in (1, 2, 5)
      for rank, ns in (("rank1", (16, 32, 48)), ("rank2", (12, 16, 20)))]])
def test_chained_values_equal_cold_values(monkeypatch, case, ns, k, warm):
    # a sweep whose Lanczos meshes start from the mesh below returns the
    # values of cold starts: the `sweep` surfaces, and the `twisted`
    # tori, whose first mesh takes LAPACK (and the next one starts cold)
    if "-seed" in case:
        rank, seed = case.split("-seed")
        bundle = _twisted_tori(int(seed))[rank == "rank2"]
        discs = [Discretization(bundle.surface, bundle, n) for n in ns]
    else:
        discs = [make_disc(case, n) for n in ns]
    certified, chain = _certificates(monkeypatch), []
    for disc in discs:
        chained = spectral.mesh_eigenpairs(disc, k, chain=chain)[0]
        cold = spectral.mesh_eigenpairs(disc, k)[0]
        assert np.all(np.abs(chained - cold) <= 1e-12 * np.abs(cold))
    assert certified == [True] * warm


class _Blind:
    """A shift-invert solver whose inverse neither sees nor gives the
    direction of the unit row ``hidden``: block Lanczos on it skips that
    eigenvector's value."""

    def __init__(self, solver, hidden):
        self.solver, self.hidden = solver, hidden

    def __getattr__(self, name):
        return getattr(self.solver, name)

    def _off(self, z):
        return z - np.outer(z @ self.hidden.conj(), self.hidden)

    def apply(self, z):
        return self._off(self.solver.apply(self._off(z)))


@pytest.mark.parametrize("name", ["genus2", "pillowcase"])
def test_warm_start_that_skips_a_value_is_repaired(monkeypatch, name):
    # the warm start block of the n = 32 mesh is the n = 16 mesh's rows
    # with the lowest wanted eigenvector v of the n = 32 mesh projected
    # out (on the pillowcase, v is one member of the 2-fold 9.8617).  That
    # alone does not make block Lanczos skip v: round-off brings it back
    # within the run, so the warm run's inverse is also made blind to v.
    # The inertia count finds the skipped value, and the repair, a cold
    # run, returns the cold values.
    disc, k = make_disc(name, 32), 6
    cold, chain = spectral.mesh_eigenpairs(disc, k)[0], []
    spectral.mesh_eigenpairs(disc, k, chain=chain)
    hidden = chain.pop()[0]
    spectral.mesh_eigenpairs(make_disc(name, 16), k, chain=chain)
    squares = disc.surface.n_squares
    coarse = chain[0].reshape(-1, squares, 16, 16)
    warm = np.zeros((len(coarse), squares, 32, 32))
    warm[..., :16, :16] = coarse
    warm = warm.reshape(len(coarse), -1)
    warm -= np.outer(warm @ hidden, hidden)
    lanczos, runs = spectral._block_lanczos, []

    def blind(solver, *args):
        runs.append(bool(args[-1]))  # whether the run starts warm
        if runs[-1]:
            solver = _Blind(solver, hidden)
        return lanczos(solver, *args)

    monkeypatch.setattr(spectral, "_block_lanczos", blind)
    certified = _certificates(monkeypatch)
    vals = spectral.mesh_eigenpairs(disc, k, chain=[warm])[0]
    assert runs == [True, False] and certified == [False, True]
    assert np.all(np.abs(vals - cold) <= 1e-12 * cold)
    # unchecked, the warm run returns the cold values without v's
    monkeypatch.setattr(spectral, "_certified", lambda *args: True)
    skipped = spectral.mesh_eigenpairs(disc, k, chain=[warm])[0]
    assert np.allclose(skipped[:-1], np.delete(cold, 1), rtol=1e-10)


def test_inertia_mismatch_after_repair_raises(monkeypatch):
    # a warm mesh that fails the count, and again after its cold repair,
    # raises
    chain = []
    spectral.mesh_eigenpairs(make_disc("genus2", 16), 6, chain=chain)
    monkeypatch.setattr(spectral, "_certified", lambda *args: False)
    with pytest.raises(spectral.InertiaMismatch):
        spectral.mesh_eigenpairs(make_disc("genus2", 24), 6, chain=chain)


def test_warm_mesh_peak_memory():
    # the tracemalloc peak of a warm-started mesh, the coarse rows it
    # takes included, is no higher than that of a cold start
    disc, k, chain = make_disc("genus2", 64), 6, []
    spectral.mesh_eigenpairs(make_disc("genus2", 48), k, chain=chain)
    coarse = chain.pop()
    # imports and caches, the inertia count's LAPACK binding among them
    spectral.mesh_eigenpairs(disc, k, chain=[coarse.copy()])
    peaks = []
    for warm in (False, True):
        tracemalloc.start()
        try:
            chain = [coarse.copy()] if warm else None
            spectral.mesh_eigenpairs(disc, k, chain=chain)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    cold, warm = peaks
    assert warm <= cold, (warm, cold)
