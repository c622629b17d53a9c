"""Restriction, averaging, piecewise-linear fields, energy identities."""

import numpy as np
import pytest

from tilelap import catalog, interp, operators, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.discretize import Discretization

from conftest import make_disc, random_unitary


def _random_section(rng, disc, rank=1):
    size = disc.n_vertices * rank
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def test_restrict_samples_cell_centers():
    disc = make_disc("square", 4)
    f = interp.restrict(disc, lambda q, x, y: x + 10 * y)
    v = disc.vertex_index(0, 2, 1)
    assert f[v] == pytest.approx(0.625 + 3.75)


def test_average_is_idempotent(named_surface):
    name, surf = named_surface
    rng = np.random.default_rng(1)
    disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), 3)
    f = _random_section(rng, disc)
    once = interp.average(disc, f)
    twice = interp.average(disc, once)
    assert np.allclose(once, twice, atol=1e-13)


def test_average_equalizes_singular_clusters():
    disc = make_disc("pillowcase", 4)
    rng = np.random.default_rng(2)
    f = interp.average(disc, _random_section(rng, disc))
    for p in disc.singular_points():
        cells, trans = p.distinct_cells()
        base = trans[0].conj().T @ f[cells[0]:cells[0] + 1]
        for c, t in zip(cells, trans):
            assert np.allclose(t.conj().T @ f[c:c + 1], base, atol=1e-12)


def test_linear_function_reproduced_exactly():
    # interpolation of the restriction of an affine function is that
    # function away from the boundary (boundary half-cells extend the data
    # inward, matching the Neumann convention); on rectangle2x1 the samples
    # also cover the internal seam at X = 1
    rng = np.random.default_rng(3)
    for name, n in (("square", 4), ("rectangle2x1", 4), ("rectangle2x1", 3)):
        disc = make_disc(name, n)
        layout = disc.surface.layout
        func = lambda q, x, y: 2.0 * (x + layout[q][0]) - 0.5 * y + 0.25
        field = interp.linearize(disc, interp.restrict(disc, func))
        width = disc.surface.n_squares
        for _ in range(50):
            x, y = rng.uniform(0.2, width - 0.2), rng.uniform(0.2, 0.8)
            q = min(int(x), width - 1)
            assert field.value(q, x - q, y)[0] == pytest.approx(
                func(q, x - q, y), abs=1e-12)


def test_lattice_points_average_main_diagonal():
    # on the torus every lattice point (a, b), square corners and seam
    # points included, takes the mean of the cells NE and SW of it
    for n in (1, 2, 3):
        disc = make_disc("torus", n)
        f = np.random.default_rng(n).standard_normal(disc.n_vertices)
        grid = interp.linearize(disc, f).grids[0][..., 0]
        for a in range(n + 1):
            for b in range(n + 1):
                ne = f[disc.vertex_index(0, a % n, b % n)]
                sw = f[disc.vertex_index(0, (a - 1) % n, (b - 1) % n)]
                assert grid[2 * a, 2 * b] == pytest.approx(0.5 * (ne + sw),
                                                           abs=1e-14)


def test_field_continuous_across_seams():
    # values match when the same seam point is evaluated from both squares
    torus = catalog.torus()
    twisted = Discretization(
        torus, FlatUnitaryBundle.twisted_torus(torus, 1.1, -0.4), 4)
    discs = [make_disc(name, 4) for name in ("torus", "pillowcase", "genus2")]
    for disc in discs + [twisted]:
        rng = np.random.default_rng(4)
        f = interp.average(disc, _random_section(rng, disc))
        field = interp.linearize(disc, f)
        surf = disc.surface
        for seam in surf.seams:
            (q1, s1), (q2, s2) = seam.first, seam.second
            for t in (0.125, 0.5, 0.8):
                t2 = t if seam.kind == "translation" else 1.0 - t
                p1 = _side_point(s1, t)
                p2 = _side_point(s2, t2)
                v1 = field.value(q1, *p1)
                u = disc.bundle.seam_unitary(seam.index, -1)
                v2 = field.value(q2, *p2)
                # v1 is in the frame of q1; transport v2 into it
                assert np.allclose(v1, u @ v2, atol=1e-10)


def test_gauge_covariance_rank2():
    # a gauge-trivial bundle: square q's frame is g_q times the global one,
    # so a seam carries g_second g_first^* and the gauged section g_q f(v)
    # must extend to g_q times the trivial bundle's extension of f
    rng = np.random.default_rng(11)
    for name in ("pillowcase", "genus2", "lshape"):
        surf = catalog.BUILTIN[name]()
        gauge = [random_unitary(rng, 2) for _ in range(surf.n_squares)]
        bundle = FlatUnitaryBundle(surf, 2, {
            seam.index: gauge[seam.second[0]] @ gauge[seam.first[0]].conj().T
            for seam in surf.seams})
        trivial = FlatUnitaryBundle.trivial(surf, 2)
        for n in (1, 2, 3, 5):
            disc = Discretization(surf, bundle, n)
            plain = Discretization(surf, trivial, n)
            squares = np.arange(disc.n_vertices) // (n * n)
            f = _random_section(rng, disc, rank=2).reshape(-1, 2)
            gauged = np.einsum("vij,vj->vi", np.array(gauge)[squares], f)
            field = interp.linearize(disc, gauged)
            reference = interp.linearize(plain, f)
            for q in range(surf.n_squares):
                expected = np.einsum("ij,abj->abi", gauge[q],
                                     reference.grids[q])
                assert np.allclose(field.grids[q], expected, atol=1e-12)
            g = interp.average(disc, _random_section(rng, disc, rank=2))
            graph = operators.dirichlet_form(
                disc, interp.average(disc, gauged), g)
            energy = field.dirichlet_energy(interp.linearize(disc, g))
            assert abs(graph - energy) <= 1e-12 * (1 + abs(graph)
                                                   + abs(energy))
            for seam in surf.seams:
                (q1, s1), (q2, s2) = seam.first, seam.second
                back = bundle.seam_unitary(seam.index, -1)  # second -> first
                for t in (0.125, 0.5, 0.8):
                    t2 = t if seam.kind == "translation" else 1.0 - t
                    assert np.allclose(field.value(q1, *_side_point(s1, t)),
                                       back @ field.value(
                                           q2, *_side_point(s2, t2)),
                                       atol=1e-10)


def _side_point(side, t):
    return {"N": (t, 1.0), "S": (t, 0.0), "E": (1.0, t), "W": (0.0, t)}[side]


def test_energy_identity_exact(named_surface):
    name, surf = named_surface
    rng = np.random.default_rng(5)
    for n in (2, 4):
        disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), n)
        f = interp.average(disc, _random_section(rng, disc))
        g = interp.average(disc, _random_section(rng, disc))
        graph = operators.dirichlet_form(disc, f, g)
        field = interp.linearize(disc, f).dirichlet_energy(
            interp.linearize(disc, g))
        scale = 1 + abs(graph) + abs(field)
        assert abs(graph - field) <= 1e-12 * scale


def test_energy_identity_with_twisted_bundle():
    surf = catalog.torus()
    bundle = FlatUnitaryBundle.twisted_torus(surf, 1.2, -0.7)
    rng = np.random.default_rng(6)
    for n in (2, 4):
        disc = Discretization(surf, bundle, n)
        f = interp.average(disc, _random_section(rng, disc))
        graph = operators.dirichlet_form(disc, f, f)
        field = interp.linearize(disc, f).dirichlet_energy()
        assert abs(graph - field) <= 1e-12 * (1 + abs(graph) + abs(field))


def test_l2_pairing_constant_field():
    disc = make_disc("square", 4)
    field = interp.linearize(disc, np.full(disc.n_vertices, 2.0 + 1j))
    assert field.l2_pairing() == pytest.approx(5.0, abs=1e-12)
    assert field.l2_norm() == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_pair_with_quadrature_exact_for_polynomials():
    # degree-4 triangle quadrature integrates x^2 y^2 exactly against an
    # affine interpolant of x
    disc = make_disc("square", 2)
    field = interp.linearize(
        disc, interp.restrict(disc, lambda q, x, y: x))
    val = field.pair_with(lambda q, x, y: x ** 2)
    from scipy.integrate import dblquad
    exact = 0.0
    rng = np.random.default_rng(0)
    exact, _ = dblquad(
        lambda y, x: field.value(0, x, y)[0].real * x ** 2, 0, 1, 0, 1)
    assert val.real == pytest.approx(exact, abs=1e-9)


def test_pairing_ratio_smooth_sections():
    # <L_n f, L_n g> approximates n^{-2} <f, g> for smooth data
    disc8 = make_disc("square", 8)
    disc32 = make_disc("square", 32)
    func = spectral.rectangle_eigenfunction({0: (0, 0)}, 1.0, 1.0, 1, 1)
    r8 = interp.pairing_ratio(disc8, interp.restrict(disc8, func))
    r32 = interp.pairing_ratio(disc32, interp.restrict(disc32, func))
    assert abs(r32 - 1.0) < abs(r8 - 1.0)
    assert abs(r32 - 1.0) < 5e-3


def test_consistency_residual_interior_second_order():
    # the five-point stencil at interior cells is O(1/n^2) accurate
    surf = catalog.rectangle(1, 1)
    func = spectral.rectangle_eigenfunction({0: (0, 0)}, 1.0, 1.0, 1, 1)
    lam = 2 * np.pi ** 2
    lap = lambda q, x, y: lam * func(q, x, y)
    res = {}
    for n in (16, 32, 64):
        disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), n)
        res[n] = interp.consistency_residual(disc, func, lap)
    for n in (16, 32, 64):
        assert res[n]["interior"] <= 30.0 / n  # O(1/n) bound
    ratio = res[64]["interior"] / res[32]["interior"]
    assert 0.2 <= ratio <= 0.3


def test_consistency_residual_boundary_first_order():
    # a Neumann function with nonvanishing third normal derivative shows
    # the generic O(1/n) boundary behaviour
    surf = catalog.rectangle(1, 1)
    g = lambda y: y ** 2 * (1 - y) ** 2
    gpp = lambda y: 2 - 12 * y + 12 * y ** 2
    func = lambda q, x, y: np.cos(np.pi * x) * g(y)
    lap = lambda q, x, y: (np.pi ** 2 * g(y) - gpp(y)) * np.cos(np.pi * x)
    res = {}
    for n in (32, 64):
        disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), n)
        res[n] = interp.consistency_residual(disc, func, lap)
    assert 0.4 <= res[64]["edge"] / res[32]["edge"] <= 0.65
    assert 0.2 <= res[64]["interior"] / res[32]["interior"] <= 0.3


def test_subspace_error_decreases():
    surf = catalog.rectangle(1, 1)
    bundle = FlatUnitaryBundle.trivial(surf)
    funcs = [spectral.rectangle_eigenfunction(surf.layout, 1, 1, 1, 0),
             spectral.rectangle_eigenfunction(surf.layout, 1, 1, 0, 1)]
    errs = []
    for n in (8, 16):
        disc = Discretization(surf, bundle, n)
        _, vecs = spectral.rescaled_spectrum(disc, 3, seed=0)
        errs.append(interp.subspace_error(disc, vecs[:, 1:3], funcs))
    assert errs[1] < errs[0] < 0.05


def test_subspace_error_zero_for_matching_span():
    # comparing the restricted references against themselves is near zero
    surf = catalog.rectangle(1, 1)
    disc = Discretization(surf, FlatUnitaryBundle.trivial(surf), 16)
    func = spectral.rectangle_eigenfunction(surf.layout, 1, 1, 1, 0)
    block = interp.restrict(disc, func).reshape(-1, 1)
    err = interp.subspace_error(disc, block, [func])
    assert err < 2e-3
