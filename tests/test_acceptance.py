"""End-to-end acceptance checks for the whole laboratory.

Each test pins one headline claim: eigenvalue/eigenvector convergence
against closed-form continuum spectra, exact operator and energy
identities, finite-difference consistency rates, lattice potential theory
(corner flow, barrier, Green functions), eigenvector regularity
diagnostics, the forest-sum determinant identity, and structural censuses
of the example surfaces.
"""

import math

import numpy as np
import pytest

from tilelap import catalog, interp, operators, potential, spectral
from tilelap.bundle import FlatUnitaryBundle
from tilelap.crsf import random_connection_graph
from tilelap.discretize import Discretization
from tilelap.stream import SplitMix64

SCHEDULE = (8, 16, 32, 64)


def _disc(name, n, bundle=None, rank=1):
    surface = catalog.BUILTIN[name]()
    if bundle is None:
        bundle = FlatUnitaryBundle.trivial(surface, rank)
    return Discretization(surface, bundle, n)


def test_01_eigenvalue_convergence_rectangle():
    surface = catalog.rectangle(2, 1)
    bundle = FlatUnitaryBundle.trivial(surface)
    reference = spectral.reference_spectrum("rectangle", (2.0, 1.0), 7)
    errors = {}
    for n in SCHEDULE:
        disc = Discretization(surface, bundle, n)
        vals, _ = spectral.rescaled_spectrum(disc, 7, seed=0)
        errors[n] = np.abs(vals[1:7] - reference[1:7])
    for i in range(6):
        errs = [errors[n][i] for n in SCHEDULE]
        assert all(a > b for a, b in zip(errs, errs[1:])), \
            "error not decreasing for mode %d" % (i + 1)
    rel = errors[64] / reference[1:7]
    assert rel.max() <= 0.01
    for i in range(3):
        order = math.log2(errors[32][i] / errors[64][i])
        assert order >= 1.5


def test_02_twisted_bundle_convergence():
    surface = catalog.torus()
    bundle = FlatUnitaryBundle.twisted_torus(surface, np.pi, 0.0)
    target = np.pi ** 2
    # lattice-sum oracle: lowest continuum eigenvalue 4 pi^2 (1/2)^2
    assert spectral.reference_spectrum(
        "torus", (1.0, 1.0, np.pi, 0.0), 1)[0] == pytest.approx(target)
    for n in SCHEDULE:
        disc = Discretization(surface, bundle, n)
        vals, _ = spectral.rescaled_spectrum(disc, 1, seed=0)
        assert vals[0] >= target / 2  # no zero mode survives the twist
        if n == 64:
            assert abs(vals[0] - target) / target <= 0.01


def test_03_eigenvector_subspace_convergence():
    surface = catalog.rectangle(1, 1)
    bundle = FlatUnitaryBundle.trivial(surface)
    funcs = [spectral.rectangle_eigenfunction(surface.layout, 1, 1, 1, 0),
             spectral.rectangle_eigenfunction(surface.layout, 1, 1, 0, 1)]
    errors = []
    for n in SCHEDULE:
        disc = Discretization(surface, bundle, n)
        vals, vecs = spectral.rescaled_spectrum(disc, 4, seed=0)
        groups = spectral.eigenvalue_groups(vals)
        group = groups[1]
        assert len(group) == 2  # the doubled eigenvalue pi^2
        errors.append(interp.subspace_error(disc, vecs[:, group], funcs))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 5e-2


def test_04_energy_identity():
    rng = np.random.default_rng(2024)
    for name in ("torus", "lshape", "pillowcase"):
        surface = catalog.BUILTIN[name]()
        bundle = FlatUnitaryBundle.trivial(surface)
        for n in (4, 8):
            disc = Discretization(surface, bundle, n)
            size = disc.n_vertices
            for _ in range(20):
                f = interp.average(disc, rng.standard_normal(size)
                                   + 1j * rng.standard_normal(size))
                g = interp.average(disc, rng.standard_normal(size)
                                   + 1j * rng.standard_normal(size))
                graph = operators.dirichlet_form(disc, f, g)
                field = interp.linearize(disc, f).dirichlet_energy(
                    interp.linearize(disc, g))
                ef = operators.dirichlet_form(disc, f, f).real
                eg = operators.dirichlet_form(disc, g, g).real
                assert abs(graph - field) <= 1e-12 * (1 + ef + eg)


def test_05_operator_algebra():
    from conftest import sparse_laplacian

    rng = np.random.default_rng(5)
    for name in catalog.BUILTIN:
        surface = catalog.BUILTIN[name]()
        for rank in (1, 2):
            bundle = FlatUnitaryBundle.trivial(surface, rank)
            disc = Discretization(surface, bundle, 3)
            lap = operators.laplacian(disc)
            # Delta = div grad: matrix-free, assembled and energy forms
            f = (rng.standard_normal(len(lap))
                 + 1j * rng.standard_normal(len(lap)))
            lap_f = operators.apply_laplacian(disc, f)
            assert np.abs(lap_f - sparse_laplacian(disc) @ f).max() <= 1e-13
            assert np.abs(lap_f - lap @ f).max() <= 1e-13
            assert np.vdot(f, lap_f) == pytest.approx(
                np.sum(operators.edge_differences(disc, f) ** 2), rel=1e-13)
            assert abs(lap - lap.conj().T).max() <= 1e-13
            vals = np.linalg.eigvalsh(lap)
            assert vals.min() >= -1e-10
            assert vals.max() <= 8 * rank + 1e-10
            if not surface.free_sides:
                assert np.sum(vals < 1e-8) == rank


def test_06_finite_difference_consistency():
    # Vertices sit at cell centres, so the Neumann stencil acts like a
    # reflected ghost value: its boundary error is h f'''(wall) / 24 +
    # O(h^2), first order when the third normal derivative is nonzero at
    # the walls and second order when every odd normal derivative vanishes.
    surface = catalog.rectangle(1, 1)
    bundle = FlatUnitaryBundle.trivial(surface)
    g = lambda y: y ** 2 * (1 - y) ** 2
    gpp = lambda y: 2 - 12 * y + 12 * y ** 2
    cases = {
        "generic": (
            lambda q, x, y: np.cos(np.pi * x) * g(y),
            lambda q, x, y: (np.pi ** 2 * g(y) - gpp(y)) * np.cos(np.pi * x)),
        "cos_cos": (
            lambda q, x, y: np.cos(np.pi * x) * np.cos(np.pi * y),
            lambda q, x, y: 2 * np.pi ** 2 * np.cos(np.pi * x)
            * np.cos(np.pi * y)),
    }
    boundary_ratio = {}
    for name, (func, lap) in cases.items():
        res = {}
        for n in (8, 16, 32, 64):
            disc = Discretization(surface, bundle, n)
            res[n] = interp.consistency_residual(disc, func, lap)
        # max residual decays like C/n over the schedule
        c = 2 * 8 * max(res[8].values())
        for n in res:
            assert max(res[n].values()) <= c / n, (name, n)
        interior_ratio = res[64]["interior"] / res[32]["interior"]
        assert 0.2 <= interior_ratio <= 0.3, name
        boundary_ratio[name] = max(res[64]["edge"], res[64]["corner"]) / \
            max(res[32]["edge"], res[32]["corner"])
    # nonzero third normal derivative: first-order boundary rate
    assert 0.4 <= boundary_ratio["generic"] <= 0.6
    # odd normal derivatives of cos(pi x) cos(pi y) vanish at the walls:
    # second-order boundary rate
    assert 0.2 <= boundary_ratio["cos_cos"] <= 0.3


def test_07_corner_flow():
    n = 1024
    div = potential.corner_flow_divergence(n)
    size = n + 2
    a = np.arange(size)[:, None]
    b = np.arange(size)[None, :]
    expected = np.zeros((size, size))
    expected[0, 0] = -1.0
    expected[(a + b) == n] = 1.0 / (n + 1)
    assert np.abs(div - expected).max() <= 1e-12
    assert potential.corner_flow_norm_sq(n) <= 2 * potential.harmonic_number(n)


def test_08_barrier():
    for name in ("lshape", "pillowcase"):
        disc = _disc(name, 16)
        for point in disc.singular_points():
            report = potential.barrier_report(disc, point)
            assert report["checked"] > 0
            assert report["violations"] == 0, (name, report)


def test_09a_green_ball_residual_and_maximum_principle():
    for radius in (16, 64, 128):
        green = potential.green_ball(radius)
        assert green.residual() <= 1e-10
        vals = np.asarray(green.values)
        assert vals.min() > 0
        assert green(green.source) == vals.max()


def test_09b_sphere_max_ratio():
    for n in (16, 32):
        green = potential.green_ball(4 * n)
        pts = np.array(green.points)
        vals = np.asarray(green.values)
        r = np.hypot(pts[:, 0], pts[:, 1])
        ratio = (vals[np.abs(r - 2 * n) <= 0.5].max()
                 / vals[np.abs(r - n) <= 0.5].max())
        assert 0.35 <= ratio <= 0.65


def test_09c_fullplane_constant():
    # G solves the degree-4 equation Delta G = delta, so G(0) - G(z) is a
    # quarter of the potential kernel a(z) = (2/pi) ln|z| + (2 gamma +
    # ln 8)/pi + O(|z|^-2) (Lawler-Limic, Random Walk: A Modern
    # Introduction, 2010, Thm 4.4.4). The exact kernel values a(1,0) = 1
    # and a(1,1) = 4/pi pin that normalization.
    green = potential.green_ball(128)
    g0 = green((0, 0))
    assert abs((g0 - green((1, 0))) - 0.25) <= 1e-10
    assert abs((g0 - green((1, 1))) - 1 / math.pi) <= 1e-10
    c, dev = potential.fullplane_constant(128)
    assert dev < 1e-3
    gamma = 0.5772156649015329
    target = -(2 * gamma + math.log(8)) / (4 * math.pi)
    assert abs(c - target) <= 1e-5


def test_09d_halfplane_interior_match():
    source = (95, 0)
    radius = math.sqrt(4.35 * (2 * 95 + 1))
    gh = potential.green_halfplane(source, radius)
    gb = potential.green_ball(math.sqrt(18.5))
    worst = max(abs(gh((95 + a, b)) - gb((a, b))) for (a, b) in gb.points)
    assert worst <= 1e-8


def test_10_harnack_diagnostics():
    for name in ("torus", "lshape"):
        gaps = []
        for n in SCHEDULE:
            disc = _disc(name, n)
            _, vecs = spectral.rescaled_spectrum(disc, 2, seed=1)
            f = vecs[:, 1]
            diag = potential.harnack_diagnostics(disc, f)
            gaps.append(diag["max_edge_gap"])
            if name == "torus":
                # closed-form prediction 2 |sin(pi/n)| * amplitude, with
                # the amplitude read off the dominant Fourier modes
                g = (f * (n / np.linalg.norm(f))).reshape(n, n)
                coef = np.fft.fft2(g) / (n * n)
                amp = 2 * max(abs(coef[0, 1]), abs(coef[1, 0]))
                predicted = 2 * abs(math.sin(math.pi / n)) * amp
                assert abs(gaps[-1] - predicted) / predicted <= 0.10
        assert all(a > b for a, b in zip(gaps, gaps[1:])), name


def test_11_forest_sum_identity():
    stream = SplitMix64(7)
    failures = 0
    for _ in range(200):
        graph = random_connection_graph(stream)
        det = graph.determinant()
        forest = graph.forest_sum()
        scale = max(1.0, abs(det), abs(forest))
        if abs(det - forest) / scale > 1e-9:
            failures += 1
    assert failures == 0


def test_12_structural_censuses():
    for n in (2, 3, 4, 5, 8):
        disc = _disc("pillowcase", n)
        census = disc.census()
        assert census["n_cone_points"] == 4
        assert census["cone_quarters"] == [2, 2, 2, 2]
        assert census["doubled_edges"] == 4
    disc = _disc("lshape", 8)
    reflex = [p for p in disc.singular_points()
              if not p.interior and p.quarters == 3]
    assert len(reflex) == 1
    assert len(reflex[0].distinct_cells()[0]) == 3
    for name in catalog.BUILTIN:
        surface = catalog.BUILTIN[name]()
        assert abs(surface.gauss_bonnet_defect()) <= 1e-12
