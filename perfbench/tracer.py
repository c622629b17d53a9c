"""Span tracing of the `tilelap` library from outside it.

`install` replaces the public functions and public methods of every
`tilelap` module with wrappers that record one span per call: its name,
layer, start, end, the index of the enclosing span, and an optional probe
of work counts taken from the call's arguments and result.  Spans stay in
memory in `Tracer.spans` until the process writes them out.  The library
itself is not modified on disk.

Two kinds of function are left unwrapped (`UNWRAPPED`).  Per-element
helpers are called up to hundreds of thousands of times per command, so a
span per call would cost more than the work it measures; their time counts
as self time of the calling layer.  The CLI's `main` and `build_parser`
run before the subcommand handler, in the start-up phase the launcher
times on its own.
"""

import functools
import importlib
import inspect
import time
import zlib

import numpy as np

MODULES = ("surface", "catalog", "bundle", "discretize", "operators",
           "spectral", "interp", "potential", "crsf", "cli")

# qualified names without "tilelap."
UNWRAPPED = frozenset({
    "cli.main",
    "cli.build_parser",
    "bundle.FlatUnitaryBundle.seam_unitary",
    "surface.Seam.__init__",
    "surface.SquareTiledSurface.cross",
    "surface.SquareTiledSurface.seam_at",
    "surface.SquareTiledSurface.is_free",
    "surface.Seam.param_map",
    "surface.Seam.lattice_map",
    "discretize.Discretization.vertex_index",
    "discretize.Discretization.vertex_cell",
    "discretize.Discretization.step",
    "discretize.Edge.__init__",
    "discretize.LatticePoint.__init__",
    "discretize.Walker.__init__",
    "discretize.Walker.move",
    "discretize.LatticePoint.distinct_cells",
    "interp.PiecewiseLinearField.value",
    "potential.GreenFunction.__call__",
    "potential.GreenFunction.__contains__",
    "potential.ball_laplacian_row",
    "potential.halfplane_laplacian_row",
    "potential.halfplane_embed",
})

# private functions that are layer boundaries all the same
EXTRA = frozenset({"cli._emit"})

# qualified name -> layer; anything else falls into its module's layer,
# except that all of `catalog` is the layer catalog.load
LAYERS = {
    "discretize.Discretization.__init__": "discretize.build",
    "discretize.Discretization.lattice_points": "discretize.lattice_points",
    "discretize.Discretization.distance_to_singular":
        "discretize.distance_to_singular",
    "discretize.Discretization.census": "discretize.census",
    "operators.laplacian": "operators.laplacian",
    "operators.dirichlet_form": "operators.edge_loops",
    "operators.edge_differences": "operators.edge_loops",
    # split into spectral.eigen.small / .large by matrix dimension
    "spectral.lowest_eigenpairs": "spectral.eigen",
    "spectral.reference_spectrum": "spectral.tables",
    "spectral.discrete_torus_spectrum": "spectral.tables",
    "spectral.discrete_rectangle_spectrum": "spectral.tables",
    "spectral.convergence_table": "spectral.tables",
    "spectral.rectangle_modes": "spectral.tables",
    "spectral.rectangle_eigenfunction": "spectral.tables",
    "spectral.eigenvalue_groups": "spectral.tables",
    "spectral.richardson_extrapolate": "spectral.tables",
    "interp.average": "interp.average",
    "interp.linearize": "interp.linearize",
    "interp.restrict": "interp.restrict",
    "interp.subspace_error": "interp.subspace_error",
    "interp.consistency_residual": "interp.consistency_residual",
    "potential.green_ball": "potential.green",
    "potential.green_halfplane": "potential.green",
    "potential.quasi_ball": "potential.green",
    "potential.reflected_plane_green": "potential.green",
    "potential.fullplane_constant": "potential.green",
    "potential.GreenFunction.__init__": "potential.green",
    "potential.GreenFunction.residual": "potential.green_residual",
    "potential.graph_distances": "potential.barrier",
    "potential.convex_barrier": "potential.barrier",
    "potential.barrier_report": "potential.barrier",
    "potential.harnack_diagnostics": "potential.harnack",
    "crsf.ConnectionGraph.laplacian": "crsf.determinant",
    "crsf.ConnectionGraph.determinant": "crsf.determinant",
    "crsf.ConnectionGraph.forest_sum": "crsf.forest_sum",
    "cli._emit": "cli.emit",
}


def layer_of(qualname):
    if qualname in LAYERS:
        return LAYERS[qualname]
    if qualname.startswith("catalog."):
        return "catalog.load"
    if qualname.startswith("interp.PiecewiseLinearField."):
        return "interp.field"
    return qualname.split(".", 1)[0]


def mesh_key(disc):
    """Identity of a mesh within one process: surface shape, bundle, n."""
    bundle = disc.bundle
    digest = zlib.crc32(b"".join(np.ascontiguousarray(t).tobytes()
                                 for t in bundle.transports))
    return [disc.surface.n_squares, len(disc.surface.seams), bundle.rank,
            disc.n, digest]


# ---- probes: work counts read from a call's arguments and result -------


def _probe_build(args, kwargs, result):
    disc = args[0]
    return {"mesh": mesh_key(disc),
            "unknowns": disc.n_vertices * disc.bundle.rank,
            "edges": len(disc.edges)}


def _probe_laplacian(args, kwargs, result):
    return {"mesh": mesh_key(args[0]), "nnz": int(result.nnz)}


def _probe_disc(args, kwargs, result):
    return {"mesh": mesh_key(args[0])}


def _probe_eigen(args, kwargs, result):
    mat = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"dim": int(mat.shape[0]), "pairs": int(k),
            "residual_max": float(np.max(result[2])) if len(result[2])
            else 0.0}


def _probe_count(args, kwargs, result):
    return {"count": len(result)}


def _probe_linearize(args, kwargs, result):
    return {"grid_points": int(sum(g.shape[0] * g.shape[1]
                                   for g in result.grids))}


def _probe_green(args, kwargs, result):
    return {"points": len(result.points)}


PROBES = {
    "discretize.Discretization.__init__": _probe_build,
    "discretize.Discretization.lattice_points": _probe_count,
    "operators.laplacian": _probe_laplacian,
    "spectral.rescaled_spectrum": _probe_disc,
    "spectral.lowest_eigenpairs": _probe_eigen,
    "interp.linearize": _probe_linearize,
    "potential.green_ball": _probe_green,
    "potential.green_halfplane": _probe_green,
}


class Tracer:
    """Span recorder.  Each span is [name, start, end, parent, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                # the instance is passed as args[0]; __init__ returns None
                rec[4] = probe(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public callables of every module of ``package``."""
        replaced = {}
        modules = [importlib.import_module(package + "." + m)
                   for m in MODULES]
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                name = short + "." + attr
                if attr.startswith("_") and name not in EXTRA:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if name not in UNWRAPPED:
                        replaced[obj] = self.wrap(obj, name)
                        setattr(mod, attr, replaced[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, name)
        # names imported from one tilelap module into another
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _install_class(self, cls, prefix):
        for attr, member in list(vars(cls).items()):
            name = prefix + "." + attr
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if name in UNWRAPPED:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(
                    self.wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, name))
