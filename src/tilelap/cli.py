"""Command-line front end.

Every subcommand emits a CSV table (to stdout, or to <out>.csv when --out
is given) plus a JSON sidecar <out>.json recording the command, parameters
and summary values.  Output is deterministic for fixed inputs and seed.

Exit codes: 0 success, 1 invalid input, 2 numerical tolerance failure,
3 internal error.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import catalog, crsf, interp, operators, potential, spectral
from .bundle import FlatUnitaryBundle
from .discretize import Discretization
from .surface import SurfaceFormatError


class ToleranceFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _emit(rows, fieldnames, args, summary):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row.get(k)) for k in fieldnames])
    text = buf.getvalue()
    if args.out:
        with open(args.out + ".csv", "w") as fh:
            fh.write(text)
        sidecar = {
            "command": args.command,
            "params": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "out") and v is not None},
            "summary": summary,
        }
        with open(args.out + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _load(name, check=True):
    """Surface and bundle by built-in name or file path.  The bundle must
    be unitary and flat (ValueError otherwise) unless ``check`` is False."""
    surface, spec = catalog.load(name)
    bundle = FlatUnitaryBundle.from_spec(surface, spec)
    if check:
        bundle.validate()
    return surface, bundle


def _parse_ns(text):
    try:
        ns = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise SurfaceFormatError("bad mesh list %r" % text)
    if not ns or any(n < 1 for n in ns):
        raise SurfaceFormatError("mesh sizes must be positive")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise SurfaceFormatError("mesh sizes must increase strictly, got %r"
                                 % text)
    return ns


def _check_mesh(disc, k, flag):
    """Reject a mesh with no more than k unknowns, naming the flag at
    fault: the eigensolver needs k < dim.  Meshes only grow along --ns, so
    a check in the sweep loop stops at the first mesh, before any solve."""
    dim = disc.n_vertices * disc.bundle.rank
    if k >= dim:
        raise SurfaceFormatError("%s: the n = %d mesh has dimension %d, "
                                 "too small for %d eigenpairs"
                                 % (flag, disc.n, dim, k))


# ---- subcommands -------------------------------------------------------


def cmd_validate(args):
    surface, bundle = _load(args.surface, check=False)
    bundle_defect = max(bundle.unitarity_defect(),
                        bundle.cone_monodromy_defect())
    disc = Discretization(surface, bundle, args.n)
    census = disc.census()
    rows = [{"key": k, "value": v if not isinstance(v, list) else
             " ".join(map(str, v))} for k, v in census.items()]
    rows.append({"key": "euler_characteristic",
                 "value": surface.euler_characteristic()})
    gb = surface.gauss_bonnet_defect()
    rows.append({"key": "gauss_bonnet_defect", "value": gb})
    rows.append({"key": "bundle_defect", "value": bundle_defect})
    _emit(rows, ["key", "value"], args,
          {"bundle_defect": bundle_defect, "gauss_bonnet_defect": gb})
    if abs(gb) > args.tol or bundle_defect > args.tol:
        raise ToleranceFailure("surface/bundle validation failed")


def cmd_spectrum(args):
    surface, bundle = _load(args.surface)
    disc = Discretization(surface, bundle, args.n)
    vals, _ = spectral.rescaled_spectrum(disc, args.k, seed=args.seed)
    rows = [{"i": i, "rescaled": v, "raw": v / args.n ** 2}
            for i, v in enumerate(vals)]
    _emit(rows, ["i", "rescaled", "raw"], args, {"k": args.k})


def _converge_one(params):
    surface_name, n, k, seed = params
    surface, bundle = _load(surface_name)
    disc = Discretization(surface, bundle, n)
    vals, _ = spectral.rescaled_spectrum(disc, k, seed=seed)
    return n, vals


def _parse_reference(text, k):
    kind, _, params = text.partition(":")
    try:
        params = tuple(float(p) for p in params.split(",")) if params else ()
    except ValueError:
        raise ValueError("bad reference parameters %r" % text)
    return spectral.reference_spectrum(kind, params, k)


def cmd_converge(args):
    ns = _parse_ns(args.ns)
    reference = (_parse_reference(args.reference, args.k)
                 if args.reference else None)
    jobs = [(args.surface, n, args.k, args.seed) for n in ns]
    if args.jobs > 1:
        from multiprocessing import Pool

        with Pool(args.jobs) as pool:
            results = pool.map(_converge_one, jobs)
    else:
        results = [_converge_one(j) for j in jobs]
    computed = dict(results)
    summary = {}
    if reference is not None:
        rows = spectral.convergence_table(ns, computed, reference)
        errs = [r["error"] for r in rows if r["n"] == ns[-1]]
        summary["max_error_finest"] = max(errs)
    else:
        rows = []
        for i in range(args.k):
            series = [computed[n][i] for n in ns]
            if len(ns) >= 3:
                limit, order, resid = spectral.richardson_extrapolate(
                    ns, series)
            else:
                limit, order, resid = series[-1], None, None
            for n in ns:
                rows.append({"n": n, "i": i, "value": computed[n][i],
                             "reference": limit, "error":
                             abs(computed[n][i] - limit), "order": order})
    _emit(rows, ["n", "i", "value", "reference", "error", "order"], args,
          summary)


def cmd_eigvec(args):
    surface, bundle = _load(args.surface)
    if surface.layout is None or not surface.free_sides:
        raise SurfaceFormatError(
            "eigvec needs a planar rectangle-type surface with layout")
    xs = [ox for ox, _ in surface.layout.values()]
    ys = [oy for _, oy in surface.layout.values()]
    a, b = max(xs) + 1, max(ys) + 1
    modes = spectral.rectangle_modes(a, b, args.k)
    values = [m[0] for m in modes]
    groups = spectral.eigenvalue_groups(values)
    if not 0 <= args.group < len(groups):
        raise SurfaceFormatError("group index out of range")
    group = groups[args.group]
    funcs = [spectral.rectangle_eigenfunction(surface.layout, a, b,
                                              modes[i][1], modes[i][2])
             for i in group]
    rows = []
    prev = None
    for n in _parse_ns(args.ns):
        disc = Discretization(surface, bundle, n)
        _check_mesh(disc, max(group) + 1, "--ns")
        _, vecs = spectral.rescaled_spectrum(disc, max(group) + 1,
                                             seed=args.seed)
        err = interp.subspace_error(disc, vecs[:, group], funcs)
        rows.append({"n": n, "group": args.group, "size": len(group),
                     "error": err, "decreasing":
                     None if prev is None else err < prev})
        prev = err
    _emit(rows, ["n", "group", "size", "error", "decreasing"], args,
          {"final_error": rows[-1]["error"]})


def cmd_interp_check(args):
    if args.trials < 1:
        raise SurfaceFormatError("--trials must be >= 1")
    surface, bundle = _load(args.surface)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    scale = 1.0
    for n in _parse_ns(args.ns):
        disc = Discretization(surface, bundle, n)
        _check_mesh(disc, 2, "--ns")
        size = disc.n_vertices * bundle.rank
        for trial in range(args.trials):
            f = interp.average(disc, rng.standard_normal(size)
                               + 1j * rng.standard_normal(size))
            g = interp.average(disc, rng.standard_normal(size)
                               + 1j * rng.standard_normal(size))
            graph_energy = operators.dirichlet_form(disc, f, g)
            field_energy = interp.linearize(disc, f).dirichlet_energy(
                interp.linearize(disc, g))
            err = abs(graph_energy - field_energy)
            worst = max(worst, err)
            scale = max(scale, abs(graph_energy), abs(field_energy))
            rows.append({"n": n, "trial": trial, "graph": graph_energy.real,
                         "field": field_energy.real, "error": err,
                         "pairing_ratio": None})
        # the L^2 pairing comparison needs smooth data, so it is probed on
        # the first nonzero Laplacian eigenvector rather than random noise
        _, vecs = spectral.rescaled_spectrum(disc, 2, seed=args.seed)
        rows.append({"n": n, "trial": -1, "graph": None, "field": None,
                     "error": None,
                     "pairing_ratio": interp.pairing_ratio(disc,
                                                           vecs[:, 1])})
    _emit(rows, ["n", "trial", "graph", "field", "error", "pairing_ratio"],
          args, {"max_error": worst})
    if worst > args.tol * scale:
        raise ToleranceFailure("energy identity error %.3e exceeds %.1e "
                               "relative to energy scale %.3e"
                               % (worst, args.tol, scale))


def cmd_consistency(args):
    surface, bundle = _load(args.surface)
    if surface.layout is None:
        raise SurfaceFormatError("consistency needs a surface with layout")
    xs = [ox for ox, _ in surface.layout.values()]
    ys = [oy for _, oy in surface.layout.values()]
    a, b = max(xs) + 1, max(ys) + 1
    func = spectral.rectangle_eigenfunction(surface.layout, a, b, 1, 1)
    lam = np.pi ** 2 * (1 / a ** 2 + 1 / b ** 2)

    def lap(sq, x, y):
        return lam * func(sq, x, y)

    rows = []
    prev = None
    for n in _parse_ns(args.ns):
        disc = Discretization(surface, bundle, n)
        res = interp.consistency_residual(disc, func, lap)
        row = {"n": n, **res}
        if prev:
            for key in ("interior", "edge", "corner"):
                row[key + "_ratio"] = (res[key] / prev[key]
                                       if prev[key] else None)
        rows.append(row)
        prev = res
    _emit(rows, ["n", "interior", "edge", "corner", "interior_ratio",
                 "edge_ratio", "corner_ratio"], args, {})


def cmd_harnack(args):
    if args.index < 0:
        raise SurfaceFormatError("--index must be >= 0")
    surface, bundle = _load(args.surface)
    rows = []
    for n in _parse_ns(args.ns):
        disc = Discretization(surface, bundle, n)
        _check_mesh(disc, args.index + 1, "--index")
        _, vecs = spectral.rescaled_spectrum(disc, args.index + 1,
                                             seed=args.seed)
        diag = potential.harnack_diagnostics(disc, vecs[:, args.index])
        rows.append({"n": n, **diag})
    _emit(rows, ["n", "max_edge_gap", "sup_over_sqrt_log", "interior_sup",
                 "sup"], args, {})


def cmd_green(args):
    if not 0 <= args.radius < np.inf:
        raise SurfaceFormatError("--radius must be finite and >= 0, got %r"
                                 % args.radius)
    # the fit samples lattice points 0 < radius/4 <= |z| <= radius/2: for
    # radius >= 2 an integer |z| lies there, below 2 no point does
    if args.mode == "constant" and args.radius < 2:
        raise SurfaceFormatError("--radius must be >= 2 in constant mode: "
                                 "no lattice point z != 0 has radius/4 <= "
                                 "|z| <= radius/2")
    rows = []
    summary = {}
    if args.mode == "ball":
        green = potential.green_ball(args.radius)
        resid = green.residual(potential.ball_laplacian_row)
        origin = green((0, 0))
        rows.append({"key": "radius", "value": args.radius})
        rows.append({"key": "points", "value": len(green.points)})
        rows.append({"key": "residual", "value": resid})
        rows.append({"key": "value_at_source", "value": origin})
        rows.append({"key": "min_value", "value": float(green.values.min())})
        summary = {"residual": resid}
    elif args.mode == "constant":
        c, dev = potential.fullplane_constant(args.radius)
        rows.append({"key": "fitted_constant", "value": c})
        rows.append({"key": "max_deviation", "value": dev})
        rows.append({"key": "closed_form_constant",
                     "value": -(2 * potential.EULER_MASCHERONI + np.log(8))
                     / (4 * np.pi)})
        summary = {"fitted_constant": c}
    else:  # halfplane
        try:  # a wrong count fails the unpacking with a ValueError too
            a, b = (int(t) for t in args.source.split(","))
        except ValueError:
            raise ValueError("--source needs two integers a,b, got %r"
                             % args.source)
        source = (a, b)
        green = potential.green_halfplane(source, args.radius)
        resid = green.residual(potential.halfplane_laplacian_row)
        rows.append({"key": "source", "value": "%d %d" % source})
        rows.append({"key": "radius", "value": args.radius})
        rows.append({"key": "points", "value": len(green.points)})
        rows.append({"key": "residual", "value": resid})
        summary = {"residual": resid}
    _emit(rows, ["key", "value"], args, summary)
    if summary.get("residual", 0.0) > args.tol:
        raise ToleranceFailure("green residual %.3e" % summary["residual"])


def cmd_flow(args):
    n = args.n
    if n < 1:
        raise SurfaceFormatError("--n must be >= 1")
    div = potential.corner_flow_divergence(n)
    norm_sq = potential.corner_flow_norm_sq(n)
    bound = 2 * potential.harmonic_number(n)
    aa, bb = np.meshgrid(np.arange(n + 2), np.arange(n + 2), indexing="ij")
    expected = np.where(aa + bb == n, 1.0 / (n + 1), 0.0)
    expected[0, 0] = -1.0
    err = float(np.max(np.abs(div - expected)))
    rows = [{"key": "n", "value": n},
            {"key": "norm_sq", "value": norm_sq},
            {"key": "norm_bound", "value": bound},
            {"key": "divergence_error", "value": err}]
    _emit(rows, ["key", "value"], args,
          {"divergence_error": err, "norm_sq": norm_sq})
    if err > args.tol or norm_sq > bound:
        raise ToleranceFailure("corner flow check failed")


def cmd_barrier(args):
    surface, bundle = _load(args.surface)
    disc = Discretization(surface, bundle, args.n)
    points = disc.singular_points()
    if not points:
        raise SurfaceFormatError("surface has no singular points")
    rows = []
    bad = 0
    for k, point in enumerate(points):
        rep = potential.barrier_report(disc, point)
        bad += rep["violations"]
        rows.append({"point": k, "quarters": point.quarters,
                     "interior": point.interior,
                     "checked": rep["checked"],
                     "violations": rep["violations"]})
    _emit(rows, ["point", "quarters", "interior", "checked", "violations"],
          args, {"total_violations": bad})
    if bad:
        raise ToleranceFailure("%d barrier violations" % bad)


def cmd_crsf_check(args):
    if args.count < 1:
        raise SurfaceFormatError("--count must be >= 1")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    fails = 0
    for trial in range(args.count):
        graph = crsf.random_connection_graph(rng)
        det = graph.determinant()
        forest = graph.forest_sum()
        scale = max(1.0, abs(det), abs(forest))
        err = abs(det - forest) / scale
        worst = max(worst, err)
        if err > args.tol:
            fails += 1
        rows.append({"trial": trial, "vertices": graph.n_vertices,
                     "edges": len(graph.edges), "determinant": det,
                     "forest_sum": forest, "rel_error": err})
    _emit(rows, ["trial", "vertices", "edges", "determinant", "forest_sum",
                 "rel_error"], args, {"max_rel_error": worst,
                                      "failures": fails})
    if fails:
        raise ToleranceFailure("%d forest identity failures" % fails)


# ---- parser ------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="tilelap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path prefix (.csv/.json)")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("validate", cmd_validate, help="surface and bundle census")
    p.add_argument("--surface", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("spectrum", cmd_spectrum, help="rescaled Laplacian spectrum")
    p.add_argument("--surface", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=6)

    p = add("converge", cmd_converge, help="eigenvalue convergence table")
    p.add_argument("--surface", required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--reference",
                   help="rectangle:a,b or torus:a,b,alpha,beta")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the mesh sweep")

    p = add("eigvec", cmd_eigvec, help="eigenvector subspace convergence")
    p.add_argument("--surface", required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--group", type=int, default=1)

    p = add("interp-check", cmd_interp_check,
            help="exact Dirichlet energy identity")
    p.add_argument("--surface", required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="energy identity tolerance, relative to "
                        "max(1, largest |energy|)")

    p = add("consistency", cmd_consistency,
            help="finite-difference consistency residuals")
    p.add_argument("--surface", required=True)
    p.add_argument("--ns", required=True)

    p = add("harnack", cmd_harnack, help="eigenvector regularity")
    p.add_argument("--surface", required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--index", type=int, default=1)

    p = add("green", cmd_green, help="lattice Green functions")
    p.add_argument("--mode", choices=("ball", "constant", "halfplane"),
                   default="ball")
    p.add_argument("--radius", type=float, default=32)
    p.add_argument("--source", default="0,0")
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("flow", cmd_flow, help="corner flow divergence and norm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("barrier", cmd_barrier, help="convex barrier check")
    p.add_argument("--surface", required=True)
    p.add_argument("--n", type=int, default=16)

    p = add("crsf-check", cmd_crsf_check,
            help="determinant vs forest-sum identity")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-9)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        args.func(args)
    except (SurfaceFormatError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except ToleranceFailure as exc:
        sys.stderr.write("tolerance failure: %s\n" % exc)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write("internal error: %r\n" % exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
