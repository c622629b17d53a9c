"""Command-line front end.

Every subcommand emits a CSV table (to stdout, or to <out>.csv when --out
is given) plus a JSON sidecar <out>.json recording the command, parameters
and summary values.  Output is deterministic for fixed inputs and seed.

Exit codes: 0 success, 1 invalid input (or input too large for memory),
2 numerical tolerance failure, 3 internal error.

Each command loads only what it runs: this module imports the standard
library and numpy, and every handler and helper below imports the tilelap
modules it calls inside its body.
"""

import argparse
import csv
import gc
import io
import json
import operator
import os
import sys

# every BLAS and LAPACK call of tilelap runs on one thread (see
# lapack.one_blas_thread), so a second OpenBLAS thread would only spin;
# OpenBLAS reads this once, when numpy loads it, and a value the user set
# wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402


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


def _emit_pairs(pairs, args, summary):
    """Emit (key, value) pairs as a key,value table."""
    _emit([{"key": k, "value": v} for k, v in pairs], ["key", "value"], args,
          summary)


def _load(name, check=True):
    """Surface and bundle by built-in name or file path.  The bundle must
    be unitary and flat (ValueError otherwise) unless ``check`` is False."""
    from . import catalog
    from .bundle import FlatUnitaryBundle

    surface, spec = catalog.load(name)
    bundle = FlatUnitaryBundle.from_spec(surface, spec)
    if check:
        bundle.validate()
    return surface, bundle


def _bounded(kind, low):
    """Argument type: a finite ``kind`` number no smaller than ``low``."""
    def parse(text):
        value = kind(text)
        if not low <= value < np.inf:
            raise argparse.ArgumentTypeError(
                "must be a finite number >= %s, got %r" % (low, text))
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _mesh_sizes(text):
    """Argument type of --ns: a strictly increasing list of sizes >= 1."""
    try:
        ns = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("bad mesh list %r" % text)
    if not ns or any(n < 1 for n in ns):
        raise argparse.ArgumentTypeError("mesh sizes must be positive")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise argparse.ArgumentTypeError(
            "mesh sizes must increase strictly, got %r" % text)
    return ns


def _source(text):
    """Argument type of --source: two integers a,b."""
    try:  # a wrong count fails the unpacking with a ValueError too
        a, b = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("needs two integers a,b, got %r"
                                         % text)
    return a, b


def _eigen_sweep(surface, bundle, ns, k, seed, flag):
    """Yield (disc, rescaled values, eigenvector columns) of the k lowest
    eigenpairs on each mesh of ``ns``, in order, each solved when it is
    asked for; the sweep keeps no mesh past its ``yield``.

    The first ``next()`` rejects a coarsest mesh with at most k unknowns,
    naming the flag at fault: the eigensolver needs k < dim, and meshes
    only grow along --ns.  Each mesh is solved by
    ``spectral.mesh_eigenpairs``, which picks LAPACK or Lanczos for it,
    and hands its Ritz rows to the next (the ``chain`` of
    ``mesh_eigenpairs``).
    """
    from . import spectral
    from .discretize import Discretization

    dim = surface.n_squares * ns[0] ** 2 * bundle.rank
    if k >= dim:
        raise ValueError("%s: the n = %d mesh has dimension %d, too small "
                         "for %d eigenpairs" % (flag, ns[0], dim, k))
    chain = []
    for n in ns:
        disc = Discretization(surface, bundle, n)
        try:
            vals, vecs = spectral.rescaled_spectrum(disc, k, seed=seed,
                                                    chain=chain)
        except spectral.InertiaMismatch as exc:
            raise ToleranceFailure(str(exc)) from None
        yield disc, vals, vecs
        del disc, vecs  # the caller decides how long a mesh lives


def _rectangle(surface, command):
    """Sides (a, b) of the rectangle that the surface's layout tiles with
    every outer side free.  ``command`` compares against the Neumann modes
    of that a x b box, which describe no other surface."""
    if surface.layout is None:
        raise ValueError("%s needs a planar surface with a layout"
                         % command)
    cells = sorted(surface.layout.values())
    a, b = (max(c) + 1 for c in zip(*cells))
    if (cells != [(x, y) for x in range(a) for y in range(b)]
            or len(surface.free_sides) != 2 * (a + b)):
        raise ValueError(
            "%s compares with the Neumann modes of the layout's %d x %d "
            "bounding box, so it needs a surface that fills that box with "
            "every outer side free" % (command, a, b))
    return a, b


# ---- subcommands -------------------------------------------------------


def cmd_validate(args):
    from .discretize import Discretization

    surface, bundle = _load(args.surface, check=False)
    bundle_defect = max(bundle.unitarity_defect(),
                        bundle.cone_monodromy_defect())
    disc = Discretization(surface, bundle, args.n)
    census = disc.census()
    gb = surface.gauss_bonnet_defect()
    pairs = [(k, " ".join(map(str, v)) if isinstance(v, list) else v)
             for k, v in census.items()]
    pairs += [("euler_characteristic", surface.euler_characteristic()),
              ("gauss_bonnet_defect", gb), ("bundle_defect", bundle_defect)]
    _emit_pairs(pairs, args,
                {"bundle_defect": bundle_defect, "gauss_bonnet_defect": gb})
    if abs(gb) > args.tol or bundle_defect > args.tol:
        raise ToleranceFailure("surface/bundle validation failed")


def cmd_spectrum(args):
    surface, bundle = _load(args.surface)
    (_, vals, _), = _eigen_sweep(surface, bundle, [args.n], args.k,
                                 args.seed, "--k")
    rows = [{"i": i, "rescaled": v, "raw": v / args.n ** 2}
            for i, v in enumerate(vals)]
    _emit(rows, ["i", "rescaled", "raw"], args, {"k": args.k})


def _parse_reference(text, k):
    """Continuum reference of --reference: finite parameters, of which the
    first two (rectangle sides, torus periods) are > 0."""
    from . import spectral

    kind, _, params = text.partition(":")
    try:
        params = tuple(float(p) for p in params.split(",")) if params else ()
    except ValueError:
        raise ValueError("--reference: bad parameters %r" % text)
    if not (np.isfinite(params).all() and all(p > 0 for p in params[:2])):
        raise ValueError("--reference: parameters must be finite, and "
                         "sides and periods > 0, got %r" % text)
    return spectral.reference_spectrum(kind, params, k)


def cmd_converge(args):
    from . import spectral

    ns = args.ns
    reference = (_parse_reference(args.reference, args.k)
                 if args.reference else None)
    surface, bundle = _load(args.surface)
    sweep = _eigen_sweep(surface, bundle, ns, args.k, args.seed, "--k")
    # values only, and the sweep run to its end: it lets go of every mesh
    computed = dict(zip(ns, list(map(operator.itemgetter(1), sweep))))
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
    from . import interp, spectral

    surface, bundle = _load(args.surface)
    a, b = _rectangle(surface, "eigvec")
    modes = spectral.rectangle_modes(a, b, args.k)
    groups = spectral.eigenvalue_groups([m[0] for m in modes])
    if args.group >= len(groups):
        raise ValueError("--group must be < %d, the number of eigenvalue "
                         "groups among the first --k %d modes"
                         % (len(groups), args.k))
    group = groups[args.group]
    while group[-1] == len(modes) - 1:  # the group may go on past --k
        modes = spectral.rectangle_modes(a, b, len(modes) + 1)
        group = spectral.eigenvalue_groups([m[0] for m in modes])[args.group]
    sweep = _eigen_sweep(surface, bundle, args.ns, max(group) + 1,
                         args.seed, "--ns")
    funcs = [spectral.rectangle_eigenfunction(surface.layout, a, b,
                                              modes[i][1], modes[i][2])
             for i in group]
    rows = []
    prev = None
    for disc, _, vecs in sweep:
        err = interp.subspace_error(disc, vecs[:, group], funcs)
        rows.append({"n": disc.n, "group": args.group, "size": len(group),
                     "error": err, "decreasing":
                     None if prev is None else err < prev})
        prev = err
        del disc, vecs  # freed before the next mesh is solved
    _emit(rows, ["n", "group", "size", "error", "decreasing"], args,
          {"final_error": rows[-1]["error"]})


def cmd_interp_check(args):
    from . import interp, operators
    from .stream import SplitMix64

    surface, bundle = _load(args.surface)
    sweep = _eigen_sweep(surface, bundle, args.ns, 2, args.seed, "--ns")
    # fields of uniform complex values, real and imaginary parts in [-1, 1)
    stream = SplitMix64(args.seed)
    rows = []
    worst = 0.0
    scale = 1.0
    for disc, _, vecs in sweep:
        n = disc.n
        size = disc.n_vertices * bundle.rank
        for trial in range(args.trials):
            f, g = (interp.average(disc, row)
                    for row in stream.rows(2, size, complex))
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
        rows.append({"n": n, "trial": -1, "graph": None, "field": None,
                     "error": None,
                     "pairing_ratio": interp.pairing_ratio(disc,
                                                           vecs[:, 1])})
        del disc, vecs  # freed before the next mesh is solved
    _emit(rows, ["n", "trial", "graph", "field", "error", "pairing_ratio"],
          args, {"max_error": worst})
    if worst > args.tol * scale:
        raise ToleranceFailure("energy identity error %.3e exceeds %.1e "
                               "relative to energy scale %.3e"
                               % (worst, args.tol, scale))


def cmd_consistency(args):
    from . import interp, spectral
    from .discretize import Discretization

    surface, bundle = _load(args.surface)
    a, b = _rectangle(surface, "consistency")
    func = spectral.rectangle_eigenfunction(surface.layout, a, b, 1, 1)
    lam = np.pi ** 2 * (1 / a ** 2 + 1 / b ** 2)

    def lap(sq, x, y):
        return lam * func(sq, x, y)

    rows = []
    prev, floor = None, 0.0
    for n in args.ns:
        disc = Discretization(surface, bundle, n)
        res = interp.consistency_residual(disc, func, lap)
        row = {"n": n, **res}
        if prev:
            for key in ("interior", "edge", "corner"):
                row[key + "_ratio"] = (res[key] / prev[key]
                                       if prev[key] > floor else None)
        rows.append(row)
        # n^2 Delta_n cancels terms of size n^2 sup |f|, sup |f| = 2 /
        # sqrt(ab); a residual below 1e-12 of that is round-off, no rate
        prev, floor = res, 1e-12 * n ** 2 * 2 / np.sqrt(a * b)
    _emit(rows, ["n", "interior", "edge", "corner", "interior_ratio",
                 "edge_ratio", "corner_ratio"], args, {})


def cmd_harnack(args):
    from . import potential

    surface, bundle = _load(args.surface)
    rows = []
    for disc, _, vecs in _eigen_sweep(surface, bundle, args.ns,
                                      args.index + 1, args.seed, "--index"):
        diag = potential.harnack_diagnostics(disc, vecs[:, args.index])
        rows.append({"n": disc.n, **diag})
        del disc, vecs  # freed before the next mesh is solved
    _emit(rows, ["n", "max_edge_gap", "sup_over_sqrt_log", "interior_sup",
                 "sup"], args, {})


def cmd_green(args):
    from . import potential

    if args.mode == "ball":
        green = potential.green_ball(args.radius)
        resid = green.residual()
        pairs = [("radius", args.radius),
                 ("points", np.count_nonzero(green.mask)), ("residual", resid),
                 ("value_at_source", green((0, 0))),
                 ("min_value", float(green.values.min()))]
        summary = {"residual": resid}
    elif args.mode == "constant":
        try:
            c, dev = potential.fullplane_constant(args.radius)
        except ValueError as exc:
            raise ValueError("--radius: %s" % exc) from None
        pairs = [("fitted_constant", c), ("max_deviation", dev),
                 ("closed_form_constant",
                  -(2 * potential.EULER_MASCHERONI + np.log(8)) / (4 * np.pi))]
        summary = {"fitted_constant": c}
    else:  # halfplane
        try:
            green = potential.green_halfplane(args.source, args.radius)
        except ValueError as exc:
            raise ValueError("--source: %s" % exc) from None
        resid = green.residual()
        pairs = [("source", "%d %d" % args.source), ("radius", args.radius),
                 ("points", np.count_nonzero(green.mask)),
                 ("residual", resid)]
        summary = {"residual": resid}
    _emit_pairs(pairs, args, summary)
    if summary.get("residual", 0.0) > args.tol:
        raise ToleranceFailure("green residual %.3e" % summary["residual"])


def cmd_flow(args):
    from . import potential

    n = args.n
    div = potential.corner_flow_divergence(n)
    norm_sq = potential.corner_flow_norm_sq(n)
    bound = 2 * potential.harmonic_number(n)
    aa, bb = np.meshgrid(np.arange(n + 2), np.arange(n + 2), indexing="ij")
    expected = np.where(aa + bb == n, 1.0 / (n + 1), 0.0)
    expected[0, 0] = -1.0
    err = float(np.max(np.abs(div - expected)))
    _emit_pairs([("n", n), ("norm_sq", norm_sq), ("norm_bound", bound),
                 ("divergence_error", err)], args,
                {"divergence_error": err, "norm_sq": norm_sq})
    if err > args.tol or norm_sq > bound:
        raise ToleranceFailure("corner flow check failed")


def cmd_barrier(args):
    from . import potential
    from .discretize import Discretization

    surface, bundle = _load(args.surface)
    disc = Discretization(surface, bundle, args.n)
    points = disc.singular_points()
    if not points:
        raise ValueError("surface has no singular points")
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
    from . import crsf
    from .stream import SplitMix64

    stream = SplitMix64(args.seed)
    rows = []
    worst = 0.0
    fails = 0
    for trial in range(args.count):
        graph = crsf.random_connection_graph(stream)
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
    count, index = _bounded(int, 1), _bounded(int, 0)
    amount = _bounded(float, 0)
    # every flag once: counts >= 1, indices >= 0, amounts finite and >= 0
    flags = {
        "surface": {}, "ns": {"type": _mesh_sizes},
        "n": {"type": count}, "k": {"type": count},
        "trials": {"type": count}, "count": {"type": count},
        "group": {"type": index}, "index": {"type": index},
        "seed": {"type": index},
        "radius": {"type": amount}, "source": {"type": _source},
        "tol": {"type": amount, "help": "tolerance of the command's check; "
                "interp-check takes it relative to max(1, largest "
                "|energy|)"},
        "reference": {"help": "rectangle:a,b or torus:a,b,alpha,beta"},
        "mode": {"choices": ("ball", "constant", "halfplane")},
    }

    def add(name, func, help, *required, **defaults):
        """Subcommand ``name`` with the ``required`` flags and the others
        at their ``defaults``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path prefix (.csv/.json)")
        for flag, default in (dict.fromkeys(required) | defaults).items():
            p.add_argument("--" + flag, required=flag in required,
                           default=default, **flags[flag])

    add("validate", cmd_validate, "surface and bundle census", "surface",
        n=2, tol=1e-12)
    add("spectrum", cmd_spectrum, "rescaled Laplacian spectrum", "surface",
        "n", k=6, seed=0)
    add("converge", cmd_converge, "eigenvalue convergence table", "surface",
        "ns", k=6, reference=None, seed=0)
    add("eigvec", cmd_eigvec, "eigenvector subspace convergence", "surface",
        "ns", k=8, group=1, seed=0)
    add("interp-check", cmd_interp_check, "exact Dirichlet energy identity",
        "surface", "ns", trials=20, tol=1e-12, seed=0)
    add("consistency", cmd_consistency,
        "finite-difference consistency residuals", "surface", "ns")
    add("harnack", cmd_harnack, "eigenvector regularity", "surface", "ns",
        index=1, seed=0)
    add("green", cmd_green, "lattice Green functions", mode="ball",
        radius=32, source="0,0", tol=1e-10)
    add("flow", cmd_flow, "corner flow divergence and norm", "n", tol=1e-12)
    add("barrier", cmd_barrier, "convex barrier check", "surface", n=16)
    add("crsf-check", cmd_crsf_check, "determinant vs forest-sum identity",
        count=200, tol=1e-9, seed=0)
    return parser


def main(argv=None):
    # what is loaded by now (numpy, this module) lives until exit: frozen,
    # the collection at interpreter exit walks only what the command made
    gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except ToleranceFailure as exc:
        sys.stderr.write("tolerance failure: %s\n" % exc)
        return 2
    except MemoryError:
        sys.stderr.write("error: the input needs more memory than is "
                         "available\n")
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write("internal error: %r\n" % exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
