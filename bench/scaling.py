"""Scaling of the large solves, one subprocess per case.

Two modes.  ``green`` (the default): for each radius, a fresh interpreter
imports tilelap, times ``potential.green_ball(radius)`` and the full-ball
defining-equation residual.  ``eigen``: for each surface and mesh size, a
fresh interpreter imports tilelap, builds the mesh and times
``spectral.rescaled_spectrum`` (the k lowest pairs: 6 on genus2,
pillowcase and lshape, 12 on a seeded rank-2 twisted torus, whose two
unitaries are drawn once here and passed to each case, so that no case
imports numpy.random), split into layers by wrapping the library from
outside:

    setup_s     the shift-invert set-up: the capacitance matrix K and its
                Cholesky factor
    solves      shift-inverted vectors solved; solve_s their time
    post_s      the return to vertex order and the residual check
    lanczos_s   the rest of the eigen call: the Lanczos iteration itself
    size        m, the capacitance matrix's order
    shift       the shift sigma of the shift-invert
    eigen_peak_mb   the ``tracemalloc`` peak over a second, traced
                ``rescaled_spectrum`` call (traced apart, since tracing
                slows the timed call): the solver's own memory, which
                the imports' share of peak RSS does not hide

Every case reports its own peak RSS (``VmHWM``, before the traced call;
a spawned process's ``ru_maxrss`` would start from this script's peak)
and whether any scipy module was loaded.  Each case runs three
times per source tree, the trees alternating run by run; the file records
the median seconds and the largest peak RSS and eigen peak over the runs,
and a peak-RSS ceiling for each eigen case: 10% above the last tree's
largest peak RSS, rounded up to a whole MB.

    python bench/scaling.py [--radii 64,128,256,512] [--src NAME=DIR ...]
                            [--out BENCH_scaling.json]
    python bench/scaling.py --mode eigen [--ns 32,64,128,256]
                            [--src NAME=DIR ...] [--out BENCH_eigen.json]

``--src`` (repeatable) names the source trees to import tilelap from
(default: ``change=`` this checkout's ``src``), so a parent checkout and
a change can be measured side by side.
"""

import argparse
import functools
import json
import os
import platform
import math
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 3
EIGEN_SURFACES = ("genus2", "pillowcase", "lshape", "torus-rank2")


def _peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):  # in kB
                return int(line.split()[1]) / 1024.0


def _scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)


def run_case(radius):
    """Measure one radius in this process; returns a dict."""
    start = time.perf_counter()
    import numpy as np

    from tilelap import potential

    import_s = time.perf_counter() - start
    import_rss = _peak_rss_mb()
    start = time.perf_counter()
    green = potential.green_ball(radius)
    solve_s = time.perf_counter() - start
    start = time.perf_counter()
    residual = green.residual()
    residual_s = time.perf_counter() - start
    a, b = green.points.T
    return {"radius": radius, "ball_points": len(green.points),
            "wedge_unknowns": int(np.count_nonzero((0 <= b) & (b <= a))),
            "import_s": import_s, "solve_s": solve_s,
            "residual_s": residual_s,
            "import_rss_mb": import_rss, "peak_rss_mb": _peak_rss_mb(),
            "residual": residual, "scipy": _scipy_loaded()}


def _timed(table, key, fn, count=False):
    """``fn`` adding its run time to table[key], and, with ``count``, the
    rows of its last argument, a (b, dim) block, to table["solves"]."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            table[key] += time.perf_counter() - start
            if count:
                table["solves"] += len(args[-1])
    return wrapper


def _rank2_transports():
    """The two seam unitaries of the torus-rank2 case, commuting
    holonomies V diag(e^{i a}) V*, V diag(e^{i b}) V* (a flat bundle),
    from a seeded draw; for the case's JSON, as nested lists with the
    real and imaginary parts of each entry side by side."""
    import numpy as np

    rng = np.random.default_rng(0)
    v = np.linalg.qr(rng.standard_normal((2, 2))
                     + 1j * rng.standard_normal((2, 2)))[0]
    unitaries = [v @ np.diag(np.exp(1j * angles)) @ v.conj().T
                 for angles in rng.uniform(0, 2 * np.pi, (2, 2))]
    return np.array(unitaries).view(float).tolist()


def _eigen_input(name, transports):
    """(surface, bundle, k) of an eigen case; ``transports`` are the seam
    unitaries of torus-rank2 as :func:`_rank2_transports` gives them."""
    import numpy as np

    from tilelap import catalog
    from tilelap.bundle import FlatUnitaryBundle

    if name != "torus-rank2":
        surface = catalog.BUILTIN[name]()
        return surface, FlatUnitaryBundle.trivial(surface), 6
    surface = catalog.torus()
    unitaries = np.array(transports).view(complex)
    return surface, FlatUnitaryBundle(surface, 2,
                                      dict(enumerate(unitaries))), 12


def run_eigen_case(name, n, transports):
    """Measure one eigen case in this process; returns a dict."""
    start = time.perf_counter()
    from tilelap import capacitance, operators, spectral
    from tilelap.discretize import Discretization

    import_s = time.perf_counter() - start
    surface, bundle, k = _eigen_input(name, transports)
    table = dict.fromkeys(("setup_s", "solve_s", "post_s"), 0.0)
    table.update(solves=0, size=0)
    cls = capacitance.SeamCapacitance
    init = cls.__init__

    def setup(self, disc, shift):
        init(self, disc, shift)
        table["size"] = len(self.tail_slots) * bundle.rank
        table["shift"] = shift

    cls.__init__ = _timed(table, "setup_s", setup)
    cls.apply = _timed(table, "solve_s", cls.apply, count=True)
    cls.to_vertices = _timed(table, "post_s", cls.to_vertices)
    operators.apply_laplacian = _timed(table, "post_s",
                                       operators.apply_laplacian)
    start = time.perf_counter()
    disc = Discretization(surface, bundle, n)
    discretize_s = time.perf_counter() - start
    start = time.perf_counter()
    vals, _ = spectral.rescaled_spectrum(disc, k)
    eigen_s = time.perf_counter() - start
    table["lanczos_s"] = eigen_s - sum(table[key] for key in (
        "setup_s", "solve_s", "post_s"))
    result = {"surface": name, "n": n, "k": k,
              "unknowns": disc.n_vertices * bundle.rank,
              "import_s": import_s, "discretize_s": discretize_s,
              "eigen_s": eigen_s, **table,
              "values": [float(v) for v in vals],
              "peak_rss_mb": _peak_rss_mb(), "scipy": _scipy_loaded()}
    tracemalloc.start()
    spectral.rescaled_spectrum(disc, k)
    result["eigen_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    return result


def _spawn(src, case):
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--case", json.dumps(case)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _measure(trees, cases, seconds, maxima, describe):
    """Run every case REPEAT times per tree, trees alternating; per tree,
    the list of cases with ``seconds`` keys as medians and ``maxima`` as
    largest over the runs."""
    results = {name: [] for name in trees}
    for case in cases:
        runs = {name: [] for name in trees}
        for _ in range(REPEAT):
            for name, src in trees.items():
                runs[name].append(_spawn(os.path.abspath(src), case))
        for name, got in runs.items():
            row = dict(got[0])
            for key in seconds:
                row[key] = statistics.median(r[key] for r in got)
            for key in maxima:
                row[key] = max(r[key] for r in got)
            row["scipy"] = any(r["scipy"] for r in got)
            row["runs"] = len(got)
            results[name].append(row)
            print(name, describe(row), file=sys.stderr)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("green", "eigen"), default="green")
    parser.add_argument("--radii", default="64,128,256,512")
    parser.add_argument("--ns", default="32,64,128,256")
    parser.add_argument("--src", action="append", metavar="NAME=DIR",
                        help="a source tree to measure (repeatable)")
    parser.add_argument("--out")
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case is not None:
        case = json.loads(args.case)
        result = (run_case(case) if not isinstance(case, list)
                  else run_eigen_case(*case))
        json.dump(result, sys.stdout)
        return
    trees = dict(s.split("=", 1) for s in args.src or
                 ["change=" + os.path.join(ROOT, "src")])
    import numpy

    try:
        import scipy
    except ImportError:
        scipy = None
    machine = {"cpus": os.cpu_count(), "platform": platform.platform(),
               "python": platform.python_version(),
               "numpy": numpy.__version__,
               "scipy": scipy and scipy.__version__}
    if args.mode == "green":
        results = _measure(
            trees, [float(r) for r in args.radii.split(",")],
            ("import_s", "solve_s", "residual_s"),
            ("import_rss_mb", "peak_rss_mb"),
            lambda c: "radius %g: %d points, %d wedge unknowns, solve %.3f "
            "s, residual %.3f s, peak RSS %.1f MB, residual %.2e, scipy %s"
            % (c["radius"], c["ball_points"], c["wedge_unknowns"],
               c["solve_s"], c["residual_s"], c["peak_rss_mb"],
               c["residual"], c["scipy"]))
        record = {
            "benchmark": "green_ball scaling",
            "seconds": "median over runs, each in a fresh interpreter, "
                       "trees alternating; solve_s and residual_s exclude "
                       "import_s (numpy, tilelap), so solve_s includes any "
                       "scipy import the solve makes",
            "peak_rss_mb": "largest VmHWM over runs, imports included",
            "scipy": "whether any run loaded a scipy module"}
    else:
        transports = _rank2_transports()
        results = _measure(
            trees, [[name, int(n), transports if name == "torus-rank2"
                     else None]
                    for name in EIGEN_SURFACES for n in args.ns.split(",")],
            ("import_s", "discretize_s", "eigen_s", "setup_s", "solve_s",
             "post_s", "lanczos_s"),
            ("peak_rss_mb", "eigen_peak_mb"),
            lambda c: "%s n = %d: eigen %.3f s = setup %.3f + %d "
            "solves %.3f + lanczos %.3f + post %.3f; size %d, peak RSS "
            "%.1f MB, eigen peak %.1f MB, scipy %s"
            % (c["surface"], c["n"], c["eigen_s"], c["setup_s"],
               c["solves"], c["solve_s"], c["lanczos_s"], c["post_s"],
               c["size"], c["peak_rss_mb"], c["eigen_peak_mb"], c["scipy"]))
        record = {
            "benchmark": "mesh eigensolve scaling",
            "seconds": "median over runs, each in a fresh interpreter, "
                       "trees alternating; eigen_s is the whole "
                       "rescaled_spectrum call, split as in "
                       "bench/scaling.py's docstring",
            "peak_rss_mb": "largest VmHWM over runs, imports included",
            "eigen_peak_mb": "largest tracemalloc peak over runs of a "
                             "second, traced rescaled_spectrum call",
            "peak_rss_ceiling_mb": "per case, 10% above the largest "
                                   "peak_rss_mb of the last tree, "
                                   "rounded up to a whole MB",
            "scipy": "whether any run loaded a scipy module",
            "shift": "sigma = spectral.SHIFT / n^2, SHIFT = -1 in units "
                     "of the rescaled spectrum (a tree whose SHIFT is the "
                     "fixed sigma -0.01 uses that); each case records its "
                     "own sigma as shift"}
        last = results[list(trees)[-1]]
        record["peak_rss_ceiling_mb"] = {
            "%s n=%d" % (c["surface"], c["n"]):
            math.ceil(1.1 * c["peak_rss_mb"]) for c in last}
    record["machine"] = machine
    record["results"] = results
    out = args.out or os.path.join(ROOT, "BENCH_scaling.json"
                                   if args.mode == "green"
                                   else "BENCH_eigen.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
