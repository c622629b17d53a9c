"""Scaling of the ball Green function solve, one subprocess per case.

For each radius, a fresh interpreter imports tilelap, times
``potential.green_ball(radius)`` and the full-ball defining-equation
residual, and reports its own peak RSS (``ru_maxrss``), so every case's
memory peak is its own, and whether the solve loaded any scipy module.
Each case runs three times per source tree, the trees alternating run by
run; the file records the median seconds and the largest peak RSS over
the runs.

    python bench/scaling.py [--radii 64,128,256,512] [--src NAME=DIR ...]
                            [--out BENCH_scaling.json]

``--src`` (repeatable) names the source trees to import tilelap from
(default: ``change=`` this checkout's ``src``), so a parent checkout and
a change can be measured side by side.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 3


def _peak_rss_mb():
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


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
            "residual": residual,
            "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules)}


def _spawn(src, radius):
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--case", repr(radius)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--radii", default="64,128,256,512")
    parser.add_argument("--src", action="append", metavar="NAME=DIR",
                        help="a source tree to measure (repeatable)")
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_scaling.json"))
    parser.add_argument("--case", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case is not None:
        json.dump(run_case(args.case), sys.stdout)
        return
    trees = dict(s.split("=", 1) for s in args.src or
                 ["change=" + os.path.join(ROOT, "src")])
    import numpy
    import scipy

    results = {name: [] for name in trees}
    for radius in (float(r) for r in args.radii.split(",")):
        runs = {name: [] for name in trees}
        for _ in range(REPEAT):
            for name, src in trees.items():
                runs[name].append(_spawn(os.path.abspath(src), radius))
        for name, got in runs.items():
            case = dict(got[0])
            for key in ("import_s", "solve_s", "residual_s"):
                case[key] = statistics.median(r[key] for r in got)
            for key in ("import_rss_mb", "peak_rss_mb"):
                case[key] = max(r[key] for r in got)
            case["scipy"] = any(r["scipy"] for r in got)
            case["runs"] = len(got)
            results[name].append(case)
            print("%s radius %g: %d points, %d wedge unknowns, solve %.3f s, "
                  "residual %.3f s, peak RSS %.1f MB, residual %.2e, "
                  "scipy %s"
                  % (name, radius, case["ball_points"],
                     case["wedge_unknowns"], case["solve_s"],
                     case["residual_s"], case["peak_rss_mb"],
                     case["residual"], case["scipy"]), file=sys.stderr)
    record = {
        "benchmark": "green_ball scaling",
        "seconds": "median over runs, each in a fresh interpreter, trees "
                   "alternating; solve_s and residual_s exclude import_s "
                   "(numpy, tilelap), so solve_s includes any scipy import "
                   "the solve makes",
        "peak_rss_mb": "largest ru_maxrss over runs, imports included",
        "scipy": "whether any run loaded a scipy module",
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
