"""Scaling of the ball Green function solve, one subprocess per case.

For each radius, a fresh interpreter imports tilelap and scipy, times
``potential.green_ball(radius)`` and the full-ball defining-equation
residual, and reports its own peak RSS (``ru_maxrss``), so every case's
memory peak is its own.  Each case runs three times; the file records
the median seconds and the largest peak RSS over the runs.

    python bench/scaling.py [--radii 64,128,256,512] [--src DIR]
                            [--out BENCH_scaling.json]

``--src`` selects the source tree to import tilelap from (default: this
checkout's ``src``), so two checkouts can be measured with the same
script.
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
    import scipy.sparse.linalg  # noqa: F401  (imported lazily by the solve)

    from tilelap import potential

    import_s = time.perf_counter() - start
    import_rss = _peak_rss_mb()
    start = time.perf_counter()
    green = potential.green_ball(radius)
    solve_s = time.perf_counter() - start
    start = time.perf_counter()
    residual = green.residual(potential.ball_laplacian_row)
    residual_s = time.perf_counter() - start
    a, b = green.points.T
    return {"radius": radius, "ball_points": len(green.points),
            "wedge_unknowns": int(np.count_nonzero((0 <= b) & (b <= a))),
            "import_s": import_s, "solve_s": solve_s,
            "residual_s": residual_s,
            "import_rss_mb": import_rss, "peak_rss_mb": _peak_rss_mb(),
            "residual": residual}


def _spawn(src, radius):
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--case", repr(radius)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--radii", default="64,128,256,512")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_scaling.json"))
    parser.add_argument("--case", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case is not None:
        json.dump(run_case(args.case), sys.stdout)
        return
    import numpy
    import scipy

    cases = []
    for radius in (float(r) for r in args.radii.split(",")):
        runs = [_spawn(os.path.abspath(args.src), radius)
                for _ in range(REPEAT)]
        case = dict(runs[0])
        for key in ("import_s", "solve_s", "residual_s"):
            case[key] = statistics.median(r[key] for r in runs)
        for key in ("import_rss_mb", "peak_rss_mb"):
            case[key] = max(r[key] for r in runs)
        case["runs"] = len(runs)
        cases.append(case)
        print("radius %g: %d points, %d wedge unknowns, solve %.3f s, "
              "residual %.3f s, peak RSS %.1f MB, residual %.2e"
              % (radius, case["ball_points"], case["wedge_unknowns"],
                 case["solve_s"], case["residual_s"], case["peak_rss_mb"],
                 case["residual"]), file=sys.stderr)
    record = {
        "benchmark": "green_ball scaling",
        "seconds": "median over runs, each in a fresh interpreter; "
                   "solve_s and residual_s exclude import_s (numpy, "
                   "scipy.sparse.linalg, tilelap)",
        "peak_rss_mb": "largest ru_maxrss over runs, imports included",
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
