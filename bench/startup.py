"""Start-up cost of short CLI commands, one subprocess per run.

Each run spawns a fresh interpreter that imports ``tilelap.cli``, runs one
command through ``cli.main`` and reports the seconds of that import, the
thread count numpy's OpenBLAS started with, its CPU seconds (all threads,
interpreter start-up included), its peak RSS (``VmHWM``: a spawned
process's ``ru_maxrss`` would start from this script's own, numpy and
scipy included), whether any scipy or numpy.random module was loaded and
how many tilelap modules the command loaded; the parent times the run
from spawn to exit.  The commands are the `diagnostics` workload's
small-mesh ones, whose meshes `spectral.mesh_eigenpairs` sends to LAPACK
or to block Lanczos one by one, and its `crsf-check`; a `validate` as the
`twisted` workload runs it (no eigen module); and as controls the two
largest `diagnostics` commands and two `sweep` ones.  Each command runs
REPEAT times per source tree, the trees alternating run by run; the file
records the median seconds and the largest peak RSS.

    python bench/startup.py [--src NAME=DIR ...] [--out BENCH_startup.json]

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
REPEAT = 5

CASES = {
    "eigvec-square": ["eigvec", "--surface", "square", "--ns", "8,16,32"],
    "interp-check-pillowcase": ["interp-check", "--surface", "pillowcase",
                                "--ns", "4,8,16"],
    "interp-check-genus2": ["interp-check", "--surface", "genus2",
                            "--ns", "4,8,16"],
    "interp-check-lshape": ["interp-check", "--surface", "lshape",
                            "--ns", "4,8,16"],
    "consistency-square": ["consistency", "--surface", "square",
                           "--ns", "16,32"],
    "green-halfplane": ["green", "--mode", "halfplane", "--radius", "6",
                        "--source", "0,3"],
    "validate-genus2": ["validate", "--surface", "genus2"],
    "crsf-check": ["crsf-check"],
    # controls: a sweep up to 12,288 unknowns, all of it by block Lanczos,
    # a Green ball of radius 128, and two of the `sweep` workload's
    # commands, whose time goes to eigensolves rather than start-up
    "harnack-lshape": ["harnack", "--surface", "lshape",
                       "--ns", "8,16,32,64"],
    "green-ball": ["green", "--mode", "ball", "--radius", "128"],
    "converge-lshape": ["converge", "--surface", "lshape",
                        "--ns", "32,48,64"],
    "converge-genus2": ["converge", "--surface", "genus2",
                        "--ns", "32,48,64"],
}

# run in the child: the command's exit code, import seconds, OpenBLAS
# threads, CPU seconds, peak RSS, scipy and numpy.random use and the
# tilelap modules loaded (counted before this script loads lapack)
CHILD = """
import time
start = time.perf_counter()
from tilelap import cli
import_s = time.perf_counter() - start
import contextlib, io, json, resource, sys
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
tilelap = sum(m.split(".")[0] == "tilelap" for m in sys.modules)
from tilelap import lapack
control = lapack._blas_thread_control()
usage = resource.getrusage(resource.RUSAGE_SELF)
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh
                if line.startswith("VmHWM:"))  # in kB
print(json.dumps({"exit": code, "import_s": import_s,
                  "blas_threads": control and control[0](),
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": peak / 1024.0,
                  "scipy": any(m.split(".")[0] == "scipy"
                               for m in sys.modules),
                  "numpy_random": "numpy.random" in sys.modules,
                  "tilelap_modules": tilelap}))
"""


def spawn(src, argv):
    """One run of ``argv`` with tilelap from ``src``; returns a dict."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    wall = time.perf_counter() - start
    return dict(json.loads(out), wall_s=wall)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", metavar="NAME=DIR",
                        help="a source tree to measure (repeatable)")
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_startup.json"))
    args = parser.parse_args(argv)
    trees = dict(s.split("=", 1) for s in args.src or
                 ["change=" + os.path.join(ROOT, "src")])
    import numpy
    import scipy

    results = {name: {} for name in trees}
    for case, cmd in CASES.items():
        runs = {name: [] for name in trees}
        for _ in range(REPEAT):
            for name, src in trees.items():
                runs[name].append(spawn(os.path.abspath(src), cmd))
        for name, got in runs.items():
            results[name][case] = dict(
                {key: statistics.median(r[key] for r in got)
                 for key in ("wall_s", "cpu_s", "import_s")},
                argv=cmd, blas_threads=max(r["blas_threads"] or 0
                                           for r in got),
                peak_rss_mb=max(r["peak_rss_mb"] for r in got),
                scipy_loaded=any(r["scipy"] for r in got),
                numpy_random_loaded=any(r["numpy_random"] for r in got),
                tilelap_modules=max(r["tilelap_modules"] for r in got),
                exit=max(r["exit"] for r in got))
            print("%s %s: %.3f s wall, %.3f s CPU, import %.3f s, %d BLAS "
                  "threads, %.1f MB, scipy %s, numpy.random %s, %d tilelap "
                  "modules"
                  % (name, case, *(results[name][case][key] for key in (
                      "wall_s", "cpu_s", "import_s", "blas_threads",
                      "peak_rss_mb", "scipy_loaded", "numpy_random_loaded",
                      "tilelap_modules"))), file=sys.stderr)
    record = {
        "benchmark": "CLI start-up and short commands",
        "wall_s": "median over %d runs, spawn to exit, trees alternating"
                  % REPEAT,
        "cpu_s": "median over the runs of the child's user and system "
                 "seconds, all threads",
        "import_s": "median over the runs of the child's import of "
                    "tilelap.cli",
        "blas_threads": "the thread count of numpy's OpenBLAS after that "
                        "import, 0 where numpy bundles none",
        "peak_rss_mb": "largest VmHWM of the child over the runs",
        "tilelap_modules": "the number of tilelap modules (the package "
                           "included) loaded after the command ran",
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
