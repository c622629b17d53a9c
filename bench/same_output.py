"""Byte-for-byte comparison of CLI output between two source trees.

Runs every command of the benchmark's workload lists (perfbench's
`sweep`, `diagnostics` at seed 1 and `twisted` at seeds 1, 2 and 5), plus
`interp-check` and `harnack` on each twisted seed's rank-1 and rank-2 tori,
those two and `spectrum` on a pillowcase with a gauge-trivial rank-2
bundle, six more `green` commands and a few rejected inputs, once under
each tree, each in a fresh `python -B` process with the tree first on
PYTHONPATH.  The exit code, stdout and stderr of the two runs must be
equal byte for byte.

    python bench/same_output.py --src PARENT/src --src CHANGE/src

Prints one line per command and a summary; exits 1 when any command
differs.  Where stdout differs, it also prints the number of lines that
differ, the first of them from each tree (- first tree, + second) and
how many cells of each column differ.
The twisted and pillowcase bundles are drawn once per seed into a
temporary directory shared by both trees, so their file paths match too;
the pillowcase's description is written by this checkout's `tilelap`.
"""

import argparse
import csv
import io
import itertools
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tilelap import catalog  # noqa: E402

DIAGNOSTICS_SEED = 1
TWISTED_SEEDS = (1, 2, 5)

# edge cases of the commands that the workloads do not reach
EXTRA = {
    "eigvec-square-group2": ["eigvec", "--surface", "square",
                             "--ns", "8,16", "--group", "2"],
    "spectrum-k-too-large": ["spectrum", "--surface", "square", "--n", "2",
                             "--k", "4"],
    "eigvec-ns-too-small": ["eigvec", "--surface", "square", "--ns", "1,2"],
    "harnack-index-too-large": ["harnack", "--surface", "torus",
                                "--ns", "1,2", "--index", "1"],
    # Green functions beyond the workloads' two: the fitted constant, a
    # ball of non-integer radius, a wider quasi-ball on row 0, a one-cell
    # quasi-ball off row 0, one below row 0 and a source off the graph
    "green-constant": ["green", "--mode", "constant", "--radius", "64"],
    "green-ball-4.301": ["green", "--mode", "ball", "--radius", "4.301"],
    "green-halfplane-r30": ["green", "--mode", "halfplane", "--radius",
                             "30", "--source", "0,10"],
    "green-halfplane-one-cell": ["green", "--mode", "halfplane",
                                 "--radius", "0.5", "--source", "5,0"],
    "green-halfplane-r6.5": ["green", "--mode", "halfplane", "--radius",
                             "6.5", "--source", "2,-1"],
    "green-halfplane-source-off-graph": ["green", "--mode", "halfplane",
                                         "--source=-2,0"],
}

# non-identity seam transports through the seam table and linearize
TWISTED_EXTRA = (["interp-check", "--ns", "4,8,16"],
                 ["harnack", "--ns", "8,16"])

# the same across half-turn seams, and through both eigen routes
# (interp-check at n = 4 takes LAPACK, every larger mesh block Lanczos)
PILLOWCASE_SEED = 1
PILLOWCASE_EXTRA = TWISTED_EXTRA + (["spectrum", "--n", "32", "--k", "12"],)

CHILD = ("import sys; from tilelap import cli; "
         "sys.exit(cli.main(sys.argv[1:]))")


def pillowcase_gauge(seed, directory):
    """Write a pillowcase with a gauge-trivial rank-2 bundle, U_s =
    g_second g_first* for random unitaries g_q of its squares, to
    ``directory``; returns the file path."""
    surface = catalog.pillowcase()
    rng = np.random.default_rng(seed)
    gauge = [workloads.random_unitary(rng, 2) for _ in range(2)]
    lines = [surface.to_text(), "rank: 2\n"]
    for seam in surface.seams:
        mat = gauge[seam.second[0]] @ gauge[seam.first[0]].conj().T
        lines.append("transport: %d %s\n" % (seam.index, " ".join(
            workloads._complex_text(z) for z in mat.ravel())))
    path = os.path.join(directory, "pillowcase-gauge.txt")
    with open(path, "w") as fh:
        fh.write("".join(lines))
    return path


def commands(directory):
    """(name, argv) of every command compared; twisted inputs go to
    ``directory``."""
    cmds = [(c["name"], c["argv"]) for c in workloads.sweep_commands()]
    cmds += [(c["name"] + "-seed%d" % DIAGNOSTICS_SEED, c["argv"])
             for c in workloads.diagnostics_commands(DIAGNOSTICS_SEED)]
    for seed in TWISTED_SEEDS:
        sub = os.path.join(directory, "twisted-seed%d" % seed)
        os.mkdir(sub)
        inputs = workloads.twisted_inputs(seed, sub)
        cmds += [(c["name"] + "-seed%d" % seed, c["argv"])
                 for c in workloads.twisted_commands(inputs)]
        cmds += [("%s-%s-seed%d" % (argv[0], rank, seed),
                  argv + ["--surface", inputs[rank]])
                 for rank in ("rank1", "rank2") for argv in TWISTED_EXTRA]
    pillowcase = pillowcase_gauge(PILLOWCASE_SEED, directory)
    cmds += [("%s-pillowcase-gauge" % argv[0],
              argv + ["--surface", pillowcase]) for argv in PILLOWCASE_EXTRA]
    # a nan transport entry, which the parser rejects
    nan = os.path.join(directory, "pillowcase-nan.txt")
    with open(nan, "w") as fh:
        fh.write(catalog.pillowcase().to_text()
                 + "rank: 1\ntransport: 2 nan\n")
    cmds.append(("spectrum-pillowcase-nan",
                 ["spectrum", "--n", "4", "--surface", nan]))
    return cmds + list(EXTRA.items())


def run(src, argv):
    """(exit code, stdout bytes, stderr bytes) of one command."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD] + argv,
                          env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def differing_cells(first, second):
    """Count of differing cells per column of two CSV tables with one
    header and as many rows, as text ("column n/rows, ..."), or why the
    tables cannot be compared cell by cell."""
    (head, *rows), (head2, *rows2) = (
        list(csv.reader(io.StringIO(out.decode()))) for out in (first,
                                                                 second))
    if head != head2 or len(rows) != len(rows2):
        return "headers or row counts differ"
    counts = [sum(r[i] != r2[i] for r, r2 in zip(rows, rows2))
              for i in range(len(head))]
    return ", ".join("%s %d/%d" % (col, count, len(rows))
                     for col, count in zip(head, counts) if count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        metavar="DIR", help="directory holding the tilelap "
                        "package; give it twice")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("--src must be given exactly twice")
    trees = [os.path.abspath(s) for s in args.src]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "tilelap", "cli.py")):
            parser.error("%s holds no tilelap package" % tree)
    differ = []
    with tempfile.TemporaryDirectory() as directory:
        cmds = commands(directory)
        for name, cmd in cmds:
            a, b = (run(tree, cmd) for tree in trees)
            parts = [part for part, x, y in zip(("exit", "stdout", "stderr"),
                                                a, b) if x != y]
            if parts:
                differ.append(name)
            print("%-40s exit %d  %s" % (name, a[0], "differs in " +
                                          ", ".join(parts) if parts
                                          else "identical"))
            if "stdout" in parts:
                lines = [(x, y) for x, y in itertools.zip_longest(
                    *(out.decode().splitlines() for out in (a[1], b[1])),
                    fillvalue="") if x != y]
                print("    %d lines differ, first:\n    - %s\n    + %s"
                      % (len(lines), *lines[0]))
                print("    cells differ: %s" % differing_cells(a[1], b[1]))
    print("%d of %d commands byte-identical" % (len(cmds) - len(differ),
                                                len(cmds)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
