"""The tilelap benchmark: workloads of `tilelap` CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, the
commands import `tilelap` from ./src.  A workload (see workloads.py) is a
closed loop with one client: each command runs in its own process, one
after another, with the default BLAS threading.  The script is repeated
while another pass fits in S seconds (at least once), every output is
checked against its oracle (oracles.py), and the last line of stdout is a
JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:

    wall_s       wall time of one pass of the workload script: the sum over
                 its commands of each command's median over the passes
    setup_s      per command, process spawn until the subcommand handler
                 is entered (interpreter start-up, `import tilelap.cli`,
                 parser build); median over all commands run
    peak_rss_mb  largest peak RSS of any command process

With --trace 1 the run makes one untraced pass and one traced pass and
reports the per-layer metrics of layers.py, the tracing overhead, and the
oracle summary.  `attempted` counts commands run; `failed` those that
exited non-zero or failed their oracle.  `correct` is false when a command
outside workloads.KNOWN_FAILURES failed, or a known one crashed.

The lines before the JSON give every metric with its unit and sample
count, the oracle summary (largest relative deviation, fail ratio, the
failing commands by name) and the environment.  A results file with the
per-command records goes to perfbench/out/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
LAUNCH = os.path.join(HERE, "launch.py")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sweep", "twisted", "diagnostics")
COMMAND_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in layers.TIME_LAYERS:
        units[layer + ".self_s"] = "s"
    for name in layers.PHASES:
        units[name] = "s"
    for name in layers.COUNTS:
        units[name] = "count"
    for name in layers.REUSE:
        units[name] = "ratio"
    units.update({
        "spectral.eigen.dim_max": "count",
        "spectral.eigen.residual_max": "abs",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unaccounted_s": "s",
        "trace.spans": "count",
        "check.oracle_max_err": "rel",
        "check.fail_ratio": "ratio",
    })
    return units


# ---- environment -------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__),
                                  os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---- running commands --------------------------------------------------


def run_command(cmd, workdir, tag, trace):
    """Run one command through the launcher; returns its record."""
    base = os.path.join(workdir, tag)
    report_path = base + ".report.json"
    argv = [sys.executable, LAUNCH, report_path, str(trace), "--"]
    with open(base + ".csv", "wb") as out, open(base + ".err", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv + cmd["argv"], stdout=out, stderr=err,
                                cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        status = None
        try:
            # reaped here rather than by Popen, to read its resource usage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if status is None:
                proc.kill()
                proc.wait()
        reaped = time.monotonic()
    report = {}
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
    with open(base + ".csv") as fh:
        stdout = fh.read()
    with open(base + ".err") as fh:
        stderr = fh.read()
    # a command that never reached its handler spent all its time setting up
    entered = report.get("handler_in", reaped)
    return {"name": cmd["name"], "argv": cmd["argv"],
            "rc": proc.returncode, "spawn": spawn, "reaped": reaped,
            "wall_s": reaped - spawn, "setup_s": entered - spawn,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": stderr[-400:], "stdout": stdout, "report": report}


def run_pass(cmds, workdir, number, trace):
    records = [run_command(cmd, workdir, "p%02d-c%02d" % (number, i), trace)
               for i, cmd in enumerate(cmds)]
    return {"trace": trace, "records": records,
            "wall_s": records[-1]["reaped"] - records[0]["spawn"]}


def judge(cmd, record, seed_values):
    """Attach the oracle verdict to a command record."""
    verdict = oracles.check(cmd, record["stdout"], seed_values)
    record["oracle_ok"] = verdict.ok
    record["oracle_max_err"] = verdict.max_err
    record["problems"] = verdict.problems[:5]
    record["ok"] = record["rc"] == 0 and verdict.ok
    record["known"] = (cmd["name"] in workloads.KNOWN_FAILURES
                       and record["rc"] in (0, 2))


# ---- main --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commands_for(workload, seed, workdir):
    if workload == "sweep":
        return workloads.sweep_commands()
    if workload == "diagnostics":
        return workloads.diagnostics_commands(seed)
    return workloads.twisted_commands(workloads.twisted_inputs(seed, workdir))


def measure(args, workdir):
    with open(os.path.join(HERE, "seed_values.json")) as fh:
        seed_values = json.load(fh)["commands"]
    cmds = commands_for(args.workload, args.seed, workdir)
    # compile and cache the program's bytecode outside the measurement
    run_command({"name": "warm-up", "argv": ["--help"]}, workdir, "warm-up",
                args.trace)
    passes = []
    begin = time.monotonic()
    while True:
        passes.append(run_pass(cmds, workdir, len(passes), 0))
        elapsed = time.monotonic() - begin
        longest = max(p["wall_s"] for p in passes)
        if args.trace or elapsed + longest > args.seconds:
            break
    if args.trace:
        passes.append(run_pass(cmds, workdir, len(passes), 1))
    for p in passes:
        for cmd, record in zip(cmds, p["records"]):
            judge(cmd, record, seed_values)
    return passes


def summarize(args, passes, env):
    records = [r for p in passes for r in p["records"]]
    failing = sorted({r["name"] for r in records if not r["ok"]})
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    correct = all(r["ok"] or r["known"] for r in records)
    oracle_max_err = max(r["oracle_max_err"] for r in records)
    untraced = [p for p in passes if not p["trace"]]
    if args.trace:
        traced = passes[-1]
        metrics = layers.traced_metrics(traced["records"], traced["wall_s"])
        metrics["trace.overhead_s"] = (traced["wall_s"]
                                       - untraced[0]["wall_s"])
        metrics["check.oracle_max_err"] = oracle_max_err
        metrics["check.fail_ratio"] = failed / attempted
        units = per_layer_units()
        samples = {}
    else:
        plain = [r for p in untraced for r in p["records"]]
        per_command = zip(*(p["records"] for p in untraced))
        metrics = {
            "wall_s": sum(statistics.median(r["wall_s"] for r in runs)
                          for runs in per_command),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": max(r["rss_mb"] for r in plain),
        }
        units = END_TO_END
        samples = {"wall_s": "sum of per-command medians over %d passes"
                             % len(untraced),
                   "setup_s": "median of %d commands" % len(plain),
                   "peak_rss_mb": "max of %d processes" % len(plain)}
    print("tilelap benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: " + " ".join("%s=%s" % kv for kv in env.items()))
    for name, unit in units.items():
        print("  %-40s %14.6g %-6s %s" % (name, metrics[name], unit,
                                         samples.get(name, "")))
    print("  %-40s %14.6g %-6s over %d commands" % (
        "oracle_max_err", oracle_max_err, "rel", attempted))
    print("  %-40s %14.6g %-6s %d of %d commands" % (
        "fail_ratio", failed / attempted, "ratio", failed, attempted))
    for name in failing:
        bad = [r for r in records if r["name"] == name and not r["ok"]][0]
        why = workloads.KNOWN_FAILURES.get(name, "UNEXPECTED")
        print("  failing: %s (exit %d; %s) %s" % (
            name, bad["rc"], why, "; ".join(bad["problems"][:2])))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    commands = [{k: v for k, v in r.items()
                 if k not in ("report", "stdout", "spawn", "reaped")}
                for r in records]
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "metrics": metrics,
                   "oracle_max_err": oracle_max_err,
                   "fail_ratio": failed / attempted, "failing": failing,
                   "passes": [p["wall_s"] for p in passes],
                   "commands": commands}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump([{"name": r["name"], "spawn": r["spawn"],
                        "reaped": r["reaped"], "report": r["report"]}
                       for r in passes[-1]["records"]], fh)
    print("results: " + os.path.relpath(stem + ".json", ROOT))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tilelap", "cli.py")):
        sys.stderr.write("error: no tilelap source under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        passes = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = summarize(args, passes, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
