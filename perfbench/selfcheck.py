"""Fast self-check of the benchmark itself, on tiny meshes (seconds).

    python3 perfbench/selfcheck.py

1. The `twisted` generator's closed-form oracle matches what
   `tilelap spectrum` prints for the seeded rank-2 torus, on both sides of
   the dense/sparse cutoff, and the oracle rejects a table in which one
   eigenvalue is moved by 1e-7 of the eigenvalue scale.
2. In a traced command the handler is the one root span, every span lies
   inside its parent, every self time is non-negative, and the phases plus
   the layer self times add up to the command's wall time.
3. BENCHMARK.json names exactly the metrics run.py reports, with the same
   units.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check_generator(workdir):
    inputs = workloads.twisted_inputs(7, workdir)
    problems = []
    for n in (5, 8, 33):
        cmd = {"name": "spectrum-n%d" % n,
               "argv": ["spectrum", "--surface", inputs["rank2"],
                        "--n", str(n), "--k", "10"],
               "check": {"kind": "torus", "angles": inputs["rank2_angles"]}}
        record = run.run_command(cmd, workdir, cmd["name"], 0)
        verdict = oracles.check(cmd, record["stdout"], {})
        if record["rc"] != 0 or not verdict.ok:
            problems.append("n=%d: exit %d, %s" % (n, record["rc"],
                                                   verdict.problems[:2]))
        rows = record["stdout"].splitlines()
        fields = rows[3].split(",")
        fields[1] = repr(float(fields[1]) * (1 + 1e-7))
        rows[3] = ",".join(fields)
        if oracles.check(cmd, "\n".join(rows) + "\n", {}).ok:
            problems.append("n=%d: oracle accepted a perturbed value" % n)
    return problems


def check_trace(workdir):
    cmd = {"name": "eigvec", "argv": ["eigvec", "--surface", "square",
                                      "--ns", "4,8,16", "--k", "4"]}
    record = run.run_command(cmd, workdir, "traced", 1)
    spans = record["report"].get("spans", [])
    problems = []
    if record["rc"] != 0 or not spans:
        return ["traced command exited %d with %d spans"
                % (record["rc"], len(spans))]
    for span, own in zip(spans, layers.self_times(spans)):
        name, start, end, parent, _ = span
        if own < -1e-9:
            problems.append("%s: negative self time %.3g" % (name, own))
        if parent >= 0 and not (spans[parent][1] <= start
                                and end <= spans[parent][2]):
            problems.append("%s: outside its parent %s"
                            % (name, spans[parent][0]))
    roots = [span[0] for span in spans if span[3] < 0]
    if roots != ["cli.cmd_eigvec"]:
        problems.append("%d root spans %s..., expected the handler alone"
                        % (len(roots), roots[:3]))
    phases = layers.command_phases(record)
    negative = [k for k, v in phases.items() if v < -1e-9]
    if negative:
        problems.append("negative times: %s" % negative)
    total = sum(phases.values())
    if abs(total - record["wall_s"]) > 1e-6:
        problems.append("phases add up to %.6f s, wall time %.6f s"
                        % (total, record["wall_s"]))
    names = {layer for layer, value in phases.items() if value > 0}
    for expected in ("interp.linearize.self_s", "spectral.eigen.small.self_s",
                     "operators.laplacian.self_s", "cli.import_s"):
        if expected not in names:
            problems.append("no time in %s" % expected)
    return problems


def check_metric_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for key, units in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append("%s: listed and reported metrics differ in %s"
                            % (key, sorted(set(listed.items())
                                           ^ set(units.items()))))
    return problems


def main():
    workdir = os.path.join(run.OUT, "selfcheck-%d" % os.getpid())
    os.makedirs(workdir)
    failed = False
    try:
        for label, check in (("generator oracle", check_generator),
                             ("trace accounting", check_trace),
                             ("metric names", lambda _: check_metric_names())):
            problems = check(workdir)
            failed |= bool(problems)
            print("%-18s %s" % (label, "ok" if not problems else "FAILED"))
            for problem in problems:
                print("    " + problem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
