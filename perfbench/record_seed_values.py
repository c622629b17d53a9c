"""Record the reference tables for the `recorded` oracles.

    python3 perfbench/record_seed_values.py LABEL

runs every `sweep` and `diagnostics` command whose oracle uses recorded
values (the surfaces with no closed-form spectrum) and writes their CSV
tables to perfbench/seed_values.json, tagged with LABEL.  The committed
file was made at tilelap commit 0baa74f; re-recording at a later commit
would make the benchmark compare the program with itself, so do it only
when a change of output is intended and reviewed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402


def main(label):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    tables = {}
    for cmd in (workloads.sweep_commands()
                + workloads.diagnostics_commands(seed=0)):
        if not cmd["check"].get("recorded"):
            continue
        proc = subprocess.run([sys.executable, "-m", "tilelap.cli"]
                              + cmd["argv"], env=env, capture_output=True,
                              text=True, check=False)
        print("%-24s exit %d" % (cmd["name"], proc.returncode))
        tables[cmd["name"]] = oracles.parse_table(proc.stdout)
    with open(os.path.join(HERE, "seed_values.json"), "w") as fh:
        json.dump({"source": label, "commands": tables}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
