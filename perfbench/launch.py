"""Run one `tilelap` command the way its console script does, and time it.

    python3 launch.py REPORT TRACE -- ARGS...

ARGS go to `tilelap.cli.main`, exactly as `tilelap ARGS...` would pass
them; the CSV goes to this process's stdout.  Before exiting the launcher
writes REPORT, a JSON object with clock readings (time.monotonic, which
on Linux is one clock for all processes, so the parent can subtract its
own spawn time) taken at launcher start, after `import tilelap.cli`, at
subcommand handler entry and exit.  With TRACE = 1 the library's public
functions are wrapped by `tracer.Tracer` and the report also holds every
span.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    report_path, trace = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: launch.py REPORT TRACE -- ARGS...")
    cli_args = argv[3:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    report = {"start": T_START}
    import tilelap.cli as cli

    report["imported"] = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer  # tracer.py sits next to this script

        tracer = Tracer()
        tracer.install("tilelap")
    report["installed"] = time.monotonic()

    def timed(handler):
        def entered(args):
            report["handler_in"] = time.monotonic()
            try:
                return handler(args)
            finally:
                report["handler_out"] = time.monotonic()
        return entered

    for attr in dir(cli):
        if attr.startswith("cmd_"):
            setattr(cli, attr, timed(getattr(cli, attr)))
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
