"""Start ``repro.server`` for the benchmark, optionally traced.

Usage: ``python perfbench/launcher.py --report PATH [--trace]
[repro.server flags...]``. Everything after the launcher's own flags
goes to ``repro.server.__main__.main`` unchanged, so the served engine
is exactly what ``python -m repro.server`` would run.

The launcher captures the ``Database`` the server opens and, on
shutdown (SIGINT or SIGTERM), writes a JSON report to ``--report``: the
resolved engine config, ``storage_stats()``, and with ``--trace`` every
span recorded server-side (see ``trace.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for entry in (ROOT, os.path.join(ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args, server_argv = parser.parse_known_args(argv)

    from perfbench import harness

    from repro.api import database
    from repro.server import __main__ as server_main

    recorder = None
    if args.trace:
        from perfbench import trace

        recorder = trace.install("server")

    opened = []
    original_init = database.Database.__init__

    def capturing_init(self, *a, **kw):
        original_init(self, *a, **kw)
        opened.append(self)

    database.Database.__init__ = capturing_init

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    try:
        return server_main.main(server_argv)
    finally:
        report = {
            "configs": [harness.engine_config(db) for db in opened],
            "storage": opened[0].storage_stats() if opened else None,
        }
        if recorder is not None:
            recorder.dump(args.report, report)
        else:
            with open(args.report, "w") as fh:
                json.dump({"spans": [], "extra": report}, fh)


if __name__ == "__main__":
    sys.exit(main())
