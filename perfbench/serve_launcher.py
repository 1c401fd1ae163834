"""Run the routing daemon with the benchmark's span wrappers installed.

Usage (from the root of a checkout, with ``PYTHONPATH=src``)::

    python3 perfbench/serve_launcher.py --spans PATH [daemon flags...]

The daemon flags are those of ``python -m repro.server``.  The wrappers of
:mod:`spans` are installed around the library layers and the daemon's
decode / queue / dispatch boundaries, then ``repro.server.app.serve`` runs
until SIGTERM.  ``SIGUSR1`` drops everything recorded so far (the benchmark
sends it once set-up traffic is done); at exit the spans are written to
``PATH``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write the spans here at exit")
    from repro.server.app import serve
    from repro.server.config import add_server_arguments, config_from_args

    add_server_arguments(parser)
    args = parser.parse_args()
    tracer = spans.Tracer()
    spans.install(tracer)
    spans.install_server(tracer)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: tracer.take())
    try:
        return serve(config_from_args(args))
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
