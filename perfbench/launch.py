"""Start ``repro serve`` with the layer wrappers installed.

``python perfbench/launch.py TRACE_DIR serve ARGS...`` installs the
server-side wrappers of :mod:`tracing`, swaps the supervisor's worker
entry point for :func:`tracing.traced_worker_main` (so spawned workers
trace their model path too), then hands over to the program's own
command line.  When the server returns from its SIGTERM drain, the
spans are written to ``TRACE_DIR/server.json``; each worker writes its
own file when the pool stops it.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    import tracing

    trace_dir, command = argv[0], argv[1:]
    os.environ[tracing.TRACE_DIR_ENV] = trace_dir
    from repro import cli
    from repro.serve import supervisor

    tracer = tracing.Tracer()
    tracing.install_server(tracer)
    supervisor._worker_main = tracing.traced_worker_main
    try:
        return cli.main(command)
    finally:
        tracer.dump(os.path.join(trace_dir, "server.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
