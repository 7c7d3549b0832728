"""Start the exploration daemon, optionally with layer spans installed.

Usage: ``python3 perfbench/launcher.py TRACED OUT``

Calls the service's public ``serve`` entry point on a loopback port the
OS picks (printed as ``serving on HOST:PORT``). With ``TRACED`` = 1 the
layer wrappers are installed first, plus a root span per job at the
runner's ``execute_job``. When the daemon has drained (SIGTERM), the
file ``OUT`` receives its peak RSS and, if traced, every span.
"""

from __future__ import annotations

import json
import sys

import spans
from common import maxrss_mb, use_src


def main(argv: list[str]) -> int:
    traced, out = argv
    use_src()
    import repro.cli  # noqa: F401 - import every caller before wrapping
    from repro.service.server import serve

    tracer = spans.Tracer()
    installation = spans.Installation()
    if traced == "1":
        installation = spans.install(tracer, spans.SERVICE_TARGETS)
    try:
        serve(host="127.0.0.1", port=0)
    finally:
        spans.uninstall(installation)
        with open(out, "w") as handle:
            json.dump(
                {
                    "peak_rss_mb": maxrss_mb(),
                    "spans": tracer.dump(),
                    "missing": installation.missing,
                },
                handle,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
