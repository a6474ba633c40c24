"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0 --store S.jsonl

Tracing starts on; ``SIGUSR1`` switches it on and ``SIGUSR2`` off, so
the benchmark can alternate traced and untraced windows against one
server.  After the server exits (a client ``shutdown`` op), the
recorded spans are written to ``SPANS.json``.
"""

import signal
import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    try:
        return repro.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
