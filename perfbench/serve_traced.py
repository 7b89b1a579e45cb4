"""Run the /decide service with its layers wrapped in spans.

Builds the same bundle as ``abrlab serve``, wraps the layer functions, then
calls ``service.make_server`` and serves on an ephemeral port.  It also counts
the CPU time of each request's handler thread by the request's class, as the
client names it in a header.  It prints the same ready line as ``abrlab
serve``; when its standard input closes it stops serving and writes every
recorded span to ``--spans-out`` and the CPU tally to ``--cpu-out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from abrlab import service  # noqa: E402

import layers  # noqa: E402
from decide import KIND_HEADER, load_bundle  # noqa: E402
from spans import Recorder  # noqa: E402


def tally_cpu(handler_class) -> dict[str, list[float]]:
    """Wrap the handler's ``handle``; returns request class -> [requests, CPU seconds], filled as it serves."""
    tally: dict[str, list[float]] = {}
    lock = threading.Lock()
    handle = handler_class.handle

    def timed(self) -> None:
        t0 = time.thread_time()
        try:
            handle(self)
        finally:
            cpu = time.thread_time() - t0
            headers = getattr(self, "headers", None)
            kind = headers.get(KIND_HEADER, "unnamed") if headers else "unnamed"
            with lock:
                entry = tally.setdefault(kind, [0, 0.0])
                entry[0] += 1
                entry[1] += cpu

    handler_class.handle = timed
    return tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dt", required=True)
    parser.add_argument("--estimator", required=True)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--cpu-out", required=True)
    args = parser.parse_args()
    bundle = load_bundle(args.dt, args.estimator)
    recorder = Recorder()
    layers.install(recorder)
    server = service.make_server(bundle, "127.0.0.1", 0)
    tally = tally_cpu(server.RequestHandlerClass)
    print(f"serving decisions on http://127.0.0.1:{server.server_address[1]}/decide", flush=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join()
    recorder.dump(args.spans_out)
    with open(args.cpu_out, "w", encoding="utf-8") as fh:
        json.dump(tally, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
