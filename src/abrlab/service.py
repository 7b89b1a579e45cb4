"""Stateless HTTP decision service.

Clients ship their current decision window (past observations, returns, and
executed actions); the server computes the fresh QoE-to-go estimate, runs
the sequence model, and answers with the chosen ladder level and that
estimate.  Because the client carries all state, any number of servers can
answer any request, and identical requests get identical responses.  The
models keep no per-request state, so concurrent requests get the answers
they would get one at a time.
"""

from __future__ import annotations

import json
import os
import queue
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import numpy as np

from . import dt, estimator as est
from .sim import Observation

OBS_FIELDS = ("buffer_s", "throughput_mbps", "download_s", "next_chunk_sizes_bytes", "remaining_frac")
# A decision window is a few KB; larger bodies are refused unread with 413.
MAX_BODY_BYTES = 1 << 20
# Socket timeout of a request's connection; a body still short after it gets 408.
READ_TIMEOUT_S = 10.0
# Request numbers are seconds, Mbps, bytes and QoE; larger magnitudes get 400, since
# the float32 models overflow to non-finite answers on them long before float64 does.
MAX_MAGNITUDE = 1e9


class RequestError(ValueError):
    """Client-side problem with a /decide request."""


@dataclass
class DecisionBundle:
    model: dt.DtModel
    estimator_model: est.EstimatorModel
    ladder_kbps: tuple[float, ...]
    stats_window: int = 4
    manifest_ref: str = "default"

    def __post_init__(self) -> None:
        # The request window holds at most K observations; a longer stats
        # window would silently use fewer samples than offline evaluation.
        K = self.model.config.context_len
        if not 1 <= self.stats_window <= K:
            raise ValueError(f"stats_window {self.stats_window} must be in [1, context_len={K}]")
        # Requests carry one chunk size per ladder level, and answers pick a level of the ladder.
        levels, sizes = self.model.config.action_count, self.model.config.obs_dim - 4
        if not len(self.ladder_kbps) == sizes == levels:
            raise ValueError(
                f"ladder of {len(self.ladder_kbps)} levels does not fit the model: "
                f"{levels} actions, {sizes} chunk sizes per observation"
            )


def _number(value, name: str, minimum: float | None = None) -> float:
    """A JSON number (not a bool or a numeric string) within ±MAX_MAGNITUDE, at least ``minimum`` if given."""
    if type(value) not in (int, float):
        raise RequestError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= MAX_MAGNITUDE:  # NaN, the infinities and ints past float range included
        raise RequestError(f"{name} must be a finite number within ±{MAX_MAGNITUDE:g}")
    x = float(value)
    if minimum is not None and x < minimum:
        raise RequestError(f"{name} must be >= {minimum}, got {value!r}")
    return x


def _parse_observation(doc: dict, expected_sizes: int) -> Observation:
    if not isinstance(doc, dict):
        raise RequestError("each observation must be an object")
    missing = [k for k in OBS_FIELDS if k not in doc]
    if missing:
        raise RequestError(f"observation missing fields: {missing}")
    sizes = doc["next_chunk_sizes_bytes"]
    if not isinstance(sizes, list) or len(sizes) != expected_sizes:
        raise RequestError(f"next_chunk_sizes_bytes must be a list of {expected_sizes} values")
    fields = dict(
        buffer_s=_number(doc["buffer_s"], "buffer_s", 0.0),
        throughput_mbps=_number(doc["throughput_mbps"], "throughput_mbps"),
        download_s=_number(doc["download_s"], "download_s", 0.0),
        next_chunk_sizes_bytes=np.array([_number(x, "next_chunk_sizes_bytes", 0.0) for x in sizes]),
        remaining_frac=_number(doc["remaining_frac"], "remaining_frac"),
    )
    try:
        return Observation(**fields)
    except ValueError as exc:  # Observation's own range checks
        raise RequestError(f"invalid observation: {exc}") from None


def handle_decide(bundle: DecisionBundle, payload: dict) -> tuple[int, dict]:
    """Pure request handler: returns (http_status, response_body)."""
    try:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        if "ladder_kbps" in payload:
            ladder = payload["ladder_kbps"]
            if not isinstance(ladder, list):
                raise RequestError("ladder_kbps must be a list of numbers")
            if tuple(_number(r, "ladder_kbps") for r in ladder) != bundle.ladder_kbps:
                raise RequestError("ladder_kbps does not match the served model")
        if payload.get("manifest_ref", bundle.manifest_ref) != bundle.manifest_ref:
            raise RequestError(f"unknown manifest_ref; this server serves {bundle.manifest_ref!r}")
        window_doc = payload.get("window")
        if not isinstance(window_doc, dict):
            raise RequestError("missing 'window' object")
        timesteps = window_doc.get("timesteps")
        observations = window_doc.get("observations")
        returns = window_doc.get("returns")
        actions = window_doc.get("actions")
        if not isinstance(timesteps, list) or not timesteps:
            raise RequestError("window.timesteps must be a non-empty list")
        n = len(timesteps)
        K = bundle.model.config.context_len
        if n > K:
            raise RequestError(f"window holds {n} timesteps; the model context is {K}")
        max_t = bundle.model.config.max_timestep
        if not all(type(t) is int and 0 <= t < max_t for t in timesteps):
            raise RequestError(f"window.timesteps must be integers in [0, {max_t})")
        if any(b != a + 1 for a, b in zip(timesteps, timesteps[1:])):
            raise RequestError("window.timesteps must be consecutive")
        if not isinstance(observations, list) or len(observations) != n:
            raise RequestError(f"window.observations must list {n} observations")
        if not isinstance(returns, list) or len(returns) != n - 1:
            raise RequestError(f"window.returns must list {n - 1} past returns")
        if not isinstance(actions, list) or len(actions) != n - 1:
            raise RequestError(f"window.actions must list {n - 1} past actions")
        n_actions = bundle.model.config.action_count
        for a in actions:
            if type(a) is not int or not 0 <= a < n_actions:
                raise RequestError(f"action {a!r} is not an integer in [0, {n_actions})")
        past_returns = [_number(r, "window.returns") for r in returns]
        expected_sizes = bundle.model.config.obs_dim - 4
        obs = [_parse_observation(o, expected_sizes) for o in observations]
    except RequestError as exc:
        return 400, {"error": str(exc)}

    try:
        # The timestep-0 observation carries a placeholder throughput, not a
        # measurement, so it is excluded from the window statistics.
        measured = [o.throughput_mbps for o, t in zip(obs, timesteps) if t > 0]
        newest = obs[-1]
        r_hat = float(
            est.qoe_to_go(
                bundle.estimator_model, [measured], [newest.buffer_s], [newest.remaining_frac], bundle.stats_window
            )[0]
        )
        window = dt.TrajectoryWindow(
            K, [timesteps], [[o.vector() for o in obs]], [past_returns + [r_hat]], [actions]
        )
        level = int(dt.decide(bundle.model, window)[0])
    except Exception as exc:  # model-side failure
        return 500, {"error": f"decision failed: {exc}"}
    return 200, {"level": level, "r_hat": r_hat}


class ReusingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` whose handler threads serve one connection after another.

    Each connection still gets its own thread at once: an idle handler thread
    if there is one, else a new daemon thread, so a slow client never delays
    another.  A thread that has served its connection waits for the next one,
    or exits if ``os.cpu_count()`` threads already wait.  Reuse saves starting
    a thread per connection, and the slower first numpy and BLAS calls of a
    fresh thread.  ``server_close`` ends the waiting threads.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._handoff = queue.SimpleQueue()  # connections, or None to end a thread
        self._lock = threading.Lock()
        self._idle = 0  # threads that will take one item off the handoff queue
        self._closed = False
        self._max_idle = os.cpu_count() or 1

    def process_request(self, request, client_address) -> None:
        with self._lock:
            if self._idle:
                self._idle -= 1
                self._handoff.put((request, client_address))
                return
        threading.Thread(target=self._serve, args=(request, client_address), daemon=self.daemon_threads).start()

    def _serve(self, request, client_address) -> None:
        while True:
            self.process_request_thread(request, client_address)
            with self._lock:
                if self._closed or self._idle >= self._max_idle:
                    return
                self._idle += 1
            job = self._handoff.get()
            if job is None:
                return
            request, client_address = job

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closed = True
            for _ in range(self._idle):
                self._handoff.put(None)
            self._idle = 0


def make_server(bundle: DecisionBundle, host: str = "127.0.0.1", port: int = 0) -> ReusingHTTPServer:
    """HTTP server exposing POST /decide; port 0 picks an ephemeral port."""

    class Handler(BaseHTTPRequestHandler):
        timeout = READ_TIMEOUT_S

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            if self.path != "/decide":
                self._reply(404, {"error": "unknown path; POST /decide"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError(f"negative Content-Length {length}")
                if length > MAX_BODY_BYTES:
                    self._reply(413, {"error": f"body of {length} bytes exceeds {MAX_BODY_BYTES}"})
                    return
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except TimeoutError:
                self._reply(408, {"error": f"body of {length} bytes not received within {self.timeout} s"})
                return
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
                self._reply(400, {"error": f"bad request body: {exc}"})
                return
            status, body = handle_decide(bundle, payload)
            self._reply(status, body)

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, fmt: str, *args) -> None:  # quiet by default
            pass

    return ReusingHTTPServer((host, port), Handler)


def serve_decisions(bundle: DecisionBundle, host: str = "127.0.0.1", port: int = 8008) -> None:
    """Blocking entry point used by the CLI."""
    server = make_server(bundle, host, port)
    print(f"serving decisions on http://{host}:{server.server_address[1]}/decide")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
        server.server_close()
