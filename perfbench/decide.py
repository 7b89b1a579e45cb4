"""decide-http: ``abrlab serve`` under an open loop of /decide requests.

The server runs in its own process on the lab checkpoints.  Request bodies
are sequence-model windows of 1..K timesteps replayed from simulated
sessions on the lab's test corpus; every tenth request is malformed instead,
cycling through the classes in ``MALFORMED``.  Each valid answer must equal
the sequential in-process ``service.handle_decide`` answer (status, level
and exact r_hat); each malformed request must get a 400.

One sender thread per CPU (at most ``MAX_SENDERS``) sends on a fixed
schedule; latency is measured from when each request was due.  Windows at
the base rate, which give the latency figures, alternate with steps of a
search for the highest rate whose p99 stays within ``LIMIT_MS`` with no
growing backlog.
"""

from __future__ import annotations

import copy
import http.client
import json
import math
import os
import random
import resource
import select
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from abrlab import dt, estimator as est, qoe, service, sim

import loadgen
from checks import decide_answer
from common import SETUP_REPEATS, Context, Result
from lab import CONTEXT_LEN, STATS_WINDOW, Lab, build_lab
from layers import layer_metrics
from spans import load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_SENDERS = 2
BASE_RPS = 100.0
LIMIT_MS = 50.0
STEP_S = 1.5
BASE_WINDOWS = 5  # at least
MALFORMED_EVERY = 10
TIMEOUT_S = 5.0
READY_TIMEOUT_S = 60.0
# Names each request's class (``valid`` or a malformed class) so the traced
# launcher can attribute server CPU time to it; the service ignores it.
KIND_HEADER = "X-Request-Kind"

# Malformed classes the service is documented to answer with 400 and does.
DOCUMENTED_400 = (
    "bad_json", "no_window", "ladder_mismatch", "manifest_ref", "too_long", "timestep_gap",
    "observation_count", "action_range", "missing_field", "sizes_length",
)
# Client faults the service does not yet answer with 400 (the service-hardening
# open item in ROADMAP.md).  Known defects: counted apart from failed requests.
KNOWN_HOLES = (
    "timestep_fraction", "timestep_string", "timestep_range", "nan_observation", "inf_observation",
    "nan_return", "string_return", "bool_action", "negative_buffer", "ladder_not_list",
    "negative_content_length",
)
MALFORMED = DOCUMENTED_400 + KNOWN_HOLES


@dataclass
class Request:
    kind: str  # "valid" or a malformed class
    data: bytes  # request body, or the whole raw request for "negative_content_length"
    expected_status: int
    expected_body: dict | None
    body_id: int


def load_bundle(dt_path, estimator_path, stats_window: int = STATS_WINDOW) -> service.DecisionBundle:
    """The bundle ``abrlab serve`` builds from the same checkpoints."""
    from abrlab.nn import load_checkpoint

    _, meta = load_checkpoint(dt_path)
    return service.DecisionBundle(
        model=dt.load_dt(dt_path),
        estimator_model=est.load_estimator(estimator_path),
        ladder_kbps=tuple(float(r) for r in meta.get("ladder_kbps", qoe.DEFAULT_LADDER_KBPS)),
        stats_window=stats_window,
    )


def _observation(o: sim.Observation) -> dict:
    return {
        "buffer_s": o.buffer_s,
        "throughput_mbps": o.throughput_mbps,
        "download_s": o.download_s,
        "next_chunk_sizes_bytes": o.next_chunk_sizes_bytes.tolist(),
        "remaining_frac": o.remaining_frac,
    }


def session_windows(lab: Lab, bundle: service.DecisionBundle) -> list[dict]:
    """Every decision window of a sequence-policy session on each test trace, as request payloads."""
    payloads = []
    for trace in lab.test_traces:
        policy = dt.DtPolicy(bundle.model, bundle.estimator_model, STATS_WINDOW)
        log = sim.run_policy(policy, lab.manifest, trace)
        obs = log.observations
        returns = []
        for t, o in enumerate(obs):
            measured = [x.throughput_mbps for x in obs[1 : t + 1]]
            stats = est.throughput_stats(measured, window=STATS_WINDOW) if measured else est.STARTUP_PRIOR
            returns.append(est.estimate(bundle.estimator_model, est.features(stats, o.buffer_s, o.remaining_frac)))
        levels = [r.chosen_level for r in log.records]
        for t in range(len(obs)):
            s = max(0, t - CONTEXT_LEN + 1)
            payloads.append({
                "ladder_kbps": list(bundle.ladder_kbps),
                "manifest_ref": "default",
                "window": {
                    "timesteps": list(range(s, t + 1)),
                    "observations": [_observation(o) for o in obs[s : t + 1]],
                    "returns": returns[s:t],
                    "actions": levels[s:t],
                },
            })
    return payloads


def malformed_payload(kind: str, payload: dict) -> bytes:
    """A copy of a valid payload (of at least two timesteps) broken in one way."""
    p = copy.deepcopy(payload)
    w = p["window"]
    if kind == "bad_json":
        return json.dumps(p).encode()[:-7]
    if kind == "no_window":
        del p["window"]
    elif kind == "ladder_mismatch":
        p["ladder_kbps"] = [100.0, 200.0]
    elif kind == "manifest_ref":
        p["manifest_ref"] = "unknown-manifest"
    elif kind == "too_long":
        while len(w["timesteps"]) <= CONTEXT_LEN:
            w["timesteps"].append(w["timesteps"][-1] + 1)
            w["observations"].append(w["observations"][-1])
            w["returns"].append(w["returns"][-1])
            w["actions"].append(w["actions"][-1])
    elif kind == "timestep_gap":
        w["timesteps"][-1] += 1
    elif kind == "observation_count":
        w["observations"].pop()
    elif kind == "action_range":
        w["actions"][0] = 99
    elif kind == "missing_field":
        del w["observations"][0]["buffer_s"]
    elif kind == "sizes_length":
        w["observations"][0]["next_chunk_sizes_bytes"] = [1.0, 2.0, 3.0]
    elif kind == "timestep_fraction":
        w["timesteps"] = [t + 0.5 for t in w["timesteps"]]
    elif kind == "timestep_string":
        w["timesteps"] = [f"t{t}" for t in w["timesteps"]]
    elif kind == "timestep_range":
        w["timesteps"] = [t + 10_000 for t in w["timesteps"]]
    elif kind == "nan_observation":
        w["observations"][-1]["buffer_s"] = math.nan
    elif kind == "inf_observation":
        w["observations"][-1]["throughput_mbps"] = math.inf
    elif kind == "nan_return":
        w["returns"][0] = math.nan
    elif kind == "string_return":
        w["returns"][0] = "high"
    elif kind == "bool_action":
        w["actions"][0] = True
    elif kind == "negative_buffer":
        w["observations"][-1]["buffer_s"] = -3.0
    elif kind == "ladder_not_list":
        p["ladder_kbps"] = 4300
    elif kind == "negative_content_length":
        body = json.dumps(p).encode()
        head = (f"POST /decide HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
                f"{KIND_HEADER}: {kind}\r\n")
        return (head + "Content-Length: -1\r\nConnection: close\r\n\r\n").encode() + body
    else:
        raise ValueError(f"unknown malformed class {kind!r}")
    return json.dumps(p).encode()


def build_requests(payloads: list[dict], bundle: service.DecisionBundle, seed: int) -> list[Request]:
    """Seeded request mix: valid windows with every MALFORMED_EVERY-th replaced by a malformed one."""
    rng = random.Random(seed)
    order = list(range(len(payloads)))
    rng.shuffle(order)
    multi = [i for i in order if len(payloads[i]["window"]["timesteps"]) >= 2]
    requests = []
    for n, i in enumerate(order):
        if n % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            kind = MALFORMED[(n // MALFORMED_EVERY) % len(MALFORMED)]
            j = multi[n % len(multi)]
            requests.append(Request(kind, malformed_payload(kind, payloads[j]), 400, None, j))
        else:
            status, body = service.handle_decide(bundle, payloads[i])
            requests.append(Request("valid", json.dumps(payloads[i]).encode(), status, body, i))
    return requests


# -- server process and client ----------------------------------------------


class Server:
    """``abrlab serve`` (or the traced launcher) in a child process on an ephemeral port."""

    def __init__(self, lab: Lab, work: Path, spans_out: Path | None = None, cpu_out: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        paths = ["--dt", str(lab.dt_path), "--estimator", str(lab.estimator_path)]
        if spans_out is None:
            cmd = [sys.executable, "-u", "-m", "abrlab.cli", "serve", *paths,
                   "--host", "127.0.0.1", "--port", "0", "--stats-window", str(STATS_WINDOW)]
        else:
            cmd = [sys.executable, "-u", str(HERE / "serve_traced.py"), *paths,
                   "--spans-out", str(spans_out), "--cpu-out", str(cpu_out)]
        self.traced = spans_out is not None
        self.log = open(work / "server.log", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.ready_s = time.perf_counter() - t0
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].split("/")[0])

    def stop(self) -> None:
        """Traced launcher: close stdin so it writes its spans; CLI server: terminate.

        Sets ``cpu_s``, the CPU time the server process used over its life.
        """
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        if self.proc.poll() is None:
            if self.traced:
                self.proc.stdin.close()
            else:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        for stream in (self.proc.stdin, self.proc.stdout, self.log):
            stream.close()


def make_sender(port: int):
    def send(request: Request) -> tuple[int | None, object]:
        if request.kind == "negative_content_length":
            return _send_raw(port, request.data)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        try:
            conn.request("POST", "/decide", body=request.data,
                         headers={"Content-Type": "application/json", KIND_HEADER: request.kind})
            resp = conn.getresponse()
            return resp.status, _json(resp.read())
        except (OSError, http.client.HTTPException):
            return None, None
        finally:
            conn.close()

    return send


def _send_raw(port: int, data: bytes) -> tuple[int | None, object]:
    """Send a hand-built request, half-close, and read until the server closes."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    except OSError:
        return None, None
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        return int(head.split()[1]), _json(payload)
    except (IndexError, ValueError):
        return None, None


def _json(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return None


def check(outcomes: list[loadgen.Outcome]) -> None:
    for o in outcomes:
        r: Request = o.request
        o.problem = decide_answer(r.expected_status, r.expected_body, o.status, o.body)


# -- the workload ------------------------------------------------------------


def run(ctx: Context) -> Result:
    senders = max(1, min(MAX_SENDERS, os.cpu_count() or 1))
    # The lab and the reference answers are the benchmark's own preparation;
    # set-up time is the server's alone: launches of `abrlab serve` to readiness.
    lab = build_lab(ctx.work / "lab", ctx.seed)
    bundle = load_bundle(lab.dt_path, lab.estimator_path)
    requests = build_requests(session_windows(lab, bundle), bundle, ctx.seed)
    setup_s = []
    for n in range(SETUP_REPEATS):
        server = Server(lab, ctx.work)
        setup_s.append(server.ready_s)
        if n < SETUP_REPEATS - 1:
            server.stop()
    ready_s = statistics.median(setup_s)
    setup_problems = [f"reference answer {r.expected_status} for body {r.body_id}"
                      for r in requests if r.kind == "valid" and r.expected_status != 200]
    all_outcomes: list[loadgen.Outcome] = []
    cursor = 0

    def step(port: int, rate: float, seconds: float) -> list[loadgen.Outcome]:
        nonlocal cursor
        outcomes = loadgen.run_open_loop(make_sender(port), requests, rate, seconds, senders, cursor)
        cursor += len(outcomes)
        check(outcomes)
        all_outcomes.extend(outcomes)
        return outcomes

    def base_windows(port: int, seconds: float) -> list[list[loadgen.Outcome]]:
        return [valid(step(port, BASE_RPS, seconds / BASE_WINDOWS)) for _ in range(BASE_WINDOWS)]

    spans_path = ctx.work / "server_spans.json"
    cpu_path = ctx.work / "server_cpu.json"
    try:
        if ctx.trace:
            base = base_windows(server.port, ctx.seconds / 2)
            server.stop()
            server = Server(lab, ctx.work, spans_path, cpu_path)
            before = len(all_outcomes)
            traced = base_windows(server.port, ctx.seconds / 2)
            traced_requests = len(all_outcomes) - before
            capacity, search = None, []
        else:
            base, capacity, search = base_and_capacity(lambda rate: valid(step(server.port, rate, STEP_S)),
                                                       ctx.seconds)
        raced = recheck(server.port, all_outcomes)
    finally:
        server.stop()

    p50 = windowed(base, 50)
    wrong = [o for o in all_outcomes if not o.ok]
    holes, failed = split_wrong(wrong, raced)
    unexpected = setup_problems + [f"{o.request.kind} body {o.request.body_id}: {o.problem}" for o in failed]
    by_class: dict[str, dict] = {}
    for o in all_outcomes:
        entry = by_class.setdefault(o.request.kind, {"sent": 0, "wrong": 0, "statuses": {}})
        entry["sent"] += 1
        entry["wrong"] += not o.ok
        entry["statuses"][str(o.status)] = entry["statuses"].get(str(o.status), 0) + 1
    figures = {
        "decide_p50_ms": (p50, "ms"),
        "decide_p90_ms": (windowed(base, 90), "ms"),
        "decide_p99_ms": (loadgen.percentile([loadgen.latency_ms(o) for o in sum(base, [])], 99), "ms"),
    }
    efficiency = None
    if not ctx.trace:
        # Requests served per second of the server's CPU time: what one core
        # sustains.  Unlike the rate search it does not move with CPU stolen
        # from this machine.
        efficiency = len(all_outcomes) / server.cpu_s
        figures["decide_req_per_server_cpu_s"] = (efficiency, "req/s")
        figures["decide_max_rps"] = (capacity, "req/s")
    result = Result(
        setup_s=setup_s,
        op_p50_ms=p50,
        throughput_per_s=efficiency,
        attempted=len(all_outcomes),
        failed=len(failed),
        unexpected=unexpected,
        known={"malformed_not_400": len(holes), "concurrency_race": len(raced)},
        figures=figures,
        details={
            "senders": senders, "base_rps": BASE_RPS, "limit_ms": LIMIT_MS, "step_s": STEP_S,
            "base_window_p50_ms": [loadgen.percentile([loadgen.latency_ms(o) for o in w], 50) for w in base],
            "search": search, "ready_s": ready_s, "by_class": by_class,
        },
    )
    if ctx.trace:
        traced_p50 = windowed(traced, 50)
        valid_wrong = [o for o in wrong if o.request.kind == "valid"]
        extra = {
            "cli.serve.ready_s": ready_s,
            **{f"service.status.{c}": float(sum(o.status == c for o in all_outcomes)) for c in (200, 400, 500)},
            "service.no_response": float(sum(o.status is None for o in all_outcomes)),
            "service.mismatch": float(sum(o.status is not None for o in valid_wrong)),
            "service.known_hole_not_400": float(len(holes)),
            "decide.generator_late_ms": loadgen.percentile([loadgen.lateness_ms(o) for o in sum(base, [])], 99),
            "trace.overhead.op_p50_ms": traced_p50 - p50,
            "trace.overhead.pct": 100.0 * (traced_p50 - p50) / p50,
        }
        tally = json.loads(cpu_path.read_text(encoding="utf-8"))
        result.details["server_cpu_by_kind"] = tally
        extra.update(cpu_by_kind(tally))
        result.spans = load_spans(spans_path)
        result.layers = layer_metrics(result.spans, traced_requests, extra)
    return result


def split_wrong(wrong: list[loadgen.Outcome], raced: set[int]) -> tuple[list, list]:
    """Wrong answers as (known-hole classes, failed requests).

    Neither holds a request in ``raced``: one answered correctly when re-sent
    alone, the concurrency race, a known defect of its own.
    """
    holes = [o for o in wrong if o.request.kind in KNOWN_HOLES]
    failed = [o for o in wrong if o.request.kind not in KNOWN_HOLES and id(o) not in raced]
    return holes, failed


def cpu_by_kind(tally: dict[str, list[float]]) -> dict[str, float]:
    """Server CPU per request, valid and malformed, and the malformed share of it.

    ``tally`` maps a request class to ``[requests, handler-thread CPU seconds]``
    as the traced launcher counted them.  The share tells a change in the
    request mix apart from a change in the cost of a request.
    """
    valid_n, valid_s = tally.get("valid", (0, 0.0))
    bad_n = sum(n for kind, (n, _) in tally.items() if kind != "valid")
    bad_s = sum(cpu for kind, (_, cpu) in tally.items() if kind != "valid")
    total = valid_s + bad_s
    return {
        "service.request_cpu_us.valid": 1e6 * valid_s / valid_n if valid_n else 0.0,
        "service.request_cpu_us.malformed": 1e6 * bad_s / bad_n if bad_n else 0.0,
        "service.malformed_cpu_pct": 100.0 * bad_s / total if total else 0.0,
    }


def valid(outcomes: list[loadgen.Outcome]) -> list[loadgen.Outcome]:
    return [o for o in outcomes if o.request.kind == "valid"]


def windowed(windows: list[list[loadgen.Outcome]], q: float) -> float:
    """Median over the base-rate windows of each window's latency percentile ``q``."""
    return statistics.median(loadgen.percentile([loadgen.latency_ms(o) for o in w], q) for w in windows)


def base_and_capacity(run_step, seconds: float):
    """Alternate base-rate windows with capacity-search steps for ``seconds``.

    Alternating spreads both over the run, so a stall of a few seconds moves
    neither the median window nor the search much.  The search doubles the
    base rate, raises it x1.4 while steps pass, then bisects.  A step that
    misses the limit by less than 4x is tried again after the next window: a
    transient stall can only make a sustainable rate fail, never an
    unsustainable one pass.  (Past capacity the backlog grows through the step
    and p99 overshoots far more.)  Returns the base windows' valid outcomes,
    the capacity estimate and the search trail.
    """
    def p99(outcomes):
        return loadgen.percentile([loadgen.latency_ms(o) for o in outcomes], 99)

    windows, trail = [], []
    passing = failing = None  # (rate, p99_ms)
    retry = None  # (rate, p99_ms) of a marginal miss awaiting its second try
    deadline = time.perf_counter() + seconds
    while True:
        windows.append(run_step(BASE_RPS))
        if time.perf_counter() + 2 * STEP_S > deadline and len(windows) >= BASE_WINDOWS:
            break
        if retry:
            rate = retry[0]
        elif passing and failing:
            rate = (passing[0] + failing[0]) / 2
        elif passing:
            rate = passing[0] * 1.4
        elif failing:
            rate = failing[0] / 2
        else:
            rate = 2 * BASE_RPS
        outcomes = run_step(rate)
        ok, tail = loadgen.meets_limit(outcomes, LIMIT_MS), p99(outcomes)
        trail.append((rate, tail, ok))
        if ok:
            passing, retry = (rate, tail), None
        elif retry is None and tail <= 4 * LIMIT_MS:
            retry = (rate, tail)
        else:
            failing, retry = (rate, min(tail, retry[1]) if retry else tail), None
    if passing is None and failing is None:
        passing = (BASE_RPS, p99(sum(windows, [])))
    return windows, loadgen.capacity_estimate(passing, failing, LIMIT_MS), trail


def recheck(port: int, outcomes: list[loadgen.Outcome], limit: int = 1000) -> set[int]:
    """Re-send failed valid requests one at a time; the ids of those answered correctly.

    A request that is answered correctly when sent alone failed only under
    concurrency (the shared-model race in ROADMAP.md), a known defect.  One
    that fails again, or is past ``limit``, is a failed request.
    """
    send = make_sender(port)
    raced = set()
    failed = [o for o in outcomes if o.request.kind == "valid" and not o.ok]
    for o in failed[:limit]:
        r: Request = o.request
        status, body = send(r)
        if decide_answer(r.expected_status, r.expected_body, status, body) is None:
            raced.add(id(o))
    return raced
