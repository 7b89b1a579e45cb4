"""Open-loop load generation and its latency arithmetic.

Requests are due on a fixed schedule (``rate`` per second) whatever the
server does.  A small fixed pool of sender threads takes them in order, so a
stalled server makes later requests start late; every latency is therefore
measured from when the request was due, and the generator's own lateness
(send time minus due time) is reported beside it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class Outcome:
    request: object
    due: float
    sent: float
    done: float
    status: int | None
    body: object
    problem: str | None = None  # set by the output check; a problem counts as a missed deadline

    @property
    def ok(self) -> bool:
        return self.problem is None


def latency_ms(o: Outcome) -> float:
    """Due-to-done time; a failed request misses every latency limit."""
    return (o.done - o.due) * 1e3 if o.ok else math.inf


def lateness_ms(o: Outcome) -> float:
    return (o.sent - o.due) * 1e3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); infinities sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= len(ordered):
        return ordered[lo]
    a, b = ordered[lo], ordered[lo + 1]
    return math.inf if math.isinf(b) else a + (b - a) * frac


def meets_limit(outcomes: Sequence[Outcome], limit_ms: float) -> bool:
    """p99 latency within the limit, and no backlog left growing at the end of the step."""
    if not outcomes:
        return False
    if percentile([latency_ms(o) for o in outcomes], 99) > limit_ms:
        return False
    tail = sorted(outcomes, key=lambda o: o.due)[-max(1, len(outcomes) // 4):]
    return percentile([lateness_ms(o) for o in tail], 50) <= limit_ms


def capacity_estimate(passing: tuple[float, float] | None, failing: tuple[float, float] | None,
                      limit_ms: float) -> float:
    """Highest rate meeting the limit, interpolated on p99 between the bracketing rates.

    ``passing``/``failing`` are ``(rate, p99_ms)``.  Without a failing rate
    the highest passing rate is a lower bound; without a passing rate the
    lowest rate is scaled down by how far its p99 overshot.
    """
    if passing is None:
        rate, p99 = failing
        return rate * limit_ms / min(p99, 1e6)
    if failing is None:
        return passing[0]
    (r_lo, p_lo), (r_hi, p_hi) = passing, failing
    p_hi = min(p_hi, 4 * limit_ms)
    frac = (limit_ms - p_lo) / (p_hi - p_lo) if p_hi > p_lo else 0.0
    return r_lo + (r_hi - r_lo) * min(max(frac, 0.0), 1.0)


def run_open_loop(send: Callable[[object], tuple[int | None, object]], requests: Sequence[object],
                  rate: float, duration_s: float, senders: int, start_index: int = 0) -> list[Outcome]:
    """Send ``requests`` (cycled) at ``rate``/s for ``duration_s``; returns one outcome per request."""
    count = max(1, int(rate * duration_s))
    t0 = time.perf_counter() + 0.01
    lock = threading.Lock()
    cursor = iter(range(count))
    outcomes: list[Outcome | None] = [None] * count

    def sender() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = t0 + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            request = requests[(start_index + i) % len(requests)]
            sent = time.perf_counter()
            status, body = send(request)
            outcomes[i] = Outcome(request, due, sent, time.perf_counter(), status, body)

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes  # type: ignore[return-value]
