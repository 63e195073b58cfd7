"""Deterministic bottleneck-link emulator.

Single FIFO queue with a byte limit, a stepwise capacity trace, fixed
propagation delay each way, queue-delay CE marking, and optional seeded
random loss.  Because service is FIFO and the capacity trace is known, a
packet's full schedule (service start, finish, delivery) is computable at
enqueue time; the emulator therefore never needs service events of its own
and the caller simply schedules each arrival at the returned delivery time.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .transport import ECT1, CE, Packet, packet_wire_size


class TraceError(ValueError):
    """Capacity trace is malformed."""


@dataclass(frozen=True)
class LinkConfig:
    capacity_trace: tuple[tuple[float, float], ...]  # (t_seconds, capacity_bps) steps
    prop_delay: float = 0.020  # seconds each way
    queue_limit: int = 120_000  # bytes
    ce_threshold: float = 0.005  # seconds of queuing delay
    loss_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.capacity_trace:
            raise TraceError("capacity trace is empty")
        if not all(math.isfinite(t) and math.isfinite(c) for t, c in self.capacity_trace):
            raise TraceError("capacity trace times and capacities must be finite")
        times = [t for t, _ in self.capacity_trace]
        if times[0] != 0.0:
            raise TraceError(f"capacity trace must start at t=0, got t={times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise TraceError("capacity trace times must be strictly increasing")
        if any(c <= 0 for _, c in self.capacity_trace):
            raise TraceError("capacities must be positive")
        if not all(0 <= d < math.inf for d in (self.prop_delay, self.ce_threshold)):
            raise ValueError("delays must be finite and nonnegative")
        if not (0 < self.queue_limit < math.inf):
            raise ValueError(f"queue_limit must be positive and finite, got {self.queue_limit}")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")


@dataclass
class LinkLedger:
    """Every offered packet lands in exactly one bucket."""

    offered: int = 0
    accepted: int = 0
    tail_dropped: int = 0
    random_lost: int = 0
    ce_marked: int = 0


@dataclass
class _Occupancy:
    finish_time: float
    wire_bytes: int


class BottleneckLink:
    """Forward-path emulation; see the module docstring for the model."""

    def __init__(self, config: LinkConfig):
        self.config = config
        self.ledger = LinkLedger()
        self._rng = np.random.default_rng(config.rng_seed)
        self._trace_times = [t for t, _ in config.capacity_trace]
        self._buffer: deque[_Occupancy] = deque()  # packets not yet fully serialized
        self._buffer_bytes = 0
        self._busy_until = 0.0  # finish time of the last scheduled packet

    # ------------------------------------------------------------ mechanics

    def _drain_buffer(self, now: float) -> None:
        while self._buffer and self._buffer[0].finish_time <= now:
            self._buffer_bytes -= self._buffer[0].wire_bytes
            self._buffer.popleft()

    def _serialize_end(self, start: float, bits: float) -> float:
        """Finish time for `bits` starting at `start`, across trace steps."""
        trace = self.config.capacity_trace
        idx = max(bisect_right(self._trace_times, start) - 1, 0)
        t = start
        remaining = bits
        while True:
            cap = trace[idx][1]
            seg_end = trace[idx + 1][0] if idx + 1 < len(trace) else float("inf")
            avail = cap * (seg_end - t)
            if remaining <= avail:
                return t + remaining / cap
            remaining -= avail
            t = seg_end
            idx += 1

    # ------------------------------------------------------------- data path

    def enqueue(self, pkt: Packet, now: float) -> tuple[Packet, float] | None:
        """Offer one packet; returns (packet, delivery_time) or None if it died.

        The returned packet is the one to deliver: it carries a CE mark when
        its queuing delay exceeded the threshold and it arrived ECT(1).
        """
        wire = packet_wire_size(pkt)
        self.ledger.offered += 1
        if self.config.loss_rate > 0.0 and self._rng.random() < self.config.loss_rate:
            self.ledger.random_lost += 1
            return None
        self._drain_buffer(now)
        if self._buffer_bytes + wire > self.config.queue_limit:
            self.ledger.tail_dropped += 1
            return None
        self.ledger.accepted += 1
        start = max(now, self._busy_until)
        end = self._serialize_end(start, wire * 8.0)
        self._busy_until = end
        self._buffer.append(_Occupancy(end, wire))
        self._buffer_bytes += wire
        queue_delay = start - now
        if queue_delay > self.config.ce_threshold and pkt.ecn == ECT1:
            pkt.ecn = CE
            self.ledger.ce_marked += 1
        return pkt, end + self.config.prop_delay

    # ------------------------------------------------------------ observers

    def capacity_at(self, t: float) -> float:
        """Trace capacity in force at time t."""
        idx = max(bisect_right(self._trace_times, t) - 1, 0)
        return self.config.capacity_trace[idx][1]

    def queue_delay(self, now: float) -> float:
        """Queuing delay an arrival at `now` would experience."""
        return max(self._busy_until - now, 0.0)


# ------------------------------------------------------------------- traces

def step_trace(steps: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    return tuple((float(t), float(c)) for t, c in steps)


def random_walk_trace(
    duration: float,
    dt: float,
    base_bps: float,
    sigma_bps: float,
    floor_bps: float,
    ceil_bps: float,
    seed: int,
) -> tuple[tuple[float, float], ...]:
    """Seeded random-walk capacity: varying radio conditions stand-in."""
    if dt <= 0 or duration <= 0:
        raise TraceError("duration and dt must be positive")
    if not (0 < floor_bps <= base_bps <= ceil_bps):
        raise TraceError("need 0 < floor <= base <= ceil")
    rng = np.random.default_rng(seed)
    n = int(np.ceil(duration / dt))
    caps = np.empty(n)
    cap = base_bps
    for i in range(n):
        caps[i] = cap
        cap = float(np.clip(cap + rng.normal(0.0, sigma_bps), floor_bps, ceil_bps))
    return tuple((round(i * dt, 9), float(c)) for i, c in enumerate(caps))


def read_trace(path) -> tuple[tuple[float, float], ...]:
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if lineno == 1:
                    continue  # header
                raise TraceError(f"{path}:{lineno}: expected 't,capacity_bps', got {row!r}")
    if not rows:
        raise TraceError(f"{path}: no trace rows")
    return tuple(rows)
