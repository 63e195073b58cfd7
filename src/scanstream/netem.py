"""Deterministic bottleneck-link emulator.

Single FIFO queue with a byte limit, a stepwise capacity trace, fixed
propagation delay each way, queue-delay CE marking, and optional seeded
random loss.  Because service is FIFO and the capacity trace is known, a
packet's full schedule (service start, finish, delivery) is computable at
enqueue time; the emulator therefore never needs service events of its own
and the caller simply schedules each arrival at the returned delivery time.

Service starts never go back, so the link keeps a cursor on the trace
segment in force at the last start it walked from, with that segment's
capacity and end.  A packet that starts before that end and fits in what
is left of the segment, by the same test the walk makes, finishes one
division after its start; only a packet that starts past a step or
crosses one walks the trace, moving the cursor forward.
"""
from __future__ import annotations

import csv
import math
import numbers
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .transport import ECT1, CE, Packet


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
        if not isinstance(self.rng_seed, numbers.Integral) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed!r}")


@dataclass
class LinkLedger:
    """Every offered packet lands in exactly one bucket."""

    offered: int = 0
    accepted: int = 0
    tail_dropped: int = 0
    random_lost: int = 0
    ce_marked: int = 0


class BottleneckLink:
    """Forward-path emulation; see the module docstring for the model."""

    def __init__(self, config: LinkConfig):
        self.config = config
        # read per packet: plain attributes, not a lookup through config
        self.prop_delay = config.prop_delay
        self.queue_limit = config.queue_limit
        self.ce_threshold = config.ce_threshold
        self.loss_rate = config.loss_rate
        self.ledger = LinkLedger()
        self._rng = np.random.default_rng(config.rng_seed)
        self._caps = [c for _, c in config.capacity_trace]
        # each segment's end: the next step, and none after the last
        self._ends = [t for t, _ in config.capacity_trace[1:]] + [math.inf]
        self._segment = 0  # trace index in force at the last start the trace was walked from
        self._cap, self._seg_end = self._caps[0], self._ends[0]  # that segment's
        self._buffer: deque = deque()  # (finish time, wire bytes) of packets not yet serialized
        self._buffer_bytes = 0
        self._busy_until = 0.0  # finish time of the last scheduled packet

    # ------------------------------------------------------------ mechanics

    def _serialize_end(self, start: float, bits: float) -> float:
        """Finish time for `bits` starting at `start` (no earlier than the last start).

        Moves the cursor to the segment in force at `start`, and caches its
        capacity and end for enqueue's fit test.
        """
        caps, ends = self._caps, self._ends
        idx = self._segment
        while ends[idx] <= start:
            idx += 1
        self._segment = idx
        cap = self._cap = caps[idx]
        seg_end = self._seg_end = ends[idx]
        t = start
        remaining = bits
        while True:
            avail = cap * (seg_end - t)
            if remaining <= avail:
                return t + remaining / cap
            remaining -= avail
            t = seg_end
            idx += 1
            cap, seg_end = caps[idx], ends[idx]

    # ------------------------------------------------------------- data path

    def enqueue(self, pkt: Packet, now: float) -> tuple[Packet, float] | None:
        """Offer one packet; returns (packet, delivery_time) or None if it died.

        The returned packet is the one to deliver: it carries a CE mark when
        its queuing delay exceeded the threshold and it arrived ECT(1).
        """
        wire = pkt.wire_bytes
        ledger = self.ledger
        ledger.offered += 1
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            ledger.random_lost += 1
            return None
        buffer = self._buffer
        queued = self._buffer_bytes
        while buffer and buffer[0][0] <= now:  # drop what finished serializing
            queued -= buffer.popleft()[1]
        if queued + wire > self.queue_limit:
            self._buffer_bytes = queued
            ledger.tail_dropped += 1
            return None
        ledger.accepted += 1
        busy = self._busy_until
        start = busy if busy > now else now
        bits = wire * 8.0
        cap = self._cap
        if bits <= cap * (self._seg_end - start):  # starts and ends in the cached segment
            end = start + bits / cap
        else:
            end = self._serialize_end(start, bits)
        self._busy_until = end
        buffer.append((end, wire))
        self._buffer_bytes = queued + wire
        if start - now > self.ce_threshold and pkt.ecn == ECT1:  # queuing delay
            pkt.ecn = CE
            ledger.ce_marked += 1
        return pkt, end + self.prop_delay

    # ------------------------------------------------------------ observers

    def capacity_at(self, t: float) -> float:
        """Trace capacity in force at time t."""
        return self._caps[bisect_right(self._ends, t)]

    def queue_delay(self, now: float) -> float:
        """Queuing delay an arrival at `now` would experience."""
        return max(self._busy_until - now, 0.0)


# ------------------------------------------------------------------- traces

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
