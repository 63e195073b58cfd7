"""Paced datagram transport: fragmentation, sender queue, reassembly, feedback.

The sender fragments serialized scan units into MTU-sized packets, admits
each packet through the congestion window gate, and paces emission with a
token bucket under a window budget.  The bucket refills at headroom x the
pacing rate and holds one packet, so packets leave spread out rather than
in clumps.  The budget caps the bytes sent in the trailing pacing window,
which bounds the bytes inside *any* window of that length (the window
anchored at the latest send inside an arbitrary interval contains all of
that interval's sends).  Both gates bind in practice.

There is no retransmission.  Late or lost scan data is worthless to the
consumer, so loss surfaces as missing scans plus controller backoff.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

from .codec import DecodeError, EncodedUnit, pack_unit, unpack_unit
from .congestion import CongestionState, ControlParams, FeedbackReport, can_send

NOT_ECT = 0
ECT1 = 1
CE = 3

# Wire bytes a packet header would take: magic[4] | u32 seq | u32 scan_id |
# u16 frag_index | u16 frag_count | u64 send_ns | u8 ecn | u16 len.  The
# simulation passes Packet objects and only charges their size.
PACKET_HEADER_BYTES = 27


@dataclass
class Packet:
    seq: int
    scan_id: int
    frag_index: int
    frag_count: int
    send_time: float
    ecn: int
    payload: bytes


def packet_wire_size(pkt: Packet) -> int:
    return PACKET_HEADER_BYTES + len(pkt.payload)


@dataclass(frozen=True)
class TransportParams:
    mtu_payload: int = 1200
    sender_queue_cap: int = 20  # units; oldest dropped beyond this
    pacing_headroom: float = 1.25
    pacing_window: float = 0.010  # seconds
    feedback_interval: float = 0.010  # seconds
    feedback_every_packets: int = 2

    def validate(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError(f"every parameter must be finite, got {self}")
        if self.mtu_payload <= 0 or self.mtu_payload > 65535:
            raise ValueError(f"mtu_payload must be in (0, 65535], got {self.mtu_payload}")
        if self.sender_queue_cap < 1:
            raise ValueError(f"sender_queue_cap must be >= 1, got {self.sender_queue_cap}")
        if self.pacing_headroom < 1.0:
            raise ValueError(f"pacing_headroom must be >= 1, got {self.pacing_headroom}")
        if self.pacing_window <= 0 or self.feedback_interval <= 0:
            raise ValueError("pacing_window and feedback_interval must be positive")
        if self.feedback_every_packets < 1:
            raise ValueError("feedback_every_packets must be >= 1")


@dataclass
class _QueuedUnit:
    scan_id: int
    blob: bytes


@dataclass
class _Frame:
    scan_id: int
    chunks: list[bytes]
    next_index: int = 0
    sent_bytes: int = 0


class DatagramSender:
    """Sender half: unit queue, fragmentation, window gate, pacing limiter."""

    def __init__(self, params: TransportParams):
        params.validate()
        self.params = params
        self.queue: deque[_QueuedUnit] = deque()
        self.drop_log: list[int] = []  # ids of the scans dropped from the queue, in order
        self.next_seq = 1  # seq 0 is reserved for "nothing acked yet"
        self.sent_packets = 0
        self.sent_wire_bytes = 0
        self.blocked_reason = "idle"
        self._frame: _Frame | None = None
        self._window: deque[tuple[float, int]] = deque()
        self._window_bytes = 0
        self._tokens = 0.0
        self._token_stamp: float | None = None
        self._pace_wake = 0.0
        # (seq, wire bytes) of every packet sent under a controller and not
        # yet acked or known lost, in seq order: the entries behind
        # CongestionState.bytes_in_flight
        self._inflight: deque[tuple[int, int]] = deque()

    # ------------------------------------------------------------- queueing

    def enqueue_unit(self, unit: EncodedUnit) -> None:
        """Append a unit; beyond the cap the oldest queued unit is dropped."""
        blob = pack_unit(unit)
        if len(self.queue) >= self.params.sender_queue_cap:
            victim = self.queue.popleft()
            self.drop_log.append(victim.scan_id)
        self.queue.append(_QueuedUnit(unit.scan_id, blob))

    @property
    def queue_depth(self) -> int:
        return len(self.queue) + (1 if self._frame is not None else 0)

    # -------------------------------------------------------------- sending

    def _evict_window(self, now: float) -> None:
        horizon = now - self.params.pacing_window
        while self._window and self._window[0][0] <= horizon:
            self._window_bytes -= self._window[0][1]
            self._window.popleft()

    def _pacing_budget(self, pacing_rate: float) -> float:
        return self.params.pacing_headroom * pacing_rate * self.params.pacing_window / 8.0

    def pace_and_send(
        self,
        cc_state: CongestionState | None,
        cc_params: ControlParams | None,
        pacing_rate: float,
        now: float,
    ) -> list[Packet]:
        """Emit every packet currently allowed by the window and pacing gates.

        Pacing is a token bucket refilled at headroom x pacing_rate with a
        one-packet burst, so emissions spread out instead of leaving in
        window-sized clumps; the sliding-window budget stays on as the hard
        bound on bytes per pacing_window (with a one-packet minimum grant
        when the window is empty). cc_state None disables the congestion
        window gate and the in-flight ledger entirely (fixed-rate baseline
        operation: no feedback ever settles a seq); pacing still applies.
        """
        if pacing_rate <= 0:
            raise ValueError(f"pacing_rate must be positive, got {pacing_rate}")
        out: list[Packet] = []
        self._evict_window(now)
        budget = self._pacing_budget(pacing_rate)
        mtu = self.params.mtu_payload
        rate_bytes = self.params.pacing_headroom * pacing_rate / 8.0
        bucket = float(PACKET_HEADER_BYTES + mtu)
        if self._token_stamp is None:
            self._tokens = bucket
        else:
            self._tokens = min(bucket, self._tokens + (now - self._token_stamp) * rate_bytes)
        self._token_stamp = now

        while True:
            if self._frame is None:
                if not self.queue:
                    self.blocked_reason = "idle"
                    break
                unit = self.queue.popleft()
                chunks = [unit.blob[i : i + mtu] for i in range(0, len(unit.blob), mtu)]
                if len(chunks) > 65535:
                    raise ValueError(f"unit of {len(unit.blob)} bytes exceeds 65535 fragments")
                self._frame = _Frame(unit.scan_id, chunks)
            frame = self._frame
            payload = frame.chunks[frame.next_index]
            wire = PACKET_HEADER_BYTES + len(payload)
            if cc_state is not None and not can_send(cc_state, cc_params, wire, frame.sent_bytes):
                self.blocked_reason = "cwnd"
                break
            # empty window always grants one packet: at very low rates the
            # budget can be smaller than a single MTU and would stall forever
            if self._window and self._window_bytes + wire > budget:
                self.blocked_reason = "pacing"
                # +1 ns guards against float roundoff leaving the entry un-evicted
                self._pace_wake = self._window[0][0] + self.params.pacing_window + 1e-9
                break
            if wire > self._tokens:
                self.blocked_reason = "pacing"
                self._pace_wake = now + (wire - self._tokens) / rate_bytes + 1e-9
                break
            pkt = Packet(
                seq=self.next_seq,
                scan_id=frame.scan_id,
                frag_index=frame.next_index,
                frag_count=len(frame.chunks),
                send_time=now,
                ecn=ECT1,
                payload=payload,
            )
            out.append(pkt)
            self.next_seq += 1
            self.sent_packets += 1
            self.sent_wire_bytes += wire
            self._window.append((now, wire))
            self._window_bytes += wire
            self._tokens -= wire
            if cc_state is not None:
                self._inflight.append((pkt.seq, wire))
                cc_state.bytes_in_flight += wire
            frame.sent_bytes += len(payload)
            frame.next_index += 1
            if frame.next_index == len(frame.chunks):
                self._frame = None
        return out

    def next_send_opportunity(self, now: float) -> float | None:
        """Earliest time pacing frees room for another packet.

        Only meaningful after a pace_and_send call blocked on pacing; cwnd
        and queue blocks clear on feedback/enqueue events instead of timers.
        """
        if self.blocked_reason != "pacing":
            return None
        return max(self._pace_wake, now)

    def reconcile_inflight(self, cc_state: CongestionState, highest_acked_seq: int) -> None:
        """Settle every seq a feedback report covers out of bytes_in_flight.

        The sender is the only writer of cc_state.bytes_in_flight: it adds
        each packet at send and subtracts it here.  The link delivers in
        order, so every seq at or below the highest acked one has either
        arrived (acked) or been dropped; both must leave the in-flight count
        or losses would inflate it forever.  Seqs enter the ledger in
        ascending order, so they leave from its front and a report costs
        O(seqs it settles).
        """
        inflight = self._inflight
        settled = 0
        while inflight and inflight[0][0] <= highest_acked_seq:
            settled += inflight.popleft()[1]
        cc_state.bytes_in_flight -= settled


@dataclass
class _PartialScan:
    frag_count: int
    fragments: dict[int, bytes] = field(default_factory=dict)


class DatagramReceiver:
    """Receiver half: loss/CE accounting, reassembly, feedback snapshots."""

    def __init__(self, params: TransportParams):
        params.validate()
        self.params = params
        self.highest_seq = 0
        self.cumulative_acked_bytes = 0
        self.cumulative_ce_bytes = 0
        self.cumulative_lost_packets = 0
        self.duplicate_packets = 0
        self.malformed_units = 0
        self.delivered_scans = 0
        self.newest_send_time = 0.0
        self.newest_arrival_time = 0.0
        self.packets_since_report = 0
        self.last_report_time = 0.0
        self._partial: dict[int, _PartialScan] = {}
        self._delivered: set[int] = set()

    def receive_packet(self, pkt: Packet, now: float) -> EncodedUnit | None:
        """Account one arrival; returns the reassembled unit when complete.

        The forward path is a FIFO link, so packets arrive in seq order and
        any gap is loss; an already-seen seq can only be a duplicate.
        """
        if pkt.seq <= self.highest_seq:
            self.duplicate_packets += 1
            return None
        self.cumulative_lost_packets += pkt.seq - self.highest_seq - 1
        self.highest_seq = pkt.seq
        wire = packet_wire_size(pkt)
        self.cumulative_acked_bytes += wire
        if pkt.ecn == CE:
            self.cumulative_ce_bytes += wire
        self.newest_send_time = pkt.send_time
        self.newest_arrival_time = now
        self.packets_since_report += 1

        if pkt.scan_id in self._delivered:
            self.duplicate_packets += 1
            return None
        part = self._partial.get(pkt.scan_id)
        if part is None:
            part = self._partial[pkt.scan_id] = _PartialScan(pkt.frag_count)
        if pkt.frag_count != part.frag_count or pkt.frag_index in part.fragments:
            self.duplicate_packets += 1
            return None
        part.fragments[pkt.frag_index] = pkt.payload
        if len(part.fragments) < part.frag_count:
            return None

        blob = b"".join(part.fragments[i] for i in range(part.frag_count))
        del self._partial[pkt.scan_id]
        self._delivered.add(pkt.scan_id)
        try:
            unit = unpack_unit(blob)
        except DecodeError:
            self.malformed_units += 1
            return None
        self.delivered_scans += 1
        return unit

    def expire_partials_below(self, scan_id: int) -> list[int]:
        """Drop partial scans older than an arriving one; returns their ids.

        Frames leave the sender in scan order over an in-order link, so once
        any fragment of a newer scan arrives, missing fragments of older
        scans can never show up: that reassembly state is dead.
        """
        dead = [sid for sid in self._partial if sid < scan_id]
        for sid in dead:
            del self._partial[sid]
        return dead

    def should_report(self, now: float) -> bool:
        if self.packets_since_report >= self.params.feedback_every_packets:
            return True
        return now - self.last_report_time >= self.params.feedback_interval

    def make_feedback(self, now: float) -> FeedbackReport:
        """Cumulative-counter snapshot; echoes the newest packet's send time."""
        self.packets_since_report = 0
        self.last_report_time = now
        return FeedbackReport(
            highest_acked_seq=self.highest_seq,
            cumulative_acked_bytes=self.cumulative_acked_bytes,
            cumulative_ce_marked_bytes=self.cumulative_ce_bytes,
            cumulative_lost_packets=self.cumulative_lost_packets,
            receiver_timestamp=self.newest_arrival_time,
            echo_timestamp=self.newest_send_time,
        )
