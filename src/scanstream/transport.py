"""Paced datagram transport: fragmentation, sender queue, reassembly, feedback.

The sender fragments scan units into MTU-sized packets, admits each packet
through the congestion window gate, and paces emission at headroom x the
pacing rate, as SCReAM paces media (RFC 8298).  The pacer is one
next-send time: a packet may leave once the clock reaches it, and each
send moves it on by that packet's wire bytes at the rate in force, so
packets leave spread out rather than in clumps.

The emulated link never corrupts or reorders anything, and only a unit's
length decides how it travels, so units and packets carry byte counts,
not bytes: the sender fragments a unit's byte count, and the receiver
counts the fragments of each scan until all have arrived.

There is no retransmission.  Late or lost scan data is worthless to the
consumer, so loss surfaces as missing scans plus controller backoff.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

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
    payload_len: int


def packet_wire_size(pkt: Packet) -> int:
    return PACKET_HEADER_BYTES + pkt.payload_len


@dataclass(frozen=True)
class TransportParams:
    mtu_payload: int = 1200
    sender_queue_cap: int = 20  # units; oldest dropped beyond this
    pacing_headroom: float = 1.25
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
        if self.feedback_interval <= 0:
            raise ValueError(f"feedback_interval must be positive, got {self.feedback_interval}")
        if self.feedback_every_packets < 1:
            raise ValueError("feedback_every_packets must be >= 1")


@dataclass
class _Frame:
    scan_id: int
    nbytes: int
    frag_count: int
    next_index: int = 0


class DatagramSender:
    """Sender half: unit queue, fragmentation, window gate, pacer."""

    def __init__(self, params: TransportParams):
        params.validate()
        self.params = params
        self.queue: deque[tuple[int, int]] = deque()  # (scan id, unit bytes)
        self.drop_log: list[int] = []  # ids of the scans dropped from the queue, in order
        self.next_seq = 1  # seq 0 is reserved for "nothing acked yet"
        self.sent_packets = 0
        self.sent_wire_bytes = 0
        self.blocked_reason = "idle"
        self._frame: _Frame | None = None
        self._next_send = 0.0  # no packet may leave before this time
        # (seq, wire bytes) of every packet sent under a controller and not
        # yet acked or known lost, in seq order: the entries behind
        # CongestionState.bytes_in_flight
        self._inflight: deque[tuple[int, int]] = deque()

    # ------------------------------------------------------------- queueing

    def enqueue_unit(self, scan_id: int, nbytes: int) -> None:
        """Append a unit of nbytes, header included; beyond the cap the oldest is dropped."""
        if nbytes < 1:
            raise ValueError(f"a unit needs at least one byte, got {nbytes}")
        if len(self.queue) >= self.params.sender_queue_cap:
            self.drop_log.append(self.queue.popleft()[0])
        self.queue.append((scan_id, nbytes))

    @property
    def queue_depth(self) -> int:
        return len(self.queue) + (1 if self._frame is not None else 0)

    # -------------------------------------------------------------- sending

    def pace_and_send(
        self,
        cc_state: CongestionState | None,
        cc_params: ControlParams | None,
        pacing_rate: float,
        now: float,
    ) -> list[Packet]:
        """Emit every packet the window gate and the pacer allow at `now`.

        A packet may leave once `now` reaches the next-send time; each send
        moves that time on by the packet's wire bytes at headroom x
        pacing_rate, counted from the send or from the old next-send time,
        whichever is later.  An idle sender thus earns no burst credit, and
        each gap is set by the rate in force when its packet left.
        cc_state None disables the congestion window gate and the in-flight
        ledger entirely (fixed-rate baseline operation: no feedback ever
        settles a seq); pacing still applies.
        """
        if pacing_rate <= 0:
            raise ValueError(f"pacing_rate must be positive, got {pacing_rate}")
        out: list[Packet] = []
        mtu = self.params.mtu_payload
        rate_bytes = self.params.pacing_headroom * pacing_rate / 8.0
        while True:
            if self._frame is None:
                if not self.queue:
                    self.blocked_reason = "idle"
                    break
                scan_id, nbytes = self.queue.popleft()
                frag_count = -(-nbytes // mtu)
                if frag_count > 65535:
                    raise ValueError(f"unit of {nbytes} bytes exceeds 65535 fragments")
                self._frame = _Frame(scan_id, nbytes, frag_count)
            frame = self._frame
            sent_bytes = frame.next_index * mtu  # every fragment but the last is full
            payload_len = min(mtu, frame.nbytes - sent_bytes)
            wire = PACKET_HEADER_BYTES + payload_len
            if cc_state is not None and not can_send(cc_state, cc_params, wire, sent_bytes):
                self.blocked_reason = "cwnd"
                break
            if now < self._next_send:
                self.blocked_reason = "pacing"
                break
            pkt = Packet(
                seq=self.next_seq,
                scan_id=frame.scan_id,
                frag_index=frame.next_index,
                frag_count=frame.frag_count,
                send_time=now,
                ecn=ECT1,
                payload_len=payload_len,
            )
            out.append(pkt)
            self.next_seq += 1
            self.sent_packets += 1
            self.sent_wire_bytes += wire
            self._next_send = max(self._next_send, now) + wire / rate_bytes
            if cc_state is not None:
                self._inflight.append((pkt.seq, wire))
                cc_state.bytes_in_flight += wire
            frame.next_index += 1
            if frame.next_index == frame.frag_count:
                self._frame = None
        return out

    def next_send_opportunity(self, now: float) -> float | None:
        """Earliest time the pacer lets another packet leave.

        Only meaningful after a pace_and_send call blocked on pacing; cwnd
        and idle blocks clear on feedback and enqueue instead of a timer.
        """
        if self.blocked_reason != "pacing":
            return None
        return max(self._next_send, now)

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
    received: int = 0


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
        self.newest_send_time = 0.0
        self.newest_arrival_time = 0.0
        self.packets_since_report = 0
        self.last_report_time = 0.0
        self._partial: dict[int, _PartialScan] = {}

    def receive_packet(self, pkt: Packet, now: float) -> int | None:
        """Account one arrival; returns the scan id when its last fragment lands.

        The forward path is a FIFO link, so packets arrive in seq order and
        any gap is loss; an already-seen seq can only be a duplicate.  The
        sender fragments each unit once under fresh seqs, so rejecting seen
        seqs leaves each fragment counted once, and a completed scan is
        never delivered again.
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

        part = self._partial.get(pkt.scan_id)
        if part is None:
            part = self._partial[pkt.scan_id] = _PartialScan(pkt.frag_count)
        if pkt.frag_count != part.frag_count:
            self.duplicate_packets += 1
            return None
        part.received += 1
        if part.received < part.frag_count:
            return None
        del self._partial[pkt.scan_id]
        return pkt.scan_id

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
