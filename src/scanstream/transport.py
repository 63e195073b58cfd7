"""Paced datagram transport: fragmentation, sender queue, reassembly, feedback.

The sender fragments scan units into MTU-sized packets, admits each packet
through the congestion window gate, and paces emission at headroom x the
pacing rate, as SCReAM paces media (RFC 8298).  The pacer is one
next-send time: a packet may leave once the clock reaches it, and each
send moves it on by that packet's wire bytes at the rate in force, so
packets leave spread out rather than in clumps.

The emulated link never corrupts or reorders anything, and only a unit's
length decides how it travels, so units and packets carry byte counts,
not bytes: the sender fragments a unit's byte count and gives each packet
its wire size, header included, which the link and both ends charge.  The
receiver counts the fragments of each scan until all have arrived.  The
sender finishes each frame before it starts the next, so the receiver
holds one scan at a time.

There is no retransmission.  Late or lost scan data is worthless to the
consumer, so loss surfaces as missing scans plus controller backoff; the
runner, not the receiver, counts a scan lost.
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


@dataclass(slots=True)
class Packet:
    seq: int
    scan_id: int
    frag_index: int
    frag_count: int
    send_time: float
    ecn: int
    wire_bytes: int  # header included


@dataclass(frozen=True)
class TransportParams:
    mtu_payload: int = 1200
    sender_queue_cap: int = 20  # units; oldest dropped beyond this
    pacing_headroom: float = 1.25
    feedback_interval: float = 0.010  # seconds
    feedback_every_packets: int = 2

    def __post_init__(self) -> None:
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


class DatagramSender:
    """Sender half: unit queue, fragmentation, window gate, pacer."""

    def __init__(self, params: TransportParams):
        self.params = params
        # (scan id, unit bytes, fragment count) of each unit waiting to be sent
        self.queue: deque[tuple[int, int, int]] = deque()
        self.next_seq = 1  # seq 0 means "nothing acked yet": next_seq - 1 packets sent
        self.sent_wire_bytes = 0
        self.blocked_reason = "idle"
        # the queue entry of the unit being sent, and its next fragment's index
        self._frame: tuple[int, int, int] | None = None
        self._frag_index = 0
        self._next_send = 0.0  # no packet may leave before this time
        # (seq, wire bytes) of every packet sent under a controller and not
        # yet acked or known lost, in seq order: the entries behind
        # CongestionState.bytes_in_flight
        self._inflight: deque[tuple[int, int]] = deque()

    # ------------------------------------------------------------- queueing

    def enqueue_unit(self, scan_id: int, nbytes: int) -> int | None:
        """Append a unit of nbytes, header included; beyond the cap the oldest is dropped.

        Returns the id of the scan dropped, or None.  A unit must fit the
        65535 fragments a packet header can number.
        """
        if nbytes < 1:
            raise ValueError(f"a unit needs at least one byte, got {nbytes}")
        frag_count = -(-nbytes // self.params.mtu_payload)
        if frag_count > 65535:
            raise ValueError(f"unit of {nbytes} bytes exceeds 65535 fragments")
        dropped = None
        if len(self.queue) >= self.params.sender_queue_cap:
            dropped = self.queue.popleft()[0]
        self.queue.append((scan_id, nbytes, frag_count))
        return dropped

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
        until: float,
    ) -> list[Packet]:
        """Emit every packet the window gate and the pacer allow from `now` to before `until`.

        A packet may leave once the clock reaches the next-send time, and the
        clock steps from `now` to each next-send time before `until`, up to
        which the caller holds the window and the rate fixed.  Each send sets
        the next-send time one packet's wire bytes at headroom x pacing_rate
        after the send, so an idle sender earns no burst credit, and each
        gap is set by the rate in force when its packet left.
        cc_state None disables the congestion window gate and the in-flight
        ledger entirely (fixed-rate baseline operation: no feedback ever
        settles a seq); pacing still applies.  The frame, the next-send time,
        the next seq and the sent bytes live in locals while the train leaves,
        and go back to the sender once, when it stops.
        """
        if pacing_rate <= 0:
            raise ValueError(f"pacing_rate must be positive, got {pacing_rate}")
        out: list[Packet] = []
        mtu = self.params.mtu_payload
        rate_bytes = self.params.pacing_headroom * pacing_rate / 8.0
        queue, inflight = self.queue, self._inflight
        frame, index = self._frame, self._frag_index
        next_send, seq, sent_wire_bytes = self._next_send, self.next_seq, self.sent_wire_bytes
        while True:
            if frame is None:
                if not queue:
                    reason = "idle"
                    break
                frame, index = queue.popleft(), 0
            scan_id, nbytes, frag_count = frame
            sent_bytes = index * mtu  # every fragment but the last is full
            rest = nbytes - sent_bytes
            wire = PACKET_HEADER_BYTES + (mtu if rest > mtu else rest)
            if cc_state is not None and not can_send(cc_state, cc_params, wire, sent_bytes):
                reason = "cwnd"
                break
            if now < next_send:
                if next_send >= until:
                    reason = "pacing"
                    break
                now = next_send
            # seq, scan_id, frag_index, frag_count, send_time, ecn, wire_bytes
            out.append(Packet(seq, scan_id, index, frag_count, now, ECT1, wire))
            if cc_state is not None:
                inflight.append((seq, wire))
                cc_state.bytes_in_flight += wire
            seq += 1
            sent_wire_bytes += wire
            next_send = now + wire / rate_bytes
            index += 1
            if index == frag_count:
                frame = None
        self.blocked_reason = reason
        self._frame, self._frag_index = frame, index
        self._next_send, self.next_seq, self.sent_wire_bytes = next_send, seq, sent_wire_bytes
        return out

    def next_send_opportunity(self) -> float | None:
        """Earliest time the pacer lets another packet leave.

        Only meaningful after a pace_and_send call blocked on pacing; cwnd
        and idle blocks clear on feedback and enqueue instead of a timer.
        Such a block leaves the next-send time at or past `until` >= `now`.
        """
        if self.blocked_reason != "pacing":
            return None
        return self._next_send

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


class DatagramReceiver:
    """Receiver half: loss/CE accounting, reassembly, feedback snapshots."""

    def __init__(self, params: TransportParams):
        self.params = params
        self.highest_seq = 0
        self.cumulative_acked_bytes = 0
        self.cumulative_ce_bytes = 0
        self.cumulative_lost_packets = 0
        self.newest_send_time = 0.0
        self.newest_arrival_time = 0.0
        self.packets_since_report = 0
        # the one scan being reassembled: the newest scan id seen, its
        # fragment count and its fragments received
        self.newest_scan_id = -1
        self._frag_count = 0
        self._received = 0

    def receive_packet(self, pkt: Packet, now: float) -> int | None:
        """Account one arrival; returns the scan id when its last fragment lands.

        The forward path is a FIFO link, so packets arrive in seq order and
        any gap is loss; an already-seen seq can only be a duplicate, and
        moves no counter.  The sender finishes each frame before it starts
        the next, so at most one scan is ever partly assembled: a newer
        scan's first fragment takes its place, and a fragment of an older
        scan is ignored.  A fragment whose count disagrees with its scan's
        first never counts toward it, and a completed scan is never
        completed again.
        """
        seq, highest = pkt.seq, self.highest_seq
        if seq <= highest:
            return None
        self.cumulative_lost_packets += seq - highest - 1
        self.highest_seq = seq
        wire = pkt.wire_bytes
        self.cumulative_acked_bytes += wire
        if pkt.ecn == CE:
            self.cumulative_ce_bytes += wire
        self.newest_send_time = pkt.send_time
        self.newest_arrival_time = now
        self.packets_since_report += 1

        scan_id, frag_count = pkt.scan_id, pkt.frag_count
        if scan_id > self.newest_scan_id:
            self.newest_scan_id, self._frag_count, self._received = scan_id, frag_count, 0
        elif scan_id < self.newest_scan_id:
            return None
        if frag_count != self._frag_count:
            return None
        received = self._received + 1  # past the count once complete: never complete again
        self._received = received
        return scan_id if received == frag_count else None

    def should_report(self) -> bool:
        """Every feedback_every_packets arrivals; the run's timer makes the
        reports due every feedback_interval."""
        return self.packets_since_report >= self.params.feedback_every_packets

    def make_feedback(self, now: float) -> FeedbackReport:
        """Cumulative-counter snapshot; echoes the newest packet's send time."""
        self.packets_since_report = 0
        # highest_acked_seq, cumulative_acked_bytes, cumulative_ce_marked_bytes,
        # cumulative_lost_packets, receiver_timestamp, echo_timestamp
        return FeedbackReport(self.highest_seq, self.cumulative_acked_bytes,
                              self.cumulative_ce_bytes, self.cumulative_lost_packets,
                              self.newest_arrival_time, self.newest_send_time)
