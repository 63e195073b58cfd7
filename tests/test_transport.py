import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scanstream.codec import CompressionConfig, PointCloudScan, encode
from scanstream.congestion import ControlParams, init_state, on_feedback
from scanstream.transport import (
    CE,
    ECT1,
    PACKET_HEADER_BYTES,
    DatagramReceiver,
    DatagramSender,
    Packet,
    TransportParams,
    packet_wire_size,
)

PARAMS = TransportParams()


def unit_of_size(n_points, scan_id=0, seed=0):
    rng = np.random.default_rng(seed)
    scan = PointCloudScan(rng.uniform(-30, 30, size=(n_points, 3)), scan_id=scan_id)
    return encode(scan, CompressionConfig(16, 0))


def drain(sender, pacing_rate, now=0.0, cc=None, ccp=None, horizon=30.0):
    """Pump pace_and_send until the sender runs dry; returns (t, packet) list."""
    sent = []
    while now < horizon:
        for pkt in sender.pace_and_send(cc, ccp, pacing_rate, now):
            sent.append((now, pkt))
        if sender.blocked_reason == "idle" and sender.queue_depth == 0:
            break
        wake = sender.next_send_opportunity(now)
        if wake is None:
            break
        now = wake
    return sent


# ------------------------------------------------------------- wire format


def test_packet_header_is_27_bytes():
    assert PACKET_HEADER_BYTES == 27


# ---------------------------------------------------- fragmentation + queue


def test_fragment_count_and_sizes():
    sender = DatagramSender(TransportParams())
    unit = unit_of_size(3000)
    sender.enqueue_unit(unit)
    sent = drain(sender, 50e6)
    blob_len = sender.sent_wire_bytes - len(sent) * PACKET_HEADER_BYTES
    assert len(sent) == math.ceil(blob_len / PARAMS.mtu_payload)
    assert all(len(p.payload) <= PARAMS.mtu_payload for _, p in sent)
    assert [p.frag_index for _, p in sent] == list(range(len(sent)))
    assert all(p.frag_count == len(sent) for _, p in sent)
    assert [p.seq for _, p in sent] == list(range(1, len(sent) + 1))


def test_reassembly_restores_unit():
    sender = DatagramSender(TransportParams())
    receiver = DatagramReceiver(TransportParams())
    unit = unit_of_size(2000, scan_id=42)
    sender.enqueue_unit(unit)
    out = None
    for t, pkt in drain(sender, 50e6):
        got = receiver.receive_packet(pkt, t + 0.02)
        if got is not None:
            assert out is None, "unit delivered twice"
            out = got
    assert out is not None
    assert out.scan_id == 42
    assert out.payload == unit.payload
    assert np.allclose(out.bbox, unit.bbox)


def test_drop_oldest_beyond_cap():
    params = TransportParams(sender_queue_cap=3)
    sender = DatagramSender(params)
    for sid in range(5):
        sender.enqueue_unit(unit_of_size(100, scan_id=sid))
    assert sender.drop_log == [0, 1]
    assert sender.queue_depth == 3


# ------------------------------------------------------------------ pacing


@given(
    rate=st.floats(1e4, 1e9),
    mtu=st.integers(64, 1500),
    sizes=st.lists(st.integers(1, 600), min_size=1, max_size=4),
)
def test_sends_are_spaced_by_wire_over_rate(rate, mtu, sizes):
    # each packet holds the pacer for its own wire bytes at headroom x rate,
    # and the sender still drains every unit it was given
    params = TransportParams(mtu_payload=mtu)
    sender = DatagramSender(params)
    for sid, n in enumerate(sizes):
        sender.enqueue_unit(unit_of_size(n, scan_id=sid, seed=sid))
    sent = drain(sender, rate, horizon=1e6)
    assert sender.queue_depth == 0 and sender.blocked_reason == "idle"
    rate_bytes = params.pacing_headroom * rate / 8.0
    for (t0, p0), (t1, _) in zip(sent, sent[1:]):
        assert t1 >= t0 + packet_wire_size(p0) / rate_bytes


def test_pacing_spreads_packets():
    # one next-send time: gaps close to wire/rate, not clumps
    params = TransportParams()
    sender = DatagramSender(params)
    sender.enqueue_unit(unit_of_size(6000))
    rate = 4.0e6
    sent = drain(sender, rate)
    gaps = np.diff([t for t, _ in sent])
    full_wire = PACKET_HEADER_BYTES + params.mtu_payload
    nominal = full_wire / (params.pacing_headroom * rate / 8.0)
    assert gaps.max() <= nominal * 1.5
    assert np.median(gaps) == pytest.approx(nominal, rel=0.1)


def test_sub_packet_budget_still_makes_progress():
    # pacing rate so low that one MTU packet takes about 0.1 s to pace: packets
    # must keep trickling out instead of stalling (or crashing on the wake
    # computation)
    params = TransportParams()
    sender = DatagramSender(params)
    for sid in range(4):
        sender.enqueue_unit(unit_of_size(2000, scan_id=sid, seed=sid))
    rate = 8.0e4
    full_wire = PACKET_HEADER_BYTES + params.mtu_payload
    sent = drain(sender, rate, horizon=600.0)
    assert sender.queue_depth == 0 and sender.blocked_reason == "idle"
    assert len(sent) >= 2
    # long-run average still respects the configured rate (with headroom);
    # one full packet of slack
    wire_bits = 8.0 * sum(packet_wire_size(p) for _, p in sent[:-1])
    elapsed = sent[-1][0] - sent[0][0]
    assert wire_bits <= params.pacing_headroom * rate * 1.02 * elapsed + full_wire * 8


def test_sender_blocked_reason_transitions():
    sender = DatagramSender(TransportParams())
    assert sender.pace_and_send(None, None, 1e6, 0.0) == []
    assert sender.blocked_reason == "idle"
    assert sender.next_send_opportunity(0.0) is None
    sender.enqueue_unit(unit_of_size(4000))
    sender.pace_and_send(None, None, 1e6, 0.0)
    assert sender.blocked_reason == "pacing"
    assert sender.next_send_opportunity(0.0) > 0.0


def test_pacing_rate_must_be_positive():
    sender = DatagramSender(TransportParams())
    with pytest.raises(ValueError):
        sender.pace_and_send(None, None, 0.0, 0.0)


# ------------------------------------------------------------- window gate


def test_cwnd_blocks_first_fragment_at_plain_window():
    ccp = ControlParams()
    cc = init_state(ccp, 3e6, 10e6)
    cc.w_ref = 1000.0  # below one full packet
    sender = DatagramSender(TransportParams())
    sender.enqueue_unit(unit_of_size(4000))
    assert sender.pace_and_send(cc, ccp, 10e6, 0.0) == []
    assert sender.blocked_reason == "cwnd"
    assert sender.next_send_opportunity(0.0) is None  # cleared by feedback, not timers


def test_cwnd_opens_to_overshoot_mid_frame():
    ccp = ControlParams()
    cc = init_state(ccp, 3e6, 10e6)
    cc.w_ref = 1300.0  # one packet fits plain, frame opens 5x
    sender = DatagramSender(TransportParams())
    sender.enqueue_unit(unit_of_size(4000))
    sent = drain(sender, 100e6, cc=cc, ccp=ccp, horizon=1.0)
    assert len(sent) >= 2
    # in-flight ran past the plain window but stayed under the overshoot cap
    assert cc.bytes_in_flight > cc.w_ref
    assert cc.bytes_in_flight <= ccp.overshoot_factor * cc.w_ref


def test_reconcile_inflight_forgets_lost_bytes():
    ccp = ControlParams()
    cc = init_state(ccp, 3e6, 10e6)
    cc.w_ref = 1e6  # effectively no gate
    sender = DatagramSender(TransportParams())
    sender.enqueue_unit(unit_of_size(4000))
    sent = drain(sender, 100e6, cc=cc, ccp=ccp)
    total = sum(packet_wire_size(p) for _, p in sent)
    assert cc.bytes_in_flight == total
    # everything up to the second-to-last seq is acked or dead on a FIFO path
    last = sent[-1][1]
    sender.reconcile_inflight(cc, last.seq - 1)
    assert cc.bytes_in_flight == packet_wire_size(last)
    sender.reconcile_inflight(cc, last.seq)
    assert cc.bytes_in_flight == 0


LEDGER_PARAMS = TransportParams(mtu_payload=200)
LEDGER_UNITS = [unit_of_size(n, scan_id=i, seed=i) for i, n in enumerate((40, 150, 500))]


@given(ops=st.lists(
    st.tuples(st.sampled_from(("send", "deliver", "mark", "lose", "report")), st.integers(0, 2)),
    max_size=60,
))
# one 17-fragment unit, 14 fragments acked: settling takes in-flight from
# 3826 to 648 bytes, across w_ref / 4 = 750, so growth depends on the order;
# with one fragment lost the two values differ, and the loss blocks growth
@example(ops=[("send", 2)] + [("deliver", 0)] * 14 + [("report", 0)])
@example(ops=[("send", 2), ("lose", 0)] + [("deliver", 0)] * 13 + [("report", 0)])
def test_inflight_ledger_under_sends_acks_and_losses(ops):
    # The sender's running total must equal, after every step, both the
    # definition (wire bytes of every seq above the highest acked one) and
    # a per-seq dict, through the real feedback path.  A shadow controller
    # takes each report in the order the pipeline once used: on_feedback
    # took the newly acked bytes off bytes_in_flight itself, and only then
    # did the sender settle every covered seq.  The two values differ only
    # by lost bytes, and growth is tested only on reports with no new loss
    # or CE, so the controller's outputs must match at every report.
    ccp = ControlParams()
    cc = init_state(ccp, 3e6, 10e6)
    shadow = init_state(ccp, 3e6, 10e6)
    sender = DatagramSender(LEDGER_PARAMS)
    receiver = DatagramReceiver(LEDGER_PARAMS)
    in_transit: deque[Packet] = deque()  # neither delivered nor lost yet
    sent: dict[int, int] = {}
    per_seq: dict[int, int] = {}
    highest = 0
    now = 0.0
    for op, arg in ops:
        now += 0.05
        if op == "send":
            sender.enqueue_unit(LEDGER_UNITS[arg])
            for _, pkt in drain(sender, 1e9, now=now, cc=cc, ccp=ccp, horizon=now + 0.01):
                in_transit.append(pkt)
                sent[pkt.seq] = per_seq[pkt.seq] = packet_wire_size(pkt)
        elif op in ("deliver", "mark") and in_transit:
            pkt = in_transit.popleft()
            if op == "mark":
                pkt.ecn = CE
            receiver.receive_packet(pkt, now)
        elif op == "lose" and in_transit:
            in_transit.popleft()
        elif op == "report":
            report = receiver.make_feedback(now)
            new_acked = report.cumulative_acked_bytes - shadow.prev_acked_bytes
            shadow.bytes_in_flight = max(cc.bytes_in_flight - new_acked, 0)
            on_feedback(shadow, ccp, report, now)
            sender.reconcile_inflight(cc, report.highest_acked_seq)
            on_feedback(cc, ccp, report, now)
            assert (cc.w_ref, cc.r_trg, cc.in_slow_start) == (
                shadow.w_ref, shadow.r_trg, shadow.in_slow_start)
            highest = report.highest_acked_seq
            for seq in [s for s in per_seq if s <= highest]:
                del per_seq[seq]
        expected = sum(wire for seq, wire in sent.items() if seq > highest)
        assert cc.bytes_in_flight == expected == sum(per_seq.values())


def test_baseline_sender_keeps_no_inflight_ledger():
    # without a controller no feedback ever settles a seq, so a ledger
    # entry per packet would only pile up for the whole run
    sender = DatagramSender(TransportParams())
    sender.enqueue_unit(unit_of_size(4000))
    assert drain(sender, 100e6)
    assert not sender._inflight


# -------------------------------------------------------------- receiver


def test_gap_counts_losses():
    receiver = DatagramReceiver(TransportParams())
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.0, ECT1, b"a"), 0.1)
    receiver.receive_packet(Packet(5, 0, 4, 9, 0.0, ECT1, b"b"), 0.2)
    assert receiver.cumulative_lost_packets == 3
    receiver.receive_packet(Packet(5, 0, 4, 9, 0.0, ECT1, b"b"), 0.3)  # stale seq
    assert receiver.duplicate_packets == 1


def test_ce_bytes_accumulate():
    receiver = DatagramReceiver(TransportParams())
    pkt = Packet(1, 0, 0, 2, 0.0, CE, b"abc")
    receiver.receive_packet(pkt, 0.1)
    assert receiver.cumulative_ce_bytes == packet_wire_size(pkt)
    assert receiver.cumulative_acked_bytes == packet_wire_size(pkt)


def test_feedback_cadence_packets_and_time():
    params = TransportParams(feedback_every_packets=2, feedback_interval=0.010)
    receiver = DatagramReceiver(params)
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.0, ECT1, b"a"), 0.001)
    assert not receiver.should_report(0.001)
    receiver.receive_packet(Packet(2, 0, 1, 9, 0.0, ECT1, b"b"), 0.002)
    assert receiver.should_report(0.002)
    rep = receiver.make_feedback(0.002)
    assert rep.highest_acked_seq == 2
    assert not receiver.should_report(0.003)
    assert receiver.should_report(0.013)  # interval timer


def test_feedback_echoes_newest_send_time():
    receiver = DatagramReceiver(TransportParams())
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.125, ECT1, b"a"), 0.150)
    rep = receiver.make_feedback(0.150)
    assert rep.echo_timestamp == 0.125
    assert rep.receiver_timestamp == 0.150


def test_exactly_once_per_scan():
    sender = DatagramSender(TransportParams())
    receiver = DatagramReceiver(TransportParams())
    unit = unit_of_size(500, scan_id=3)
    sender.enqueue_unit(unit)
    pkts = [p for _, p in drain(sender, 100e6)]
    delivered = [receiver.receive_packet(p, 0.1) for p in pkts]
    assert sum(d is not None for d in delivered) == 1
    # the sender fragments a unit once, so a repeat of scan 3 can only
    # carry seqs the receiver has already seen
    assert all(receiver.receive_packet(p, 0.2) is None for p in pkts)
    assert receiver.duplicate_packets == len(pkts)


def test_expire_partials_below_clears_dead_state():
    receiver = DatagramReceiver(TransportParams())
    # scan 0 loses its second fragment, scan 1 then completes
    receiver.receive_packet(Packet(1, 0, 0, 2, 0.0, ECT1, b"a"), 0.1)
    assert receiver.expire_partials_below(1) == [0]
    assert receiver.expire_partials_below(1) == []


def test_params_validation():
    with pytest.raises(ValueError):
        TransportParams(mtu_payload=0).validate()
    with pytest.raises(ValueError):
        TransportParams(pacing_headroom=0.9).validate()
    with pytest.raises(ValueError):
        TransportParams(sender_queue_cap=0).validate()
