import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scanstream.congestion import ControlParams, FeedbackReport, init_state, on_feedback
from scanstream.transport import (
    CE,
    ECT1,
    PACKET_HEADER_BYTES,
    DatagramReceiver,
    DatagramSender,
    Packet,
    TransportParams,
)

PARAMS = TransportParams()

# unit sizes (unit header plus payload) of the codec's q=16 units of 100,
# 2000, 3000, 4000 and 6000 uniformly spread points
SMALL_UNIT, MID_UNIT, BIG_UNIT, BIGGER_UNIT, HUGE_UNIT = 692, 13554, 20304, 27054, 41304


def drain(sender, pacing_rate, now=0.0, cc=None, ccp=None, horizon=30.0):
    """Pump pace_and_send until the sender runs dry; returns (t, packet) list."""
    sent = []
    while now < horizon:
        for pkt in sender.pace_and_send(cc, ccp, pacing_rate, now, now):
            sent.append((now, pkt))
        if sender.blocked_reason == "idle" and sender.queue_depth == 0:
            break
        wake = sender.next_send_opportunity()
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
    sender.enqueue_unit(0, BIG_UNIT)
    sent = drain(sender, 50e6)
    assert len(sent) == math.ceil(BIG_UNIT / PARAMS.mtu_payload)
    assert sender.sent_wire_bytes == BIG_UNIT + len(sent) * PACKET_HEADER_BYTES
    # every fragment but the last is full
    full_wire = PACKET_HEADER_BYTES + PARAMS.mtu_payload
    assert all(p.wire_bytes == full_wire for _, p in sent[:-1])
    assert PACKET_HEADER_BYTES < sent[-1][1].wire_bytes <= full_wire
    assert sum(p.wire_bytes for _, p in sent) == sender.sent_wire_bytes
    assert [p.frag_index for _, p in sent] == list(range(len(sent)))
    assert all(p.frag_count == len(sent) for _, p in sent)
    assert [p.seq for _, p in sent] == list(range(1, len(sent) + 1))


def test_reassembly_delivers_scan_on_last_fragment():
    sender = DatagramSender(TransportParams())
    receiver = DatagramReceiver(TransportParams())
    sender.enqueue_unit(42, MID_UNIT)
    sent = drain(sender, 50e6)
    assert len(sent) > 1
    got = [receiver.receive_packet(pkt, t + 0.02) for t, pkt in sent]
    assert got == [None] * (len(sent) - 1) + [42]
    assert receiver_counters(receiver)[-1] == (42, len(sent), len(sent))  # one slot, whole


def test_enqueue_rejects_an_empty_unit():
    # a unit of no bytes has no last fragment, so its frame would never end
    with pytest.raises(ValueError):
        DatagramSender(TransportParams()).enqueue_unit(0, 0)


def test_enqueue_rejects_a_unit_beyond_65535_fragments():
    # the header numbers fragments in 16 bits: the unit is refused on entry,
    # before the queue cap could drop it
    sender = DatagramSender(TransportParams(mtu_payload=100, sender_queue_cap=1))
    sender.enqueue_unit(0, SMALL_UNIT)
    for nbytes in (65535 * 100 + 1, 65536 * 100):
        with pytest.raises(ValueError):
            sender.enqueue_unit(1, nbytes)
        assert list(sender.queue) == [(0, SMALL_UNIT, 7)]
    assert sender.enqueue_unit(2, 65535 * 100) == 0
    assert list(sender.queue) == [(2, 65535 * 100, 65535)]


def test_drop_oldest_beyond_cap():
    params = TransportParams(sender_queue_cap=3)
    sender = DatagramSender(params)
    dropped = [sender.enqueue_unit(sid, SMALL_UNIT) for sid in range(5)]
    assert dropped == [None, None, None, 0, 1]
    assert sender.queue_depth == 3


# ------------------------------------------------------------------ pacing


@given(
    rate=st.floats(1e4, 1e9),
    mtu=st.integers(64, 1500),
    sizes=st.lists(st.integers(1, 4200), min_size=1, max_size=4),
)
def test_sends_are_spaced_by_wire_over_rate(rate, mtu, sizes):
    # each packet holds the pacer for its own wire bytes at headroom x rate,
    # and the sender still drains every unit it was given
    params = TransportParams(mtu_payload=mtu)
    sender = DatagramSender(params)
    for sid, nbytes in enumerate(sizes):
        sender.enqueue_unit(sid, nbytes)
    sent = drain(sender, rate, horizon=1e6)
    assert sender.queue_depth == 0 and sender.blocked_reason == "idle"
    rate_bytes = params.pacing_headroom * rate / 8.0
    for (t0, p0), (t1, _) in zip(sent, sent[1:]):
        assert t1 >= t0 + p0.wire_bytes / rate_bytes


def test_pacing_spreads_packets():
    # one next-send time: gaps close to wire/rate, not clumps
    params = TransportParams()
    sender = DatagramSender(params)
    sender.enqueue_unit(0, HUGE_UNIT)
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
        sender.enqueue_unit(sid, MID_UNIT)
    rate = 8.0e4
    full_wire = PACKET_HEADER_BYTES + params.mtu_payload
    sent = drain(sender, rate, horizon=600.0)
    assert sender.queue_depth == 0 and sender.blocked_reason == "idle"
    assert len(sent) >= 2
    # long-run average still respects the configured rate (with headroom);
    # one full packet of slack
    wire_bits = 8.0 * sum(p.wire_bytes for _, p in sent[:-1])
    elapsed = sent[-1][0] - sent[0][0]
    assert wire_bits <= params.pacing_headroom * rate * 1.02 * elapsed + full_wire * 8


def test_sender_blocked_reason_transitions():
    sender = DatagramSender(TransportParams())
    assert sender.pace_and_send(None, None, 1e6, 0.0, 0.0) == []
    assert sender.blocked_reason == "idle"
    assert sender.next_send_opportunity() is None
    sender.enqueue_unit(0, BIGGER_UNIT)
    sender.pace_and_send(None, None, 1e6, 0.0, 0.0)
    assert sender.blocked_reason == "pacing"
    assert sender.next_send_opportunity() > 0.0


def test_train_sends_what_one_call_per_send_time_sends():
    # the clock steps to each next-send time strictly before `until`
    one_per_call, train = DatagramSender(PARAMS), DatagramSender(PARAMS)
    for sender in (one_per_call, train):
        sender.enqueue_unit(0, BIG_UNIT)
    sent = drain(one_per_call, 2e6)
    until = sent[10][0]
    assert train.pace_and_send(None, None, 2e6, 0.0, until) == [p for _, p in sent[:10]]
    assert [p.send_time for _, p in sent] == [t for t, _ in sent]
    assert train.blocked_reason == "pacing"
    assert train.next_send_opportunity() == until


def test_pacing_rate_must_be_positive():
    sender = DatagramSender(TransportParams())
    with pytest.raises(ValueError):
        sender.pace_and_send(None, None, 0.0, 0.0, 0.0)


# ------------------------------------------------------------- window gate


def test_cwnd_blocks_first_fragment_at_plain_window():
    ccp = ControlParams()
    cc = init_state(ccp, 3e6, 10e6)
    cc.w_ref = 1000.0  # below one full packet
    sender = DatagramSender(TransportParams())
    sender.enqueue_unit(0, BIGGER_UNIT)
    assert sender.pace_and_send(cc, ccp, 10e6, 0.0, 0.0) == []
    assert sender.blocked_reason == "cwnd"
    assert sender.next_send_opportunity() is None  # cleared by feedback, not timers


def test_cwnd_opens_to_overshoot_mid_frame():
    ccp = ControlParams()
    cc = init_state(ccp, 3e6, 10e6)
    cc.w_ref = 1300.0  # one packet fits plain, frame opens 5x
    sender = DatagramSender(TransportParams())
    sender.enqueue_unit(0, BIGGER_UNIT)
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
    sender.enqueue_unit(0, BIGGER_UNIT)
    sent = drain(sender, 100e6, cc=cc, ccp=ccp)
    total = sum(p.wire_bytes for _, p in sent)
    assert cc.bytes_in_flight == total
    # everything up to the second-to-last seq is acked or dead on a FIFO path
    last = sent[-1][1]
    sender.reconcile_inflight(cc, last.seq - 1)
    assert cc.bytes_in_flight == last.wire_bytes
    sender.reconcile_inflight(cc, last.seq)
    assert cc.bytes_in_flight == 0


LEDGER_PARAMS = TransportParams(mtu_payload=200)
LEDGER_UNITS = [(0, 314), (1, 1029), (2, 3367)]  # q=16 units of 40, 150 and 500 points


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
            sender.enqueue_unit(*LEDGER_UNITS[arg])
            for _, pkt in drain(sender, 1e9, now=now, cc=cc, ccp=ccp, horizon=now + 0.01):
                in_transit.append(pkt)
                sent[pkt.seq] = per_seq[pkt.seq] = pkt.wire_bytes
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
    sender.enqueue_unit(0, BIGGER_UNIT)
    assert drain(sender, 100e6)
    assert not sender._inflight


# -------------------------------------------------------------- receiver


def receiver_counters(receiver):
    return (receiver.highest_seq, receiver.cumulative_acked_bytes,
            receiver.cumulative_ce_bytes, receiver.cumulative_lost_packets,
            receiver.newest_send_time, receiver.newest_arrival_time,
            receiver.packets_since_report,
            (receiver.newest_scan_id, receiver._frag_count, receiver._received))


def test_gap_counts_losses():
    receiver = DatagramReceiver(TransportParams())
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.0, ECT1, 28), 0.1)
    receiver.receive_packet(Packet(5, 0, 4, 9, 0.0, ECT1, 28), 0.2)
    assert receiver.cumulative_lost_packets == 3
    before = receiver_counters(receiver)
    # a stale seq is ignored: nothing is counted and nothing delivered
    assert receiver.receive_packet(Packet(5, 0, 4, 9, 0.0, ECT1, 28), 0.3) is None
    assert receiver_counters(receiver) == before


def test_ce_bytes_accumulate():
    receiver = DatagramReceiver(TransportParams())
    pkt = Packet(1, 0, 0, 2, 0.0, CE, 30)
    receiver.receive_packet(pkt, 0.1)
    assert receiver.cumulative_ce_bytes == pkt.wire_bytes
    assert receiver.cumulative_acked_bytes == pkt.wire_bytes


def test_feedback_cadence_packets_and_time():
    params = TransportParams(feedback_every_packets=2, feedback_interval=0.010)
    receiver = DatagramReceiver(params)
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.0, ECT1, 28), 0.001)
    assert not receiver.should_report()
    receiver.receive_packet(Packet(2, 0, 1, 9, 0.0, ECT1, 28), 0.002)
    assert receiver.should_report()
    rep = receiver.make_feedback(0.002)
    assert rep.highest_acked_seq == 2
    assert not receiver.should_report()


def test_feedback_echoes_newest_send_time():
    receiver = DatagramReceiver(TransportParams())
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.125, ECT1, 28), 0.150)
    rep = receiver.make_feedback(0.150)
    assert rep.echo_timestamp == 0.125
    assert rep.receiver_timestamp == 0.150


def test_feedback_fills_each_report_field_by_name():
    receiver = DatagramReceiver(TransportParams())
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.125, ECT1, PACKET_HEADER_BYTES + 11), 0.150)
    receiver.receive_packet(Packet(4, 0, 3, 9, 0.375, CE, PACKET_HEADER_BYTES + 13), 0.500)
    rep = receiver.make_feedback(0.625)
    assert rep.highest_acked_seq == 4
    assert rep.cumulative_acked_bytes == 2 * PACKET_HEADER_BYTES + 24
    assert rep.cumulative_ce_marked_bytes == PACKET_HEADER_BYTES + 13
    assert rep.cumulative_lost_packets == 2
    assert rep.receiver_timestamp == 0.500  # arrival of the newest packet, not `now`
    assert rep.echo_timestamp == 0.375


def test_feedback_report_is_immutable():
    receiver = DatagramReceiver(TransportParams())
    receiver.receive_packet(Packet(1, 0, 0, 9, 0.125, ECT1, 28), 0.150)
    rep = receiver.make_feedback(0.150)
    for name in FeedbackReport._fields:
        with pytest.raises(AttributeError):
            setattr(rep, name, 0)
    assert rep == receiver.make_feedback(0.150)


def test_fragment_count_mismatch_never_counts_toward_its_scan():
    receiver = DatagramReceiver(TransportParams())
    assert receiver.receive_packet(Packet(1, 0, 0, 2, 0.0, ECT1, 28), 0.1) is None
    # a fresh seq claiming another fragment count for scan 0 is ignored
    assert receiver.receive_packet(Packet(2, 0, 1, 3, 0.0, ECT1, 28), 0.2) is None
    assert receiver_counters(receiver)[-1] == (0, 2, 1)
    assert receiver.receive_packet(Packet(3, 0, 1, 2, 0.0, ECT1, 28), 0.3) == 0


def test_exactly_once_per_scan():
    sender = DatagramSender(TransportParams())
    receiver = DatagramReceiver(TransportParams())
    sender.enqueue_unit(3, 3367)
    pkts = [p for _, p in drain(sender, 100e6)]
    delivered = [receiver.receive_packet(p, 0.1) for p in pkts]
    assert delivered == [None] * (len(pkts) - 1) + [3]
    # the sender fragments a unit once, so a repeat of scan 3 can only
    # carry seqs the receiver has already seen, and moves no counter
    before = receiver_counters(receiver)
    assert all(receiver.receive_packet(p, 0.2) is None for p in pkts)
    assert receiver_counters(receiver) == before


def test_a_newer_scans_first_fragment_replaces_a_partial_one():
    receiver = DatagramReceiver(TransportParams())
    # scan 0 loses its second fragment, scan 1 then completes
    assert receiver.receive_packet(Packet(1, 0, 0, 2, 0.0, ECT1, 28), 0.1) is None
    assert receiver.receive_packet(Packet(3, 1, 0, 2, 0.0, ECT1, 28), 0.2) is None
    assert receiver_counters(receiver)[-1] == (1, 2, 1)
    assert receiver.receive_packet(Packet(4, 1, 1, 2, 0.0, ECT1, 28), 0.3) == 1


def test_an_older_scans_fragment_after_a_newer_one_is_ignored():
    receiver = DatagramReceiver(TransportParams())
    for seq, scan_id in enumerate((2, 3, 5), start=1):
        receiver.receive_packet(Packet(seq, scan_id, 0, 2, 0.0, ECT1, 28), 0.1)
    assert receiver_counters(receiver)[-1] == (5, 2, 1)
    # a fresh seq of scan 3 still counts as an arrival, but never toward a scan
    assert receiver.receive_packet(Packet(4, 3, 1, 2, 0.0, ECT1, 28), 0.2) is None
    assert receiver.highest_seq == 4 and receiver.packets_since_report == 4
    assert receiver_counters(receiver)[-1] == (5, 2, 1)
    assert receiver.receive_packet(Packet(5, 5, 1, 2, 0.0, ECT1, 28), 0.3) == 5


def test_a_completed_scan_is_never_completed_again():
    receiver = DatagramReceiver(TransportParams())
    assert receiver.receive_packet(Packet(1, 7, 0, 1, 0.0, ECT1, 28), 0.1) == 7
    # fresh seqs claiming more fragments of scan 7, whatever their count
    for seq in (2, 3):
        assert receiver.receive_packet(Packet(seq, 7, 0, 1, 0.0, ECT1, 28), 0.2) is None
    assert receiver.receive_packet(Packet(4, 7, 1, 2, 0.0, ECT1, 28), 0.3) is None
    assert receiver.newest_scan_id == 7


def test_params_validation():
    with pytest.raises(ValueError):
        TransportParams(mtu_payload=0)
    with pytest.raises(ValueError):
        TransportParams(pacing_headroom=0.9)
    with pytest.raises(ValueError):
        TransportParams(sender_queue_cap=0)
