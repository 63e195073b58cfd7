import numpy as np
import pytest

from scanstream.netem import (
    BottleneckLink,
    LinkConfig,
    TraceError,
    random_walk_trace,
    read_trace,
    step_trace,
)
from scanstream.transport import CE, ECT1, NOT_ECT, Packet, packet_wire_size


def pkt(seq, size=1200, ecn=ECT1, scan_id=0):
    return Packet(seq=seq, scan_id=scan_id, frag_index=0, frag_count=1,
                  send_time=0.0, ecn=ecn, payload_len=size)


def link(capacity=8e6, **kw):
    defaults = dict(prop_delay=0.020, queue_limit=120_000, ce_threshold=0.005)
    defaults.update(kw)
    return BottleneckLink(LinkConfig(capacity_trace=((0.0, capacity),), **defaults))


# ---------------------------------------------------------------- service


def test_single_packet_delivery_time():
    lk = link(capacity=8e6, prop_delay=0.020)
    p = pkt(1, size=973)  # wire 1000 bytes -> 1 ms at 8 Mbps
    out = lk.enqueue(p, 0.0)
    assert out is not None
    _, at = out
    assert at == pytest.approx(0.001 + 0.020)


def test_fifo_serialization_spacing():
    lk = link(capacity=8e6)
    wire = packet_wire_size(pkt(1))
    times = [lk.enqueue(pkt(i), 0.0)[1] for i in range(1, 6)]
    service = wire * 8.0 / 8e6
    gaps = np.diff(times)
    assert np.allclose(gaps, service)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_queue_drains_when_idle():
    lk = link(capacity=8e6)
    for i in range(1, 4):
        lk.enqueue(pkt(i), 0.0)
    assert lk.queue_delay(0.0) > 0.0
    assert lk.queue_delay(10.0) == 0.0


# --------------------------------------------------------------- tail drop


def test_tail_drop_beyond_queue_limit():
    lk = link(capacity=1e6, queue_limit=5000)
    accepted = dropped = 0
    for i in range(1, 20):
        if lk.enqueue(pkt(i), 0.0) is None:
            dropped += 1
        else:
            accepted += 1
    assert dropped > 0
    led = lk.ledger
    assert led.offered == 19
    assert led.accepted == accepted
    assert led.tail_dropped == dropped
    assert led.offered == led.accepted + led.tail_dropped + led.random_lost


# ---------------------------------------------------------------- marking


def test_ce_mark_on_standing_queue_for_ect1_only():
    lk = link(capacity=1e6, ce_threshold=0.005, queue_limit=10**9)
    # build ~50 ms of standing queue, then offer probes
    for i in range(1, 8):
        lk.enqueue(pkt(i), 0.0)
    before = lk.ledger.ce_marked
    marked, _ = lk.enqueue(pkt(100, ecn=ECT1), 0.0)
    assert marked.ecn == CE
    assert lk.ledger.ce_marked == before + 1
    unmarked, _ = lk.enqueue(pkt(101, ecn=NOT_ECT), 0.0)
    assert unmarked.ecn == NOT_ECT
    assert lk.ledger.ce_marked == before + 1


def test_no_mark_below_threshold():
    lk = link(capacity=100e6, ce_threshold=0.005)
    out, _ = lk.enqueue(pkt(1, ecn=ECT1), 0.0)
    assert out.ecn == ECT1


# ------------------------------------------------------------ trace steps


def test_capacity_step_stretches_service():
    trace = step_trace([(0.0, 8e6), (1.0, 1e6)])
    lk = BottleneckLink(LinkConfig(capacity_trace=trace, prop_delay=0.0,
                                   queue_limit=10**9, ce_threshold=1.0))
    wire = packet_wire_size(pkt(1))
    # first packet sits fully in the 8 Mbps region
    _, t1 = lk.enqueue(pkt(1), 0.0)
    assert t1 == pytest.approx(wire * 8 / 8e6)
    # a packet offered at the boundary serializes at the slow rate
    _, t2 = lk.enqueue(pkt(2), 1.0)
    assert t2 == pytest.approx(1.0 + wire * 8 / 1e6)


def test_packet_straddling_a_step_splits_service():
    trace = step_trace([(0.0, 8e6), (1.0, 1e6)])
    lk = BottleneckLink(LinkConfig(capacity_trace=trace, prop_delay=0.0,
                                   queue_limit=10**9, ce_threshold=1.0))
    wire = packet_wire_size(pkt(1))
    bits = wire * 8.0
    start = 1.0 - (bits / 2) / 8e6  # half the bits fit before the step
    _, at = lk.enqueue(pkt(1), start)
    assert at == pytest.approx(1.0 + (bits / 2) / 1e6)


def test_capacity_at_lookup():
    lk = BottleneckLink(LinkConfig(capacity_trace=step_trace([(0.0, 5e6), (10.0, 2e6)])))
    assert lk.capacity_at(0.0) == 5e6
    assert lk.capacity_at(9.999) == 5e6
    assert lk.capacity_at(10.0) == 2e6
    assert lk.capacity_at(1e9) == 2e6


# ------------------------------------------------------------ random loss


def test_random_loss_is_seeded():
    def run(seed):
        lk = link(capacity=100e6, loss_rate=0.3, rng_seed=seed)
        return [lk.enqueue(pkt(i), float(i) * 1e-4) is None for i in range(1, 200)]

    a, b = run(7), run(7)
    assert a == b
    assert any(a)
    assert not all(a)
    assert run(8) != a


def test_loss_free_by_default():
    lk = link(capacity=100e6)
    assert all(lk.enqueue(pkt(i), 0.0) is not None for i in range(1, 50))
    assert lk.ledger.random_lost == 0


# -------------------------------------------------------------- traces io


def test_trace_validation():
    with pytest.raises(TraceError):
        LinkConfig(capacity_trace=())
    with pytest.raises(TraceError):
        LinkConfig(capacity_trace=((1.0, 5e6),))  # must start at 0
    with pytest.raises(TraceError):
        LinkConfig(capacity_trace=((0.0, 5e6), (0.0, 2e6)))  # not increasing
    with pytest.raises(TraceError):
        LinkConfig(capacity_trace=((0.0, -5.0),))
    # a NaN capacity would fail the first enqueue with a bare IndexError
    for bad in (((0.0, float("nan")),), ((0.0, float("inf")),),
                ((0.0, 5e6), (float("nan"), 2e6)), ((0.0, 5e6), (float("inf"), 2e6))):
        with pytest.raises(TraceError, match="finite"):
            LinkConfig(capacity_trace=bad)


def test_random_walk_trace_properties():
    kw = dict(duration=30.0, dt=1.0, base_bps=6e6, sigma_bps=1e6,
              floor_bps=2e6, ceil_bps=10e6, seed=3)
    trace = random_walk_trace(**kw)
    assert trace[0][0] == 0.0
    assert all(a[0] < b[0] for a, b in zip(trace, trace[1:]))
    assert all(2e6 <= c <= 10e6 for _, c in trace)
    assert trace == random_walk_trace(**kw)
    with pytest.raises(TraceError):
        random_walk_trace(duration=0.0, dt=1.0, base_bps=6e6, sigma_bps=1e6,
                          floor_bps=2e6, ceil_bps=10e6, seed=3)


def test_trace_file_roundtrip(tmp_path):
    trace = step_trace([(0.0, 10e6), (60.0, 3e6), (180.0, 10e6)])
    path = tmp_path / "trace.csv"
    path.write_text("t_seconds,capacity_bps\n" + "".join(f"{t!r},{c!r}\n" for t, c in trace))
    assert read_trace(path) == trace


def test_trace_file_with_nan_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_seconds,capacity_bps\n0.0,6e6\n10.0,nan\n")
    with pytest.raises(TraceError, match="finite"):
        LinkConfig(capacity_trace=read_trace(path))
