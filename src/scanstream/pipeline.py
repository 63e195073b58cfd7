"""Deterministic discrete-event scenario runner.

Wires scan source -> encoder -> sender -> link -> receiver -> feedback ->
controller in one event loop driven by simulated time. All randomness is
seeded, all state transitions happen inside event handlers, and each
handler sees the state that (time, priority) order gives it, so a scenario
replays byte-for-byte.  Each kind of event has its own priority, and no two
events of one kind are ever compared: the heap holds at most one of each,
and of the arrivals and the reports only the heads are.

Events are (t, prio, handler, payload) tuples in three queues.
Arrivals sit in a deque in due order, because FIFO service never ends a
packet before the one ahead of it and each is due its service end plus
the propagation delay; feedback reports too, because each is due the
clock plus that delay and the clock never goes back.  The scan, metrics
tick, feedback timer and one pace wake sit in a heap of a few entries.
The loop takes the smallest of the three heads: one heap's order.

The sender runs in epochs.  A pace wake or a report starts one, and it
takes the sender through every report and wake due before the earliest of
now + prop_delay, the heap's head and the run's end, in (time, priority)
order; each train runs to the next of them.  Arrivals touch only the
receiver and the scan ledger, never the sender, the controller or the
link, and a report an arrival makes from now on is due no sooner than
now + prop_delay.  So the loop handles the window's arrivals afterwards,
and every handler still sees what one event at a time would show it.

Nothing downstream of the encoder reads a unit's bytes, only their count,
so each scan is sized by `measure`, never packed, and the transport carries
byte counts.  `measure` also gives the scan's mean error, from the same
cells, and it is held by scan id in `pending_ptp` until the scan's fate is
known.

The runner alone decides each scan's fate.  A scan is dropped at the sender
when the sender's queue overflows, and delivered when the receiver reports
its last fragment.  The sender finishes each frame before it starts the next
and the link is FIFO, so the first packet of a newer scan means every older
scan has sent all it ever will: those still pending are lost in the network.
A scan left at the run's end is pending.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .codec import UNIT_HEADER_BYTES, CompressionConfig, Workspace, measure
# encode, decode and residual are unused here: perfbench wraps them on codec and here alike
from .codec import decode, encode, residual  # noqa: F401
from .congestion import (
    CongestionState,
    FeedbackProtocolError,
    FeedbackReport,
    init_state,
    on_feedback,
)
from .metrics import MetricsRow, write_metrics
from .netem import BottleneckLink
from .predictor import RateModel, build_grid, load_model, select_from_grid
from .scangen import ScanGenerator
from .scenario import Scenario
from .transport import DatagramReceiver, DatagramSender, Packet

# Event priorities at equal timestamps. Deliveries and feedback settle before
# the encoder picks a config for that instant; metrics snapshots run last so
# a row reflects everything that happened at its tick.
_ARRIVAL = 1
_FEEDBACK = 2
_FB_TIMER = 3
_SCAN = 4
_PACE = 5
_METRICS = 8

METRICS_TICK_HZ = 10.0


class RunError(RuntimeError):
    """Scenario execution aborted: invariant violation or bad configuration."""


@dataclass
class RunSummary:
    mode: str
    duration: float
    scans_generated: int = 0
    scans_delivered: int = 0
    scans_dropped_sender: int = 0
    scans_lost_network: int = 0
    scans_pending: int = 0
    packets_sent: int = 0
    packets_received: int = 0
    packets_tail_dropped: int = 0
    packets_random_lost: int = 0
    packets_in_transit: int = 0
    wire_bytes_sent: int = 0
    wire_bytes_delivered: int = 0
    ce_marked_packets: int = 0
    feedback_reports: int = 0
    mean_queue_delay: float = 0.0
    p95_queue_delay: float = 0.0
    max_queue_delay: float = 0.0
    rate_tracking_error: float = float("nan")
    mean_ptp_mean: float = float("nan")
    mean_ptp_worst: float = float("nan")
    max_bif_fraction: float = 0.0  # peak bytes_in_flight / (overshoot * w_ref) at send
    conservation_ok: bool = False

    def to_text(self) -> str:
        lines = [
            f"mode                  {self.mode}",
            f"duration              {self.duration:.1f} s",
            f"scans generated       {self.scans_generated}",
            f"scans delivered       {self.scans_delivered}",
            f"scans dropped (send)  {self.scans_dropped_sender}",
            f"scans lost (network)  {self.scans_lost_network}",
            f"scans pending         {self.scans_pending}",
            f"packets sent          {self.packets_sent}",
            f"packets received      {self.packets_received}",
            f"packets tail-dropped  {self.packets_tail_dropped}",
            f"packets random-lost   {self.packets_random_lost}",
            f"packets in transit    {self.packets_in_transit}",
            f"wire bytes sent       {self.wire_bytes_sent}",
            f"wire bytes delivered  {self.wire_bytes_delivered}",
            f"CE-marked packets     {self.ce_marked_packets}",
            f"feedback reports      {self.feedback_reports}",
            f"link queue delay      mean {self.mean_queue_delay * 1e3:.2f} ms"
            f" / p95 {self.p95_queue_delay * 1e3:.2f} ms"
            f" / max {self.max_queue_delay * 1e3:.2f} ms",
            f"rate tracking error   {self.rate_tracking_error:.4f}",
            f"mean_ptp delivered    mean {self.mean_ptp_mean:.5f} m"
            f" / worst {self.mean_ptp_worst:.5f} m",
            f"peak BIF fraction     {self.max_bif_fraction:.4f}",
            f"conservation          {'ok' if self.conservation_ok else 'VIOLATED'}",
        ]
        return "\n".join(lines)


@dataclass
class RunResult:
    rows: list[MetricsRow]
    summary: RunSummary
    metrics_path: str | None = None


class _Runner:
    def __init__(self, scenario: Scenario, model: RateModel | None):
        self.sc = scenario
        self.adaptive = scenario.mode == "adaptive"
        if self.adaptive:
            if model is None:
                if scenario.model_path is None:
                    raise RunError("adaptive scenario needs a rate model (model path or object)")
                model = load_model(scenario.model_path)
            if model.scan_hz != scenario.scan_hz:
                raise RunError(f"rate model calibrated at {model.scan_hz} Hz cannot drive"
                               f" a scenario at {scenario.scan_hz} Hz")
        self.model = model

        src = scenario.scan_source
        self.gen = ScanGenerator(src.profile, src.seed, src.velocity)
        self.n_points = src.profile.n_points
        # each scan is generated and measured in these, and dropped before the next
        self.work = Workspace(self.n_points)
        self.link = BottleneckLink(scenario.link)
        self.sender = DatagramSender(scenario.transport)
        self.receiver = DatagramReceiver(scenario.transport)

        self.cc: CongestionState | None = None
        self.ccp = scenario.control
        if self.adaptive:
            self.cc = init_state(self.ccp, scenario.bounds.r_min_bps, scenario.bounds.r_max_bps)
            self.grid = build_grid(self.model, self.n_points)
            self.floor = scenario.bounds.floor
            self.r_ceiling = float(np.max(self.grid.predicted_bps))
            self.base_cfg = None
        else:
            self.base_cfg = CompressionConfig(
                scenario.baseline.q, scenario.baseline.c, scenario.tight_bbox
            )

        self._heap: list = []  # scan, metrics tick, feedback timer, pace wake
        self._arrivals: deque = deque()  # in due order: FIFO service
        self._feedback: deque = deque()  # in due order: made at now, due now + prop_delay
        self.now = 0.0
        self._end = scenario.duration + 1e-9  # no event after this is handled

        self.pending_ptp: dict[int, float] = {}  # scan id -> mean_ptp, until delivered or lost
        self.rows: list[MetricsRow] = []
        self.summary = RunSummary(mode=scenario.mode, duration=scenario.duration)

        self._enc_window: deque = deque()  # (t, payload_bits) of the scans in the last second
        self._enc_bits = 0  # sum of the window's payload_bits
        self._last_q = -1
        self._last_c = -1
        self._prev_acked = 0
        self._prev_ce = 0
        self._tick_ptp: list[float] = []
        self._all_ptp_sum = 0.0
        self._all_ptp_worst = float("nan")
        self._rate_err_sum = 0.0

    # ------------------------------------------------------------ scheduling

    def _push(self, t: float, prio: int, handler, payload=None) -> None:
        heapq.heappush(self._heap, (t, prio, handler, payload))

    # -------------------------------------------------------------- handlers

    def _pace(self, until: float) -> None:
        cc = self.cc  # None in baseline mode: no window gate, a fixed rate
        rate = self.sc.baseline.pacing_bps if cc is None else cc.r_trg
        packets = self.sender.pace_and_send(cc, self.ccp, rate, self.now, until)
        if packets and cc is not None:  # in-flight bytes only grow within one call
            cap = self.ccp.overshoot_factor * cc.w_ref
            frac = cc.bytes_in_flight / cap  # the last send is the peak
            if frac > self.summary.max_bif_fraction:
                self.summary.max_bif_fraction = frac
            if cc.bytes_in_flight > cap * (1.0 + 1e-9):
                bif = cc.bytes_in_flight - sum(pkt.wire_bytes for pkt in packets)
                for pkt in packets:  # name the packet that broke the bound
                    bif += pkt.wire_bytes
                    if bif > cap * (1.0 + 1e-9):
                        break
                raise RunError(
                    f"in-flight bytes {bif} exceed "
                    f"{self.ccp.overshoot_factor} x w_ref {cc.w_ref} at t={pkt.send_time:.6f}"
                )
        # the per-packet callees, bound once per train
        enqueue, arrive, on_arrival = self.link.enqueue, self._arrivals.append, self._on_arrival
        for pkt in packets:
            slot = enqueue(pkt, pkt.send_time)
            if slot is not None:
                arrive((slot[1], _ARRIVAL, on_arrival, slot[0]))

    def _on_pace(self, _payload) -> None:
        self._epoch(None, False)

    def _on_feedback(self, report: FeedbackReport) -> None:
        # a sender blocked on pacing has its wake in the heap: at the head
        # this epoch may reach it, behind the head it is past the epoch
        armed = self.sender.blocked_reason == "pacing"
        if armed and self._heap[0][1] == _PACE:
            heapq.heappop(self._heap)
            armed = False
        self._epoch(report, armed)

    def _epoch(self, report: FeedbackReport | None, armed: bool) -> None:
        """Take the sender through every report and wake due before its next input."""
        heap, feedback, sender, cc = self._heap, self._feedback, self.sender, self.cc
        bound = min(self.now + self.link.prop_delay, self._end)
        if heap and heap[0][0] < bound:
            bound = heap[0][0]
        while True:
            due = feedback[0][0] if feedback and feedback[0][0] < bound else bound  # next input
            if report is not None:
                now = self.now
                # settle first: on_feedback's growth test reads the settled value
                sender.reconcile_inflight(cc, report.highest_acked_seq)
                try:
                    on_feedback(cc, self.ccp, report, now)
                except FeedbackProtocolError as e:
                    raise RunError(f"feedback protocol violation at t={now:.6f}: {e}") from e
                if not (cc.r_min <= cc.r_trg <= cc.r_max):
                    raise RunError(f"r_trg {cc.r_trg} left [{cc.r_min}, {cc.r_max}] at t={now:.6f}")
            if report is None or sender.blocked_reason == "cwnd":
                self._pace(due)
            wake = sender.next_send_opportunity()  # None unless blocked on pacing
            if wake is not None and wake < due:  # a report at the wake's instant goes first
                self.now, report = wake, None
            elif due < bound:
                self.now, report = due, feedback.popleft()[3]
            else:
                break
        # Each block reason has one waker: pacing this wake, cwnd a report, idle
        # the next scan.  So the heap holds at most one pace event, never early.
        if wake is not None and not armed:
            self._push(wake, _PACE, self._on_pace)

    def _on_scan(self, k: int) -> None:
        t = self.now
        scan = self.gen.generate(t, scan_id=k, out=self.work)
        self.summary.scans_generated += 1
        if self.adaptive:
            cfg = select_from_grid(self.grid, self.cc.r_trg, self.floor, self.sc.tight_bbox)
            if cfg.q < self.floor.min_q:
                raise RunError(f"selected q={cfg.q} below floor {self.floor.min_q} at t={t:.3f}")
        else:
            cfg = self.base_cfg
        nbytes, self.pending_ptp[k] = measure(scan, cfg, work=self.work)
        self._last_q, self._last_c = cfg.q, cfg.c
        bits = 8 * nbytes
        self._enc_window.append((t, bits))
        self._enc_bits += bits
        dropped = self.sender.enqueue_unit(k, UNIT_HEADER_BYTES + nbytes)
        if dropped is not None:
            del self.pending_ptp[dropped]  # queued since its own _on_scan
            self.summary.scans_dropped_sender += 1
        if self.sender.blocked_reason == "idle":  # a blocked sender has its own waker
            self._pace(t)
            if self.sender.blocked_reason == "pacing":
                self._push(self.sender.next_send_opportunity(), _PACE, self._on_pace)
        if self.adaptive:
            r_cmd = min(self.cc.r_trg, self.r_ceiling)
            self._rate_err_sum += abs(bits * self.sc.scan_hz - r_cmd) / r_cmd
        nxt = k + 1
        if nxt / self.sc.scan_hz < self.sc.duration - 1e-9:
            self._push(nxt / self.sc.scan_hz, _SCAN, self._on_scan, nxt)

    def _on_arrival(self, pkt: Packet) -> None:
        receiver = self.receiver
        self.summary.packets_received += 1
        if pkt.scan_id > receiver.newest_scan_id:
            # a newer scan's first packet: every older one has sent all it
            # ever will, so those still pending are lost
            lost = list(takewhile(lambda sid: sid < pkt.scan_id, self.pending_ptp))
            for sid in lost:
                del self.pending_ptp[sid]
            self.summary.scans_lost_network += len(lost)
        scan_id = receiver.receive_packet(pkt, self.now)
        if scan_id is not None:
            self._deliver(scan_id)
        if self.adaptive and receiver.should_report():
            self._emit_feedback()

    def _deliver(self, scan_id: int) -> None:
        ptp = self.pending_ptp.pop(scan_id, None)
        if ptp is None:
            raise RunError(f"scan {scan_id} delivered twice or never sent")
        self.summary.scans_delivered += 1
        self._tick_ptp.append(ptp)
        self._all_ptp_sum += ptp
        if not (ptp <= self._all_ptp_worst):
            self._all_ptp_worst = ptp

    def _emit_feedback(self) -> None:
        """Send a report back to the sender.

        The reverse path is clean: pure propagation delay, no queue and no
        loss, mirroring uplink-constrained cellular asymmetry.
        """
        report = self.receiver.make_feedback(self.now)
        self.summary.feedback_reports += 1
        due = self.now + self.link.prop_delay
        self._feedback.append((due, _FEEDBACK, self._on_feedback, report))

    def _on_fb_timer(self, _payload) -> None:
        # after the first, a report with no arrival since the last equals it
        # and moves nothing at the sender: it is counted, not sent
        if self.receiver.packets_since_report or not self.summary.feedback_reports:
            self._emit_feedback()
        else:
            self.summary.feedback_reports += 1
        self._push(self.now + self.sc.transport.feedback_interval, _FB_TIMER, self._on_fb_timer)

    def _enc_bitrate(self) -> float:
        horizon = self.now - 1.0
        w = self._enc_window
        while w and w[0][0] <= horizon:
            self._enc_bits -= w.popleft()[1]
        return float(self._enc_bits)

    def _on_metrics(self, m: int) -> None:
        t = self.now
        acked = self.receiver.cumulative_acked_bytes
        ce = self.receiver.cumulative_ce_bytes
        d_acked = acked - self._prev_acked
        d_ce = ce - self._prev_ce
        self._prev_acked, self._prev_ce = acked, ce
        ptp = float(np.mean(self._tick_ptp)) if self._tick_ptp else float("nan")
        self._tick_ptp.clear()
        if self.adaptive:
            cc = self.cc
            w_ref, bif = cc.w_ref, float(cc.bytes_in_flight)
            srtt = cc.srtt if cc.srtt is not None else float("nan")
            est_qd, r_trg = cc.est_queue_delay, cc.r_trg
        else:
            w_ref = bif = srtt = est_qd = r_trg = float("nan")
        self.rows.append(MetricsRow(
            t=t,
            w_ref=w_ref,
            bytes_in_flight=bif,
            srtt=srtt,
            est_queue_delay=est_qd,
            r_trg=r_trg,
            enc_bitrate=self._enc_bitrate(),
            link_capacity=self.link.capacity_at(t),
            link_queue_delay=self.link.queue_delay(t),
            q_used=self._last_q,
            c_used=self._last_c,
            sender_queue_depth=self.sender.queue_depth,
            scans_delivered=self.summary.scans_delivered,
            scans_dropped=self.summary.scans_dropped_sender,
            ce_fraction=(d_ce / d_acked) if d_acked > 0 else 0.0,
            mean_ptp_of_delivered=ptp,
        ))
        self._push((m + 1) / METRICS_TICK_HZ, _METRICS, self._on_metrics, m + 1)

    # ------------------------------------------------------------------ loop

    def run(self) -> tuple[list[MetricsRow], RunSummary]:
        self._push(0.0, _SCAN, self._on_scan, 0)
        self._push(0.0, _METRICS, self._on_metrics, 0)
        if self.adaptive:
            self._push(self.sc.transport.feedback_interval, _FB_TIMER, self._on_fb_timer)

        heap, arrivals, feedback = self._heap, self._arrivals, self._feedback
        heappop = heapq.heappop
        end = self._end
        idle = (float("inf"),)
        while True:
            event = heap[0] if heap else idle
            source = heap
            if arrivals and arrivals[0] < event:
                event, source = arrivals[0], arrivals
            if feedback and feedback[0] < event:
                event, source = feedback[0], feedback
            if event[0] > end:  # so is every later event; also ends an empty loop
                break
            if source is heap:
                heappop(heap)
            else:
                source.popleft()
            self.now = event[0]
            event[2](event[3])

        pending_arrivals = len(arrivals)
        for queue in (heap, arrivals, feedback):  # queued handlers would keep self alive in a cycle
            queue.clear()
        self._finalize(pending_arrivals)
        return self.rows, self.summary

    def _finalize(self, pending_arrivals: int) -> None:
        s = self.summary
        s.packets_sent = self.sender.next_seq - 1  # seqs start at 1
        s.packets_tail_dropped = self.link.ledger.tail_dropped
        s.packets_random_lost = self.link.ledger.random_lost
        s.packets_in_transit = pending_arrivals
        s.wire_bytes_sent = self.sender.sent_wire_bytes
        s.wire_bytes_delivered = self.receiver.cumulative_acked_bytes
        s.ce_marked_packets = self.link.ledger.ce_marked
        s.scans_pending = len(self.pending_ptp)

        delays = [row.link_queue_delay for row in self.rows]
        if delays:
            s.mean_queue_delay = float(np.mean(delays))
            s.p95_queue_delay = float(np.percentile(delays, 95))
            s.max_queue_delay = float(np.max(delays))
        if self.adaptive and s.scans_generated:  # every adaptive scan is rated
            s.rate_tracking_error = self._rate_err_sum / s.scans_generated
        if s.scans_delivered:
            s.mean_ptp_mean = self._all_ptp_sum / s.scans_delivered
            s.mean_ptp_worst = self._all_ptp_worst

        led = self.link.ledger
        if led.offered != led.accepted + led.tail_dropped + led.random_lost:
            raise RunError(
                f"link ledger leak: offered {led.offered} != accepted {led.accepted}"
                f" + tail {led.tail_dropped} + random {led.random_lost}"
            )
        settled = s.packets_received + s.packets_tail_dropped + s.packets_random_lost
        if s.packets_sent != settled + pending_arrivals:
            raise RunError(
                f"packet conservation broken: sent {s.packets_sent} != received"
                f" {s.packets_received} + dropped {s.packets_tail_dropped}"
                f" + lost {s.packets_random_lost} + in transit {pending_arrivals}"
            )
        resolved = (s.scans_delivered + s.scans_dropped_sender
                    + s.scans_lost_network + s.scans_pending)
        if s.scans_generated != resolved:
            raise RunError(
                f"scan conservation broken: generated {s.scans_generated} !="
                f" delivered {s.scans_delivered} + sender drops {s.scans_dropped_sender}"
                f" + network losses {s.scans_lost_network} + pending {s.scans_pending}"
            )
        s.conservation_ok = True


def run_scenario(
    scenario: Scenario,
    model: RateModel | None = None,
    metrics_path: str | None = None,
) -> RunResult:
    """Execute a scenario; writes the metrics CSV when a path is configured."""
    rows, summary = _Runner(scenario, model).run()
    path = metrics_path if metrics_path is not None else scenario.metrics_path
    if path is not None:
        write_metrics(path, rows)
    return RunResult(rows=rows, summary=summary, metrics_path=path)
