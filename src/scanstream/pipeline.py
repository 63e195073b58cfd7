"""Deterministic discrete-event scenario runner.

Wires scan source -> encoder -> sender -> link -> receiver -> feedback ->
controller in one event loop driven by simulated time. All randomness is
seeded, all state transitions happen inside event handlers, and ties in the
event heap break on (priority, insertion counter), so a scenario replays
byte-for-byte.

Nothing downstream of the encoder reads a unit's bytes, only their count,
so each scan is sized by `measure`, never packed, and the transport carries
byte counts.  The scan's reconstruction error comes from the same quantized
cells and is held by scan id until the receiver reports the scan complete.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# encode and decode are unused here but stay bound: perfbench wraps them on codec and here alike
from .codec import UNIT_HEADER_BYTES, CompressionConfig, decode, encode, measure, residual  # noqa: F401
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
        self.model = model

        src = scenario.scan_source
        self.gen = ScanGenerator(src.profile, src.seed, src.velocity)
        self.n_points = src.profile.n_points
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
            base_cfg = None
        else:
            base_cfg = CompressionConfig(
                scenario.baseline.q, scenario.baseline.c, scenario.tight_bbox
            )
            base_cfg.validate()
        self.base_cfg = base_cfg

        self._heap: list = []
        self._counter = 0
        self._next_pace: float | None = None  # time of the one pending pace event
        self.now = 0.0

        self.pending_ptp: dict[int, float] = {}  # scan id -> mean_ptp, until delivered or lost
        self.rows: list[MetricsRow] = []
        self.summary = RunSummary(mode=scenario.mode, duration=scenario.duration)

        self._enc_window: list[tuple[float, int]] = []  # (t, payload_bits)
        self._enc_head = 0
        self._last_q = -1
        self._last_c = -1
        self._drops_seen = 0
        self._prev_acked = 0
        self._prev_ce = 0
        self._tick_ptp: list[float] = []
        self._all_ptp_sum = 0.0
        self._all_ptp_worst = float("nan")
        self._rate_err_sum = 0.0
        self._rate_err_n = 0

    # ------------------------------------------------------------ scheduling

    def _push(self, t: float, prio: int, handler, payload=None) -> None:
        heapq.heappush(self._heap, (t, prio, self._counter, handler, payload))
        self._counter += 1

    def _arm_pace_timer(self) -> None:
        """Arm the pace timer at the sender's next send time.

        Each block reason has one waker: a pacing block is cleared by this
        timer, a cwnd block by feedback, an idle sender by the next scan.
        The sender's next send time moves only when a packet leaves, and
        no packet leaves before it, so an armed wake is never early and
        never superseded: at most one pace event is in the heap.
        """
        if self._next_pace is None:
            self._next_pace = self.sender.next_send_opportunity(self.now)
            self._push(self._next_pace, _PACE, self._on_pace)

    # -------------------------------------------------------------- handlers

    def _pacing_rate(self) -> float:
        if self.adaptive:
            return self.cc.r_trg
        return self.sc.baseline.pacing_bps

    def _pace(self) -> None:
        packets = self.sender.pace_and_send(self.cc, self.ccp if self.adaptive else None,
                                            self._pacing_rate(), self.now)
        for pkt in packets:
            if self.adaptive:
                cap = self.ccp.overshoot_factor * self.cc.w_ref
                frac = self.cc.bytes_in_flight / cap
                if frac > self.summary.max_bif_fraction:
                    self.summary.max_bif_fraction = frac
                if self.cc.bytes_in_flight > cap * (1.0 + 1e-9):
                    raise RunError(
                        f"in-flight bytes {self.cc.bytes_in_flight} exceed "
                        f"{self.ccp.overshoot_factor} x w_ref {self.cc.w_ref} at t={self.now:.6f}"
                    )
            slot = self.link.enqueue(pkt, self.now)
            if slot is not None:
                delivered, at = slot
                self._push(at, _ARRIVAL, self._on_arrival, delivered)
        if self.sender.blocked_reason == "pacing":
            self._arm_pace_timer()

    def _on_pace(self, _payload) -> None:
        self._next_pace = None
        self._pace()

    def _consume_sender_drops(self) -> None:
        log = self.sender.drop_log
        while self._drops_seen < len(log):
            self.pending_ptp.pop(log[self._drops_seen], None)
            self._drops_seen += 1
            self.summary.scans_dropped_sender += 1

    def _on_scan(self, k: int) -> None:
        t = self.now
        scan = self.gen.generate(t, scan_id=k)
        self.summary.scans_generated += 1
        if self.adaptive:
            cfg = select_from_grid(self.grid, self.cc.r_trg, self.floor)
            if cfg.q < self.floor.min_q:
                raise RunError(f"selected q={cfg.q} below floor {self.floor.min_q} at t={t:.3f}")
            cfg = CompressionConfig(cfg.q, cfg.c, self.sc.tight_bbox)
        else:
            cfg = self.base_cfg
        nbytes, rebuilt = measure(scan, cfg)
        self.pending_ptp[k] = residual(scan, rebuilt).mean_ptp
        self._last_q, self._last_c = cfg.q, cfg.c
        self._enc_window.append((t, 8 * nbytes))
        self.sender.enqueue_unit(k, UNIT_HEADER_BYTES + nbytes)
        self._consume_sender_drops()
        if self.sender.blocked_reason == "idle":  # a blocked sender has its own waker
            self._pace()
        if self.adaptive:
            r_cmd = min(self.cc.r_trg, self.r_ceiling)
            self._rate_err_sum += abs(8 * nbytes * self.sc.scan_hz - r_cmd) / r_cmd
            self._rate_err_n += 1
        nxt = k + 1
        if nxt / self.sc.scan_hz < self.sc.duration - 1e-9:
            self._push(nxt / self.sc.scan_hz, _SCAN, self._on_scan, nxt)

    def _on_arrival(self, pkt: Packet) -> None:
        self.summary.packets_received += 1
        for dead in self.receiver.expire_partials_below(pkt.scan_id):
            self.pending_ptp.pop(dead, None)
            self.summary.scans_lost_network += 1
        scan_id = self.receiver.receive_packet(pkt, self.now)
        if scan_id is not None:
            self._deliver(scan_id)
        if self.adaptive and self.receiver.should_report(self.now):
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
        self._push(self.now + self.sc.link.prop_delay, _FEEDBACK, self._on_feedback, report)

    def _on_feedback(self, report: FeedbackReport) -> None:
        # settle first: on_feedback's growth test reads the settled value
        self.sender.reconcile_inflight(self.cc, report.highest_acked_seq)
        try:
            on_feedback(self.cc, self.ccp, report, self.now)
        except FeedbackProtocolError as e:
            raise RunError(f"feedback protocol violation at t={self.now:.6f}: {e}") from e
        if not (self.cc.r_min <= self.cc.r_trg <= self.cc.r_max):
            raise RunError(
                f"r_trg {self.cc.r_trg} left [{self.cc.r_min}, {self.cc.r_max}] at t={self.now:.6f}"
            )
        if self.sender.blocked_reason == "cwnd":
            self._pace()

    def _on_fb_timer(self, _payload) -> None:
        self._emit_feedback()
        nxt = self.now + self.sc.transport.feedback_interval
        if nxt <= self.sc.duration + 1e-9:
            self._push(nxt, _FB_TIMER, self._on_fb_timer)

    def _enc_bitrate(self) -> float:
        horizon = self.now - 1.0
        w = self._enc_window
        while self._enc_head < len(w) and w[self._enc_head][0] <= horizon:
            self._enc_head += 1
        if self._enc_head > 4096:
            del w[: self._enc_head]
            self._enc_head = 0
        return float(sum(bits for _, bits in w[self._enc_head:]))

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
        nxt = m + 1
        if nxt / METRICS_TICK_HZ <= self.sc.duration + 1e-9:
            self._push(nxt / METRICS_TICK_HZ, _METRICS, self._on_metrics, nxt)

    # ------------------------------------------------------------------ loop

    def run(self) -> tuple[list[MetricsRow], RunSummary]:
        self._push(0.0, _SCAN, self._on_scan, 0)
        self._push(0.0, _METRICS, self._on_metrics, 0)
        if self.adaptive:
            self._push(self.sc.transport.feedback_interval, _FB_TIMER, self._on_fb_timer)

        pending_arrivals = 0
        while self._heap:
            t, prio, _, handler, payload = heapq.heappop(self._heap)
            if t > self.sc.duration + 1e-9:
                if prio == _ARRIVAL:
                    pending_arrivals += 1
                continue
            self.now = t
            handler(payload)

        self._finalize(pending_arrivals)
        return self.rows, self.summary

    def _finalize(self, pending_arrivals: int) -> None:
        s = self.summary
        s.packets_sent = self.sender.sent_packets
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
        if self._rate_err_n:
            s.rate_tracking_error = self._rate_err_sum / self._rate_err_n
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
    scenario.validate()
    rows, summary = _Runner(scenario, model).run()
    path = metrics_path if metrics_path is not None else scenario.metrics_path
    if path is not None:
        write_metrics(path, rows)
    return RunResult(rows=rows, summary=summary, metrics_path=path)
