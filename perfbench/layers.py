"""Which scanstream calls the traced run wraps, and the per-layer metrics.

`install` rebinds each public function or method at the place the program
looks it up: the pipeline imported `encode`, `on_feedback`, ... into its
own namespace, the sweep calls `codec.encode` through the module, and the
event loop reaches transport and link through instances, so methods are
wrapped on their classes.  `layer_metrics` turns the tracer's sites plus
the untraced and traced reps into the `per_layer` metrics.
"""
from __future__ import annotations

from scanstream import bitpack, codec, pipeline, predictor, residual_opt
from scanstream.netem import BottleneckLink
from scanstream.scangen import ScanGenerator
from scanstream.transport import DatagramReceiver, DatagramSender

from tracer import Tracer

BITPACK = ("morton_encode", "sort_order", "to_bit_matrix", "pack_width",
           "unpack_width", "from_bit_matrix", "morton_decode")
CODEC = ("encode", "decode", "residual")
TRANSPORT = (
    (DatagramSender, "pace_and_send"),
    (DatagramSender, "reconcile_inflight"),
    (DatagramSender, "enqueue_unit"),
    (DatagramReceiver, "receive_packet"),
    (DatagramReceiver, "make_feedback"),
    (DatagramReceiver, "should_report"),
)
BLOCKED = ("pacing", "cwnd", "idle")


class Counters:
    """State read around calls: sender block reasons, feedback, w_ref cuts."""

    def __init__(self):
        self.blocked = dict.fromkeys(BLOCKED, 0)
        self.reports_on_arrival = 0
        self.decrease_ce = 0
        self.decrease_loss = 0

    def after_pace(self, args, result, ctx):
        reason = args[0].blocked_reason
        self.blocked[reason] = self.blocked.get(reason, 0) + 1

    def after_should_report(self, args, result, ctx):
        self.reports_on_arrival += bool(result)

    @staticmethod
    def before_feedback(args):
        state = args[0]
        return state.last_decrease_time, state.prev_lost_packets

    def after_feedback(self, args, result, ctx):
        # on_feedback stamps last_decrease_time exactly when it cuts w_ref;
        # new losses in the report make it a loss cut, otherwise a CE cut
        state, report = args[0], args[2]
        last_decrease, prev_lost = ctx
        if state.last_decrease_time != last_decrease:
            if report.cumulative_lost_packets > prev_lost:
                self.decrease_loss += 1
            else:
                self.decrease_ce += 1


def _scan_of_first(args, kwargs):
    return args[0].scan_id


def _scan_of_generate(args, kwargs):
    return kwargs["scan_id"] if "scan_id" in kwargs else args[2]


def install(tracer: Tracer) -> Counters:
    counters = Counters()
    tracer.patch(pipeline, "run_scenario", "pipeline.run_scenario", span=True)
    tracer.patch(residual_opt, "calibrate_detailed", "residual_opt.calibrate_detailed", span=True)
    tracer.patch(residual_opt, "min_rate", "residual_opt.min_rate", span=True)
    tracer.patch(predictor, "fit", "predictor.fit", span=True)
    tracer.patch(pipeline, "build_grid", "predictor.build_grid", span=True)
    tracer.patch(pipeline, "select_from_grid", "predictor.select_from_grid")
    tracer.patch(pipeline, "write_metrics", "metrics.write_metrics", span=True)
    tracer.patch(ScanGenerator, "generate", "scangen.generate", span=True,
                 scan_of=_scan_of_generate)
    for name in CODEC:
        tracer.patch([codec, pipeline], name, f"codec.{name}", span=True, scan_of=_scan_of_first)
    for name in BITPACK:
        tracer.patch(bitpack, name, f"bitpack.{name}", span=True)
    for cls, name in TRANSPORT:
        after = {"pace_and_send": counters.after_pace,
                 "should_report": counters.after_should_report}.get(name)
        tracer.patch(cls, name, f"transport.{name}", after=after)
    tracer.patch(BottleneckLink, "enqueue", "netem.enqueue")
    tracer.patch(pipeline, "on_feedback", "congestion.on_feedback",
                 before=Counters.before_feedback, after=counters.after_feedback)
    return counters


def _stats(m: dict, tracer: Tracer, site: str, fields: tuple[str, ...]) -> None:
    s = tracer.site(site)
    p50, tail, tail_pct = s.percentiles_us()
    values = {"calls": s.calls, "total_s": s.total, "p50_us": p50,
              "tail_us": tail, "tail_pct": tail_pct}
    for f in fields:
        m[f"{site}.{f}"] = values[f]


def layer_metrics(tracer: Tracer, counters: Counters, traced, untraced, load_scenario_s: float):
    """Per-layer metrics of one traced rep; `untraced` is the same rep without wrappers."""
    site = tracer.site
    wall = traced.wall_s
    work = traced.work
    m: dict[str, float] = {}

    _stats(m, tracer, "scangen.generate", ("calls", "total_s", "p50_us"))
    codec_total = 0.0
    for name in CODEC:
        _stats(m, tracer, f"codec.{name}", ("calls", "total_s", "p50_us", "tail_us", "tail_pct"))
        codec_total += site(f"codec.{name}").total
    bitpack_total = 0.0
    for name in BITPACK:
        m[f"bitpack.{name}.total_s"] = site(f"bitpack.{name}").total
        bitpack_total += site(f"bitpack.{name}").total
    m["codec.total_s"] = codec_total
    m["codec.self_s"] = codec_total - bitpack_total
    m["codec.share"] = codec_total / wall
    m["bitpack.total_s"] = bitpack_total
    m["bitpack.share_of_codec"] = bitpack_total / codec_total if codec_total else 0.0
    m["codec.mean_ptp_mm"] = traced.outcomes["mean_ptp_mm"]

    m["residual_opt.calibrate_detailed.s"] = site("residual_opt.calibrate_detailed").total
    sweeps_q = work.get("scans", 0) * work.get("distinct_q", 0)
    m["residual_opt.decodes_per_scan_q"] = (
        site("codec.decode").calls / sweeps_q if sweeps_q else 0.0)
    m["predictor.fit.s"] = site("predictor.fit").total
    m["predictor.build_grid.s"] = site("predictor.build_grid").total
    _stats(m, tracer, "predictor.select_from_grid", ("calls", "p50_us"))

    _stats(m, tracer, "transport.pace_and_send", ("calls", "total_s", "p50_us", "tail_us", "tail_pct"))
    packets = work.get("packets_sent", 0)
    pace_calls = site("transport.pace_and_send").calls
    m["transport.pace_calls_per_packet"] = pace_calls / packets if packets else 0.0
    for reason in BLOCKED:
        m[f"transport.blocked.{reason}"] = counters.blocked[reason]
    for name in ("reconcile_inflight", "receive_packet", "make_feedback", "enqueue_unit"):
        _stats(m, tracer, f"transport.{name}", ("total_s", "p50_us"))
    m["transport.sender_drops"] = work.get("sender_drops", 0)
    transport_total = sum(site(f"transport.{name}").total for _, name in TRANSPORT)
    m["transport.share"] = transport_total / wall

    _stats(m, tracer, "netem.enqueue", ("calls", "total_s", "p50_us"))
    m["netem.tail_drops"] = work.get("tail_drops", 0)
    m["netem.ce_marks"] = work.get("ce_marks", 0)
    m["netem.random_losses"] = work.get("random_losses", 0)
    m["netem.p95_queue_delay_ms"] = traced.outcomes.get("p95_queue_delay_ms", 0.0)

    _stats(m, tracer, "congestion.on_feedback", ("calls", "total_s", "p50_us"))
    m["congestion.decrease_ce"] = counters.decrease_ce
    m["congestion.decrease_loss"] = counters.decrease_loss

    # Each event-loop handler makes exactly one call that the tracer counts:
    # scan -> generate, arrival -> receive_packet, feedback -> on_feedback,
    # metrics tick -> one CSV row, feedback timer -> make_feedback (less the
    # reports an arrival triggered), pace wake -> pace_and_send (less the
    # ones the scan and feedback handlers make).
    run_wall = site("pipeline.run_scenario").total
    m["pipeline.loop_self_s"] = site("pipeline.run_scenario").self_time
    m["pipeline.events"] = (
        work.get("metrics_rows", 0)
        + site("transport.receive_packet").calls
        + site("transport.make_feedback").calls - counters.reports_on_arrival
        + pace_calls
    ) if run_wall else 0
    m["pipeline.trace_overhead_s"] = traced.wall_s - untraced.wall_s
    m["scenario.load_scenario.s"] = load_scenario_s
    m["metrics.write_metrics.s"] = site("metrics.write_metrics").total
    return m


def layer_shares(tracer: Tracer, wall: float) -> dict[str, float]:
    """Share of the traced wall time per layer, for the report file."""
    site = tracer.site
    totals = {
        "scangen": site("scangen.generate").total,
        "codec": sum(site(f"codec.{n}").total for n in CODEC),
        "predictor": sum(site(n).total for n in (
            "predictor.fit", "predictor.build_grid", "predictor.select_from_grid")),
        "transport": sum(site(f"transport.{n}").total for _, n in TRANSPORT),
        "netem": site("netem.enqueue").total,
        "congestion": site("congestion.on_feedback").total,
        "metrics": site("metrics.write_metrics").total,
        "pipeline_loop_self": site("pipeline.run_scenario").self_time,
    }
    return {k: v / wall for k, v in totals.items()}
