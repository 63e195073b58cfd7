"""L4S-style congestion control driving the media target bitrate.

Pure state machine: every transition is a synchronous function of an
explicit state value, a feedback report, and the clock, so behavior is
fully reproducible from an event log.  The reference window w_ref (bytes)
reacts multiplicatively to loss and to the CE-marked byte fraction, at
most once per smoothed RTT, and grows by slow-start doubling until the
first congestion signal, then additively.  The media target rate is read
out as 8 * w_ref / srtt, clamped to the configured operating range.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields


class FeedbackProtocolError(ValueError):
    """Feedback counters regressed; the report must be discarded."""


@dataclass(frozen=True)
class ControlParams:
    overshoot_factor: float = 5.0  # in-flight allowance while a frame is leaving
    loss_beta: float = 0.5
    ce_beta: float = 0.4
    queue_delay_target: float = 0.020  # seconds
    increase_gain: float = 1.0
    srtt_alpha: float = 0.1
    w_min: float = 3000.0  # bytes
    w_max: float = 262144.0  # bytes
    mss: int = 1200
    owd_window: float = 10.0  # seconds of one-way-delay history for the min filter

    def validate(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError(f"every parameter must be finite, got {self}")
        if self.overshoot_factor < 1:
            raise ValueError(f"overshoot_factor must be >= 1, got {self.overshoot_factor}")
        if not (0 < self.loss_beta < 1 and 0 < self.ce_beta < 1):
            raise ValueError("loss_beta and ce_beta must lie in (0, 1)")
        if not (0 < self.srtt_alpha <= 1):
            raise ValueError(f"srtt_alpha must lie in (0, 1], got {self.srtt_alpha}")
        if not (0 < self.w_min <= self.w_max):
            raise ValueError(f"need 0 < w_min <= w_max, got ({self.w_min}, {self.w_max})")
        if min(self.queue_delay_target, self.increase_gain, self.mss, self.owd_window) <= 0:
            raise ValueError("queue_delay_target, increase_gain, mss, owd_window must be positive")


@dataclass(frozen=True)
class FeedbackReport:
    """Receiver counter snapshot; all counters are cumulative.

    echo_timestamp is the sender-clock send time of the newest acked
    packet, reflected back so the sender can form an RTT sample without
    clock synchronization.
    """

    highest_acked_seq: int
    cumulative_acked_bytes: int
    cumulative_ce_marked_bytes: int
    cumulative_lost_packets: int
    receiver_timestamp: float
    echo_timestamp: float


@dataclass
class CongestionState:
    r_min: float
    r_max: float
    w_ref: float
    r_trg: float
    srtt: float | None = None
    bytes_in_flight: int = 0
    in_slow_start: bool = True
    last_decrease_time: float = float("-inf")
    est_queue_delay: float = 0.0
    # last accepted report counters, for delta extraction and regression checks
    prev_acked_bytes: int = 0
    prev_ce_bytes: int = 0
    prev_lost_packets: int = 0
    prev_highest_seq: int = -1
    prev_echo: float = 0.0
    # one-way delay history: (time, owd) samples plus a monotonic min deque
    _owd: deque = field(default_factory=deque, repr=False)
    _owd_min: deque = field(default_factory=deque, repr=False)


def init_state(params: ControlParams, r_min: float, r_max: float) -> CongestionState:
    params.validate()
    if not (0 < r_min <= r_max):
        raise ValueError(f"need 0 < r_min <= r_max, got ({r_min}, {r_max})")
    return CongestionState(r_min=r_min, r_max=r_max, w_ref=params.w_min, r_trg=r_min)


def update_srtt(
    state: CongestionState, params: ControlParams, rtt_sample: float
) -> CongestionState:
    """EWMA of RTT samples; the first sample initializes srtt directly."""
    if rtt_sample <= 0:
        raise ValueError(f"rtt sample must be positive, got {rtt_sample}")
    if state.srtt is None:
        state.srtt = rtt_sample
    else:
        a = params.srtt_alpha
        state.srtt = (1.0 - a) * state.srtt + a * rtt_sample
    return state


def target_bitrate(state: CongestionState) -> float:
    """Media target in bps: 8 * w_ref / srtt clamped to [r_min, r_max].

    Before the first RTT sample the controller pins the floor rate.
    """
    if state.srtt is None:
        return state.r_min
    raw = 8.0 * state.w_ref / state.srtt
    return min(max(raw, state.r_min), state.r_max)


def can_send(
    state: CongestionState,
    params: ControlParams,
    next_packet_bytes: int,
    current_frame_bytes: int,
) -> bool:
    """Window gate for the next packet.

    While the current frame is partially transmitted the in-flight
    allowance opens to overshoot_factor * w_ref so a whole scan can leave
    at line rate instead of queueing at the sender; between frames the
    plain w_ref cap applies.
    """
    allowance = params.overshoot_factor if current_frame_bytes > 0 else 1.0
    return state.bytes_in_flight + next_packet_bytes <= allowance * state.w_ref


def _record_owd(state: CongestionState, params: ControlParams, now: float, owd: float) -> None:
    # queue delay estimate = OWD minus its running min over a sliding window;
    # the min deque keeps the front as the window minimum in O(1) amortized
    state._owd.append((now, owd))
    while state._owd_min and state._owd_min[-1][1] >= owd:
        state._owd_min.pop()
    state._owd_min.append((now, owd))
    horizon = now - params.owd_window
    while state._owd and state._owd[0][0] < horizon:
        state._owd.popleft()
    while state._owd_min and state._owd_min[0][0] < horizon:
        state._owd_min.popleft()
    state.est_queue_delay = max(owd - state._owd_min[0][1], 0.0)


def on_feedback(
    state: CongestionState,
    params: ControlParams,
    report: FeedbackReport,
    now: float,
) -> CongestionState:
    """Apply one feedback report.

    The caller settles the seqs the report covers out of
    state.bytes_in_flight first (transport.DatagramSender.reconcile_inflight,
    the field's only writer); the growth test below reads the settled value.

    Raises FeedbackProtocolError on regressed counters, leaving the state
    untouched so the caller can log and drop the report.
    """
    if (
        report.cumulative_acked_bytes < state.prev_acked_bytes
        or report.cumulative_ce_marked_bytes < state.prev_ce_bytes
        or report.cumulative_lost_packets < state.prev_lost_packets
        or report.highest_acked_seq < state.prev_highest_seq
    ):
        raise FeedbackProtocolError(
            f"feedback counters regressed: acked {report.cumulative_acked_bytes} "
            f"(prev {state.prev_acked_bytes}), ce {report.cumulative_ce_marked_bytes} "
            f"(prev {state.prev_ce_bytes}), lost {report.cumulative_lost_packets} "
            f"(prev {state.prev_lost_packets}), seq {report.highest_acked_seq} "
            f"(prev {state.prev_highest_seq})"
        )

    new_acked = report.cumulative_acked_bytes - state.prev_acked_bytes
    new_ce = report.cumulative_ce_marked_bytes - state.prev_ce_bytes
    new_lost = report.cumulative_lost_packets - state.prev_lost_packets

    if new_acked > 0 and report.echo_timestamp > state.prev_echo:
        rtt = now - report.echo_timestamp
        if rtt > 0:
            update_srtt(state, params, rtt)
        _record_owd(state, params, now, report.receiver_timestamp - report.echo_timestamp)

    if new_acked > 0:
        mark_fraction = min(new_ce / new_acked, 1.0)
    else:
        mark_fraction = 1.0 if new_ce > 0 else 0.0

    if new_lost > 0 or mark_fraction > 0.0:
        state.in_slow_start = False
        srtt = state.srtt if state.srtt is not None else 0.0
        if now - state.last_decrease_time >= srtt:
            if new_lost > 0:
                state.w_ref *= 1.0 - params.loss_beta
            else:
                weight = state.est_queue_delay / params.queue_delay_target
                weight = min(max(weight, 0.5), 1.5)
                state.w_ref *= 1.0 - params.ce_beta * weight * mark_fraction
            state.w_ref = max(state.w_ref, params.w_min)
            state.last_decrease_time = now
    elif new_acked > 0 and state.bytes_in_flight >= state.w_ref / 4.0:
        # growth needs the window to be actually used; a near-idle sender
        # inflating w_ref would burst far past the path capacity later
        if state.in_slow_start:
            state.w_ref += new_acked
        else:
            state.w_ref += params.increase_gain * new_acked * params.mss / state.w_ref
        state.w_ref = min(state.w_ref, params.w_max)

    state.prev_acked_bytes = report.cumulative_acked_bytes
    state.prev_ce_bytes = report.cumulative_ce_marked_bytes
    state.prev_lost_packets = report.cumulative_lost_packets
    state.prev_highest_seq = report.highest_acked_seq
    state.prev_echo = max(state.prev_echo, report.echo_timestamp)
    state.r_trg = target_bitrate(state)
    return state
