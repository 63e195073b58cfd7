import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanstream.congestion import (
    ControlParams,
    FeedbackProtocolError,
    FeedbackReport,
    can_send,
    init_state,
    on_feedback,
    target_bitrate,
    update_srtt,
)

PARAMS = ControlParams()


def fresh(r_min=3.0e6, r_max=10.0e6):
    return init_state(PARAMS, r_min, r_max)


def report(**kw):
    base = dict(
        highest_acked_seq=0,
        cumulative_acked_bytes=0,
        cumulative_ce_marked_bytes=0,
        cumulative_lost_packets=0,
        receiver_timestamp=0.0,
        echo_timestamp=0.0,
    )
    base.update(kw)
    return FeedbackReport(**base)


# ---------------------------------------------------------- target bitrate


def test_target_bitrate_reference_point_is_exact():
    state = fresh(r_min=3.0e6, r_max=100.0e6)
    state.w_ref = 62500.0
    state.srtt = 0.05
    assert target_bitrate(state) == 10.0e6  # 8 * 62500 / 0.05, float-exact


def test_target_bitrate_clamps_both_ends():
    state = fresh(r_min=3.0e6, r_max=10.0e6)
    state.srtt = 0.05
    state.w_ref = 1.0  # raw 160 bps
    assert target_bitrate(state) == 3.0e6
    state.w_ref = 1e9  # raw far above the cap
    assert target_bitrate(state) == 10.0e6


def test_target_bitrate_pins_floor_before_first_rtt():
    state = fresh()
    assert state.srtt is None
    assert target_bitrate(state) == state.r_min


# ------------------------------------------------------------------- srtt


def test_srtt_first_sample_initializes_then_ewma():
    state = fresh()
    update_srtt(state, PARAMS, 0.080)
    assert state.srtt == 0.080
    update_srtt(state, PARAMS, 0.040)
    assert state.srtt == pytest.approx(0.9 * 0.080 + 0.1 * 0.040)
    with pytest.raises(ValueError):
        update_srtt(state, PARAMS, 0.0)


# ---------------------------------------------------------------- can_send


def test_can_send_gate_opens_during_frame():
    state = fresh()
    state.w_ref = 10000.0
    state.bytes_in_flight = 10000
    assert not can_send(state, PARAMS, 1200, current_frame_bytes=0)
    assert can_send(state, PARAMS, 1200, current_frame_bytes=600)
    state.bytes_in_flight = int(PARAMS.overshoot_factor * 10000)
    assert not can_send(state, PARAMS, 1200, current_frame_bytes=600)


# -------------------------------------------------------------- on_feedback


def test_on_feedback_leaves_bytes_in_flight_alone():
    # the sender settles the report's seqs (reconcile_inflight) before the
    # controller sees it; on_feedback must not take the acked bytes off again
    state = fresh()
    state.bytes_in_flight = 5000
    on_feedback(state, PARAMS, report(highest_acked_seq=2, cumulative_acked_bytes=2400,
                                      echo_timestamp=0.01, receiver_timestamp=0.03), now=0.05)
    assert state.bytes_in_flight == 5000
    assert state.srtt == pytest.approx(0.04)


def test_counter_regression_rejected():
    state = fresh()
    on_feedback(state, PARAMS, report(highest_acked_seq=4, cumulative_acked_bytes=4000,
                                      echo_timestamp=0.01), now=0.05)
    with pytest.raises(FeedbackProtocolError):
        on_feedback(state, PARAMS, report(highest_acked_seq=3, cumulative_acked_bytes=3000),
                    now=0.06)


def test_duplicate_report_is_noop():
    state = fresh()
    rep = report(highest_acked_seq=2, cumulative_acked_bytes=2400, echo_timestamp=0.01)
    on_feedback(state, PARAMS, rep, now=0.05)
    w = state.w_ref
    bif = state.bytes_in_flight
    on_feedback(state, PARAMS, rep, now=0.06)
    assert state.w_ref == w and state.bytes_in_flight == bif


def test_slow_start_grows_by_acked_bytes():
    state = fresh()
    state.bytes_in_flight = 8000  # stays above w_ref/4 after the ack
    w0 = state.w_ref
    on_feedback(state, PARAMS, report(highest_acked_seq=3, cumulative_acked_bytes=3600,
                                      echo_timestamp=0.01, receiver_timestamp=0.02), now=0.05)
    assert state.in_slow_start
    assert state.w_ref == w0 + 3600


def test_no_growth_when_window_unused():
    # BIF far below w_ref/4: an idle sender must not inflate the window
    state = fresh()
    state.w_ref = 100000.0
    state.bytes_in_flight = 2000
    on_feedback(state, PARAMS, report(highest_acked_seq=1, cumulative_acked_bytes=1200,
                                      echo_timestamp=0.01), now=0.05)
    assert state.w_ref == 100000.0


def test_loss_halves_window_once_per_srtt():
    # echoes track `now` closely so srtt stays near 50 ms across reports
    state = fresh()
    state.w_ref = 40000.0
    state.srtt = 0.05
    on_feedback(state, PARAMS, report(highest_acked_seq=5, cumulative_acked_bytes=6000,
                                      cumulative_lost_packets=1, echo_timestamp=0.96), now=1.0)
    assert state.w_ref == 20000.0
    assert not state.in_slow_start
    # second loss inside the same srtt window must not cut again
    on_feedback(state, PARAMS, report(highest_acked_seq=6, cumulative_acked_bytes=7200,
                                      cumulative_lost_packets=2, echo_timestamp=0.99), now=1.02)
    assert state.w_ref == 20000.0
    # ... but after an srtt has passed it does
    on_feedback(state, PARAMS, report(highest_acked_seq=7, cumulative_acked_bytes=8400,
                                      cumulative_lost_packets=3, echo_timestamp=1.04), now=1.08)
    assert state.w_ref == 10000.0


def test_ce_cut_scales_with_mark_fraction_and_delay():
    state = fresh()
    state.w_ref = 40000.0
    state.srtt = 0.05
    state.est_queue_delay = PARAMS.queue_delay_target  # weight exactly 1
    rep = report(highest_acked_seq=4, cumulative_acked_bytes=4800,
                 cumulative_ce_marked_bytes=2400, echo_timestamp=0.0)
    # echo does not advance past prev_echo, so no new delay sample lands and
    # the preset estimate drives the weight: cut = ce_beta * 1.0 * 0.5
    on_feedback(state, PARAMS, rep, now=1.0)
    assert state.w_ref == pytest.approx(40000.0 * (1.0 - PARAMS.ce_beta * 1.0 * 0.5))


def test_window_stays_inside_configured_bounds():
    state = fresh()
    state.w_ref = PARAMS.w_min
    state.srtt = 0.05
    on_feedback(state, PARAMS, report(highest_acked_seq=3, cumulative_acked_bytes=3600,
                                      cumulative_lost_packets=1, echo_timestamp=0.01), now=1.0)
    assert state.w_ref == PARAMS.w_min
    state2 = fresh()
    state2.w_ref = PARAMS.w_max
    state2.bytes_in_flight = int(PARAMS.w_max)
    on_feedback(state2, PARAMS, report(highest_acked_seq=9, cumulative_acked_bytes=120000,
                                       echo_timestamp=0.01, receiver_timestamp=0.03), now=0.05)
    assert state2.w_ref == PARAMS.w_max


def test_r_trg_tracks_window_after_feedback():
    state = fresh()
    state.bytes_in_flight = 60000
    on_feedback(state, PARAMS, report(highest_acked_seq=10, cumulative_acked_bytes=50000,
                                      echo_timestamp=0.02, receiver_timestamp=0.04), now=0.06)
    assert state.r_trg == target_bitrate(state)
    assert state.r_min <= state.r_trg <= state.r_max


# ------------------------------------------------------------- invariants


@given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 2)),
                min_size=1, max_size=60))
def test_state_invariants_under_random_feedback(steps):
    params = ControlParams()
    state = init_state(params, 3.0e6, 10.0e6)
    acked = ce = lost = 0
    seq = 0
    now = 0.0
    for extra_ack, extra_ce, extra_lost in steps:
        now += 0.01
        acked += extra_ack
        ce += min(extra_ce, extra_ack)  # marked bytes are a subset of acked
        lost += extra_lost
        seq += 1 if extra_ack else 0
        state.bytes_in_flight += extra_ack  # pretend the bytes were sent
        on_feedback(state, params, report(
            highest_acked_seq=seq,
            cumulative_acked_bytes=acked,
            cumulative_ce_marked_bytes=ce,
            cumulative_lost_packets=lost,
            receiver_timestamp=now - 0.01,
            echo_timestamp=now - 0.02,
        ), now=now)
        assert params.w_min <= state.w_ref <= params.w_max
        assert state.bytes_in_flight >= 0
        assert state.r_min <= state.r_trg <= state.r_max
        assert state.est_queue_delay >= 0.0
        if state.srtt is not None:
            assert state.srtt > 0


def test_params_validation():
    with pytest.raises(ValueError):
        ControlParams(overshoot_factor=0.5).validate()
    with pytest.raises(ValueError):
        ControlParams(loss_beta=1.0).validate()
    with pytest.raises(ValueError):
        ControlParams(w_min=0.0).validate()
    with pytest.raises(ValueError):
        ControlParams(owd_window=-1.0).validate()
    with pytest.raises(ValueError):
        init_state(PARAMS, 10e6, 3e6)
