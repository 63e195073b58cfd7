"""Byte-identity locks: digests of the codec's payloads and decoded points,
the suite's fitted model, the step run's metrics CSV in adaptive and
baseline mode, and the tiny-MTU run's metrics CSV.

The payload, model and step digests were recorded before the encoder was
split into a geometry and a packing stage; the model and step digests are
also the ones perfbench/data/fixture.json records.  The tiny-MTU digest was
recorded before the event loop stopped pushing duplicate pace wakes; it is
the only lock on the loss path (tail drops, loss cuts, expired partial
scans, lost sequence numbers leaving the in-flight ledger), which the step
run never enters.  The decoded-points digest was recorded while Morton
codes were still three 24-bit limbs, before they became 64-bit words.  The
baseline digest was recorded before the sender stopped keeping an in-flight
ledger without a controller; it is the only lock on the fixed-rate path.  A
change that moves any of them changes behaviour, and must say so.
"""
from __future__ import annotations

import hashlib

import numpy as np
from conftest import CORPUS_SEED, PROFILE, SCAN_HZ

from scanstream.codec import (
    C_MAX,
    C_MIN,
    Q_MAX,
    Q_MIN,
    CompressionConfig,
    decode,
    encode,
    encode_efforts,
    reconstruct,
)
from scanstream.metrics import write_metrics
from scanstream.predictor import save_model
from scanstream.scangen import generate_corpus

PAYLOAD_SHA256 = "e1e25a2cb87a55e1134713061c90beeaafce0edd11785c6c1b2c87e7fdb3ed07"
MODEL_SHA256 = "225fa8fe5fd688c74b60aea4d45946ac14b2868fa769af0c63bfbbe97ee9c247"
STEP_METRICS_SHA256 = "7bc52fa60c8e2d74337b3b5440fc252350979c3d49fc0f1fe87ea8a4689ba67e"
DECODED_SHA256 = "bc9766f93e4e1d9551ce008522b3bc91c45a8574961bfed4844e79262d325402"
TINY_MTU_METRICS_SHA256 = "ccd9bcf4b81514752810aa340436e0360e445efd0ee6ca42bfe60656f9102a82"
BASELINE_METRICS_SHA256 = "a18863d6f6635b7874a9def72ecdf4c7ad2fbaf39754d2af6f8bd2cd610f0ff0"


def payload_digest(units) -> str:
    h = hashlib.sha256()
    for unit in units:
        h.update(f"{unit.q},{unit.c},{len(unit.payload)};".encode())
        h.update(unit.payload)
    return h.hexdigest()


def test_payloads_of_every_config():
    scan = generate_corpus(PROFILE, seed=CORPUS_SEED, n_scans=1, scan_hz=SCAN_HZ)[0]
    efforts = list(range(C_MIN, C_MAX + 1))
    per_config = [
        encode(scan, CompressionConfig(q, c)) for q in range(Q_MIN, Q_MAX + 1) for c in efforts
    ]
    staged = [u for q in range(Q_MIN, Q_MAX + 1) for u in encode_efforts(scan, q, efforts)]
    assert payload_digest(per_config) == PAYLOAD_SHA256
    assert payload_digest(staged) == PAYLOAD_SHA256


def test_decoded_points_of_every_config():
    scan = generate_corpus(PROFILE, seed=CORPUS_SEED, n_scans=1, scan_hz=SCAN_HZ)[0]
    h = hashlib.sha256()
    for q in range(Q_MIN, Q_MAX + 1):
        for c in range(C_MIN, C_MAX + 1):
            decoded = decode(encode(scan, CompressionConfig(q, c)))
            h.update(f"{q},{c},{decoded.n_valid};".encode())
            h.update(decoded.points.tobytes())
    assert h.hexdigest() == DECODED_SHA256


def test_decode_equals_reconstruction():
    # what lets the run and the sweep take each scan's error without decoding
    scan = generate_corpus(PROFILE, seed=CORPUS_SEED, n_scans=1, scan_hz=SCAN_HZ)[0]
    cases = [(q, c, False) for q in range(Q_MIN, Q_MAX + 1) for c in range(C_MIN, C_MAX + 1)]
    cases += [(q, C_MAX, True) for q in (8, 16, 24)]
    for q, c, tight in cases:
        decoded = decode(encode(scan, CompressionConfig(q, c, tight)))
        rebuilt = reconstruct(scan, q, tight)
        assert np.array_equal(decoded.points, rebuilt.points), (q, c, tight)
        assert decoded.n_valid == rebuilt.n_valid


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fitted_model_bytes(model, tmp_path):
    save_model(model, tmp_path / "model.json")
    assert sha256_file(tmp_path / "model.json") == MODEL_SHA256


def test_step_run_metrics_bytes(adaptive_run, tmp_path):
    write_metrics(tmp_path / "step.csv", adaptive_run.rows)
    assert sha256_file(tmp_path / "step.csv") == STEP_METRICS_SHA256


def test_baseline_run_metrics_bytes(baseline_run, tmp_path):
    write_metrics(tmp_path / "baseline.csv", baseline_run.rows)
    assert sha256_file(tmp_path / "baseline.csv") == BASELINE_METRICS_SHA256


def test_tiny_mtu_run_metrics_bytes(tiny_mtu_run, tmp_path):
    s = tiny_mtu_run.summary
    # the digest only locks the loss path while the run takes it
    assert s.packets_tail_dropped > 0 and s.scans_lost_network > 0
    write_metrics(tmp_path / "tiny.csv", tiny_mtu_run.rows)
    assert sha256_file(tmp_path / "tiny.csv") == TINY_MTU_METRICS_SHA256
