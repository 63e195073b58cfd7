"""Byte-identity locks: digests of the codec's payloads and decoded points,
the suite's fitted model, the step run's metrics CSV in adaptive and
baseline mode, and the tiny-MTU run's metrics CSV.

The payload and model digests were recorded before the encoder was split
into a geometry and a packing stage; the model digest is also the one
perfbench/data/fixture.json records.  The decoded-points digest was
recorded while Morton codes were still three 24-bit limbs, before they
became 64-bit words.  The three run digests (step adaptive, step baseline,
tiny-MTU) were recorded when the sender's pacer became one next-send time
in place of a token bucket under a window budget.  The tiny-MTU digest is
the only lock on the loss path (tail drops, loss cuts, expired partial
scans, lost sequence numbers leaving the in-flight ledger), which the step
run never enters; the baseline digest is the only lock on the fixed-rate
path.  A change that moves any of them changes behaviour, and must say so.
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
    measure,
    reconstruct,
    sweep,
)
from scanstream.metrics import write_metrics
from scanstream.predictor import save_model
from scanstream.scangen import generate_corpus

PAYLOAD_SHA256 = "e1e25a2cb87a55e1134713061c90beeaafce0edd11785c6c1b2c87e7fdb3ed07"
MODEL_SHA256 = "225fa8fe5fd688c74b60aea4d45946ac14b2868fa769af0c63bfbbe97ee9c247"
STEP_METRICS_SHA256 = "87a217795c06bc0eeb28de14b8c25ec72aefba424e43fb77f6598fb1650528dc"
DECODED_SHA256 = "bc9766f93e4e1d9551ce008522b3bc91c45a8574961bfed4844e79262d325402"
TINY_MTU_METRICS_SHA256 = "58dc37290f5959e9443519f048505c0f1cadf25408076a8819f22feef79e4402"
BASELINE_METRICS_SHA256 = "befc3f9c8b38540fc4231d94c22cd3231467be6896e611300de9a99da803610b"


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
    assert payload_digest(per_config) == PAYLOAD_SHA256


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


def test_sweep_equals_encode_and_reconstruct():
    # the calibration table's rates and errors, and each run's measure,
    # config for config
    scan = generate_corpus(PROFILE, seed=CORPUS_SEED, n_scans=1, scan_hz=SCAN_HZ)[0]
    qs = list(range(Q_MIN, Q_MAX + 1))
    cs = list(range(C_MIN, C_MAX + 1))
    for tight in (False, True):
        swept = list(sweep(scan, qs, cs, tight))
        assert [q for q, _, _ in swept] == qs
        for q, sizes, rebuilt in swept:
            sizes_at_q = [len(encode(scan, CompressionConfig(q, c, tight)).payload) for c in cs]
            assert sizes == sizes_at_q, (q, tight)
            ref = reconstruct(scan, q, tight)
            assert np.array_equal(rebuilt.points, ref.points), (q, tight)
            assert (rebuilt.n_valid, rebuilt.scan_id) == (ref.n_valid, ref.scan_id)
            for c, size in zip(cs, sizes_at_q):
                nbytes, measured = measure(scan, CompressionConfig(q, c, tight))
                assert nbytes == size, (q, c, tight)
                assert np.array_equal(measured.points, ref.points), (q, c, tight)
                assert (measured.n_valid, measured.scan_id) == (ref.n_valid, ref.scan_id)


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
