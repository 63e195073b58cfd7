"""Byte-identity locks: digests of the codec's payloads, the suite's fitted
model, the step run's metrics CSV and the tiny-MTU run's metrics CSV.

The first three digests were recorded before the encoder was split into a
geometry and a packing stage; the model and step digests are also the ones
perfbench/data/fixture.json records.  The tiny-MTU digest was recorded
before the event loop stopped pushing duplicate pace wakes; it is the only
lock on the loss path (tail drops, loss cuts, expired partial scans, lost
sequence numbers leaving the in-flight ledger), which the step run never
enters.  A change that moves any of them changes behaviour, and must say so.
"""
from __future__ import annotations

import hashlib

from conftest import CORPUS_SEED, PROFILE, SCAN_HZ

from scanstream.codec import C_MAX, C_MIN, Q_MAX, Q_MIN, CompressionConfig, encode, encode_efforts
from scanstream.metrics import write_metrics
from scanstream.predictor import save_model
from scanstream.scangen import generate_corpus

PAYLOAD_SHA256 = "e1e25a2cb87a55e1134713061c90beeaafce0edd11785c6c1b2c87e7fdb3ed07"
MODEL_SHA256 = "225fa8fe5fd688c74b60aea4d45946ac14b2868fa769af0c63bfbbe97ee9c247"
STEP_METRICS_SHA256 = "7bc52fa60c8e2d74337b3b5440fc252350979c3d49fc0f1fe87ea8a4689ba67e"
TINY_MTU_METRICS_SHA256 = "ccd9bcf4b81514752810aa340436e0360e445efd0ee6ca42bfe60656f9102a82"


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


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fitted_model_bytes(model, tmp_path):
    save_model(model, tmp_path / "model.json")
    assert sha256_file(tmp_path / "model.json") == MODEL_SHA256


def test_step_run_metrics_bytes(adaptive_run, tmp_path):
    write_metrics(tmp_path / "step.csv", adaptive_run.rows)
    assert sha256_file(tmp_path / "step.csv") == STEP_METRICS_SHA256


def test_tiny_mtu_run_metrics_bytes(tiny_mtu_run, tmp_path):
    s = tiny_mtu_run.summary
    # the digest only locks the loss path while the run takes it
    assert s.packets_tail_dropped > 0 and s.scans_lost_network > 0
    write_metrics(tmp_path / "tiny.csv", tiny_mtu_run.rows)
    assert sha256_file(tmp_path / "tiny.csv") == TINY_MTU_METRICS_SHA256
