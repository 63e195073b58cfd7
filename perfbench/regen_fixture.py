"""Regenerate the run workloads' rate model and bounds (perfbench/data/).

    python3 perfbench/regen_fixture.py

Runs the test suite's calibration (16x448 scans, 60 of them, corpus seed
1234, all 170 configs), fits the rate model, derives the rate bounds at
epsilon = 0.05 and r_max = 10 Mbps, and writes data/model.json plus
data/fixture.json with the bounds, the model's SHA-256 and the metrics-CSV
SHA-256 of the suite's step scenario (scene seed 7, 240 s) run on this
model.  Takes about a minute; the run workloads then skip a 45 s
calibration in their set-up.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from scanstream import pipeline, predictor, residual_opt  # noqa: E402
from scanstream.scangen import generate_corpus  # noqa: E402
from scanstream.scenario import load_scenario  # noqa: E402

import workloads as wl  # noqa: E402

CORPUS_SEED = 1234
CORPUS_SCANS = 60
SUITE_SCENE_SEED = 7


def main() -> int:
    corpus = generate_corpus(wl.PROFILE, CORPUS_SEED, CORPUS_SCANS, wl.SCAN_HZ)
    table, samples = residual_opt.calibrate_detailed(corpus, scan_hz=wl.SCAN_HZ)
    model = predictor.fit(samples, wl.SCAN_HZ)
    bounds = residual_opt.min_rate(table, wl.EPSILON, wl.R_MAX_BPS, "mean_ptp")
    os.makedirs(os.path.dirname(wl.MODEL_PATH), exist_ok=True)
    predictor.save_model(model, wl.MODEL_PATH)
    fixture = {
        "command": "python3 perfbench/regen_fixture.py",
        "corpus": {"rings": wl.PROFILE.rings, "azimuth_steps": wl.PROFILE.azimuth_steps,
                   "scans": CORPUS_SCANS, "seed": CORPUS_SEED, "corpus_id": table.corpus_id},
        "bounds": {"r_min_bps": bounds.r_min_bps, "r_max_bps": bounds.r_max_bps,
                   "floor_q": bounds.floor.min_q, "epsilon": bounds.epsilon},
        "model_sha256": wl.sha256_file(wl.MODEL_PATH),
    }
    # written now because the step scenario below reads its bounds from it
    with open(wl.FIXTURE_PATH, "w") as fh:
        json.dump(fixture, fh, indent=2)
        fh.write("\n")

    out_dir = os.path.join(os.path.dirname(wl.HERE), ".perfbench_out", "regen")
    os.makedirs(out_dir, exist_ok=True)
    step = wl.make("step-adaptive")
    yaml_path = os.path.join(out_dir, "step.yaml")
    with open(yaml_path, "w") as fh:
        fh.write(step.scenario_text(SUITE_SCENE_SEED))
    csv_path = os.path.join(out_dir, "step-metrics.csv")
    pipeline.run_scenario(load_scenario(yaml_path), model=model, metrics_path=csv_path)
    fixture["suite_step_seed"] = SUITE_SCENE_SEED
    fixture["suite_step_metrics_sha256"] = wl.sha256_file(csv_path)
    with open(wl.FIXTURE_PATH, "w") as fh:
        json.dump(fixture, fh, indent=2)
        fh.write("\n")
    print(json.dumps(fixture, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
