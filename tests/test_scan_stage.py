"""The run's scan stage: generate and measure in one Workspace the run owns."""

import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanstream
from scanstream.codec import (
    C_MAX,
    C_MIN,
    Q_MAX,
    Q_MIN,
    CompressionConfig,
    OutOfRangeError,
    Workspace,
    measure,
)
from scanstream.scangen import ScanGenerator, SensorProfile

SIZES = [(4, 64), (16, 448)]


@settings(max_examples=30)
@given(
    size=st.sampled_from(SIZES),
    noise_sigma=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**16),
    scans=st.lists(
        st.tuples(st.integers(0, 900), st.integers(Q_MIN, Q_MAX), st.integers(C_MIN, C_MAX),
                  st.booleans()),
        min_size=2, max_size=6,
    ),
    out_of_box=st.integers(0, 5),
)
def test_one_workspace_reused_scan_after_scan_matches_fresh_arrays(
    size, noise_sigma, seed, scans, out_of_box
):
    profile = SensorProfile(rings=size[0], azimuth_steps=size[1], noise_sigma=noise_sigma)
    gen = ScanGenerator(profile, seed)
    work = Workspace(profile.n_points)
    out_of_box %= len(scans)
    for k, (tick, q, c, tight) in enumerate(scans):
        scan = gen.generate(tick / 10.0, scan_id=k, out=work)
        fresh = gen.generate(tick / 10.0, scan_id=k)
        assert scan.points is work.points
        assert scan.points.tobytes() == fresh.points.tobytes()
        assert (scan.scan_id, scan.timestamp) == (fresh.scan_id, fresh.timestamp)
        if k == out_of_box:
            # a point past the default box fails this scan, and only this one
            work.points[k % profile.n_points] = 60.0
            with pytest.raises(OutOfRangeError):
                measure(scan, CompressionConfig(q, c), work=work)
            continue
        config = CompressionConfig(q, c, tight)
        nbytes, mean_ptp = measure(scan, config, work=work)
        assert scan.points.tobytes() == fresh.points.tobytes()  # measure leaves the scan as it was
        assert (nbytes, mean_ptp) == measure(fresh, config)


def test_a_workspace_sized_for_another_point_count_is_rejected():
    profile = SensorProfile(rings=4, azimuth_steps=64)
    gen = ScanGenerator(profile, 3)
    scan = gen.generate(0.0, scan_id=0)
    for n in (profile.n_points - 1, profile.n_points + 1):
        with pytest.raises(ValueError, match="workspace sized for"):
            gen.generate(0.0, scan_id=0, out=Workspace(n))
        with pytest.raises(ValueError, match="workspace sized for"):
            measure(scan, CompressionConfig(12, 0), work=Workspace(n))


def traced_peak(call) -> int:
    """Bytes allocated at the peak of call(), above what was live before it."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


@pytest.mark.parametrize("c", [C_MIN, C_MAX])
@pytest.mark.parametrize("q", [10, 16, 24])
def test_scan_stage_in_the_runs_buffers_allocates_little(q, c):
    # a 16x448 scan's (n, 3) points alone are 168 KiB; each scan used to
    # take about 450 KiB in generate and 700-900 KiB in measure
    profile = SensorProfile(rings=16, azimuth_steps=448)
    gen = ScanGenerator(profile, 7)
    work = Workspace(profile.n_points)
    config = CompressionConfig(q, c)
    measure(gen.generate(0.0, scan_id=0, out=work), config, work=work)  # numpy's first-call caches
    peak = traced_peak(lambda: measure(gen.generate(0.1, scan_id=1, out=work), config, work=work))
    assert peak < 128 * 2**10


@pytest.mark.parametrize("q", [10, 16, 24])
def test_block_widths_allocate_no_more_than_one_global_width(q):
    # block widths come from each block's largest delta: one bit length per
    # delta was 84 KiB at 16x448
    profile = SensorProfile(rings=16, azimuth_steps=448)
    scan = ScanGenerator(profile, 7).generate(0.0, scan_id=0)
    work = Workspace(profile.n_points)
    peaks = []
    for c in (C_MIN, C_MAX):
        config = CompressionConfig(q, c)
        measure(scan, config, work=work)  # numpy's first-call caches
        peaks.append(traced_peak(lambda: measure(scan, config, work=work)))
    assert abs(peaks[1] - peaks[0]) <= 4 * 2**10, peaks


FAULTS_PER_SCAN = """
import dataclasses, resource, sys
from scanstream.pipeline import run_scenario
from scanstream.scenario import load_scenario
scenario = dataclasses.replace(load_scenario(sys.argv[1]), duration=20.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
summary = run_scenario(scenario).summary
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / summary.scans_generated)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
def test_a_fresh_process_run_faults_few_pages_per_scan(step_scenario_path):
    # glibc hands back the pages of a scan's freed temporaries, so a run
    # whose every scan allocated them faulted about 140 pages per scan
    src = os.path.dirname(os.path.dirname(os.path.abspath(scanstream.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_SCAN, str(step_scenario_path)],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    assert float(out.stdout) < 10
