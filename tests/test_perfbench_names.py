"""The names perfbench's outside-in tracer wraps stay bound where it wraps them.

The tracer rebinds `encode`, `decode` and `residual` on `codec` and on
`pipeline` together, and refuses to install when `pipeline.<name>` is not
`codec.<name>`.  A refactor that drops one of these imports from the
pipeline breaks the benchmark, not the suite, unless this test runs.

The tracer also wraps the per-packet methods on their classes and
`on_feedback` on the pipeline, and the benchmark's clock probe hooks
`pipeline.MetricsRow`.  A run that reaches them some other way (a name
bound at import, a call inlined) still works, but reads 0 in the
per-layer metrics; the traced run below catches that.
"""
import os

from conftest import tiny_mtu_scenario

from scanstream import codec, pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_restores_codec_names(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from tracer import Tracer

    originals = {name: getattr(codec, name) for name in layers.CODEC}
    tracer = Tracer()
    try:
        layers.install(tracer)
        for name, fn in originals.items():
            assert getattr(codec, name) is not fn
            assert getattr(pipeline, name) is getattr(codec, name)
    finally:
        tracer.restore()
    for name, fn in originals.items():
        assert getattr(codec, name) is fn
        assert getattr(pipeline, name) is fn


def test_traced_tiny_mtu_run_reaches_every_per_packet_site(monkeypatch, bounds, model):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from tracer import Tracer

    rows = []
    row_type = pipeline.MetricsRow

    def hooked_row(*args, **kwargs):
        rows.append(row_type(*args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(pipeline, "MetricsRow", hooked_row)
    tracer = Tracer()
    try:
        layers.install(tracer)
        result = pipeline.run_scenario(tiny_mtu_scenario(bounds, duration=1.0), model=model)
    finally:
        tracer.restore()
    s = result.summary
    for _, name in layers.TRANSPORT:
        assert tracer.site(f"transport.{name}").calls > 0, name
    assert tracer.site("netem.enqueue").calls == s.packets_sent
    assert tracer.site("transport.receive_packet").calls == s.packets_received
    assert 0 < tracer.site("congestion.on_feedback").calls <= s.feedback_reports
    # one hooked call per metrics row: ticks at 0.0, 0.1, ..., 1.0 s
    assert len(rows) == len(result.rows) == 11
    assert all(a is b for a, b in zip(rows, result.rows))
