"""The names perfbench's outside-in tracer wraps stay bound where it wraps them.

The tracer rebinds `encode`, `decode` and `residual` on `codec` and on
`pipeline` together, and refuses to install when `pipeline.<name>` is not
`codec.<name>`.  A refactor that drops one of these imports from the
pipeline breaks the benchmark, not the suite, unless this test runs.
"""
import os

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
