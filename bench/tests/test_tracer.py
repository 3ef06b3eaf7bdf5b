import liftedilc
import liftedilc.engine
import liftedilc.switching
import pytest

from tracer import END, NAME, OP, PARENT, START, TAG, Tracer, layer_totals, op_shares, self_times


def span(name, start, end, parent=None, op="a", tag=None):
    s = [None] * 6
    s[NAME], s[OP], s[START], s[END], s[PARENT], s[TAG] = name, op, start, end, parent, tag
    return s


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 4.0, parent=0),
        span("child", 3.0, 6.0, parent=0),   # overlaps the first child
        span("grandchild", 2.0, 3.0, parent=1),
        span("leaf", 8.0, 12.0, parent=0),   # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_totals_and_shares():
    spans = [
        span("root", 0.0, 4.0),
        span("gain", 1.0, 3.0, parent=0, tag="cold"),
        span("root", 5.0, 6.0, op="b"),
    ]
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)
    assert totals["root"]["calls"] == 2
    assert totals["root"]["self_ms"] == pytest.approx(3000.0)
    assert totals["gain"]["cold_ms"] == pytest.approx(2000.0)
    assert op_shares(spans, selfs, ("gain",)) == pytest.approx({"a": 0.5, "b": 0.0})


def test_tracer_wraps_every_binding_and_restores_them():
    original = liftedilc.engine.fast_forward
    tracer = Tracer(names=("engine.fast_forward", "engine.no_such_function"))
    tracer.install()
    try:
        assert tracer.absent == ["engine.no_such_function"]
        for module in (liftedilc, liftedilc.engine, liftedilc.switching):
            assert module.fast_forward is not original
            assert module.fast_forward.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (liftedilc, liftedilc.engine, liftedilc.switching):
        assert module.fast_forward is original
