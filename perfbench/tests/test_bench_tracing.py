"""Span bookkeeping and call-site wrapping of the traced run.

Run with:  python3 -m pytest perfbench/tests
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import tracing  # noqa: E402


def _busy(n=2000):
    return sum(i * i for i in range(n))


def test_self_times_add_up_for_a_nested_span_tree():
    tracer = tracing.Tracer()

    def leaf():
        return _busy()

    leaf = tracer.wrap(leaf, "leaf")

    def middle():
        _busy()
        leaf()
        return leaf()

    middle = tracer.wrap(middle, "middle")

    def top():
        middle()
        _busy()
        return leaf()

    top = tracer.wrap(top, "top")
    tracer.run_op(0, top)
    tracer.run_op(1, middle)

    own = tracing.self_times(tracer)
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert len(roots) == 2
    assert sum(own) == sum(durations[i] for i in roots)
    assert all(t >= 0 for t in own)
    for i, name_id in enumerate(tracer.name):
        if tracer.names[name_id] == "leaf":
            assert own[i] == durations[i]
    assert list(tracer.op) == [0] * 6 + [1] * 4

    totals = tracing.layer_totals(tracer)
    assert totals["leaf"]["calls"] == 5 and totals["middle"]["calls"] == 2
    assert sum(row["self_ns"] for row in totals.values()) == sum(durations[i] for i in roots)


def test_spans_close_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    boom = tracer.wrap(boom, "boom")
    try:
        tracer.run_op(0, boom)
    except ValueError:
        pass
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert tracer.begin(tracer.name_id("after")) == 2 and tracer.parent[2] == -1


def test_install_patches_call_sites_and_reports_absent_ones():
    module = types.ModuleType("fake_program")

    def func(x):
        return x + 1

    class Thing:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls()

    module.func = func
    module.Thing = Thing
    module.TABLE = {"a": func}
    sys.modules["fake_program"] = module
    try:
        sites = (
            ("fake_program", "func", "layer.func", None),
            ("fake_program", "Thing.method", "layer.method", None),
            ("fake_program", "Thing.build", "layer.build", None),
            ("fake_program", "TABLE[*]", "layer.table", None),
            ("fake_program", "gone", "layer.gone", None),
            ("fake_program", "Missing.method", "layer.gone", None),
            ("no_such_module_here", "f", "layer.gone", None),
        )
        tracer = tracing.Tracer()
        report, restore = tracing.install(tracer, sites)
        status = dict(report)
        assert status["fake_program.func"] == "wrapped"
        assert status["fake_program.gone"] == "absent"
        assert status["fake_program.Missing.method"] == "absent"
        assert status["no_such_module_here.f"] == "absent"
        assert module.func(1) == 2 and module.Thing().method() == "m"
        assert isinstance(module.Thing.build(), Thing) and module.TABLE["a"](2) == 3
        names = [tracer.names[i] for i in tracer.name]
        assert names == ["layer.func", "layer.method", "layer.build", "layer.table"]
        restore()
        assert module.func is func and module.TABLE["a"] is func
        assert "method" in Thing.__dict__ and Thing.__dict__["method"].__name__ == "method"
        module.Thing.build()
        assert len(tracer.name) == 4
    finally:
        del sys.modules["fake_program"]


def test_selfchecks_count_only_under_a_public_decompose_call():
    tracer = tracing.Tracer()
    check = tracer.wrap(lambda: None, "matrix.verify_certificate")

    def field():
        check()
        return check()

    field = tracer.wrap(field, "decompose.field")
    outer = tracer.wrap(lambda: (field(), check()), "cli.decompose")
    tracer.run_op(0, outer)
    tracer.run_op(1, check)  # a verify call outside decompose is not a self-check
    metrics = tracing.layer_metrics(tracer, 2)
    assert metrics["decompose.selfchecks_per_op"] == 3 / 2
    assert metrics["matrix.verify_certificate.calls_per_op"] == 4 / 2
