"""Self time, outermost totals and install/restore of the span tracer."""

import sys
import types

import pytest

from bench import tracer as tracer_mod
from bench.tracer import Target, Tracer


@pytest.fixture
def fake_clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracer_mod, "clock", lambda: now[0])

    def advance(dt):
        now[0] += dt

    return advance


def test_self_time_excludes_nested_children(fake_clock):
    t = Tracer()

    def inner():
        fake_clock(3)

    inner_w = t.wrap("inner", inner)

    def outer():
        fake_clock(1)
        inner_w()
        fake_clock(2)
        inner_w()

    t.wrap("outer", outer)()
    assert t.stats["outer"] == [1, 3.0, 9.0]
    assert t.stats["inner"] == [2, 6.0, 6.0]
    assert t.root_s == 9.0
    ids = {s[0]: s for s in t.spans}
    outer_id = next(s[0] for s in t.spans if s[3] == "outer")
    assert all(s[1] == outer_id for s in t.spans if s[3] == "inner")
    assert ids[outer_id][1] is None


def test_recursive_total_counts_outermost_span_only(fake_clock):
    t = Tracer()

    def rec(k):
        fake_clock(1)
        if k:
            wrapped(k - 1)

    wrapped = t.wrap("rec", rec)
    wrapped(2)
    calls, self_s, total_s = t.stats["rec"]
    assert calls == 3
    assert self_s == 3.0
    assert total_s == 3.0  # not 3 + 2 + 1
    assert t.root_s == 3.0


def test_hook_time_is_kept_out_of_the_parent(fake_clock):
    t = Tracer()

    def hook(tr, args, kwargs, result, parent):
        fake_clock(5)
        tr.count("seen", result)

    child = t.wrap("child", lambda: 7, hook)

    def parent():
        fake_clock(1)
        child()

    t.wrap("parent", parent)()
    assert t.counters == {"seen": 7}
    assert t.stats["parent"][1] == 1.0
    assert t.hook_s == 5.0


@pytest.fixture
def fake_package(monkeypatch):
    base = types.ModuleType("fakepkg")

    def f():
        return "f"

    class K:
        def m(self):
            return "m"

        @classmethod
        def c(cls):
            return "c"

    base.f, base.K = f, K
    user = types.ModuleType("fakepkg.user")
    user.f = f
    user.alias = f
    other = types.ModuleType("elsewhere")
    other.f = f
    for mod in (base, user, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return base, user, other


def test_install_rebinds_every_import_and_restore_puts_originals_back(fake_package):
    base, user, other = fake_package
    f, m, c = base.f, base.K.__dict__["m"], base.K.__dict__["c"]
    t = Tracer()
    t.install(
        [
            Target("x.f", "fakepkg", "f"),
            Target("x.m", "fakepkg", "K.m"),
            Target("x.c", "fakepkg", "K.c"),
            Target("x.gone", "fakepkg", "removed"),
            Target("x.nomodule", "fakepkg.nothere", "g"),
        ],
        packages=("fakepkg",),
    )
    assert base.f is not f and user.f is base.f and user.alias is base.f
    assert other.f is f  # outside the traced package
    assert (base.f(), user.alias(), base.K().m(), base.K.c()) == ("f", "f", "m", "c")
    assert t.stats["x.f"][0] == 2 and t.stats["x.m"][0] == 1 and t.stats["x.c"][0] == 1
    assert t.missing == ["x.gone", "x.nomodule"]
    t.restore()
    assert base.f is f and user.f is f and user.alias is f
    assert base.K.__dict__["m"] is m and base.K.__dict__["c"] is c


def test_burnside_layers_install_and_restore():
    pytest.importorskip("burnside")
    import burnside
    from burnside import cli, engine, schur

    from bench import layers

    before = {
        (mod.__name__, name): value
        for mod in (burnside, cli, engine, schur)
        for name, value in vars(mod).items()
        if callable(value)
    }
    build = engine.GSet.__dict__["from_point_action"]
    t = Tracer()
    t.install(layers.TARGETS)
    try:
        assert t.missing == []
        assert cli.group_closure is engine.group_closure is not before[("burnside.engine", "group_closure")]
        assert schur.enumerate_partitions is not before[("burnside.schur", "enumerate_partitions")]
        assert schur.sigma(3, 2) == burnside.sigma(3, 2)
        assert t.stats["schur.sigma"][0] == 2
    finally:
        t.restore()
    after = {
        (mod.__name__, name): value
        for mod in (burnside, cli, engine, schur)
        for name, value in vars(mod).items()
        if callable(value)
    }
    assert after == before
    assert engine.GSet.__dict__["from_point_action"] is build
