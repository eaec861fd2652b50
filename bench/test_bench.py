"""Tests of the benchmark's own code.  Run with `python3 -m pytest bench`."""

import json
import os
import re
import sys
import types

import pytest
from multiprocessing.reduction import ForkingPickler

import layers
import run
from tracer import Span, Tracer, self_times

run._load_program()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, 0, None, "root", 0.0, 10.0),
        Span(1, 1, 0, "a", 1.0, 4.0),
        Span(1, 2, 0, "b", 5.0, 9.0),
        Span(1, 3, 2, "c", 6.0, 7.0),
        # same ids in another process are separate spans
        Span(2, 0, None, "root", 0.0, 2.0),
        Span(2, 1, 0, "a", 0.5, 1.0),
    ]
    assert self_times(spans) == {(1, 0): 3.0, (1, 1): 3.0, (1, 2): 3.0, (1, 3): 1.0,
                                 (2, 0): 1.5, (2, 1): 0.5}


def _fake_package():
    """Two modules; `leaf` is defined in one and bound in both."""
    base = types.ModuleType("fakepkg.base")
    exec("def leaf(x):\n    return x + 1\n"
         "def _helper(x):\n    return leaf(x)\n"
         "def outer(x):\n    return _helper(x) * 2\n", base.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.leaf = base.leaf
    user.json_dumps = json.dumps  # defined outside the package: never wrapped
    return base, user


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    base, user = _fake_package()
    originals = dict(vars(base)), dict(vars(user))
    pickler = dict(ForkingPickler.__dict__)
    tracer = Tracer(str(tmp_path), {"base.leaf": (("leaves", lambda r: r),)})
    tracer.install([base, user], private=())
    try:
        assert user.leaf is base.leaf is not originals[0]["leaf"]
        assert base._helper is originals[0]["_helper"]
        assert user.json_dumps is json.dumps
        assert tracer.names == {"base.leaf", "base.outer"}
        assert base.outer(1) == 4 and user.leaf(10) == 11
    finally:
        tracer.uninstall()
    assert (dict(vars(base)), dict(vars(user))) == originals
    assert dict(ForkingPickler.__dict__) == pickler
    spans, counts, _ = tracer.collect()
    outer, inner, alone = sorted(spans, key=lambda s: s.sid)
    assert (outer.name, outer.parent) == ("base.outer", None)
    # the private helper is not traced, so leaf's parent is outer
    assert (inner.name, inner.parent) == ("base.leaf", outer.sid)
    assert (alone.name, alone.parent) == ("base.leaf", None)
    assert counts == {"leaves": 13}


def test_removed_function_reports_absent_metrics():
    spans = [Span(1, 0, None, "cli.main", 0.0, 1.0),
             Span(1, 1, 0, "simulate.uncovered_at", 0.2, 0.5)]
    sample = layers.invocation_values(spans, {}, {}, main_pid=1)
    names = {"cli.main", "simulate.uncovered_at"}
    out = layers.summarize([sample], names)
    assert out["simulate.uncovered_at_s"] == pytest.approx(0.3)
    assert out["cli.self_s"] == pytest.approx(0.7)
    assert "torus.intersect_s" not in out and "simulate.sample_centers_s" not in out
    assert "analyze.cell_p50_s" not in out  # no pool cells ran
    assert out["analyze.cells"] == 0


def test_every_counter_feeds_a_declared_metric():
    counted = {name for name, _, kind, _ in layers.PER_LAYER if kind == "counted"}
    produced = {metric for hooks in layers.COUNTERS.values() for metric, _ in hooks}
    assert counted == produced
    for name, _, kind, source in layers.PER_LAYER:
        assert layers.spans_read(name, kind, source) or kind in (
            "cells", "idle", "p50", "p90", "pool", "run")


def test_p90_needs_ten_cells_beyond_it():
    def sample(n):
        return layers.invocation_values([], {}, {}, main_pid=1)[0], [1.0] * n
    names = {"cli.main"}
    assert "analyze.cell_p90_s" not in layers.summarize([sample(50), sample(49)], names)
    assert layers.summarize([sample(50), sample(50)], names)["analyze.cell_p90_s"] == 1.0


def test_metric_names_and_units_follow_the_alphabet():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    # the benchmark emits exactly the metrics the spec declares, with its units
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


SMALL = {
    "trial": ["trial", "--target", "circle", "--lengths", "logn:0.5",
              "--n-max", "20000", "--seed", "3"],
    "scan": ["scan", "--target", "cantor:0.3333333333:8", "--c", "0.9:1.5:0.3",
             "--trials", "3", "--n-max", "3000", "--jobs", "2"],
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_outputs_are_byte_identical_to_untraced(tmp_path, workload):
    argv = SMALL[workload]
    spool = tmp_path / "spool"
    spool.mkdir()
    plain = run.invoke(argv, str(tmp_path / "plain" / "out"))
    modules = [sys.modules[name] for name in layers.MODULES]
    traced, (values, cells), names = run.traced_call(
        argv, str(tmp_path / "traced" / "out"), modules, str(spool))
    assert plain["code"] == traced["code"] == 0
    assert plain["digests"] and traced["digests"] == plain["digests"]
    assert sys.modules["arccover.cli"].main.__name__ == "main"
    assert not hasattr(sys.modules["arccover.cli"].main, "__wrapped__")
    assert "simulate.uncovered_at" in names
    assert values["simulate.decisions"] > 0
    if workload == "scan":
        # 3 c values x 3 trials, each a pool cell flushed by its worker
        assert values["analyze.cells"] == len(cells) == 9
        assert values["torus.intersect_calls"] == values["simulate.decisions"]
        assert values["analyze.pool_messages"] > 0
    else:
        assert values["analyze.cells"] == 0 and values["torus.intersect_calls"] == 0
    assert not list(spool.iterdir())  # collect consumed the spool


def test_workers_flush_once_per_cell(tmp_path):
    argv = SMALL["scan"] + ["--out", str(tmp_path / "out")]
    modules = [sys.modules[name] for name in layers.MODULES]
    tracer = Tracer(str(tmp_path), layers.COUNTERS)
    tracer.install(modules, layers.PRIVATE)
    try:
        assert sys.modules["arccover.cli"].main(argv) == 0
    finally:
        tracer.uninstall()
    lines = [line for p in tmp_path.glob("worker-*.jsonl") for line in p.read_text().splitlines()]
    assert len(lines) == 9
