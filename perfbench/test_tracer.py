"""Tests for the benchmark's tracer and metric tables.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import sys
import threading
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import torusbayes  # noqa: E402
import torusbayes.operators  # noqa: E402
from torusbayes.experiments import default_config, fit_loglog_slope  # noqa: E402

import metrics  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import loglog_slope  # noqa: E402


def _span(sid, key, start, end, parent=None, tid=1):
    s = tracer.Span(sid, key, start, parent, tid)
    s.end = end
    return s


def test_self_time_nested_single_thread():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 7.0, parent=1),
        _span(3, "b", 2.0, 4.0, parent=2),
        _span(4, "b", 5.0, 6.0, parent=2),
        _span(5, "c", 8.0, 9.5, parent=1),
    ]
    got = tracer.self_times(spans, spans[0])
    want = {1: 10.0 - 6.0 - 1.5, 2: 6.0 - 3.0, 3: 2.0, 4: 1.0, 5: 1.5}
    assert got == pytest.approx(want)
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_two_threads_share_overlap():
    # a (thread 2) and b (thread 3) are children of root; g is nested in a
    spans = [
        _span(1, "root", 0.0, 10.0, tid=1),
        _span(2, "a", 2.0, 6.0, parent=1, tid=2),
        _span(3, "g", 3.0, 5.0, parent=2, tid=2),
        _span(4, "b", 4.0, 8.0, parent=1, tid=3),
    ]
    got = tracer.self_times(spans, spans[0])
    # [2,3] a alone; [3,4] g; [4,5] g and b split; [5,6] a and b split; [6,8] b
    assert got == pytest.approx({1: 4.0, 2: 1.5, 3: 1.5, 4: 3.0})
    # without overlap the result is the plain duration minus child coverage
    spans = [
        _span(1, "root", 0.0, 10.0, tid=1),
        _span(2, "a", 1.0, 3.0, parent=1, tid=2),
        _span(3, "b", 4.0, 9.0, parent=1, tid=3),
    ]
    assert tracer.self_times(spans, spans[0]) == pytest.approx({1: 3.0, 2: 2.0, 3: 5.0})


def test_tracer_records_threads_and_parents():
    tr = tracer.Tracer()
    with tr.span("root") as root:
        parent = tr.current()

        def work():
            with tr.span("task", parent):
                with tr.span("leaf"):
                    time.sleep(0.01)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    tasks = [s for s in tr.spans if s.key == "task"]
    leaves = [s for s in tr.spans if s.key == "leaf"]
    assert len(tasks) == 2 and all(s.parent == root.id for s in tasks)
    assert {s.parent for s in leaves} == {s.id for s in tasks}
    assert len({s.tid for s in tasks}) == 2 and root.tid not in {s.tid for s in tasks}
    assert all(s.end is not None and s.end >= s.start for s in tr.spans)


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name.startswith("torusbayes") or name == "numpy.fft"):
            out.update({(name, k): v for k, v in vars(module).items()})
    return out


def test_instrument_restores_every_binding():
    np.fft.fftn  # noqa: B018 - numpy imports numpy.fft lazily
    before = _bindings()
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.instrument(tr) as missing:
            assert missing == []
            assert torusbayes.map_estimate is not before[("torusbayes", "map_estimate")]
            assert torusbayes.posterior.__wrapped__ is before[("torusbayes", "posterior")]
            assert np.fft.fftn is not before[("numpy.fft", "fftn")]
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_target_drops_the_metrics_it_feeds(monkeypatch):
    monkeypatch.delattr(torusbayes.operators, "densify")
    with tracer.instrument(tracer.Tracer()) as missing:
        assert missing == ["torusbayes.operators.densify"]
    layers = {n: 1.0 for n in metrics.PER_LAYER if n not in
              ("posterior.pcg_iters_spread", "trace.overhead")}
    rec = {"layers": layers, "missing": missing}
    out = worker._layer_summary([rec, rec], [1.0])
    assert set(out) == set(metrics.PER_LAYER) - {"operators.dense_calls", "operators.dense_s"}


def test_every_span_key_feeds_reported_metrics():
    fed = [n for names in metrics.FED_BY.values() for n in names]
    assert len(fed) == len(set(fed)) and set(fed) <= set(metrics.PER_LAYER)
    assert set(tracer.KEY_OF.values()) == set(metrics.FED_BY)


def test_layer_self_times_sum_to_traced_wall():
    cfg = default_config("bayes", n_per_dim=16, deltas=tuple(np.geomspace(1e-1, 1e-3, 5)),
                         n_replicates=8, threads=2)
    tr = tracer.Tracer()
    with tracer.instrument(tr), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        root = tr.open(tracer.ROOT)
        torusbayes.run_experiment(cfg)
        tr.close(root)
        wall = time.perf_counter() - t0
    summary = tracer.summarize(tr.spans, root)
    assert summary["experiments"]["calls"] == 2 + 8  # dispatcher, runner, 8 tasks
    tasks = [s for s in tr.spans if s.key == "experiments" and s.tid != root.tid]
    runner = next(s for s in tr.spans if s.key == "experiments" and s.parent is not None
                  and s.parent != root.id and s.tid == root.tid)
    assert len(tasks) == 8 and all(s.parent == runner.id for s in tasks)
    layers = metrics.layer_metrics(summary, wall, 0.0)
    self_s = [v for k, v in layers.items()
              if k.endswith("_s") and k not in ("process.cpu_s", "trace.wall_s")]
    assert sum(self_s) == pytest.approx(wall, rel=0.01)
    assert sum(self_s) == pytest.approx(root.end - root.start, rel=1e-9)


def test_loglog_slope_matches_library_fit():
    deltas = np.geomspace(1e-1, 1e-3, 7)
    values = 3.0 * deltas**0.8
    values[-2:] = values[-3] * np.array([0.995, 0.99])  # saturation floor
    assert loglog_slope(deltas, values) == pytest.approx(fit_loglog_slope(deltas, values).slope)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    for m in spec["per_layer"]:
        want = "higher" if m["name"] in metrics.HIGHER_IS_BETTER else "lower"
        assert m["better"] == want
