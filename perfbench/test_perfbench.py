"""Counts the benchmark's tracer must report at this commit, and the tracer's
own span bookkeeping.

The fixed counts lock in the baseline a later change is measured against:
on x^2 over F_3^6 every spectrum row is computed twice (728 rows for the
profile plus 729 again for the fourth-moment cross-check), and every
`analyze --all` streams the difference table twice.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bootstrap  # noqa: E402

bootstrap.use_checkout_src()

import numpy as np  # noqa: E402
from plateau import DomainParams, FuncTable, component_profile  # noqa: E402
from run import layer_metrics  # noqa: E402
from tracer import Tracer, union_length  # noqa: E402
from workloads import Gate, Runner, full_odd, full_p2, load_pins  # noqa: E402


@pytest.fixture(scope="module")
def per_input_metrics(tmp_path_factory):
    """Per-layer metrics of one traced op on each `analyze --all` input of
    large_p2 (its full_p2 part) and full_odd."""
    gate = Gate(0, load_pins())
    out = {}
    for workload, build in (("full_p2", full_p2), ("full_odd", full_odd)):
        workdir = tmp_path_factory.mktemp(workload)
        for item in build(0, workdir):
            tracer = Tracer()
            runner = Runner([item], gate, workdir)
            tracer.install()
            try:
                runner.one_pass(tracer)
            finally:
                tracer.uninstall()
            assert runner.failed == 0, item.name
            out[workload, item.name] = layer_metrics(tracer, 1)
    return out


def test_odd_spectrum_rows_computed_twice(per_input_metrics):
    m = per_input_metrics["full_odd", "x2_f3_6"]
    assert m["walsh.rows"]["value"] == 1457
    assert m["differential.fourth_moment.walsh_rows"]["value"] == 729


@pytest.mark.parametrize("workload", ["full_p2", "full_odd"])
def test_ddt_streamed_twice(per_input_metrics, workload):
    passes = {name: m["differential.ddt_passes"]["value"]
              for (w, name), m in per_input_metrics.items() if w == workload}
    assert passes and set(passes.values()) == {2.0}, passes


def test_union_length():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == 4.0
    assert union_length([]) == 0.0


def test_worker_spans_take_submitting_span_as_parent():
    rng = np.random.default_rng(0)
    table = FuncTable(DomainParams(2, 10, 10), rng.integers(0, 1 << 10, size=1 << 10))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("root", component_profile, table, threads=2)
    finally:
        tracer.uninstall()
    names = [rec[0] for rec in tracer.spans]
    fan_out = names.index("util.run_ordered")
    items = [i for i, name in enumerate(names) if name == "util.run_ordered.item"]
    assert len(items) == 4
    assert all(tracer.spans[i][1] == fan_out for i in items)
    rows = [rec for rec in tracer.spans if rec[0] == "walsh.row"]
    assert rows and all(rec[1] in items for rec in rows)
    assert tracer.counts["walsh.rows"] == 1023
    dur, own = tracer.totals()
    assert 0 <= own["root"] <= dur["root"]
