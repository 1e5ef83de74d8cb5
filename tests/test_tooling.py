"""The benchmark's layer trace (``perfbench/run.py --trace 1``) wraps
library functions by name. A refactor that drops or renames one of those
names breaks only the traced benchmark run; this test makes it fail here."""

import importlib.util
from pathlib import Path

import gwrdp.cli
import gwrdp.codec
import gwrdp.derandom
import gwrdp.prob
import gwrdp.region
import gwrdp.simulate
import gwrdp.solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (gwrdp.cli, gwrdp.codec, gwrdp.derandom, gwrdp.prob, gwrdp.prob.JointPmf,
          gwrdp.region, gwrdp.simulate, gwrdp.solver)


def test_layer_spans_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = bench.layertrace.Tracer()
    try:
        bench.install_layer_spans(tracer)
        assert [dict(vars(owner)) for owner in OWNERS] != before
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before
