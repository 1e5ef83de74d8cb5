"""The benchmark's layer trace (``perfbench/run.py --trace 1``) wraps
library functions by name. A refactor that drops or renames one of those
names breaks only the traced benchmark run; these tests make it fail here.
They check that the spans count the region layer's triples and searches,
and that the codec observers, which read codebook and encoding fields by
name, count codewords and seed-map atoms.
The package exports only names that the library or the benchmark use, its
version is the one pyproject.toml declares, and the README's CLI and Python
examples run."""

import ast
import dataclasses
import importlib.util
import json
import logging
import re
import shlex
import tomllib
from pathlib import Path

import numpy as np
import pytest

import gwrdp
import gwrdp.cli
import gwrdp.codec
import gwrdp.derandom
import gwrdp.prob
import gwrdp.region
import gwrdp.simulate
import gwrdp.solver
from oracles import hamming_tv_problem

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
OWNERS = (gwrdp.cli, gwrdp.codec, gwrdp.derandom, gwrdp.prob, gwrdp.prob.JointPmf,
          gwrdp.region, gwrdp.simulate, gwrdp.solver)


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` as a module, with ``perfbench`` on the path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_install_and_restore(bench):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = bench.layertrace.Tracer()
    try:
        bench.install_layer_spans(tracer)
        assert [dict(vars(owner)) for owner in OWNERS] != before
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before


def test_layer_spans_see_the_region_layer(bench, caplog):
    # region-local's frontier: two scalarized searches, each ending in one
    # triple, the independent corner's triple and the W = X̂ and W = Ŷ
    # anchors' triples, in 10 solver calls: the searches' certified bounds
    # refuse the trials that cannot improve
    import workloads

    caplog.set_level(logging.DEBUG, logger="gwrdp.region")
    problem = hamming_tv_problem(gwrdp.prob.JointPmf(workloads.dsbs(0.1), ("X", "Y")))
    budgets = gwrdp.region.Budgets(**{k.lower(): v for k, v in workloads.REGION_BUDGETS.items()})
    tracer = bench.layertrace.Tracer()
    try:
        bench.install_layer_spans(tracer)
        gwrdp.region.compute_frontier(problem, budgets, strategy="local", samples=0,
                                      restarts=1, w_size=2)
    finally:
        tracer.restore()
    (record,) = [r for r in caplog.records if r.name == "gwrdp.region"]
    triples = record.args[3]
    assert triples == 5
    assert tracer.calls["region.rate_triple_for_aux"] == triples
    assert tracer.calls["region.scalarized_search"] == 2
    assert tracer.calls["solver.conditional_rdp"] == record.args[5] == 10


def test_layer_spans_see_the_codec_layers(bench):
    # the codec observers read Codebook and EncodeResult fields by name, and
    # the spans wrap the encoders and decoders that simulate and derandom call
    p_xy = gwrdp.prob.JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
    aux = gwrdp.region.AuxChannel.independent(2, 2)
    tc = gwrdp.prob.Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
    config = gwrdp.simulate.SimConfig(
        p_xy=p_xy, aux=aux, test_channel_x=tc, test_channel_y=tc, n=8, delta=0.3,
        trials=20, master_seed=1, budgets=gwrdp.region.Budgets(0.3, 0.3, 0.5, 0.5))
    q_xyw = p_xy.extend(aux.kernel, "W")
    sizes = gwrdp.codec.compute_code_sizes(q_xyw, tc, tc, 8, 0.3)
    ham = np.array([[0.0, 1.0], [1.0, 0.0]])
    xs = np.array([0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1])
    ys = np.array([0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1])
    tracer = bench.layertrace.Tracer()
    try:
        bench.install_layer_spans(tracer)
        for mode in gwrdp.simulate.MODES:
            gwrdp.simulate.run_simulation(dataclasses.replace(config, mode=mode))
        cb = gwrdp.simulate.generate_codebook(q_xyw, tc, tc, (ham, ham), sizes, 0.3, 8, 1)
        seed_map = gwrdp.simulate.build_seed_map(p_xy, 3, 8)
        gwrdp.simulate.encode(cb, xs[:8], ys[:8], 2)
        gwrdp.simulate.deterministic_encode(cb, seed_map, xs, ys)
    finally:
        tracer.restore()
    for count in ("codec.codewords", "codec.codewords_needed", "derandom.atoms"):
        assert tracer.counts[count] > 0, count
    for call in ("codec.generate_codebook", "codec.decode", "codec.encode",
                 "derandom.deterministic_encode", "derandom.deterministic_decode"):
        assert tracer.calls[call] > 0, call


def test_every_export_has_a_caller():
    # a name counts as used where it is read as a name or an attribute, or
    # looked up by its name as a string (as the layer trace does)
    sources = [p for p in (ROOT / "src" / "gwrdp").glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in sources + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert sorted(set(gwrdp.__all__) - used) == []


def test_version_matches_pyproject():
    # run manifests record gwrdp.__version__; the package metadata reads pyproject
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == gwrdp.__version__


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # each bash block's heredoc configs are written, then its gwrdp
    # commands run in this process, in order
    monkeypatch.chdir(tmp_path)
    ran = []
    for block in re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for name, body in re.findall(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block, re.S):
            (tmp_path / name).write_text(body)
        for line in block.splitlines():
            if line.startswith("gwrdp "):
                argv = shlex.split(line)[1:] + ["--parallel", "1"]
                assert gwrdp.cli.main(argv) == 0, line
                ran.append(argv[0])
                if argv[0] == "simulate":
                    out = Path(argv[argv.index("--out-dir") + 1])
                    report = json.loads((out / "sim_report.json").read_text())
                    assert report["joint_set_empty"] is False
    assert ran == ["rdp", "region", "simulate", "derand-audit"]


def test_readme_python_examples_run(tmp_path, monkeypatch):
    # each python block runs in a fresh namespace, in order
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
