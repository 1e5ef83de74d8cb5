"""The benchmark's layer trace (``perfbench/run.py --trace 1``) wraps
library functions by name. A refactor that drops or renames one of those
names breaks only the traced benchmark run; this test makes it fail here.
The package exports only names that the library or the benchmark use, and
the README's CLI examples run."""

import ast
import importlib.util
import json
import re
import shlex
from pathlib import Path

import gwrdp.cli
import gwrdp.codec
import gwrdp.derandom
import gwrdp.prob
import gwrdp.region
import gwrdp.simulate
import gwrdp.solver

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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
