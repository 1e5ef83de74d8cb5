"""Tests of the benchmark's own checks: a correct output passes, and a
perturbed test channel, a wrong code size or an overweight seed bin is
reported as a failed operation.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from gwrdp.cli import main as gwrdp_main  # noqa: E402
from gwrdp.derandom import build_seed_map  # noqa: E402
from gwrdp.prob import JointPmf  # noqa: E402


def run_command(cmd, tmp_path):
    cfg = tmp_path / f"{cmd.name}.json"
    cfg.write_text(json.dumps(cmd.config))
    out = tmp_path / cmd.name
    return gwrdp_main(cmd.argv(cfg, out)), out


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_oracle_matches_binary_closed_form():
    # R(D) = h(p) - h(D) for a Bernoulli(p) source under Hamming distortion
    got = checks.conditional_rd(np.array([[0.3], [0.7]]), checks.hamming(2), 0.1)
    assert got == pytest.approx(h2(0.3) - h2(0.1), abs=1e-7)


def test_oracle_is_weighted_sum_over_w_at_equal_slopes():
    # two identical columns: the conditional problem equals the plain one
    q = np.array([[0.15, 0.15], [0.35, 0.35]])
    plain = checks.conditional_rd(np.array([[0.3], [0.7]]), checks.hamming(2), 0.1)
    assert checks.conditional_rd(q, checks.hamming(2), 0.1) == pytest.approx(plain, abs=1e-7)


@pytest.fixture(scope="module")
def binary_rdp(tmp_path_factory):
    cmd = next(c for c in workloads.rdp_active(0) if c.name == "binary-w2-tv")
    rc, out = run_command(cmd, tmp_path_factory.mktemp("rdp"))
    result = json.loads((out / "rdp_result.json").read_text())
    rd = workloads.Judge().rd(cmd.spec["q_xw"], cmd.spec["d_budget"])
    return cmd, rc, result, rd


def test_rdp_output_passes(binary_rdp):
    v = workloads.judge_rdp(*binary_rdp)
    assert (v.attempted, v.failed, v.problems) == (1, 0, [])


def test_perturbed_test_channel_is_a_failed_operation(binary_rdp):
    cmd, rc, result, rd = binary_rdp
    bad = copy.deepcopy(result)
    probs = np.asarray(bad["test_channel"]["probs"]).reshape(bad["test_channel"]["alphabets"])
    probs[0, 0] = [probs[0, 0, 0] - 0.05, probs[0, 0, 1] + 0.05]
    bad["test_channel"]["probs"] = probs.ravel().tolist()
    v = workloads.judge_rdp(cmd, rc, bad, rd)
    assert v.failed == 1 and v.problems


def test_non_convergence_is_a_failed_operation_without_problems(binary_rdp):
    cmd, _, result, rd = binary_rdp
    v = workloads.judge_rdp(cmd, 4, dict(result, converged=False), rd)
    assert (v.failed, v.problems) == (1, [])


@pytest.fixture(scope="module")
def common_sim(tmp_path_factory):
    cmd = workloads.sim_common(0)[0]
    captured = []
    import gwrdp.cli as cli
    original = cli.run_simulation

    def keep(config, **kw):
        captured.append(config)
        return original(config, **kw)

    cli.run_simulation = keep
    try:
        rc, out = run_command(cmd, tmp_path_factory.mktemp("sim"))
    finally:
        cli.run_simulation = original
    report = json.loads((out / "sim_report.json").read_text())
    return cmd, rc, report, captured[0]


def test_sim_output_passes(common_sim):
    cmd, rc, report, config = common_sim
    v = workloads.judge_sim(cmd, rc, report, config.test_channel_x.probs,
                            config.test_channel_y.probs)
    assert (v.failed, v.problems) == (0, [])


@pytest.mark.parametrize("layer", [0, 1, 2])
def test_wrong_code_size_is_a_failed_operation(common_sim, layer):
    cmd, rc, report, config = common_sim
    bad = copy.deepcopy(report)
    bad["sizes"][layer] += 1
    v = workloads.judge_sim(cmd, rc, bad, config.test_channel_x.probs,
                            config.test_channel_y.probs)
    assert v.failed == 1 and any("code sizes" in p for p in v.problems)


def test_vacuous_common_layer_is_a_failed_operation(common_sim):
    cmd, rc, report, config = common_sim
    v = workloads.judge_sim(cmd, rc, dict(report, freq_no_common_codeword=1.0),
                            config.test_channel_x.probs, config.test_channel_y.probs)
    assert v.failed == 1 and any("miss frequency" in p for p in v.problems)


@pytest.fixture(scope="module")
def seed_map():
    p_xy = workloads.dsbs(0.25)
    sm = build_seed_map(JointPmf(p_xy, ("X", "Y")), 4, 16)
    return p_xy, sm


def _audit_cmd(p_xy):
    return workloads.Command("audit", "derand-audit", {}, {"p_xy": p_xy, "n0": 4, "n": 16})


def test_seed_map_passes(seed_map):
    p_xy, sm = seed_map
    v = workloads.judge_audit(_audit_cmd(p_xy), 0, sm.audit(), sm.assignment)
    assert (v.failed, v.problems) == (0, [])


def test_overweight_seed_bin_is_a_failed_operation(seed_map):
    p_xy, sm = seed_map
    assignment = sm.assignment.copy()
    # pile the heaviest atoms of other bins into bin 0
    moved = [a for a in np.argsort(-np.kron(np.kron(p_xy.ravel(), p_xy.ravel()),
                                           np.kron(p_xy.ravel(), p_xy.ravel())))
             if assignment[a] != 0][:3]
    assignment[moved] = 0
    probs = np.kron(np.kron(p_xy.ravel(), p_xy.ravel()), np.kron(p_xy.ravel(), p_xy.ravel()))
    masses = np.bincount(assignment, weights=probs, minlength=16)
    assert masses[0] - 1 / 16 > probs.max()
    # an audit that agrees with the perturbed assignment: only the bound catches it
    audit = dict(sm.audit(), bin_masses=masses.tolist())
    v = workloads.judge_audit(_audit_cmd(p_xy), 0, audit, assignment)
    assert v.failed == 1 and any("exceeds p_max" in p for p in v.problems)
    # the program's own audit no longer matches the assignment either
    v = workloads.judge_audit(_audit_cmd(p_xy), 0, sm.audit(), assignment)
    assert v.failed == 1 and any("differ" in p for p in v.problems)


def test_dominated_frontier_point_is_found():
    points = [{"R0": 0.1, "R1": 0.5, "R2": 0.5}, {"R0": 0.1, "R1": 0.6, "R2": 0.5},
              {"R0": 0.0, "R1": 0.7, "R2": 0.7}]
    assert checks.dominated_pairs(points) == [(0, 1)]
