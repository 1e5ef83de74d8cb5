import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gwrdp
import gwrdp.cli
import gwrdp.region
import gwrdp.simulate
from gwrdp.cli import _pmf_like, main
from gwrdp.prob import JointPmf, Kernel, Pmf
from gwrdp.region import AuxChannel, Budgets, rate_triple_for_aux
from gwrdp.simulate import ResourceCapError
from gwrdp.solver import DistortionMatrix, PerceptionMeasure, hamming, rdp_point_to_point

from oracles import hamming_tv_problem

UNIFORM_PAIR = {"alphabets": [2, 2], "probs": [0.25, 0.25, 0.25, 0.25]}
DSBS01 = {"alphabets": [2, 2], "probs": [0.45, 0.05, 0.05, 0.45]}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def region_solves(monkeypatch):
    """Queries that reached the solver through the region layer's memo."""
    calls = []
    solve = gwrdp.region.conditional_rdp

    def counted(query):
        calls.append(query)
        return solve(query)

    monkeypatch.setattr(gwrdp.region, "conditional_rdp", counted)
    return calls


class TestRdpCommand:
    def test_point_to_point_zero_budgets(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json", {
            "source": [0.5, 0.5], "distortion": "hamming", "perception": "tv",
            "d_budget": 0.0, "p_budget": 0.0})
        code = run(["rdp", "--config", cfg, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "rate 1.000000" in out
        payload = json.loads((tmp_path / "rdp_result.json").read_text())
        assert payload["rate_bits"] == pytest.approx(1.0, abs=1e-9)
        assert payload["manifest"]["subcommand"] == "rdp"

    def test_q_xw_and_source_named_together(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json", {
            "q_xw": [[0.5], [0.5]], "source": [0.9, 0.1], "d_budget": 0.1, "p_budget": 0.25})
        assert run(["rdp", "--config", cfg, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "'q_xw'" in err and "'source'" in err
        assert not (tmp_path / "rdp_result.json").exists()

    def test_gap_below_minus_tolerance_exit_4(self, tmp_path):
        # the KL slack at P = 0 lets the rate fall 9e-5 bits below the bound
        # certified at the exact budgets: that is no convergence
        cfg = write_config(tmp_path, "q.json", {
            "q_xw": [[0.6225, 0.1222], [0.1208, 0.0529], [0.0142, 0.0674]],
            "distortion": "hamming", "perception": "kl", "d_budget": 0.14087, "p_budget": 0})
        assert run(["rdp", "--config", cfg, "--out-dir", tmp_path]) == 4
        payload = json.loads((tmp_path / "rdp_result.json").read_text())
        assert payload["gap_bits"] < -1e-6
        assert payload["converged"] is False

    def test_perception_free_matches_rd_path(self, tmp_path):
        base = {"source": [0.3, 0.7], "distortion": "hamming", "perception": "tv",
                "d_budget": 0.15}
        cfg_inf = write_config(tmp_path, "inf.json", {**base, "p_budget": "inf"})
        cfg_big = write_config(tmp_path, "big.json", {**base, "p_budget": 2.0})
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["rdp", "--config", cfg_inf, "--out-dir", out1]) == 0
        assert run(["rdp", "--config", cfg_big, "--out-dir", out2]) == 0
        r1 = json.loads((out1 / "rdp_result.json").read_text())["rate_bits"]
        r2 = json.loads((out2 / "rdp_result.json").read_text())["rate_bits"]
        assert r1 == pytest.approx(r2, abs=1e-5)

    def test_reports_certified_gap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json", {
            "source": [0.5, 0.3, 0.2], "distortion": "hamming", "perception": "tv",
            "d_budget": 0.2, "p_budget": 0.1})
        assert run(["rdp", "--config", cfg, "--out-dir", tmp_path]) == 0
        payload = json.loads((tmp_path / "rdp_result.json").read_text())
        assert 0.0 <= payload["gap_bits"] <= 1e-6
        assert f"gap {payload['gap_bits']:.2g} bits" in capsys.readouterr().out

    def test_missing_field_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"source": [0.5, 0.5]})
        assert run(["rdp", "--config", cfg, "--out-dir", tmp_path]) == 2
        assert "d_budget" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["rdp", "--config", path, "--out-dir", tmp_path]) == 2

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(["rdp", "--config", path, "--out-dir", tmp_path]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


GRID_REGION = {
    "p_xy": DSBS01,
    "budgets": {"D1": 0.1, "D2": 0.1, "P1": 0.6, "P2": 0.6},
    "strategy": "grid", "samples": 3, "w_size": 2,
    "cutset_audit": True, "seed": 4}


class TestRegionCommand:
    def test_frontier_files_and_cutset_audit(self, tmp_path):
        cfg = write_config(tmp_path, "region.json", GRID_REGION)
        assert run(["region", "--config", cfg, "--out-dir", tmp_path]) == 0
        lines = (tmp_path / "frontier.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        header = lines[1].split(",")
        assert header[:8] == ["R0", "R1", "R2", "D1", "D2", "P1", "P2", "seed"]
        assert header[-1] == "cutset_ok"
        for row in lines[2:]:
            assert row.endswith("true")
        payload = json.loads((tmp_path / "frontier.json").read_text())
        assert sorted(payload) == ["cutset_reference", "manifest", "n_evaluated", "points",
                                   "seed", "strategy"]
        assert payload["points"]
        for point in payload["points"]:
            assert sorted(point) == ["R0", "R1", "R2", "aux_channel", "budgets", "converged",
                                     "test_channel_x", "test_channel_y"]
            assert sorted(point["budgets"]) == ["D1", "D2", "P1", "P2"]
            for channel in ("aux_channel", "test_channel_x", "test_channel_y"):
                assert sorted(point[channel]) == ["alphabets", "probs"]

    def test_points_read_back_through_the_config_reader(self, tmp_path):
        # the {alphabets, probs} dicts a frontier writes are what configs
        # take: each witness read back gives the same triple, and a point's
        # three channels run as a simulate config
        cfg = write_config(tmp_path, "region.json", GRID_REGION)
        assert run(["region", "--config", cfg, "--out-dir", tmp_path]) == 0
        points = json.loads((tmp_path / "frontier.json").read_text())["points"]
        problem = hamming_tv_problem(JointPmf(_pmf_like(GRID_REGION, "p_xy"), ("X", "Y")))
        budgets = Budgets(d1=0.1, d2=0.1, p1=0.6, p2=0.6)
        for point in points:
            aux = AuxChannel(Kernel(_pmf_like(point, "aux_channel")))
            triple = rate_triple_for_aux(problem, aux, budgets).triple
            assert triple == (point["R0"], point["R1"], point["R2"])
        (corner,) = [p for p in points if p["aux_channel"]["alphabets"][-1] == 1]
        sim = write_config(tmp_path, "sim.json", {
            "p_xy": DSBS01, "n": 16, "delta": 0.3, "trials": 20,
            "budgets": GRID_REGION["budgets"], "aux": corner["aux_channel"],
            "test_channel_x": corner["test_channel_x"],
            "test_channel_y": corner["test_channel_y"]})
        assert run(["simulate", "--config", sim, "--out-dir", tmp_path / "sim"]) == 0

    def test_independent_only_gives_corner(self, tmp_path):
        cfg = write_config(tmp_path, "region.json", {
            "p_xy": UNIFORM_PAIR,
            "budgets": {"D1": 0.1, "D2": 0.1},
            "strategy": "grid", "samples": 0, "w_size": 1, "seed": 0})
        out = tmp_path / "o"
        assert run(["region", "--config", cfg, "--out-dir", out]) == 0
        payload = json.loads((out / "frontier.json").read_text())
        assert len(payload["points"]) == 1
        assert payload["points"][0]["R0"] == pytest.approx(0.0, abs=1e-12)

    def test_fixed_seed_reruns_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, "region.json", {
            "p_xy": DSBS01,
            "budgets": {"D1": 0.15, "D2": 0.15},
            "strategy": "grid", "samples": 4, "w_size": 2, "seed": 9})
        out = tmp_path / "r"
        assert run(["region", "--config", cfg, "--out-dir", out]) == 0
        csv_first = (out / "frontier.csv").read_bytes()
        json_first = (out / "frontier.json").read_bytes()
        assert run(["region", "--config", cfg, "--out-dir", out]) == 0
        assert (out / "frontier.csv").read_bytes() == csv_first
        assert (out / "frontier.json").read_bytes() == json_first

    @pytest.mark.parametrize("budgets, audit_queries", [
        ({"D1": 0.1, "D2": 0.1, "P1": 0.6, "P2": 0.6}, 1),  # the X and Y queries coincide
        ({"D1": 0.1, "D2": 0.15, "P1": 0.6, "P2": 0.6}, 2),
    ])
    def test_cutset_audit_solves_each_distinct_query_once(self, tmp_path, region_solves,
                                                          budgets, audit_queries):
        base = {"p_xy": DSBS01, "budgets": budgets, "strategy": "grid", "samples": 1,
                "w_size": 2, "seed": 0}
        cfg = write_config(tmp_path, "plain.json", base)
        assert run(["region", "--config", cfg, "--out-dir", tmp_path / "plain"]) == 0
        frontier_calls = len(region_solves)
        cfg = write_config(tmp_path, "audit.json", dict(base, cutset_audit=True))
        assert run(["region", "--config", cfg, "--out-dir", tmp_path / "audit"]) == 0
        # the audit's independent-corner queries (|W| = 1) are the frontier's
        # own, found in the memo it shares with the frontier
        assert len(region_solves) == 2 * frontier_calls
        corner = [q for q in region_solves[:frontier_calls] if q.q_xw.shape[1] == 1]
        assert len(corner) == audit_queries
        ref = json.loads((tmp_path / "audit" / "frontier.json").read_text())["cutset_reference"]
        for key, d, p in (("rdp_x", budgets["D1"], budgets["P1"]),
                          ("rdp_y", budgets["D2"], budgets["P2"])):
            want = rdp_point_to_point(Pmf([0.5, 0.5]), DistortionMatrix(hamming(2)),
                                      PerceptionMeasure("tv"), d, p)
            assert ref[key] == want.rate

    def test_non_converged_point_exit_4_after_writing(self, tmp_path, monkeypatch):
        solve = gwrdp.region.conditional_rdp

        def not_converged(query):
            return dataclasses.replace(solve(query), converged=False)

        monkeypatch.setattr(gwrdp.region, "conditional_rdp", not_converged)
        cfg = write_config(tmp_path, "region.json", {
            "p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1},
            "strategy": "grid", "samples": 2, "w_size": 2, "seed": 1})
        assert run(["region", "--config", cfg, "--out-dir", tmp_path]) == 4
        payload = json.loads((tmp_path / "frontier.json").read_text())
        assert payload["points"] and not any(p["converged"] for p in payload["points"])
        assert (tmp_path / "frontier.csv").read_text().startswith("# manifest:")


SIM_CONFIG = {
    "p_xy": UNIFORM_PAIR,
    "aux": "independent",
    "test_channel_x": {"alphabets": [2, 1, 2], "probs": [0.75, 0.25, 0.25, 0.75]},
    "test_channel_y": {"alphabets": [2, 1, 2], "probs": [0.75, 0.25, 0.25, 0.75]},
    "n": 8, "delta": 0.3, "trials": 120,
    "budgets": {"D1": 0.3, "D2": 0.3, "P1": 0.5, "P2": 0.5},
    "seed": 3,
}


class TestSimulateCommand:
    def test_report_files(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", SIM_CONFIG)
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 0
        payload = json.loads((tmp_path / "sim_report.json").read_text())
        assert sorted(payload) == [
            "budgets", "distortion_wilson_x", "distortion_wilson_y", "freq_no_common_codeword",
            "freq_no_x_codeword", "freq_no_y_codeword", "joint_set_empty", "manifest",
            "marginal_halfwidth_x", "marginal_halfwidth_y", "marginals_x", "marginals_y",
            "master_seed", "mean_distortion_head_x", "mean_distortion_head_y",
            "mean_distortion_x", "mean_distortion_y", "mode", "n", "n0", "rates",
            "seed_overhead", "sizes", "stderr_distortion_x", "stderr_distortion_y",
            "threshold_x", "threshold_y", "trials", "tv_interval_x", "tv_interval_y",
            "tv_x", "tv_y"]
        csv_lines = (tmp_path / "sim_report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# manifest:")
        assert sum(1 for ln in csv_lines if ln.startswith("position")) == 8

    def test_serial_parallel_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", SIM_CONFIG)
        out = tmp_path / "s"
        assert run(["simulate", "--config", cfg, "--out-dir", out,
                    "--parallel", "1"]) == 0
        json_first = (out / "sim_report.json").read_bytes()
        csv_first = (out / "sim_report.csv").read_bytes()
        assert run(["simulate", "--config", cfg, "--out-dir", out,
                    "--parallel", "3"]) == 0
        assert (out / "sim_report.json").read_bytes() == json_first
        assert (out / "sim_report.csv").read_bytes() == csv_first

    def test_over_cap_exit_3_before_allocation(self, tmp_path, capsys):
        big = dict(SIM_CONFIG, n=64)
        cfg = write_config(tmp_path, "sim.json", big)
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path,
                    "--memory-cap", "2000"]) == 3
        assert re.search(r"needs at least \d+ symbols, cap is 2000", capsys.readouterr().err)
        assert not (tmp_path / "sim_report.json").exists()

    def test_codes_past_int64_run(self, tmp_path):
        # 2**128.5 private codewords per branch; the scans hit on page 0
        cfg = write_config(tmp_path, "sim.json", dict(HUGE_CODE, delta=2))
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 0
        sizes = json.loads((tmp_path / "sim_report.json").read_text())["sizes"]
        assert sizes[0] == 1 and sizes[1] == sizes[2] > 2 ** 128

    def test_all_miss_scan_past_the_cap_exit_3(self, tmp_path, monkeypatch, capsys):
        # the DSBS(0.1) witness at n = 64 has about 1.3e12 private codewords
        # per branch; with every private scan missing, pages are drawn until
        # the cap stops the run
        real = gwrdp.simulate.generate_codebook
        monkeypatch.setattr(gwrdp.simulate, "generate_codebook", lambda *args, **kw: (
            dataclasses.replace(real(*args, **kw), thresholds=(-1.0, -1.0))))
        cfg = write_config(tmp_path, "sim.json", {
            "p_xy": DSBS01, "aux": "independent", "n": 64, "delta": 0.15, "trials": 5,
            "budgets": {"D1": 0.4, "D2": 0.4, "P1": 0.1, "P2": 0.1}, "seed": 60})
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path,
                    "--memory-cap", str(2 ** 20)]) == 3
        assert "codebook would hold" in capsys.readouterr().err   # a page, not the first ones
        assert not (tmp_path / "sim_report.json").exists()
        assert not (tmp_path / "sim_report.csv").exists()

    def test_solve_derives_test_channels(self, tmp_path):
        cfg_dict = dict(SIM_CONFIG)
        cfg_dict.pop("test_channel_x")
        cfg_dict.pop("test_channel_y")
        cfg_dict["trials"] = 40
        cfg = write_config(tmp_path, "sim.json", cfg_dict)
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 0

    @pytest.mark.parametrize("budgets, calls", [
        (SIM_CONFIG["budgets"], 1),  # the X and Y queries coincide
        (dict(SIM_CONFIG["budgets"], D2=0.25), 2),
    ])
    def test_solve_shares_equal_branch_queries(self, tmp_path, region_solves, budgets, calls):
        cfg_dict = {k: v for k, v in SIM_CONFIG.items() if not k.startswith("test_channel")}
        cfg = write_config(tmp_path, "sim.json", dict(cfg_dict, trials=20, budgets=budgets))
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 0
        assert len(region_solves) == calls

    @pytest.mark.parametrize("seed,code", [(2 ** 64 - 1, 0), (2 ** 64, 2), (-1, 2)])
    def test_seed_range(self, tmp_path, seed, code):
        # Philox keys are two uint64 words: (master seed, block)
        proc = run_child(tmp_path, "simulate", dict(SIM_CONFIG, trials=20), timeout=120,
                         args=("--seed", str(seed)))
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
        else:
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr.strip().splitlines()) == 1

    def test_deterministic_mode(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json",
                           dict(SIM_CONFIG, mode="deterministic", trials=60))
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 0
        payload = json.loads((tmp_path / "sim_report.json").read_text())
        assert payload["n0"] == 3
        assert payload["seed_overhead"] == pytest.approx(math.log2(8) / 11)


class TestDerandAuditCommand:
    def test_uniform_four_atoms_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "da.json",
                           {"p_xy": UNIFORM_PAIR, "n0": 1, "n": 4})
        assert run(["derand-audit", "--config", cfg, "--out-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "pass True" in out
        payload = json.loads((tmp_path / "derand_audit.json").read_text())
        assert payload["within_bound"] is True
        assert payload["max_deviation"] == 0.0

    def test_too_few_atoms_exit_2(self, tmp_path):
        # a tail too short to fill the bins is an input error, not a resource cap
        cfg = write_config(tmp_path, "da.json",
                           {"p_xy": UNIFORM_PAIR, "n0": 1, "n": 100})
        assert run(["derand-audit", "--config", cfg, "--out-dir", tmp_path]) == 2

    def test_bins_past_the_atom_cap_exit_3(self, tmp_path, capsys):
        # the least tail that fills 4**11 + 1 bins has 4**12 atoms, past the
        # cap, so a longer tail cannot help: a resource refusal, not exit 2
        cfg = write_config(tmp_path, "da.json",
                           {"p_xy": UNIFORM_PAIR, "n0": 11, "n": 4 ** 11 + 1})
        assert run(["derand-audit", "--config", cfg, "--out-dir", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource rejection: ") and "cap of 4194304" in err
        assert not (tmp_path / "out").exists()


class TestManifest:
    def test_embedded_and_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, "q.json", {
            "source": [0.4, 0.6], "d_budget": 0.1, "p_budget": "inf"})
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        assert run(["rdp", "--config", cfg, "--out-dir", out1, "--seed", "7"]) == 0
        assert run(["rdp", "--config", cfg, "--out-dir", out2, "--seed", "7"]) == 0
        a = json.loads((out1 / "rdp_result.json").read_text())
        b = json.loads((out2 / "rdp_result.json").read_text())
        assert a["manifest"]["config_sha256"] == b["manifest"]["config_sha256"]
        assert a["manifest"]["master_seed"] == 7
        a["manifest"].pop("out_dir")
        b["manifest"].pop("out_dir")
        assert a == b

    @pytest.mark.parametrize("subcommand,payload", [
        ("rdp", {"source": [0.4, 0.6], "d_budget": 0.1, "p_budget": 0.2}),
        ("region", GRID_REGION),
        ("simulate", dict(SIM_CONFIG, trials=20)),
        ("derand-audit", {"p_xy": UNIFORM_PAIR, "n0": 1, "n": 4})])
    def test_every_file_carries_one_manifest(self, tmp_path, monkeypatch, subcommand,
                                             payload):
        # outputs names exactly the files written, in the order written,
        # and every file of the run embeds the same manifest
        written = []
        write = gwrdp.cli._write

        def record(path, content, manifest):
            written.append(path.name)
            write(path, content, manifest)

        monkeypatch.setattr(gwrdp.cli, "_write", record)
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert run([subcommand, "--config", cfg, "--out-dir", out]) == 0
        manifests = []
        for name in written:
            text = (out / name).read_text()
            manifests.append(json.loads(text)["manifest"] if name.endswith(".json") else
                             json.loads(text.splitlines()[0].removeprefix("# manifest: ")))
        assert sorted(p.name for p in out.iterdir()) == sorted(written)
        assert manifests[0]["outputs"] == written
        assert manifests[0]["subcommand"] == subcommand
        assert all(m == manifests[0] for m in manifests)


# aux rows (0.75, 0.25), (0.5, 0.5), (0.5, 0.5), (0.25, 0.75) on DSBS(0.25):
# with the test channels the CLI solves, a conditional typical set is empty
EMPTY_TYPICAL_SET = {
    "p_xy": {"alphabets": [2, 2], "probs": [0.375, 0.125, 0.125, 0.375]},
    "aux": {"alphabets": [2, 2, 2], "probs": [0.75, 0.25, 0.5, 0.5, 0.5, 0.5, 0.25, 0.75]},
    "n": 32, "delta": 0.05, "trials": 10, "mode": "common-randomness",
    "budgets": {"D1": 0.3, "D2": 0.3, "P1": 0.1, "P2": 0.1}, "seed": 0,
}

INVALID_INPUTS = [
    ("rdp-pmf-sums-to-1.1", "rdp",
     {"source": [0.6, 0.5], "d_budget": 0.1, "p_budget": 0.1}),
    ("simulate-zero-trials", "simulate", dict(SIM_CONFIG, trials=0)),
    ("simulate-empty-typical-set", "simulate", EMPTY_TYPICAL_SET),
    ("simulate-tail-longer-than-block", "simulate",
     dict(SIM_CONFIG, mode="deterministic", n0=9)),
    # n0 is checked in common-randomness mode too, where no tail is drawn
    ("simulate-negative-n0-with-common-randomness", "simulate",
     dict(SIM_CONFIG, mode="common-randomness", n0=-1)),
    # a q_xw beside a source would silently win over it
    ("rdp-q-xw-and-source", "rdp",
     {"q_xw": [[0.5], [0.5]], "source": [0.9, 0.1], "d_budget": 0.1, "p_budget": 0.25}),
    ("derand-audit-single-symbol-pair", "derand-audit",
     {"p_xy": {"alphabets": [1, 1], "probs": [1.0]}, "n0": 1, "n": 4}),
    # config fields of the wrong type, or out of range
    ("region-string-w-size", "region",
     {"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "w_size": "2"}),
    ("region-list-samples", "region",
     {"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "samples": [1]}),
    ("rdp-integer-recon-alphabet", "rdp",
     {"source": [0.5, 0.5], "d_budget": 0.1, "p_budget": 0.1, "recon_alphabet": 5}),
    ("rdp-nested-recon-alphabet", "rdp",
     {"source": [0.5, 0.5], "d_budget": 0.1, "p_budget": 0.1, "recon_alphabet": [[1]]}),
    ("rdp-bool-recon-alphabet", "rdp",
     {"source": [0.5, 0.5], "d_budget": 0.1, "p_budget": 0.1, "recon_alphabet": [True, False]}),
    # the reconstruction alphabet is the distortion matrix's columns
    ("rdp-recon-alphabet-of-every-column", "rdp",
     {"source": [0.5, 0.5], "d_budget": 0.1, "p_budget": 0.1, "recon_alphabet": [0, 1]}),
    # two reconstruction symbols leave 0.3 of the source unmatched: KL is
    # infinite and TV at least 0.6
    ("rdp-kl-with-fewer-columns", "rdp",
     {"source": [0.4, 0.3, 0.3], "distortion": [[0, 1], [1, 0], [0, 1]], "perception": "kl",
      "d_budget": 0.2, "p_budget": 0.5}),
    ("rdp-tv-below-the-floor-of-fewer-columns", "rdp",
     {"source": [0.4, 0.3, 0.3], "distortion": [[0, 1], [1, 0], [0, 1]], "perception": "tv",
      "d_budget": 0.2, "p_budget": 0.2}),
    ("simulate-string-n0", "simulate", dict(SIM_CONFIG, mode="deterministic", n0="2")),
    ("derand-audit-negative-n", "derand-audit", {"p_xy": UNIFORM_PAIR, "n0": 1, "n": -1}),
    # 4 atoms cannot populate 8 seed bins
    ("derand-audit-tail-too-short", "derand-audit", {"p_xy": DSBS01, "n0": 1, "n": 8}),
    ("simulate-tail-too-short", "simulate", dict(SIM_CONFIG, mode="deterministic", n0=1)),
    ("region-negative-samples", "region",
     {"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "samples": -3, "restarts": 0}),
    ("region-local-zero-restarts", "region",
     {"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "strategy": "local",
      "samples": 0, "restarts": 0}),
    ("region-local-zero-w-size", "region",
     {"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "strategy": "local",
      "samples": 0, "restarts": 1, "w_size": 0}),
    ("simulate-test-channel-wrong-source-alphabet", "simulate",
     dict(SIM_CONFIG, p_xy={"alphabets": [1, 1], "probs": [1.0]})),
    # json reads NaN and Infinity
    ("simulate-nan-delta", "simulate", dict(SIM_CONFIG, delta=math.nan)),
    ("simulate-infinite-delta", "simulate", dict(SIM_CONFIG, delta=math.inf)),
    *((f"{case[0]}-misspelt-field", *case[1:]) for case in [
        ("rdp", "rdp", {"source": [0.5, 0.3, 0.2], "perceptoin": "kl", "d_budget": 0.2,
                        "p_budget": 0.01}),
        ("region-budget", "region", {"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1, "p1": 0.1},
                                     "samples": 0}),
        ("simulate", "simulate", dict(SIM_CONFIG, moed="deterministic")),
        ("simulate-budget", "simulate",
         dict(SIM_CONFIG, budgets={"D1": 0.3, "D2": 0.3, "P_1": 0.5, "P2": 0.5})),
        ("derand-audit", "derand-audit", {"p_xy": UNIFORM_PAIR, "n0": 1, "n": 4, "n_0": 2}),
    ]),
]

# the misspelt key of each misspelt-field case above
MISSPELT = {"rdp": "'perceptoin'", "region-budget": "'p1'", "simulate": "'moed'",
            "simulate-budget": "'P_1'", "derand-audit": "'n_0'"}


# DSBS(0.25) with independent W at n = 16: private code sizes are at least
# 2**(32 delta), so large deltas ask for codes past the 2**14284 whose
# 4,300 digits a report can write
HUGE_CODE = {"p_xy": {"alphabets": [2, 2], "probs": [0.375, 0.125, 0.125, 0.375]},
             "aux": "independent", "n": 16, "trials": 20,
             "budgets": {"D1": 0.4, "D2": 0.4, "P1": 0.1, "P2": 0.1}, "seed": 0}

# inputs refused for the resources they would take, with the extra CLI
# arguments of each run; the 10 s limit is far below the seconds it takes
# to form 4 ** 10**9, the trial arrays of 10**12 trials are refused by the
# OS before a page is touched, and code sizes are refused from their
# exponents before any codeword is drawn
RESOURCE_LIMIT_INPUTS = [
    ("derand-audit-huge-n0", "derand-audit", {"p_xy": UNIFORM_PAIR, "n0": 10 ** 9, "n": 4},
     ()),
    ("simulate-huge-trials", "simulate",
     {"p_xy": DSBS01, "aux": "independent", "n": 8, "delta": 0.5, "trials": 10 ** 12,
      "budgets": {"D1": 0.3, "D2": 0.3, "P1": 0.5, "P2": 0.5}, "seed": 0}, ()),
    *((f"simulate-code-size-delta-{delta:g}", "simulate", dict(HUGE_CODE, delta=delta), ())
      for delta in (1e3, 1e20, 1e308)),
    ("simulate-code-size-n-12000", "simulate", dict(HUGE_CODE, n=12000, delta=0.3, trials=1),
     ("--memory-cap", str(2 ** 28))),
]


def run_child(tmp_path, subcommand, payload, timeout, args=()):
    """The CLI in a child process, with extra CLI ``args``, so a traceback
    would be visible and a hang is cut."""
    cfg = write_config(tmp_path, "cfg.json", payload)
    env = dict(os.environ, PYTHONPATH=str(Path(gwrdp.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "gwrdp.cli", subcommand, "--config", str(cfg),
         "--out-dir", str(tmp_path / "out"), *args],
        capture_output=True, text=True, timeout=timeout, env=env)


class TestExitCodeContract:
    @pytest.mark.parametrize("subcommand,payload", [case[1:] for case in INVALID_INPUTS],
                             ids=[case[0] for case in INVALID_INPUTS])
    def test_invalid_input_exit_2_without_traceback(self, tmp_path, subcommand, payload):
        proc = run_child(tmp_path, subcommand, payload, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("case", sorted(MISSPELT))
    def test_unknown_field_is_named(self, tmp_path, capsys, case):
        # a misspelt field would read as absent and take its default
        _, subcommand, payload = next(c for c in INVALID_INPUTS
                                      if c[0] == f"{case}-misspelt-field")
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert run([subcommand, "--config", cfg, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown ") and MISSPELT[case] in err
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_memory_cap_below_one_exit_2(self, tmp_path, cap):
        # an invalid flag, not a resource rejection: nothing is sized against it
        proc = run_child(tmp_path, "simulate", SIM_CONFIG, timeout=120,
                         args=("--memory-cap", cap))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.strip() == ("invalid input (ValueError): memory_cap must be at "
                                       f"least 1, got {cap}")

    @pytest.mark.parametrize("subcommand,payload", [
        ("rdp", {"source": [0.5, 0.5], "d_budget": 0.1, "p_budget": 0.1}),
        ("region", {"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "samples": 0}),
        ("derand-audit", {"p_xy": UNIFORM_PAIR, "n0": 2, "n": 4}),
    ])
    @pytest.mark.parametrize("cap", ["-5", "1000"])
    def test_memory_cap_outside_simulate_exit_2(self, tmp_path, capsys, subcommand, payload,
                                                cap):
        # only simulate draws codewords, so any other subcommand refuses the flag
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert run([subcommand, "--config", cfg, "--out-dir", out, "--memory-cap", cap]) == 2
        assert capsys.readouterr().err == (f"--memory-cap applies only to simulate, "
                                           f"not {subcommand}\n")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,payload,args",
                             [case[1:] for case in RESOURCE_LIMIT_INPUTS],
                             ids=[case[0] for case in RESOURCE_LIMIT_INPUTS])
    def test_resource_limit_exit_3_at_once(self, tmp_path, subcommand, payload, args):
        proc = run_child(tmp_path, subcommand, payload, timeout=10, args=args)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert len(proc.stderr) < 200   # a size is named by its exponent, not its digits


class TestCommandLine:
    def test_subcommands_and_required_config(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "{derand-audit,rdp,region,simulate}" in capsys.readouterr().out
        cfg = write_config(tmp_path, "q.json", {"source": [0.5, 0.5], "d_budget": 0.1,
                                                "p_budget": 0.1})
        for argv in (["selftest", "--config", cfg], ["rdp", "--out-dir", tmp_path]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
        assert not (tmp_path / "rdp_result.json").exists()

    @pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
    def test_unusable_out_dir_exit_2_without_traceback(self, tmp_path, out_dir):
        # an existing file, or a path under one, cannot hold the outputs; the
        # last --out-dir given is the one used
        (tmp_path / "afile").write_text("kept\n")
        proc = run_child(tmp_path, "rdp", {"source": [0.5, 0.5], "d_budget": 0.1,
                                           "p_budget": 0.1},
                         timeout=120, args=("--out-dir", str(tmp_path / out_dir)))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_start_imports_no_process_pool(self, tmp_path):
        # serial runs, the default, need no worker processes, and simulate
        # starts none at any --parallel
        env = dict(os.environ, PYTHONPATH=str(Path(gwrdp.__file__).parents[1]))
        cfg = write_config(tmp_path, "sim.json", SIM_CONFIG)
        simulate = (f"gwrdp.cli.main(['simulate', '--config', {str(cfg)!r}, '--out-dir', "
                    f"{str(tmp_path / 'out')!r}, '--parallel', '2'])")
        for run_first in ("pass", simulate):
            proc = subprocess.run(
                [sys.executable, "-c", f"import gwrdp.cli, sys; {run_first}; loaded = "
                 "{'concurrent.futures.process', 'multiprocessing'} & set(sys.modules); "
                 "assert not loaded, loaded"],
                capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "sim_report.json").exists()


class TestParallelClamp:
    @pytest.mark.parametrize("requested,received", [("0", 1), ("-3", 1), ("2", 2), ("64", 2)])
    def test_degree_clamped_to_cpu_count(self, tmp_path, monkeypatch, requested, received):
        seen = []

        def record(*args, parallel, **kwargs):
            seen.append(parallel)
            raise ResourceCapError("stop before any work")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(gwrdp.cli, "compute_frontier", record)
        region = write_config(tmp_path, "region.json", {
            "p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "w_size": 2})
        assert run(["region", "--config", region, "--out-dir", tmp_path,
                    "--parallel", requested]) == 3
        assert seen == [received]


# Config fuzz: small valid configs with up to three fields replaced by
# plausible values, out-of-range and negative ones included; at most one of
# them gets a wrong type or a null instead.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1.0, 2.0),
                 st.sampled_from(["", "inf", "x", "hamming", "independent", "solve"]),
                 st.just([]), st.just({}), st.just([[1]]))
BUDGET = st.one_of(st.floats(-0.1, 0.6), st.just("inf"))
PAIRS = st.sampled_from([UNIFORM_PAIR, DSBS01, [[0.5, 0.0], [0.0, 0.5]],
                         {"alphabets": [1, 2], "probs": [0.5, 0.5]},
                         {"alphabets": [2, 2], "probs": [0.6, 0.2, 0.2]},
                         {"alphabets": [2, 2], "probs": [-0.1, 0.4, 0.4, 0.3]}])
BUDGETS = st.fixed_dictionaries({"D1": BUDGET, "D2": BUDGET},
                                optional={"P1": BUDGET, "P2": BUDGET})
CHANNELS = st.sampled_from(["solve", SIM_CONFIG["test_channel_x"],
                            {"alphabets": [2, 1, 2], "probs": [1.0, 0.0, 0.0, 1.0]},
                            {"alphabets": [2, 2, 2], "probs": [0.5] * 8}])

FUZZ_FIELDS = {
    "rdp": ({"source": [0.5, 0.3, 0.2], "d_budget": 0.2, "p_budget": 0.1}, {
        "source": st.sampled_from([[0.5, 0.5], [1.0], [0.6, 0.5], [], [[0.5, 0.5]]]),
        "q_xw": st.sampled_from([[[0.3, 0.2], [0.1, 0.4]], [0.5, 0.5],
                                 {"alphabets": [2, 2], "probs": [0.25] * 3}]),
        "d_budget": BUDGET, "p_budget": BUDGET,
        "perception": st.sampled_from(["tv", "kl", "f"]),
        "distortion": st.sampled_from(["hamming", [[0, 1], [1, 0]], [[1, 1, 0]]]),
        "recon_alphabet": st.sampled_from([[0], [0, 1], [2], [0, 0], [-1]]),
        "seed": st.integers(-2, 2)}),
    "region": ({"p_xy": DSBS01, "budgets": {"D1": 0.1, "D2": 0.1}, "samples": 2,
                "restarts": 1, "w_size": 2, "seed": 1}, {
        "p_xy": PAIRS, "budgets": BUDGETS, "strategy": st.sampled_from(["grid", "local"]),
        "samples": st.integers(-1, 3), "w_size": st.integers(-1, 5),
        "restarts": st.integers(-1, 2), "cutset_audit": st.booleans(),
        "perception": st.sampled_from(["tv", "kl"]), "seed": st.integers(-2, 2)}),
    "simulate": (dict(SIM_CONFIG, trials=20), {
        "p_xy": PAIRS, "budgets": BUDGETS, "n": st.integers(-1, 12),
        "delta": st.one_of(st.floats(-0.1, 1.5), st.sampled_from([1e3, 1e20, 1e308])),
        "trials": st.integers(-1, 30),
        "mode": st.sampled_from(["common-randomness", "deterministic", "x"]),
        "n0": st.integers(-1, 4), "aux": st.sampled_from(["independent", [[0.5, 0.5]] * 4]),
        "test_channel_x": CHANNELS, "test_channel_y": CHANNELS,
        "perception": st.sampled_from(["tv", "kl"]), "seed": st.integers(-2, 2)}),
    "derand-audit": ({"p_xy": UNIFORM_PAIR, "n0": 1, "n": 4}, {
        "p_xy": PAIRS, "n": st.integers(-1, 8),
        # tails far beyond the atom cap as well
        "n0": st.one_of(st.integers(-1, 4), st.sampled_from([30, 10 ** 6, 10 ** 9])),
        "seed": st.integers(-2, 2)}),
}


@st.composite
def fuzzed_config(draw, subcommand):
    base, fields = FUZZ_FIELDS[subcommand]
    cfg = dict(base)
    names = draw(st.lists(st.sampled_from(sorted(fields)), unique=True, max_size=3))
    junk = draw(st.sampled_from(names + [None] * 3))
    for name in names:
        cfg[name] = draw(JUNK if name == junk else fields[name])
    return cfg


class TestConfigFuzz:
    """Every config ends in a contract exit code, in this process and with
    --parallel 1, so no worker process starts."""

    @pytest.mark.parametrize("subcommand", sorted(FUZZ_FIELDS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_in_contract(self, subcommand, data):
        cfg = data.draw(fuzzed_config(subcommand))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), "cfg.json", cfg)
            code = run([subcommand, "--config", path, "--out-dir", Path(tmp) / "out",
                        "--parallel", "1"])
        assert code in (0, 2, 3, 4), cfg
