"""Checks on the benchmark itself: its oracles, the exact repeat of the
traced counters, and its refusal to run without the package sources.

Run from the root of the repository: python3 -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import run
import tracer
from workloads import FindRd, ScanRd, VerifyPrimary

README_BOX = "--box=-1.2:1.2,-1.2:1.2,-1.2:1.2,-1.2:1.2,0:1.2,0:1.2"


def _worker(tmp_path, groups, trace, tag="w"):
    return run.run_worker(tmp_path, tag, groups, None, trace,
                          time.monotonic() + 170)


def _histogram(layers):
    return {s: layers[f"solver.status.{s}"] for s in tracer.NEWTON_STATUSES}


# ---------------------------------------------------------------------------
# oracles

def test_butterfly_closed_form_at_unit_diffusion():
    x, alpha = oracles.butterfly_point(1.0, 1.0, +1)
    third, s = 1.0 / 3.0, 16.0 / 27.0
    assert x == pytest.approx((third, third), abs=1e-15)
    assert alpha == pytest.approx((-s, -s, 2 / 3, 2 / 3, 1.0, 1.0), abs=1e-15)


def test_census_oracle_on_hand_solved_cells():
    box = ((-3.0, 3.0), (-3.0, 3.0))
    # a = g = b = d = 0: v = v^9, states (0, 0) attracting and two saddles
    assert oracles.rd_census(1, 1, 0, 0, 0, 0, box) == (3, 1)
    # the cubic slice's centre: a degenerate root at the origin, two saddles
    assert oracles.rd_census(1, 1, -1, -1, 0, 0, box) == (3, 0)


def test_primary_oracle_accepts_the_cli_and_rejects_a_perturbed_g(tmp_path):
    workload = VerifyPrimary()
    groups = workload.groups(random.Random("verify-primary:1"))[:1]
    res = _worker(tmp_path, groups, trace=False)
    argv = groups[0][0]
    text = Path(res["calls"][0]["out"]).read_text(encoding="utf-8")
    assert workload.grade(argv, text) == [None]
    doc = json.loads(text)
    doc["reports"][0]["g_values"][7]["value"] *= 1 + 1e-6
    assert workload.grade(argv, json.dumps(doc)) != [None]


# ---------------------------------------------------------------------------
# traced counters

def test_readme_box_counters(tmp_path):
    argv = ["find", "--builtin", "rd", "--codim", "4", "--fix", "k1=1,k2=1",
            README_BOX]
    layers = _worker(tmp_path, [[argv]], trace=True)["layers"]
    assert layers["ops"] == 1
    assert layers["solver.seeds"] == 256
    assert _histogram(layers) == {
        "converged": 255, "step-underflow": 1, "max-iterations": 0,
        "singular-jacobian": 0, "evaluation-error": 0}
    assert layers["solver.iterations"] == 2037
    assert layers["solver.fj_evals"] == 2293
    assert layers["solver.residual_evals"] == 2692


@pytest.mark.parametrize("workload", [FindRd(), ScanRd(), VerifyPrimary()],
                         ids=lambda w: w.name)
def test_traced_counters_repeat_exactly(tmp_path, workload):
    groups = workload.groups(random.Random(f"{workload.name}:7"))[:2]
    if workload.name == "scan-rd":  # a small grid keeps the test short
        groups = [[[("3,3" if t == f"{workload.cells},{workload.cells}" else t)
                    for t in argv] for argv in group] for group in groups]
    first = _worker(tmp_path, groups, trace=True, tag="a")["layers"]
    second = _worker(tmp_path, groups, trace=True, tag="b")["layers"]
    assert {k: first[k] for k in tracer.EXACT} == {k: second[k] for k in tracer.EXACT}
    assert sum(_histogram(first).values()) == first["solver.seeds"] > 0
    assert first["solver.fj_evals"] > 0


# ---------------------------------------------------------------------------
# the benchmark without sources

def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "find-rd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
