"""The example scripts run against the package, and its public names resolve."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import catafind
from catafind import boardman as bo
from catafind import determinants as det
from catafind import expr as ex
from catafind import scenarios as sc
from catafind import solver as so

ROOT = Path(__file__).resolve().parents[1]

# what the CLI, README, scripts/ and bench/ reach at the top level
PUBLIC = ("__version__", "parse_vector_field", "VectorField", "Point",
          "make_reaction_diffusion", "make_primary_form", "PrimaryFormSpec",
          "DeterminantSet", "SolveOptions", "find_catastrophes",
          "count_steady_states", "boardman_symbol", "minor_count",
          "bg_condition_count")

# names dropped from the top level, each still public in its module
MODULE_ONLY = {
    ex: ("EvaluationError", "ExprError", "Expression", "ParseError",
         "compile_evaluator", "differentiate", "evaluate",
         "format_vector_field", "to_str"),
    det: ("DEFAULT_TOL_B", "DEFAULT_TOL_G", "hadamard_bound", "index_strings",
          "is_nonzero", "is_zero", "numeric_rank", "sym_det"),
    sc: ("DomainError",),
    so: ("CatastropheReport", "NewtonResult", "SteadyStateCensus", "classify",
         "stability_label"),
    bo: ("CapExceededError", "MinorCount", "ToleranceError"),
}


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_butterfly_hunt():
    out = run_script("butterfly_hunt.py", "--k1", "1", "--k2", "1", "--seeds", "64")
    assert "2 codim-4 report(s)" in out


def test_butterfly_hunt_sweeps_every_pair_in_one_process():
    out = run_script("butterfly_hunt.py", "--k1", "1,0.5", "--k2", "1.5",
                     "--seeds", "64")
    headers = [line for line in out.splitlines() if not line.startswith(" ")]
    assert headers == ["k1=1.0 k2=1.5: 2 codim-4 report(s)",
                       "k1=0.5 k2=1.5: 2 codim-4 report(s)"]
    # the second pair reuses the first pair's system and prints what a
    # process of its own prints
    alone = run_script("butterfly_hunt.py", "--k1", "0.5", "--k2", "1.5",
                       "--seeds", "64")
    assert out.endswith(alone)


def test_minor_growth():
    out = run_script("minor_growth.py", "--max-dim", "2", "--max-codim", "2")
    assert out.startswith("minors (corank-1 chain):")
    assert "level-determinant conditions" in out


def test_region_scan(tmp_path):
    path = tmp_path / "grid.csv"
    out = run_script("region_scan.py", str(path), "--cells", "3")
    assert f"wrote 3x3 grid to {path}" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "b,d,n_states,n_attracting"
    assert len(lines) == 1 + 3 * 3


def test_public_names_resolve():
    for name in catafind.__all__:
        assert hasattr(catafind, name), name


def test_public_names_are_what_the_package_reaches():
    assert sorted(catafind.__all__) == sorted(PUBLIC)
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert hasattr(module, name), (module.__name__, name)
            assert not hasattr(catafind, name), name


def test_readme_library_section_names_every_public_name():
    text = (ROOT / "README.md").read_text("utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    for name in catafind.__all__:
        assert f"`{name}`" in section, name


def test_removed_names_are_gone():
    # DeterminantSet(f).b_matrix(1) and DeterminantSet(f).level(r, p).subrank(tol)
    # replace the module functions; condition_count had no caller
    for name in ("jacobian", "subrank", "condition_count"):
        assert name not in catafind.__all__
        assert not hasattr(catafind, name)
        assert not hasattr(det, name)
    # boardman_symbol evaluates the declared field at (x, alpha), so no
    # parameter-free copy of a field is built
    for name in ("fix_parameters", "substitute_params", "simplify"):
        assert name not in catafind.__all__
        assert not hasattr(catafind, name)
        assert not hasattr(ex, name)
    assert not hasattr(catafind.VectorField, "point")
    # boardman_symbol builds the only chain stages; a level's G values are
    # eliminated over its rows, so no G matrix or matrix determinant is public
    for name, owner in (("DeltaChain", bo), ("build_delta_chain", bo),
                        ("numeric_det", det)):
        assert name not in catafind.__all__
        assert not hasattr(catafind, name)
        assert not hasattr(owner, name)
    assert not hasattr(catafind.DeterminantSet, "g_matrix")
    # the closed-form rd parameterizations only grade the solver, so they
    # live with the tests (tests/rd_reference.py), not in the package
    for name in ("RdReference", "rd_catastrophe_point", "RD_KINDS"):
        assert name not in catafind.__all__
        assert not hasattr(catafind, name)
        assert not hasattr(sc, name)
    fields = list(inspect.signature(catafind.SolveOptions).parameters)
    assert fields == ["seed_count", "dedup_radius", "tol_b", "tol_g"]
    # the Newton solve owns F's max-norm; the compiled function returns values
    assert "max_norm" not in inspect.signature(ex.compile_evaluator).parameters
