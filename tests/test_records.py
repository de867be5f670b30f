"""The package's records: their constructors, ==, hash, repr, pickling and
immutability, pinned to what they were as dataclasses; and the import
that no longer loads dataclasses."""

import copy
import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import catafind
from catafind.boardman import MinorCount, minor_count
from catafind.determinants import DeterminantSet, Level
from catafind.expr import Point, VectorField
from catafind.scenarios import (PrimaryFormSpec, make_primary_form,
                                make_reaction_diffusion)
from catafind.solver import (CatastropheReport, NewtonResult, SolveOptions,
                             SteadyStateCensus)

from rd_reference import RdReference

E = inspect.Parameter.empty

# (parameter, default) per record, as inspect.signature read the dataclasses
SIGNATURES = {
    VectorField: [("name", E), ("var_names", E), ("param_names", E), ("components", E)],
    Point: [("x", E), ("alpha", E)],
    Level: [("r", E), ("p", E), ("_set", E), ("_value", E), ("_g", E)],
    PrimaryFormSpec: [("n", E), ("r", E), ("lambdas", ()), ("taus", ())],
    RdReference: [("k1", E), ("k2", E)],
    SolveOptions: [("seed_count", 256), ("dedup_radius", 1e-06), ("tol_b", 1e-08),
                   ("tol_g", 1e-06)],
    NewtonResult: [("status", E), ("point", E), ("residual", E), ("iterations", E)],
    CatastropheReport: [("point", E), ("codim", E), ("label", E), ("residual", E),
                        ("b_values", E), ("g_values", E), ("g_scales", E), ("full", E),
                        ("subrank", E), ("subrank_ok", E)],
    SteadyStateCensus: [("count", E), ("states", E), ("paths", ())],
    MinorCount: [("n", E), ("corank_seq", E), ("stage_counts", E), ("appendix_total", E),
                 ("table_total", E)],
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_parameters_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(params)


def test_repr_text():
    assert repr(Point((1.0, -0.0), (2.5,))) == "Point(x=(1.0, -0.0), alpha=(2.5,))"
    assert repr(SolveOptions()) == \
        "SolveOptions(seed_count=256, dedup_radius=1e-06, tol_b=1e-08, tol_g=1e-06)"
    assert repr(PrimaryFormSpec(3, 2)) == \
        "PrimaryFormSpec(n=3, r=2, lambdas=(1.0, 1.0), taus=(1.0, 1.0))"
    assert repr(PrimaryFormSpec(2, 2, (2,), (-1,))) == \
        "PrimaryFormSpec(n=2, r=2, lambdas=(2.0,), taus=(-1.0,))"
    assert repr(RdReference(1, 2.5)) == "RdReference(k1=1, k2=2.5)"
    assert repr(minor_count(3, (1, 1))) == ("MinorCount(n=3, corank_seq=(1, 1), "
                                            "stage_counts=(1, 4), appendix_total=5, "
                                            "table_total=8)")
    assert repr(NewtonResult("converged", None, 0.0, 3)) == \
        "NewtonResult(status='converged', point=None, residual=0.0, iterations=3)"
    assert repr(SteadyStateCensus(1, ())) == "SteadyStateCensus(count=1, states=(), paths=())"


def test_field_and_point_are_hashable_and_equal_by_value():
    f, g = make_reaction_diffusion(), make_reaction_diffusion()
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != make_primary_form(PrimaryFormSpec(2, 6))
    renamed = VectorField("other", f.var_names, f.param_names, f.components)
    assert renamed != f
    p, q = Point((1.0, 2.0), (3.0,)), Point((1.0, 2.0), (3.0,))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != Point((1.0, 2.0), (-3.0,))
    # == is by class as well as by value, as a dataclass's is
    assert p != ((1.0, 2.0), (3.0,)) and p.__eq__(((1.0, 2.0), (3.0,))) is NotImplemented


def test_mutable_records_are_unhashable_and_assignable():
    records = [SolveOptions(), NewtonResult("converged", None, 0.0, 1),
               CatastropheReport(Point((0.0,), (0.0,)), 1, "fold", 0.0, (), {}, {},
                                 True, 0, True),
               SteadyStateCensus(0, ())]
    for rec in records:
        assert type(rec).__hash__ is None
        with pytest.raises(TypeError):
            hash(rec)
    opts = SolveOptions()
    opts.seed_count = 8
    assert opts == SolveOptions(seed_count=8) and opts != SolveOptions()
    with pytest.raises(AttributeError):
        opts.seeds = 8  # not a field


def _level():
    D = DeterminantSet(make_reaction_diffusion())
    return D, D.level(1, Point((0.5, -0.25), (1.0, 2.0, 0.3, 0.4, 1.0, 1.0)))


def test_frozen_records_refuse_assignment():
    _D, level = _level()
    frozen = [(make_reaction_diffusion(), "name"), (Point((1.0,), ()), "x"),
              (level, "r"), (PrimaryFormSpec(2, 2), "lambdas"), (RdReference(1.0, 2.0), "k1"),
              (minor_count(2, (1,)), "table_total")]
    for rec, name in frozen:
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.other = 0
        assert getattr(rec, name) is before


def test_level_is_equal_only_to_itself():
    D, level = _level()
    again = D.level(1, level.p)
    assert level == level and level != again
    assert hash(level) == object.__hash__(level)
    assert repr(level).startswith("<catafind.determinants.Level object at ")


@pytest.mark.parametrize("rec", [
    Point((1.0, -0.0), (math.inf,)),
    PrimaryFormSpec(3, 2, (2.0, -1.0), (0.5, 3.0)),
    RdReference(1, 2.5),
    minor_count(3, (2, 1)),
    SolveOptions(seed_count=7, tol_g=1e-3),
], ids=lambda r: type(r).__name__)
def test_pickle_and_copy_round_trip(rec):
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is type(rec) and twin is not rec
        assert twin == rec and repr(twin) == repr(rec)


def test_records_are_not_dataclasses():
    # the API change: dataclasses.fields, asdict and replace do not apply
    for cls in SIGNATURES:
        assert not hasattr(cls, "__dataclass_fields__")
    assert catafind.Point.__slots__ == ("x", "alpha")


def test_import_loads_no_dataclasses():
    """A fresh interpreter, so that nothing another test imported hides a
    load: importing the CLI brings in neither dataclasses nor the modules
    it would pull in."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys; before = set(sys.modules); import catafind.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    assert "catafind.cli" in out and "catafind.expr" in out
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(out), out
