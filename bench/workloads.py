"""The benchmark's workloads: CLI calls generated from a seed, and grading.

A workload turns a `random.Random` into groups of CLI argument lists (the
worker runs a whole group at a time, and a group is one latency sample),
gives the code a fresh process runs for the set-up measurement, and grades
each call's output with the oracles in oracles.py.  An op is one `find`
call, or one cell of a `scan` grid.
"""

from __future__ import annotations

import json

import oracles


def _r(x: float) -> str:
    return repr(float(x))


class FindRd:
    """Butterfly search on the reaction-diffusion field: one small 6x6
    Newton system solved from 256 Halton seeds per call, so the Newton loop
    dominates each call."""

    name = "find-rd"
    ops_per_call = 1
    groups_in_list = 2000  # distinct inputs; the worker cycles past the end
    trace_groups = 12

    def setup_code(self, groups):
        return "import catafind; catafind.make_reaction_diffusion()"

    def groups(self, rng):
        out = []
        for _ in range(self.groups_in_list):
            k1, k2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            span = 1.5 * max(1.0, k1, k2)
            box = [f"{_r(-span)}:{_r(span)}"] * 4 + [f"0:{_r(span)}"] * 2
            out.append([["find", "--builtin", "rd", "--codim", "4",
                         "--fix", f"k1={_r(k1)},k2={_r(k2)}",
                         "--box=" + ",".join(box)]])
        return out

    def grade(self, argv, text):
        """One verdict per op in the call's output: None or what is wrong."""
        fix = dict(item.split("=") for item in argv[argv.index("--fix") + 1].split(","))
        return [oracles.grade_butterflies(json.loads(text),
                                          float(fix["k1"]), float(fix["k2"]))]


class VerifyPrimary:
    """The A_6 point of the n=3 primary form: trivial Newton, then 243
    symbolic G determinants built and evaluated once each."""

    name = "verify-primary"
    ops_per_call = 1
    n, r = 3, 6
    configs = 8  # distinct (lam, tau) per run, cycled: bounds the intern table
    trace_groups = 8

    def __init__(self):
        self._reference = None

    @staticmethod
    def _draw(rng):
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)

    def groups(self, rng):
        out = []
        for _ in range(self.configs):
            lam = [self._draw(rng) for _ in range(self.n - 1)]
            tau = [self._draw(rng) for _ in range(self.n - 1)]
            spec = (f"primary:n={self.n},r={self.r},"
                    f"lam={':'.join(map(_r, lam))},tau={':'.join(map(_r, tau))}")
            out.append([["find", "--builtin", spec, "--codim", str(self.r),
                         "--seeds", "64"]])
        return out

    def setup_code(self, groups):
        lam, tau = self._constants(groups[0][0])
        return ("import catafind; catafind.make_primary_form(catafind.PrimaryFormSpec("
                f"{self.n}, {self.r}, {tuple(lam)!r}, {tuple(tau)!r}))")

    @staticmethod
    def _constants(argv):
        spec = dict(item.split("=") for item in argv[2].split(":", 1)[1].split(","))
        return ([float(t) for t in spec["lam"].split(":")],
                [float(t) for t in spec["tau"].split(":")])

    def grade(self, argv, text):
        if self._reference is None:
            self._reference = oracles.PrimaryG(self.n, self.r)
        lam, tau = self._constants(argv)
        return [oracles.grade_primary(json.loads(text), self.n, self.r,
                                      lam, tau, self._reference)]


class ScanRd:
    """Steady-state census of the reaction-diffusion field over a 5x5 (b, d)
    grid: many tiny 2x2 systems, each rebuilt per cell, with eigenvalue
    labels and the CLI's worker pool.  Two slices per group: a = g = 0.2,
    where most cells hold one state, and the cubic slice a = g = -1, with
    3-5 states per cell.  The odd cell count keeps a cell centred on
    b = d = 0, where the cubic slice has a degenerate root; that cell is
    a known census failure and is counted as one."""

    name = "scan-rd"
    cells = 5
    ops_per_call = cells * cells
    slices = (0.2, -1.0)  # a = g
    box = ((-3.0, 3.0), (-3.0, 3.0))  # the CLI's default --box-x
    trace_groups = 1
    setup_code = FindRd.setup_code

    def __init__(self):
        self._oracle: dict = {}

    def groups(self, rng):
        order = list(self.slices)
        rng.shuffle(order)  # inputs are fixed; the seed only orders slices
        return [[["scan", "--builtin", "rd", "--axes", "b,d",
                  "--range=-1.5:1.5,-1.5:1.5", "--cells", f"{self.cells},{self.cells}",
                  "--fix", f"a={_r(a)},g={_r(a)},k1=1,k2=1"] for a in order]]

    def _census(self, a, b, d):
        key = (a, b, d)
        if key not in self._oracle:
            self._oracle[key] = oracles.rd_census(1.0, 1.0, a, a, b, d, self.box)
        return self._oracle[key]

    def grade(self, argv, text):
        fix = dict(item.split("=") for item in argv[argv.index("--fix") + 1].split(","))
        a = float(fix["a"])
        centres = [-1.5 + (k + 0.5) * 3.0 / self.cells for k in range(self.cells)]
        lines = text.splitlines()
        if not lines or lines[0] != "b,d,n_states,n_attracting":
            return ["unreadable CSV"] * self.ops_per_call
        rows = []
        for line in lines[1:]:
            b, d, n_states, n_attracting = line.split(",")
            rows.append((float(b), float(d), int(n_states), int(n_attracting)))
        verdicts = []
        for b0 in centres:
            for d0 in centres:
                row = next((r for r in rows if abs(r[0] - b0) <= 1e-9
                            and abs(r[1] - d0) <= 1e-9), None)
                if row is None:
                    verdicts.append(f"a=g={a!r}: no row for cell b={b0!r} d={d0!r}")
                    continue
                want = self._census(a, row[0], row[1])
                verdicts.append(None if row[2:] == want else
                                f"a=g={a!r} b={row[0]!r} d={row[1]!r}: census "
                                f"{row[2:]}, oracle {want}")
        return verdicts


WORKLOADS = {w.name: w for w in (FindRd, ScanRd, VerifyPrimary)}
