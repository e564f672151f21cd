"""The four workloads: seeded inputs, one round of operations, output checks.

A workload builds its inputs from the seed when it is created (that is part
of set-up), runs whole rounds of the same operations through the simulator's
public functions or its command line, and checks the outputs once the timed
loop is over.  ``check`` returns the number of failed operations and notes
on the largest deviations seen.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from pathlib import Path

import reference as ref
from ris_cvqkd import cli, config, experiments, oracle, qkd
from ris_cvqkd.experiments import SweepSpec, SweepVariable
from ris_cvqkd.qkd import AncillaCase

CASES = {case.value: case for case in AncillaCase}

# The criterion-9 scenario: 31 scattered paths per channel, 32 branches.
RICH = {"extra_paths_d": 31, "extra_paths_g": 31, "extra_paths_f": 31,
        "extra_path_angle_spread_rad": 1.0, "extra_path_excess_length": 1.001}


class RichSweep:
    """CLI distance sweep of the rich scenario written to CSV; one operation
    is one grid point (one CSV row)."""

    name = "rich-sweep"
    points = 100
    ops_per_round = points
    checked_rows = 10

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        offset = rng.uniform(0.0, 0.5)
        self.start, self.stop = 1.0 + offset, 100.0 + offset
        self.csv = out_dir / f"rich-sweep-{os.getpid()}.csv"
        self.argv = ["sweep", "--variable", "distance",
                     "--grid", f"{self.start!r}:{self.stop!r}:{self.points}",
                     "--output", str(self.csv)]
        for key, value in RICH.items():
            self.argv += ["--set", f"{key}={value}"]
        # one row from each equal stretch of the grid, near and far rows alike
        stretch = self.points // self.checked_rows
        self.sample = [j * stretch + rng.randrange(stretch) for j in range(self.checked_rows)]
        self.outputs: list[tuple[int, bytes]] = []

    def round(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def record(self, code) -> None:
        self.outputs.append((code, self.csv.read_bytes()))

    def check(self) -> tuple[int, dict]:
        self.csv.unlink(missing_ok=True)
        code, first = self.outputs[0]
        lines = first.decode().splitlines()
        rows = lines[1:]
        step = (self.stop - self.start) / (self.points - 1)
        grid = [self.start + i * step for i in range(self.points)]
        header = "distance,skr_d,holevo_d,skr_g,holevo_g,skr_f,holevo_f,warnings"
        bad = set(range(self.points)) if (code != 0 or lines[0] != header
                                          or len(rows) != self.points) else set()
        for i, line in enumerate(rows[:self.points]):
            cells = line.split(",")
            if (len(cells) != 8 or cells[0] != format(grid[i], ".12g")
                    or not cells[7].isdigit()):
                bad.add(i)
        base = config.default_scenario(**RICH)
        n = ref.noise(base)
        worst = 0.0
        for i in self.sample:
            if i in bad:
                continue
            cells = rows[i].split(",")
            betas = ref.paired_betas(ref.channel_matrices(base, grid[i]))
            if len(betas) != 32:
                bad.add(i)
                continue
            branches = [ref.branch(*b, base.ris.common_phase) for b in betas]
            for j, tag in enumerate("dgf"):
                skr, chi = ref.rate(CASES[tag], branches, n)
                for cell, value in ((cells[1 + 2 * j], skr), (cells[2 + 2 * j], chi)):
                    worst = max(worst, abs(float(cell) - value))
                    if not ref.agrees(float(cell), value, len(branches),
                                      rel=ref.CSV_REL_TOL):
                        bad.add(i)
        failed = 0
        for code_k, data in self.outputs:
            rows_k = data.decode().splitlines()[1:]
            for i in range(self.points):
                if (code_k != 0 or i in bad or i >= len(rows_k)
                        or rows_k[i] != rows[i]):
                    failed += 1
        return failed, {"checked_rows": self.sample,
                        "max_abs_dev_checked_cells": worst,
                        "csv_bytes": len(first)}


class LargeArray:
    """``run_sweep`` over square RIS sizes and antenna counts of the
    line-of-sight default scenario; one operation is one grid point."""

    name = "large-array"
    ris_elements = (400, 1600, 3600)
    antennas = (64, 256, 1024)
    ops_per_round = len(ris_elements) + len(antennas)

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.d_ab = rng.uniform(5.0, 15.0)
        base = config.default_scenario(d_ab=self.d_ab)
        grids = [(SweepVariable.RIS_ELEMENTS, self.ris_elements),
                 (SweepVariable.ANTENNA_COUNT, self.antennas)]
        rng.shuffle(grids)
        self.specs = [SweepSpec(variable=v, base=base,
                                grid=g if rng.random() < 0.5 else g[::-1])
                      for v, g in grids]
        self.outputs: list[list] = []

    def round(self):
        return [experiments.run_sweep(spec) for spec in self.specs]

    def record(self, results) -> None:
        self.outputs.append(results)

    def _point_scenario(self, variable, value):
        if variable is SweepVariable.RIS_ELEMENTS:
            side = math.isqrt(int(value))
            return config.default_scenario(d_ab=self.d_ab, ris_elements_x=side,
                                           ris_elements_y=side)
        return config.default_scenario(d_ab=self.d_ab, tx_antennas=int(value),
                                       rx_antennas=int(value))

    def check(self) -> tuple[int, dict]:
        bad = set()
        worst_rate = worst_info = 0.0
        for s, result in enumerate(self.outputs[0]):
            for i, row in enumerate(result.rows):
                if row.error is not None or row.reports is None:
                    bad.add((s, i))
                    continue
                scenario = self._point_scenario(result.variable, row.value)
                n = ref.noise(scenario)
                b = ref.branch(*ref.los_betas(scenario, self.d_ab),
                               scenario.ris.common_phase)
                i_d, i_r = ref.mutual_info(b, n)
                for case, report in row.reports.items():
                    if len(report.branches) != 1:
                        bad.add((s, i))
                        continue
                    rec = report.branches[0]
                    # singular values carry ~n*eps relative error: 1e-12 covers n <= 4096
                    for got, want in ((rec.i_ab_direct, i_d), (rec.i_ab_ris, i_r)):
                        worst_info = max(worst_info, abs(got - want) / abs(want))
                        if abs(got - want) > 1e-12 * abs(want):
                            bad.add((s, i))
                    skr, chi = ref.rate(case, [b], n)
                    worst_rate = max(worst_rate, abs(report.total_skr - skr))
                    if not (ref.agrees(report.total_skr, skr, 1, rel=1e-12)
                            and ref.agrees(report.total_holevo, chi, 1, rel=1e-12)):
                        bad.add((s, i))
        rates = [[[None if row.reports is None else
                   {case: rep.total_skr for case, rep in row.reports.items()}
                   for row in result.rows] for result in out] for out in self.outputs]
        failed = sum((s, i) in bad or point != rates[0][s][i]
                     for out in rates for s, rows in enumerate(out)
                     for i, point in enumerate(rows))
        return failed, {"d_ab_m": self.d_ab,
                        "grids": [list(spec.grid) for spec in self.specs],
                        "max_rel_dev_mutual_info": worst_info,
                        "max_abs_dev_rate": worst_rate}


class PhaseAndReach:
    """Optimal-phase searches (the paper's angle table) and secure-reach
    searches; one operation is one search call."""

    name = "phase-and-reach"
    phase_ops = [(16, "f"), (64, "f"), (256, "f"), (32, "d"), (32, "g"), (32, "f")]
    reach_ops = ["d", "g", "f"]
    ops_per_round = len(phase_ops) + len(reach_ops)
    d_phase = 50.0
    reach_tolerance = 0.01
    reach_d_min = 0.5
    reach_grid_points = 64
    reach_eve_variance = 2.0
    check_grid = 512

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.d_max = self.rng.uniform(150.0, 200.0)
        # the check grid is offset from the search's own pi/256 grid
        self.grid_offset = self.rng.uniform(0.1, 0.9)
        self.phase_base = {n: config.default_scenario(d_ab=self.d_phase, tx_antennas=n,
                                                      rx_antennas=n)
                           for n in {n for n, _ in self.phase_ops}}
        self.reach_base = config.default_scenario(
            eve_variance_snu=self.reach_eve_variance)
        self.ops = ([("phase", n, tag) for n, tag in self.phase_ops]
                    + [("reach", None, tag) for tag in self.reach_ops])
        self.outputs: list[dict] = []

    def round(self):
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        out = {}
        for j in order:
            kind, n, tag = self.ops[j]
            if kind == "phase":
                opt = experiments.optimal_phase(self.phase_base[n], CASES[tag])
                out[j] = (opt.phi_star, opt.skr_star)
            else:
                out[j] = experiments.max_secure_distance(
                    self.reach_base, CASES[tag], tolerance=self.reach_tolerance,
                    d_min=self.reach_d_min, d_max=self.d_max,
                    grid_points=self.reach_grid_points)
        return out

    def record(self, out) -> None:
        self.outputs.append(out)

    def _check_phase(self, n: int, tag: str, phi_star: float, skr_star: float) -> bool:
        scenario = self.phase_base[n]
        case = CASES[tag]
        betas = ref.los_betas(scenario, self.d_phase)
        noise = ref.noise(scenario)

        def program_rate(phi):
            return qkd.total_skr(case, [ref.branch(*betas, phi)], noise).total_skr

        tol = ref.BRANCH_ABS_TOL
        grid = [2.0 * math.pi * (i + self.grid_offset) / self.check_grid
                for i in range(self.check_grid)]
        values = [program_rate(phi) for phi in grid]
        ok = 0.0 <= phi_star <= math.pi and skr_star >= max(values) - tol
        ok &= all(abs(program_rate(2.0 * math.pi - phi) - v) <= tol
                  and abs(program_rate(phi + 2.0 * math.pi) - v) <= tol
                  for phi, v in zip(grid, values))
        own, _ = ref.rate(case, [ref.branch(*betas, phi_star)], noise)
        return ok and ref.agrees(skr_star, own, 1)

    def _rate_at(self, tag: str, d: float) -> float:
        b = ref.branch(*ref.los_betas(self.reach_base, d),
                       self.reach_base.ris.common_phase)
        return ref.rate(CASES[tag], [b], ref.noise(self.reach_base))[0]

    def _check_reach(self, tag: str, d_star: float) -> bool:
        if d_star == 0.0:
            grid = [self.reach_d_min + (self.d_max - self.reach_d_min) * i
                    / (self.reach_grid_points - 1) for i in range(self.reach_grid_points)]
            return all(self._rate_at(tag, d) <= ref.BRANCH_ABS_TOL for d in grid)
        return (self._rate_at(tag, d_star - self.reach_tolerance) > 0.0
                >= self._rate_at(tag, d_star + self.reach_tolerance))

    def check(self) -> tuple[int, dict]:
        first = self.outputs[0]
        bad = set()
        for j, (kind, n, tag) in enumerate(self.ops):
            ok = (self._check_phase(n, tag, *first[j]) if kind == "phase"
                  else self._check_reach(tag, first[j]))
            if not ok:
                bad.add(j)
        # the paper's table: case f at 50 m, optimum near 85.85 deg for 16
        # antennas and not increasing with the antenna count
        table = [j for j, (kind, n, tag) in enumerate(self.ops)
                 if kind == "phase" and tag == "f" and n != 32]
        degrees = [math.degrees(first[j][0]) for j in table]
        if not (abs(degrees[0] - 85.85) <= 10.0
                and all(a >= b for a, b in zip(degrees, degrees[1:]))):
            bad.update(table)
        direct = self.ops.index(("reach", None, "d"))
        if first[direct] != 0.0:  # Eve storing the direct hop leaves no key
            bad.add(direct)
        failed = sum(j in bad or out[j] != first[j]
                     for out in self.outputs for j in range(len(self.ops)))
        return failed, {"d_max_m": self.d_max, "table_deg": degrees,
                        "reach_m": {tag: first[self.ops.index(("reach", None, tag))]
                                    for tag in self.reach_ops}}


class Verify:
    """``oracle.run_verification`` over seeded draws; one operation is one
    draw (three cases, nine checks).  Every round repeats the same draws, so
    rounds do equal work; 500 draws keep the share of draws that take the
    extended-precision path within a few percent between seeds."""

    name = "verify"
    draws = 500
    ops_per_round = draws
    tolerance = 1e-8

    def __init__(self, seed: int, out_dir: Path):
        self.draw_seed = random.Random(seed).randrange(2 ** 31)
        self.outputs: list = []

    def round(self):
        return oracle.run_verification(self.draws, seed=self.draw_seed)

    def record(self, results) -> None:
        self.outputs.append(results)

    def check(self) -> tuple[int, dict]:
        names = {f"{kind}[{tag}]" for tag in "dgf"
                 for kind in ("eigs_unconditional", "eigs_conditional", "cond_blocks")}
        failed = 0
        worst = 0.0
        for results in self.outputs:
            ok = ({c.name for c in results} == names and len(results) == len(names)
                  and all(c.passed and c.max_deviation < self.tolerance
                          and c.draws == self.draws for c in results)
                  and results == self.outputs[0])
            worst = max([worst] + [c.max_deviation for c in results])
            failed += 0 if ok else self.draws
        return failed, {"draw_seed": self.draw_seed, "max_deviation": worst}


WORKLOADS = {w.name: w for w in (RichSweep, LargeArray, PhaseAndReach, Verify)}
