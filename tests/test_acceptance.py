"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 2 checks the uncertainty bound (every symplectic eigenvalue of the
stored pair, before and after conditioning, is at least 1) where the attack
model promises it:

- under ``AttackModel.INDEPENDENT`` (one EPR pair per hop, a genuine
  beamsplitter network) for all three storage cases;
- under the default ``AttackModel.PAPER`` for the direct case, a genuine
  one-beamsplitter interaction.

For the paper model's two RIS-side cases the shared probe mode enters
several beamsplitters, Bob's reflected mode does not commute with the stored
output, and the bound cannot hold; there the criterion checks that every
sub-vacuum eigenvalue is counted in the branch record's negativity count.
The Holevo quantity is checked to be non-negative under both models.
"""

import math
import time

import numpy as np
import pytest

from ris_cvqkd.channel import build_channels
from ris_cvqkd.cli import emit_csv
from ris_cvqkd.config import default_scenario
from ris_cvqkd.decomposition import branch_params, decompose, make_branch
from ris_cvqkd.experiments import (SweepSpec, SweepVariable, evaluate_scenario,
                                   max_secure_distance, no_ris_baseline,
                                   noise_model, optimal_phase, run_sweep,
                                   scenario_with_antennas,
                                   scenario_with_ris_elements)
from ris_cvqkd.oracle import random_block, run_verification, scenario_at_distance
from ris_cvqkd.qkd import (AncillaCase, AttackModel, NoiseModel,
                           thermal_occupation, total_skr)

GRID_DRAWS = 10_000


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    results = run_verification(GRID_DRAWS, seed=42)
    elapsed = time.perf_counter() - t0
    eig_checks = [c for c in results if c.name.startswith("eigs_")]
    worst = max(c.max_deviation for c in eig_checks)
    ok = all(c.passed for c in eig_checks) and elapsed < 60.0
    _report(1, ok, f"worst eigenvalue deviation {worst:.2e} over "
                   f"{GRID_DRAWS} draws (tol 1e-8), runtime {elapsed:.1f} s")
    assert all(c.passed for c in eig_checks), \
        [f"{c.name}: {c.max_deviation:.3e}" for c in eig_checks if not c.passed]
    assert elapsed < 60.0


def test_criterion_2_uncertainty_bound():
    branches, n = random_block(np.random.default_rng(42), GRID_DRAWS)
    keys = [(model, case) for model in AttackModel for case in AncillaCase]
    below, uncounted, min_lam = {}, {}, {}
    min_holevo = {model: math.inf for model in AttackModel}
    for model, case in keys:
        rates = total_skr(case, branches, n, model=model).rates
        lams = np.array([rates.lambda_1, rates.lambda_2, rates.lambda_3, rates.lambda_4])
        sub_vacuum = (lams < 1.0 - 1e-9).sum(axis=0)
        min_lam[model, case] = float(lams.min())
        below[model, case] = int(np.count_nonzero(sub_vacuum))
        uncounted[model, case] = int(np.count_nonzero(rates.negativity_count != sub_vacuum))
        min_holevo[model] = min(min_holevo[model], float(rates.holevo.min()))
    # the bound holds where the model is a genuine beamsplitter network
    promised = [(AttackModel.INDEPENDENT, case) for case in AncillaCase] \
        + [(AttackModel.PAPER, AncillaCase.DIRECT)]
    lam_ok = all(below[key] == 0 for key in promised)
    count_ok = all(v == 0 for v in uncounted.values())
    holevo_ok = all(v >= -1e-9 for v in min_holevo.values())
    detail = "; ".join(
        f"{model.value}: min eigenvalue "
        + ", ".join(f"{c.value}={min_lam[model, c]:.4f}" for c in AncillaCase)
        + ", draws below 1-1e-9 "
        + ", ".join(f"{c.value}={below[model, c]}" for c in AncillaCase)
        + f", min Holevo {min_holevo[model]:.3e}"
        for model in AttackModel)
    _report(2, lam_ok and count_ok and holevo_ok, detail)
    assert holevo_ok, f"Holevo fell below -1e-9: {min_holevo}"
    assert lam_ok, "sub-vacuum symplectic eigenvalues where the model " \
        "promises a state: " + detail
    assert count_ok, "sub-vacuum eigenvalues missing from negativity_count: " \
        + str({f"{m.value}/{c.value}": v for (m, c), v in uncounted.items()})


def test_criterion_3_limit_cases():
    rng = np.random.default_rng(1)
    worst_holevo = 0.0
    worst_skr_gap = 0.0
    for _ in range(50):
        b = make_branch(1.0, rng.uniform(0, 1), rng.uniform(0, 1),
                        rng.uniform(0, 2 * math.pi))
        n = NoiseModel.from_link(1e13, 300.0, v_s=rng.uniform(1, 2000),
                                 v_e=1.0 + rng.uniform(0, 19))
        rec = total_skr(AncillaCase.DIRECT, [b], n).branches[0]
        worst_holevo = max(worst_holevo, abs(rec.holevo))
        i_ab = rec.i_ab_direct + rec.i_ab_ris
        worst_skr_gap = max(worst_skr_gap, abs(rec.skr - i_ab))
    worst_eig = 0.0
    for _ in range(50):
        b = make_branch(rng.uniform(0, 1), rng.uniform(0, 1),
                        rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        n = NoiseModel.from_link(1e13, 300.0, v_s=rng.uniform(1, 2000), v_e=1.0)
        rec = total_skr(AncillaCase.DIRECT, [b], n).branches[0]
        lam1, lam2 = rec.lambda_1, rec.lambda_2
        v_out = (1.0 - b.beta_d) * n.v_a + b.beta_d * n.v_e
        worst_eig = max(worst_eig, abs(lam1 - v_out), abs(lam2 - 1.0))
    ok = worst_holevo < 1e-12 and worst_skr_gap < 1e-12 and worst_eig < 1e-10
    _report(3, ok, f"transparent-link Holevo |max| {worst_holevo:.1e} "
                   f"(tol 1e-12), rate gap {worst_skr_gap:.1e}, "
                   f"unit-probe eigenvalue error {worst_eig:.1e} (tol 1e-10)")
    assert ok


def test_criterion_4_thermal_noise():
    v_o = 2.0 * thermal_occupation(1e13, 300.0) + 1.0
    reference = 1.5061006782740579  # 40-digit Planck-law evaluation
    ok = abs(v_o - reference) < 1e-3
    _report(4, ok, f"vacuum variance {v_o:.6f} vs {reference:.6f} (tol 1e-3)")
    assert ok


def test_criterion_5_phase_argmax():
    base = scenario_at_distance(default_scenario(), 5.0)
    bundles = decompose(build_channels(base))
    branches, _ = branch_params(bundles, base.ris)
    noise = noise_model(base)
    grid = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    step = 2.0 * math.pi / 256

    def argmax_phase(case):
        values = []
        for phi in grid:
            swapped = [make_branch(b.beta_d, b.beta_g, b.beta_f, float(phi),
                                   b.branch_index) for b in branches]
            values.append(total_skr(case, swapped, noise).total_skr)
        return float(grid[int(np.argmax(values))])

    def circular_distance(a, b):
        d = abs(a - b) % (2.0 * math.pi)
        return min(d, 2.0 * math.pi - d)

    phi_d = argmax_phase(AncillaCase.DIRECT)
    phi_g = argmax_phase(AncillaCase.ALICE_RIS)
    ok_d = circular_distance(phi_d, math.pi) <= step + 1e-12
    ok_g = circular_distance(phi_g, 0.0) <= step + 1e-12
    _report(5, ok_d and ok_g,
            f"direct-case argmax {math.degrees(phi_d):.2f} deg (target 180), "
            f"tap-case argmax {math.degrees(phi_g):.2f} deg (target 0), "
            f"grid step {math.degrees(step):.2f} deg")
    assert ok_d and ok_g


def test_criterion_6_optimal_phase_table():
    base = scenario_at_distance(default_scenario(), 50.0)
    s16 = scenario_with_antennas(base, 16)
    opt = optimal_phase(s16, AncillaCase.RIS_BOB)
    anchor_deg = math.degrees(opt.phi_star)
    ok_anchor = abs(anchor_deg - 85.85) <= 10.0
    phis = [anchor_deg]
    for n in (64, 256, 1024):
        sn = scenario_with_antennas(base, n)
        phis.append(math.degrees(
            optimal_phase(sn, AncillaCase.RIS_BOB).phi_star))
    ok_trend = all(a >= b - 1e-6 for a, b in zip(phis, phis[1:]))
    _report(6, ok_anchor and ok_trend,
            f"16-antenna optimum {anchor_deg:.2f} deg (target 85.85 +- 10); "
            f"trend over antennas {[round(p, 2) for p in phis]} non-increasing")
    assert ok_anchor and ok_trend


def test_criterion_7_trend_suite():
    base = default_scenario()
    distance_grid = (2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 80.0)
    sweep = run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB,
                                grid=distance_grid, base=base))
    notes = []

    dist_ok = True
    for case in AncillaCase:
        values = [row.reports[case].total_skr for row in sweep.rows]
        dist_ok &= all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    notes.append(f"distance non-increasing {dist_ok}")

    antenna_ok = True
    for case in AncillaCase:
        values = [evaluate_scenario(scenario_with_antennas(base, n),
                                    (case,))[case].total_skr
                  for n in (32, 128, 512)]
        antenna_ok &= values[0] <= values[1] <= values[2]
    notes.append(f"antennas non-decreasing {antenna_ok}")

    s60 = scenario_at_distance(base, 60.0)
    k_values = [evaluate_scenario(scenario_with_ris_elements(s60, k),
                                  (AncillaCase.RIS_BOB,))
                [AncillaCase.RIS_BOB].total_skr for k in (100, 900, 3600)]
    k_ok = k_values[0] <= k_values[1] <= k_values[2]
    notes.append(f"RIS elements non-decreasing {k_ok}")

    d_direct = max_secure_distance(base, AncillaCase.DIRECT)
    d_reflected = max_secure_distance(base, AncillaCase.RIS_BOB)
    reach_ok = d_reflected >= d_direct
    notes.append(f"reach {d_reflected:.1f} m >= {d_direct:.1f} m {reach_ok}")

    baseline = no_ris_baseline(base, distances=distance_grid)
    base_ok = True
    for row_b, row_a in zip(baseline.rows, sweep.rows):
        floor = row_b.reports[AncillaCase.DIRECT].total_skr
        for case in AncillaCase:
            base_ok &= floor <= row_a.reports[case].total_skr + 1e-15
    notes.append(f"baseline dominated {base_ok}")

    ok = dist_ok and antenna_ok and k_ok and reach_ok and base_ok
    _report(7, ok, "; ".join(notes))
    assert ok


def test_criterion_8_recomposition():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        b = make_branch(*rng.uniform(0, 1, size=3), rng.uniform(0, 2 * math.pi))
        n = NoiseModel.from_link(1e13, 300.0, v_s=rng.uniform(1, 2000),
                                 v_e=1.0 + rng.uniform(0, 19))
        for case in AncillaCase:
            rec = total_skr(case, [b], n).branches[0]
            x = math.sqrt(b.beta_f * (1 - b.beta_f) * (1 - b.beta_g))
            bracket = 1.0 - b.beta_f * b.beta_g + 2.0 * x * math.cos(b.phi)
            num = (b.beta_d * n.v_a + (1 - b.beta_d) * n.v_e) \
                * (b.beta_g * b.beta_f * n.v_a + bracket * n.v_e)
            den = (b.beta_d * n.v_o + (1 - b.beta_d) * n.v_e) \
                * (b.beta_g * b.beta_f * n.v_o + bracket * n.v_e)
            literal = 0.5 * math.log2(num / den) - rec.holevo
            worst = max(worst, abs(rec.skr - literal))
    b = make_branch(0.41, 0.13, 0.77, 2.1)
    n = NoiseModel.from_link(1e13, 300.0, v_s=750.0, v_e=2.5)
    single = total_skr(AncillaCase.ALICE_RIS, [b], n).total_skr
    triple = total_skr(AncillaCase.ALICE_RIS, [b, b, b], n).total_skr
    additive = (triple == 3.0 * single)
    ok = worst < 1e-10 and additive
    _report(8, ok, f"worst recomposition gap {worst:.2e} (tol 1e-10); "
                   f"duplicated branches exactly additive {additive}")
    assert ok


def test_criterion_9_performance():
    rich = default_scenario(extra_paths_d=31, extra_paths_g=31,
                            extra_paths_f=31, extra_path_angle_spread_rad=1.0,
                            extra_path_excess_length=1.001)
    grid = tuple(1.0 + i for i in range(100))
    t0 = time.perf_counter()
    result = run_sweep(SweepSpec(variable=SweepVariable.DISTANCE_AB,
                                 grid=grid, base=rich))
    elapsed = time.perf_counter() - t0
    branch_counts = {len(row.reports[AncillaCase.DIRECT].branches)
                     for row in result.rows}
    ok = elapsed < 5.0 and branch_counts == {32}
    _report(9, ok, f"100-point sweep with 32 branches, three cases: "
                   f"{elapsed:.2f} s (limit 5 s)")
    assert branch_counts == {32}
    assert elapsed < 5.0


def test_criterion_10_determinism(tmp_path):
    spec = SweepSpec(variable=SweepVariable.DISTANCE_AB,
                     grid=(5.0, 12.5, 20.0), base=default_scenario())
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    emit_csv(run_sweep(spec), str(first))
    emit_csv(run_sweep(spec), str(second))
    ok = first.read_bytes() == second.read_bytes()
    _report(10, ok, f"repeated sweep CSV byte-identical {ok} "
                    f"({first.stat().st_size} bytes)")
    assert ok
