"""Acceptance gate: nine desk-scale checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every check is numeric and deterministic; seeds and budgets are pinned here.
"""

import json
import math
import time

import numpy as np
import pytest

from bundlelab.bundles import (
    pointwise_norm,
    section_lp_norm,
    section_modulus_curves,
)
from bundlelab.cli import main as cli_main
from bundlelab.convexity import (
    DEFAULT_EPS_GRID,
    FEASIBILITY_SLACK,
    SearchBudget,
    modulus_curve,
)
from bundlelab.criterion import (
    measure_inequality_report,
    mixed_max_norm,
    mixed_sum_norm,
    reconstruct_pointwise_norm,
    restriction_additivity_check,
    induced_norm,
    sup_over_atoms_norm,
)
from bundlelab.duality import (
    check_reflexivity_diagram,
    holder_maximizer,
    operator_norm,
)
from bundlelab.generators import (
    InstanceRecipe,
    instance_rng,
    random_bundle,
    random_measure_triple,
    random_section,
)
from bundlelab.measure import conjugate_exponent, lp_norm
from bundlelab.norms import InnerProductNorm, WeightedLpNorm
from bundlelab.suites import suite_hilbert


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_acceptance_1_euclidean_modulus_oracle():
    worst_gap, worst_time = 0.0, 0.0
    for dim in (2, 3):
        spec = InnerProductNorm(np.eye(dim))
        t0 = time.perf_counter()
        curve = modulus_curve(spec)  # default budget on the default grid
        elapsed = time.perf_counter() - t0
        target = 1.0 - np.sqrt(1.0 - (curve.epsilons / 2.0) ** 2)
        worst_gap = max(worst_gap, float(np.max(np.abs(curve.deltas - target))))
        worst_time = max(worst_time, elapsed)
    ok = worst_gap <= 1e-3 and worst_time < 10.0
    verdict(1, ok, f"closed-form gap {worst_gap:.2e} (tol 1e-3), "
                   f"slowest spec {worst_time:.2f}s (limit 10s)")
    assert ok


def test_acceptance_2_flat_norm_detection():
    worst = 0.0
    witnesses_ok = True
    for spec in (WeightedLpNorm(1, [1.0, 1.0]), WeightedLpNorm(math.inf, [1.0, 1.0])):
        curve = modulus_curve(spec)
        worst = max(worst, float(np.max(curve.deltas)))
        for eps, (v, w) in zip(curve.epsilons, curve.witnesses):
            witnesses_ok &= abs(spec.norm(v) - 1.0) <= 1e-9
            witnesses_ok &= abs(spec.norm(w) - 1.0) <= 1e-9
            witnesses_ok &= spec.norm(v - w) >= eps - FEASIBILITY_SLACK
    ok = worst <= 1e-9 and witnesses_ok
    verdict(2, ok, f"max delta over both flat planes {worst:.2e} (tol 1e-9), "
                   f"all witness pairs feasible: {witnesses_ok}")
    assert ok


def test_acceptance_3_hilbert_dichotomy():
    t0 = time.perf_counter()
    reports = suite_hilbert(
        InstanceRecipe(seed=301, instance_count=150, atom_range=(2, 4), dim_range=(2, 3))
    )
    reports += suite_hilbert(
        InstanceRecipe(seed=302, instance_count=50, atom_range=(2, 4),
                       dim_range=(2, 3), kinds=("inner_product",))
    )
    elapsed = time.perf_counter() - t0
    sides = {"integrated-identity-max": 0, "localized-violation": 0}
    misclassified = 0
    for rep in reports:
        if rep.unexpected:
            misclassified += 1
        name = rep.checks[0].name
        if name in sides:
            sides[name] += 1
    ok = (
        len(reports) >= 200
        and misclassified == 0
        and sides["integrated-identity-max"] >= 20
        and sides["localized-violation"] >= 20
    )
    verdict(3, ok, f"{len(reports)} bundles, {misclassified} misclassified, "
                   f"{sides['integrated-identity-max']} identity-side / "
                   f"{sides['localized-violation']} violation-side, {elapsed:.1f}s")
    assert ok


def test_acceptance_4_section_modulus_upper_bound():
    sec_budget = SearchBudget(restarts=4, iterations=20)
    fib_budget = SearchBudget(restarts=10, iterations=50)
    recipe = InstanceRecipe(seed=401, instance_count=100, atom_range=(2, 3),
                            dim_range=(2, 3))
    t0 = time.perf_counter()
    instances = [random_bundle(recipe, i) for i in range(recipe.instance_count)]
    # one batched call: its searches split over the usable CPUs
    curves = section_modulus_curves(
        instances, (1.5, 2, 3), DEFAULT_EPS_GRID, budget=sec_budget, fiber_budget=fib_budget
    )
    violations = 0
    worst_excess = -math.inf
    checked = 0
    for per_p in curves:
        # the fiber curves the section searches were seeded from
        floor = np.min(np.stack([c.deltas for c in per_p[0].meta["fiber_curves"]]), axis=0)
        for curve in per_p:
            excess = float(np.max(curve.deltas - floor))
            worst_excess = max(worst_excess, excess)
            violations += int(excess > 2e-3)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked == 300
    verdict(4, ok, f"{checked} (instance, p) curves on the full grid, "
                   f"{violations} violations, worst excess over the fiber floor "
                   f"{worst_excess:.2e} (tol 2e-3), {elapsed:.1f}s")
    assert ok


def test_acceptance_5_dual_norm_isometry():
    recipe = InstanceRecipe(seed=501, instance_count=120, atom_range=(2, 4),
                            dim_range=(2, 3))
    triples = 0
    worst_iso = 0.0
    worst_attain = 0.0
    t0 = time.perf_counter()
    for i in range(recipe.instance_count):
        bundle = random_bundle(recipe, i)
        rng = instance_rng(recipe.seed, i, stream=4)
        for p in (1.5, 2, 3):
            for _ in range(3):
                omega = random_section(bundle.dual(), rng)
                value = operator_norm(omega, p)
                reference = lp_norm(pointwise_norm(omega), conjugate_exponent(p))
                worst_iso = max(worst_iso, abs(value - reference))
                # operator_norm is the pairing with this maximizer, so
                # attainment rests on the maximizer being a unit section
                vstar = holder_maximizer(omega, p)
                if value > 1e-12:
                    worst_attain = max(worst_attain, abs(section_lp_norm(vstar, p) - 1.0))
                triples += 1
    elapsed = time.perf_counter() - t0
    ok = triples >= 1000 and worst_iso <= 1e-6 and worst_attain <= 1e-9
    verdict(5, ok, f"{triples} (bundle, covector, p) triples, isometry residual "
                   f"{worst_iso:.2e} (tol 1e-6), attainment residual "
                   f"{worst_attain:.2e} (tol 1e-9), {elapsed:.1f}s")
    assert ok


def test_acceptance_6_bidual_diagram():
    pairs = 0
    worst = 0.0
    all_passed = True
    t0 = time.perf_counter()
    mixed = InstanceRecipe(seed=601, instance_count=40, atom_range=(2, 4),
                           dim_range=(2, 3))
    constant = InstanceRecipe(seed=602, instance_count=30, atom_range=(2, 4),
                              dim_range=(2, 3), constant_fraction=1.0)
    for recipe, samples in ((mixed, 15), (constant, 14)):
        for i in range(recipe.instance_count):
            bundle = random_bundle(recipe, i)
            p = (1.5, 2, 3)[i % 3]
            rep = check_reflexivity_diagram(bundle, p, samples=samples,
                                            seed=recipe.seed + i)
            pairs += rep.samples
            worst = max(worst, rep.max_pairing_residual)
            all_passed &= rep.passed
    elapsed = time.perf_counter() - t0
    ok = pairs >= 1000 and worst <= 1e-9 and all_passed
    verdict(6, ok, f"{pairs} sampled (section, functional) pairs incl. constant "
                   f"bundles, max pairing residual {worst:.2e} (tol 1e-9), {elapsed:.1f}s")
    assert ok


def test_acceptance_7_reconstruction_round_trip():
    recipe = InstanceRecipe(seed=701, instance_count=60, atom_range=(2, 4),
                            dim_range=(2, 3))
    t0 = time.perf_counter()
    round_trips = 0
    worst = 0.0
    for i in range(recipe.instance_count):
        bundle = random_bundle(recipe, i)
        rng = instance_rng(recipe.seed, i, stream=6)
        for p in (1.5, 2, 3):
            norm = induced_norm(bundle, p)
            for _ in range(3):
                v = random_section(bundle, rng)
                rec = reconstruct_pointwise_norm(norm, p, v)
                worst = max(worst, float(np.max(np.abs(rec.values - pointwise_norm(v).values))))
                round_trips += 1

    # counterexample fixtures must fail with explicit witness subsets
    fixture_bundle = random_bundle(InstanceRecipe(seed=702, atom_range=(3, 3),
                                                  dim_range=(2, 2)), 0)
    fixtures_ok = True
    for norm, p in (
        (sup_over_atoms_norm(fixture_bundle), 2),
        (mixed_sum_norm(fixture_bundle, 2, 3), 2),
        (mixed_max_norm(fixture_bundle, 1.5, 3), 1.5),
    ):
        rep = restriction_additivity_check(norm, p, probes=4, seed=7)
        fixtures_ok &= (not rep.passed) and len(rep.witness_subset) > 0

    # mismatched exponent: detected with a witness whenever two atoms carry
    # unequal pointwise norms
    mismatch_ok = True
    for i in range(20):
        bundle = random_bundle(recipe, i)
        rng = instance_rng(recipe.seed, i, stream=8)
        v = random_section(bundle, rng)
        if bundle.dimensions[0] > 0:
            v.vectors[0] *= 2.0  # force unequal pointwise norms
        norms = pointwise_norm(v).values
        assert np.max(norms) - np.min(norms) > 1e-6
        rep = restriction_additivity_check(induced_norm(bundle, 2), 3, probes=[v])
        mismatch_ok &= (not rep.passed) and len(rep.witness_subset) > 0
    elapsed = time.perf_counter() - t0
    ok = round_trips >= 500 and worst <= 1e-9 and fixtures_ok and mismatch_ok
    verdict(7, ok, f"{round_trips} induced-norm round trips, worst atomwise gap "
                   f"{worst:.2e} (tol 1e-9); counterexample fixtures fail with "
                   f"witnesses: {fixtures_ok}; mismatched-exponent witnesses: "
                   f"{mismatch_ok}; {elapsed:.1f}s")
    assert ok


def test_acceptance_8_measure_power_inequality():
    t0 = time.perf_counter()
    accepted = 0
    flagged = 0
    index = 0
    while accepted < 10000 and index < 40000:
        triple = random_measure_triple(801, index)
        index += 1
        rep = measure_inequality_report(triple)
        if rep.set_level_holds:
            accepted += 1
            flagged += int(rep.implication_violated)
    elapsed = time.perf_counter() - t0
    ok = accepted == 10000 and flagged == 0
    verdict(8, ok, f"{accepted} accepted triples out of {index} candidates, "
                   f"{flagged} flagged implication violations, {elapsed:.1f}s")
    assert ok


def test_acceptance_9_deterministic_suite_reruns(tmp_path):
    config = {
        "suites": ["uc-upper"],
        "recipes": {
            "uc-upper": {"seed": 901, "instance_count": 1, "atom_range": [2, 2],
                         "dim_range": [2, 2], "exponents": [2]}
        },
        "grid": [0.5, 1.0],
        "budget": {"restarts": 8, "iterations": 40},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["suite", "--config", str(cfg), "--out", str(out1)])
    code2 = cli_main(["suite", "--config", str(cfg), "--out", str(out2)])
    identical = True
    compared = 0
    for path1 in sorted(out1.iterdir()):
        if path1.name == "summary.md":
            continue  # carries the run timestamp by design
        path2 = out2 / path1.name
        identical &= path2.exists() and path1.read_bytes() == path2.read_bytes()
        compared += 1
    ok = code1 == 0 and code2 == 0 and compared >= 2 and identical
    verdict(9, ok, f"two identical-config runs, {compared} report files compared "
                   f"byte-for-byte, identical: {identical}")
    assert ok
