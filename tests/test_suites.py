"""Theorem suites: report plumbing, tag coverage, and small smoke runs."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bundlelab
from bundlelab import bundles, convexity, suites
from bundlelab.bundles import Bundle, Fiber
from bundlelab.convexity import SearchBudget
from bundlelab.generators import InstanceRecipe, bundles_from_recipe
from bundlelab.measure import MeasureSpace
from bundlelab.norms import WeightedLpNorm
from bundlelab.reportio import report_data_files, suite_reports_table
from bundlelab.suites import (
    CheckRow,
    REQUIRED_TAGS,
    SUITE_TAGS,
    TheoremReport,
    default_recipe,
    make_report,
    run_suites,
    suite_convexity_lower,
    suite_convexity_upper,
    suite_criterion,
    suite_duality,
    suite_hilbert,
    suite_pointwise_modulus,
)

TINY = {
    "hilbert": InstanceRecipe(seed=11, instance_count=2, atom_range=(2, 3)),
    "uc-upper": InstanceRecipe(seed=23, instance_count=1, atom_range=(2, 2),
                               dim_range=(2, 2), exponents=(2,)),
    "uc-lower": InstanceRecipe(seed=37, instance_count=1, atom_range=(2, 2),
                               dim_range=(2, 2), kinds=("inner_product",),
                               exponents=(2,)),
    "pointwise": InstanceRecipe(seed=41, instance_count=1, atom_range=(2, 2),
                                dim_range=(2, 2)),
    "duality": InstanceRecipe(seed=53, instance_count=1, atom_range=(2, 3)),
}
GRID = [0.5, 1.0, 1.5, 2.0]


def test_every_suite_covers_its_tags():
    assert frozenset().union(*SUITE_TAGS.values()) == REQUIRED_TAGS


def test_default_recipes_exist_for_every_suite():
    for name in SUITE_TAGS:
        recipe = default_recipe(name)
        assert isinstance(recipe, InstanceRecipe)
        assert recipe.instance_count >= 1


def test_make_report_verdict_consistency():
    good = CheckRow("ok", 0.0, 1e-9, True)
    bad = CheckRow("broken", 1.0, 1e-9, False)
    rep = make_report("s", "t", "i", [good])
    assert rep.verdict == "PASS" and not rep.unexpected
    rep = make_report("s", "t", "i", [good, bad])
    assert rep.verdict == "FAIL" and rep.unexpected
    rep = make_report("s", "t", "i", [bad], expected="FAIL")
    assert rep.verdict == "FAIL" and not rep.unexpected


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(("no-such-suite",))


class TestSmallRuns:
    def test_hilbert(self):
        reports = suite_hilbert(TINY["hilbert"])
        assert reports
        assert all(not r.unexpected for r in reports)
        assert {r.tag for r in reports} == {"hilbert-fiber-equivalence"}

    def test_uc_upper(self):
        reports = suite_convexity_upper(TINY["uc-upper"], GRID)
        assert all(not r.unexpected for r in reports)
        for rep in reports:
            assert "epsilon" in rep.data
            for row in rep.checks:
                assert row.residual <= row.threshold

    def test_uc_lower(self):
        reports = suite_convexity_lower(TINY["uc-lower"], GRID)
        assert all(not r.unexpected for r in reports)

    def test_pointwise(self):
        reports = suite_pointwise_modulus(TINY["pointwise"], [1.0, 2.0])
        assert all(not r.unexpected for r in reports)
        assert {r.tag for r in reports} == {"pointwise-modulus-equality"}

    def test_duality(self):
        reports = suite_duality(TINY["duality"])
        assert all(not r.unexpected for r in reports)
        tags = {r.tag for r in reports}
        assert "dual-norm-isometry" in tags
        assert "bidual-diagram" in tags
        assert "constant-fiber-chain" in tags

    def test_criterion_includes_expected_failures(self):
        reports = suite_criterion(seed=0, triple_count=40)
        assert all(not r.unexpected for r in reports)
        expected_fail = [r for r in reports if r.expected == "FAIL"]
        assert expected_fail, "counterexample catalogue must be exercised"
        for rep in expected_fail:
            assert rep.verdict == "FAIL"
            assert any(not row.passed and row.witness for row in rep.checks)
        tags = {r.tag for r in reports}
        assert {
            "restriction-additivity",
            "weak-star-continuity",
            "pointwise-norm-reconstruction",
            "measure-power-inequality",
        } <= tags


def test_run_suites_dispatch_and_determinism():
    reports_a = run_suites(("uc-upper",), recipes=TINY, eps_grid=GRID)
    reports_b = run_suites(("uc-upper",), recipes=TINY, eps_grid=GRID)
    assert len(reports_a) == len(reports_b) > 0
    for ra, rb in zip(reports_a, reports_b):
        assert ra.instance == rb.instance and ra.verdict == rb.verdict
        for ca, cb in zip(ra.checks, rb.checks):
            assert ca.residual == cb.residual  # bit-for-bit replay


def test_duality_suite_bytes_do_not_depend_on_hash_seed():
    """String hashing is salted per process; the suite's CSV must not be."""
    script = (
        "import sys\n"
        "from bundlelab.reportio import suite_reports_table\n"
        "from bundlelab.suites import default_recipe, suite_duality\n"
        "sys.stdout.write(suite_reports_table(suite_duality(), "
        "default_recipe('duality').seed))\n"
    )
    src = str(Path(bundlelab.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, check=True, timeout=300)
        outputs.append(run.stdout)
    assert outputs[0].count(b"\n") > 1
    assert outputs[0] == outputs[1] == outputs[2]


def test_report_fields_round_trip_into_dataclass():
    rep = make_report(
        "s", "t", "i", [CheckRow("r", 0.5, 1.0, True, witness="w")],
        notes=["n"], data={"xs": np.arange(3.0)},
    )
    assert dataclasses.is_dataclass(rep)
    assert isinstance(rep, TheoremReport)
    assert rep.checks[0].witness == "w"
    assert rep.notes == ["n"]


def test_hilbert_searches_all_defects_in_one_kernel_call_per_dimension(monkeypatch):
    dims = []
    real = convexity.pair_search

    def pair_search(groups, dim, *args, **kwargs):
        dims.append(dim)
        return real(groups, dim, *args, **kwargs)

    monkeypatch.setattr(convexity, "pair_search", pair_search)
    recipe = InstanceRecipe(seed=11, instance_count=6, atom_range=(2, 3), dim_range=(1, 3))
    fiber_dims = {f.dimension for _, b in bundles_from_recipe(recipe) for f in b.fibers}
    assert {1, 2, 3} <= fiber_dims
    reports = suite_hilbert(recipe)
    assert sorted(dims) == [2, 3]
    assert len(reports) == 6 and all(not r.unexpected for r in reports)


def test_hilbert_witness_is_the_heaviest_of_tied_atoms(monkeypatch):
    """Two atoms carry the same non-Hilbert norm, so their defects tie; the
    localized violation sits on the heavier atom, not the first one."""
    l1 = WeightedLpNorm(1, [1.0, 1.0])
    bundle = Bundle(MeasureSpace(["a0", "a1"], [1.0, 2.0]), [Fiber(2, l1), Fiber(2, l1)])
    monkeypatch.setattr(suites, "bundles_from_recipe", lambda recipe: [(0, bundle)])
    (report,) = suite_hilbert(InstanceRecipe(seed=3, instance_count=1))
    (row,) = report.checks
    assert row.name == "localized-violation" and row.passed
    assert row.witness == "atom-index-1"
    (defect, _), = convexity.parallelogram_defects([l1], suites.SUITE_DEFECT_BUDGET)
    assert row.threshold == 0.5 * 2.0 * defect


def test_uc_upper_rerun_repeats_its_searches_and_keeps_bytes(monkeypatch):
    """Nothing outlives a run: a second run in the same process makes the
    same fiber kernel calls (one per fiber dimension) and section kernel
    calls as the first, and its reports are byte-identical."""
    calls = {"fiber": 0, "section": 0}

    def counting(module, kind):
        real = module.pair_search

        def pair_search(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "pair_search", pair_search)

    counting(convexity, "fiber")
    counting(bundles, "section")
    recipe = InstanceRecipe(seed=5, instance_count=3, atom_range=(2, 3), dim_range=(2, 3),
                            exponents=(1.5, 3))
    budget = SearchBudget(restarts=4, iterations=10)
    fiber_dims = {f.dimension for _, b in bundles_from_recipe(recipe) for f in b.fibers}
    runs = []
    for _ in range(2):
        before = dict(calls)
        reports = suite_convexity_upper(recipe, [1.0, 2.0], budget)
        runs.append(({k: calls[k] - before[k] for k in calls},
                     suite_reports_table(reports, 0), report_data_files(reports)))
    (first, csv1, dat1), (second, csv2, dat2) = runs
    assert first == second == {"fiber": len(fiber_dims - {1}), "section": first["section"]}
    assert first["section"] >= 1
    assert csv1 == csv2 and dat1 == dat2


#: SHA-256 of the CSV and data files of small suite runs: a change that
#: means to keep report bytes keeps these, and one that moves them re-pins
#: them and says why
REPORT_SHA256 = {
    "hilbert": "dfb43237f4a6673ff649fe71c9776b948354bd3331c7cdf718b64b010ba3a29f",
    "uc-upper": "d7db120289a699f021b97fec586ab68e8d0c821c8a717e41e445aaefacedab67",
    "uc-upper-constant": "e734989380859030b066720ffb2cf02d64c2524235e8178bf65ce2120046b2ba",
    "uc-lower": "c1645756de534b8770c16346b03a9b7e109bfae03bdd5d3385fee69a6fdec422",
    "pointwise": "da8b5a6bec3de6181e6fe650da31574d8f3df20c65cf38369c9fae305b281c06",
}


def _small_run(name):
    if name == "hilbert":
        return suite_hilbert(TINY["hilbert"])
    if name == "uc-upper":
        return suite_convexity_upper(TINY["uc-upper"], GRID)
    if name == "uc-upper-constant":
        # every atom carries one norm, so equal fibers share their searches
        recipe = dataclasses.replace(TINY["uc-upper"], instance_count=2, atom_range=(2, 3),
                                     constant_fraction=1.0)
        return suite_convexity_upper(recipe, GRID)
    if name == "uc-lower":
        return suite_convexity_lower(TINY["uc-lower"], GRID)
    return suite_pointwise_modulus(TINY["pointwise"], [1.0, 2.0])


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_small_run_report_bytes_are_pinned(name):
    reports = _small_run(name)
    h = hashlib.sha256(suite_reports_table(reports, 0).encode())
    for fname, text in sorted(report_data_files(reports).items()):
        h.update(fname.encode())
        h.update(text.encode())
    assert h.hexdigest() == REPORT_SHA256[name]
