"""Randomized verification suites for the package's structural claims.

Each suite draws deterministic instances from a recipe, runs numeric
checks, and emits :class:`TheoremReport` rows.  Reports carry an expected
verdict so fixtures that are supposed to fail (for example the sup-over
-atoms norm under restriction additivity) do not count as unexpected.

The registry below names every claim the suites are responsible for; an
exhaustiveness test asserts the union of emitted tags covers it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .bundles import (
    Bundle,
    Fiber,
    Section,
    parallelogram_residual,
    pointwise_norm,
    section_lp_norm,
    section_modulus_curves,
)
from .convexity import (
    DEFAULT_EPS_GRID,
    SearchBudget,
    modulus_curves,
    modulus_grid_estimate_2d,
    parallelogram_defects,
)
from .criterion import (
    induced_norm,
    measure_inequality_report,
    mixed_max_norm,
    mixed_sum_norm,
    reconstruct_pointwise_norm,
    restriction_additivity_check,
    sup_over_atoms_norm,
    weak_star_continuity_check,
)
from .duality import (
    check_reflexivity_diagram,
    holder_maximizer,
    integrated_pairing,
    operator_norm,
)
from .generators import (
    ALL_KINDS,
    UC_KINDS,
    InstanceRecipe,
    bundle_digest,
    bundles_from_recipe,
    instance_rng,
    random_measure_triple,
    random_section,
)
from .measure import MeasureSpace, conjugate_exponent, lp_norm
from .norms import InnerProductNorm, WeightedLpNorm

__all__ = [
    "CheckRow",
    "TheoremReport",
    "REQUIRED_TAGS",
    "SUITE_TAGS",
    "SUITE_NAMES",
    "suite_names",
    "default_recipe",
    "suite_hilbert",
    "suite_convexity_upper",
    "suite_convexity_lower",
    "suite_pointwise_modulus",
    "suite_duality",
    "suite_criterion",
    "run_suites",
]

#: every structural claim the suites must touch
REQUIRED_TAGS = frozenset(
    {
        "hilbert-fiber-equivalence",
        "section-modulus-upper-bound",
        "section-modulus-qualitative-lower",
        "pointwise-modulus-equality",
        "dual-norm-isometry",
        "bidual-diagram",
        "constant-fiber-chain",
        "restriction-additivity",
        "weak-star-continuity",
        "pointwise-norm-reconstruction",
        "measure-power-inequality",
    }
)

SUITE_TAGS = {
    "hilbert": frozenset({"hilbert-fiber-equivalence"}),
    "uc-upper": frozenset({"section-modulus-upper-bound"}),
    "uc-lower": frozenset({"section-modulus-qualitative-lower"}),
    "pointwise": frozenset({"pointwise-modulus-equality"}),
    "duality": frozenset({"dual-norm-isometry", "bidual-diagram", "constant-fiber-chain"}),
    "criterion": frozenset(
        {
            "restriction-additivity",
            "weak-star-continuity",
            "pointwise-norm-reconstruction",
            "measure-power-inequality",
        }
    ),
}

SUITE_NAMES = tuple(SUITE_TAGS)

#: reduced search effort for randomized sweeps (accuracy needs are 2e-3)
SUITE_BUDGET = SearchBudget(restarts=16, iterations=80)
SUITE_DEFECT_BUDGET = SearchBudget(restarts=16, iterations=60, init_step=0.35)
#: the fiber-vs-grid comparison needs the optimizer near its floor
POINTWISE_BUDGET = SearchBudget(restarts=48, iterations=160)

#: section pairs per instance of the integrated parallelogram identity
HILBERT_SAMPLES = 4
#: angles of the dense planar grid the fiber curves are compared with
POINTWISE_GRID_SAMPLES = 4096
#: random (functional, section) pairs per instance of the duality checks
DUALITY_SAMPLES = 3

#: note attached to the qualitative lower-bound reports
SHRINK_NOTE = (
    "separation shrink factor one fifth per the stated bound; a variant "
    "argument for probability weights gives one quarter - the qualitative "
    "verdict is unchanged either way"
)


@dataclass
class CheckRow:
    name: str
    residual: float
    threshold: float
    passed: bool
    witness: str = ""


@dataclass
class TheoremReport:
    suite: str
    tag: str
    instance: str
    checks: list
    verdict: str
    expected: str = "PASS"
    notes: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def unexpected(self) -> bool:
        return self.verdict != self.expected


def make_report(suite, tag, instance, checks, expected="PASS", notes=None, data=None):
    verdict = "PASS" if all(c.passed for c in checks) else "FAIL"
    return TheoremReport(
        suite, tag, instance, list(checks), verdict, expected, list(notes or []), dict(data or {})
    )


def default_recipe(suite: str) -> InstanceRecipe:
    """Modest default instance recipes, sized for interactive runs."""
    if suite == "hilbert":
        return InstanceRecipe(seed=11, instance_count=12, atom_range=(2, 4),
                              dim_range=(2, 3), kinds=ALL_KINDS, constant_fraction=0.2)
    if suite == "uc-upper":
        return InstanceRecipe(seed=23, instance_count=6, atom_range=(2, 3),
                              dim_range=(2, 3), kinds=ALL_KINDS, exponents=(1.5, 2, 3))
    if suite == "uc-lower":
        return InstanceRecipe(seed=37, instance_count=6, atom_range=(2, 3),
                              dim_range=(2, 3), kinds=UC_KINDS,
                              lp_exponents=(1.5, 2, 3, 4), exponents=(1.5, 2, 3))
    if suite == "pointwise":
        return InstanceRecipe(seed=41, instance_count=4, atom_range=(2, 3),
                              dim_range=(2, 2), kinds=ALL_KINDS)
    if suite == "duality":
        return InstanceRecipe(seed=53, instance_count=6, atom_range=(2, 4),
                              dim_range=(2, 3), kinds=ALL_KINDS,
                              constant_fraction=0.25, exponents=(1.5, 2, 3))
    if suite == "criterion":
        return InstanceRecipe(seed=67, instance_count=4, atom_range=(2, 4), dim_range=(2, 3))
    raise ValueError(f"unknown suite: {suite!r}")


# -- hilbert equivalence -------------------------------------------------------


def suite_hilbert(recipe=None) -> list[TheoremReport]:
    """Inner-product fibers if and only if the integrated two-norm satisfies
    the parallelogram identity; failures are certified by sections localized
    on a defective fiber.  The defects of all fibers are searched together,
    one kernel call per fiber dimension."""
    recipe = recipe or default_recipe("hilbert")
    instances = list(bundles_from_recipe(recipe))
    specs = [f.norm for _, b in instances for f in b.fibers if f.dimension > 0]
    found = iter(parallelogram_defects(specs, SUITE_DEFECT_BUDGET))
    reports = []
    for index, bundle in instances:
        inst = bundle_digest(bundle)
        rng = instance_rng(recipe.seed, index, stream=2)
        checks = []
        notes = []
        if bundle.degenerate:
            checks.append(CheckRow("degenerate-vacuous", 0.0, 1e-9, True))
            notes.append("all fibers zero-dimensional; identity holds vacuously")
            reports.append(make_report("hilbert", "hilbert-fiber-equivalence", inst, checks, notes=notes))
            continue
        defects = np.zeros(bundle.space.atom_count)
        witnesses = [None] * bundle.space.atom_count
        for x, f in enumerate(bundle.fibers):
            if f.dimension > 0:
                defects[x], witnesses[x] = next(found)
        max_defect = float(defects.max())
        if max_defect <= 1e-9:
            worst = 0.0
            for _ in range(HILBERT_SAMPLES):
                v = random_section(bundle, rng)
                w = random_section(bundle, rng)
                worst = max(worst, parallelogram_residual(v, w))
            checks.append(CheckRow("integrated-identity-max", worst, 1e-9, worst <= 1e-9))
        elif max_defect > 1e-3:
            # the witness atom must not follow search roundoff: among the
            # fibers within 1e-6 of the worst defect, the heaviest atom,
            # then the lowest index
            near = np.flatnonzero(defects >= max_defect - 1e-6)
            x = int(near[np.argmax(bundle.space.weights[near])])
            a, b = witnesses[x]
            v = Section(bundle, [a if y == x else np.zeros(d)
                                 for y, d in enumerate(bundle.dimensions)])
            w = Section(bundle, [b if y == x else np.zeros(d)
                                 for y, d in enumerate(bundle.dimensions)])
            res = parallelogram_residual(v, w)
            floor = 0.5 * bundle.space.weights[x] * defects[x]
            checks.append(
                CheckRow("localized-violation", res, floor, res >= max(floor, 1e-9),
                         witness=f"atom-index-{x}")
            )
        else:
            checks.append(
                CheckRow("defect-indeterminate", max_defect, 1e-9, False,
                         witness="defect between the two class thresholds")
            )
        reports.append(make_report("hilbert", "hilbert-fiber-equivalence", inst, checks, notes=notes))
    return reports


# -- modulus bounds ------------------------------------------------------------


def _worst_raw(curves) -> np.ndarray:
    """The least raw modulus of several curves, point by point."""
    return np.min(np.stack([c.raw_deltas for c in curves]), axis=0)


def _fiber_floors_raw(bundles, eps_grid, budget) -> list:
    """Worst raw fiber modulus of each bundle, from one ``modulus_curves``
    call over all their fibers."""
    specs = [[f.norm for f in b.fibers if f.dimension > 0] for b in bundles]
    curves = iter(modulus_curves([s for ss in specs for s in ss], eps_grid, budget))
    return [_worst_raw([next(curves) for _ in ss]) for ss in specs]


def _live_bundles(recipe):
    """The recipe's bundles, and the non-degenerate ones among them."""
    bundles = [b for _, b in bundles_from_recipe(recipe)]
    return bundles, [b for b in bundles if not b.degenerate]


def suite_convexity_upper(recipe=None, eps_grid=None,
                          budget: SearchBudget | None = None) -> list[TheoremReport]:
    """The section-space modulus never exceeds the worst fiber modulus
    (up to the paired-optimizer tolerance 2e-3), for every exponent.  The
    fiber floor comes from the fiber curves the section search was seeded
    from (``meta["fiber_curves"]``), so no fiber is searched twice.
    ``budget`` sets the section searches; fibers are searched under
    ``SUITE_BUDGET``."""
    recipe = recipe or default_recipe("uc-upper")
    eps = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
    budget = budget or SUITE_BUDGET
    bundles, live = _live_bundles(recipe)
    curves = iter(section_modulus_curves(live, recipe.exponents, eps, budget, SUITE_BUDGET))
    reports = []
    for bundle in bundles:
        inst = bundle_digest(bundle)
        if bundle.degenerate:
            reports.append(
                make_report("uc-upper", "section-modulus-upper-bound", inst,
                            [CheckRow("degenerate-vacuous", 0.0, 2e-3, True)],
                            notes=["degenerate bundle skipped"])
            )
            continue
        per_p = next(curves)
        floor = _worst_raw(per_p[0].meta["fiber_curves"])
        checks = []
        data = {"epsilon": eps, "fiber-floor": floor}
        for p, curve in zip(recipe.exponents, per_p):
            gap = float(np.max(curve.raw_deltas - floor))
            checks.append(CheckRow(f"upper-bound-gap-p{p}", gap, 2e-3, gap <= 2e-3))
            data[f"section-curve-p{p}"] = curve.raw_deltas
        reports.append(
            make_report("uc-upper", "section-modulus-upper-bound", inst, checks, data=data)
        )
    return reports


def suite_convexity_lower(recipe=None, eps_grid=None,
                          budget: SearchBudget | None = None) -> list[TheoremReport]:
    """Qualitative transfer of uniform convexity: when every fiber keeps a
    macroscopic modulus at one fifth of the separation, the section-space
    estimate stays above the optimizer floor.  No explicit transfer function
    is available, so only the implication is asserted.  ``budget`` sets the
    section searches; fibers are searched under ``SUITE_BUDGET``."""
    recipe = recipe or default_recipe("uc-lower")
    eps = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
    budget = budget or SUITE_BUDGET
    bundles, live = _live_bundles(recipe)
    floors_fifth = iter(_fiber_floors_raw(live, eps / 5.0, SUITE_BUDGET))
    curves = iter(section_modulus_curves(live, recipe.exponents, eps, budget, SUITE_BUDGET))
    reports = []
    for bundle in bundles:
        inst = bundle_digest(bundle)
        if bundle.degenerate:
            reports.append(
                make_report("uc-lower", "section-modulus-qualitative-lower", inst,
                            [CheckRow("degenerate-vacuous", 0.0, 1e-4, True)],
                            notes=["degenerate bundle skipped", SHRINK_NOTE])
            )
            continue
        premise = next(floors_fifth) > 0.01
        checks = []
        for p, curve in zip(recipe.exponents, next(curves)):
            bad = premise & (curve.deltas <= 1e-4)
            count = int(bad.sum())
            witness = f"first-failing-eps-{eps[np.argmax(bad)]:g}" if count else ""
            checks.append(
                CheckRow(f"qualitative-lower-p{p}", float(count), 0.0, count == 0, witness)
            )
        notes = [SHRINK_NOTE]
        if not premise.any():
            notes.append("premise never met on this instance; implication vacuous")
        reports.append(
            make_report("uc-lower", "section-modulus-qualitative-lower", inst, checks, notes=notes)
        )
    return reports


def suite_pointwise_modulus(recipe=None, eps_grid=None,
                            budget: SearchBudget | None = None) -> list[TheoremReport]:
    """The fiberwise modulus field agrees with an independent dense-grid
    estimator run on sections supported on a single atom (planar fibers).
    The curves of all planar fibers of the recipe come from one
    ``modulus_curves`` call."""
    recipe = recipe or default_recipe("pointwise")
    eps = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
    budget = budget or POINTWISE_BUDGET
    instances = list(bundles_from_recipe(recipe))
    planar = iter(modulus_curves(
        [f.norm for _, b in instances for f in b.fibers if f.dimension == 2], eps, budget))
    reports = []
    for index, bundle in instances:
        inst = bundle_digest(bundle)
        checks = []
        notes = []
        for x, f in enumerate(bundle.fibers):
            if f.dimension != 2:
                notes.append(f"atom index {x}: dimension {f.dimension} skipped "
                             "(dense pair grid is planar only)")
                continue
            opt = next(planar).deltas
            _, grid = modulus_grid_estimate_2d(f.norm, eps, samples=POINTWISE_GRID_SAMPLES)
            gap = float(np.max(np.abs(opt - grid)))
            checks.append(CheckRow(f"fiber-vs-grid-atom{x}", gap, 2e-3, gap <= 2e-3))
        if not checks:
            checks.append(CheckRow("no-planar-fibers", 0.0, 2e-3, True))
        reports.append(
            make_report("pointwise", "pointwise-modulus-equality", inst, checks, notes=notes)
        )
    return reports


# -- duality -------------------------------------------------------------------


def _duality_fixtures() -> list[Bundle]:
    space = MeasureSpace(["a0", "a1", "a2"], [1.0, 0.5, 2.0])
    const = WeightedLpNorm(3, [1.0, 1.5])
    constant_bundle = Bundle(space, [Fiber(2, const)] * 3)
    degen_space = MeasureSpace(["z0", "z1"], [1.0, 1.0])
    degenerate = Bundle(degen_space, [Fiber(0, None), Fiber(0, None)])
    return [constant_bundle, degenerate]


def suite_duality(recipe=None) -> list[TheoremReport]:
    """Operator norms equal integrated dual pointwise norms (both module
    directions), the constructed maximizers attain them, and the bidual
    diagram commutes; constant bundles additionally route the check through
    the fixed fiber, and degenerate bundles pass vacuously."""
    recipe = recipe or default_recipe("duality")
    reports = []
    instances = [(f"fixture{k}", b) for k, b in enumerate(_duality_fixtures())]
    instances += [(str(i), b) for i, b in bundles_from_recipe(recipe)]
    for label, bundle in instances:
        inst = bundle_digest(bundle)
        if bundle.degenerate:
            rep = check_reflexivity_diagram(bundle, 2, samples=4, seed=0)
            checks = [CheckRow("degenerate-vacuous", 0.0, 1e-9, rep.passed and rep.degenerate)]
            reports.append(
                make_report("duality", "bidual-diagram", inst, checks,
                            notes=["degenerate bundle: diagram holds vacuously"])
            )
            continue
        rng = instance_rng(recipe.seed, zlib.crc32(label.encode()), stream=3)
        iso_gap = swap_gap = attain_gap = holder_res = 0.0
        for s in range(DUALITY_SAMPLES):
            p = recipe.exponents[s % len(recipe.exponents)]
            q = conjugate_exponent(p)
            omega = random_section(bundle.dual(), rng)
            v = random_section(bundle, rng)
            vstar = holder_maximizer(omega, p)
            opn = integrated_pairing(omega, vstar)
            iso_gap = max(iso_gap, abs(opn - lp_norm(pointwise_norm(omega), q)))
            if opn > 1e-12:
                attain_gap = max(attain_gap, abs(section_lp_norm(vstar, p) - 1.0))
            swap_gap = max(swap_gap, abs(operator_norm(v, q) - section_lp_norm(v, p)))
            slack = integrated_pairing(omega, v) - opn * section_lp_norm(v, p)
            holder_res = max(holder_res, max(0.0, slack))
        checks = [
            CheckRow("operator-norm-isometry", iso_gap, 1e-6, iso_gap <= 1e-6),
            CheckRow("holder-maximizer-attainment", attain_gap, 1e-9, attain_gap <= 1e-9),
            CheckRow("section-on-duals-isometry", swap_gap, 1e-6, swap_gap <= 1e-6),
            CheckRow("holder-inequality", holder_res, 1e-9, holder_res <= 1e-9),
        ]
        reports.append(make_report("duality", "dual-norm-isometry", inst, checks))

        rep = check_reflexivity_diagram(bundle, recipe.exponents[0], samples=12,
                                        seed=int(rng.integers(0, 2**31)))
        d_checks = [
            CheckRow("pairing-residual", rep.max_pairing_residual, 1e-9,
                     rep.max_pairing_residual <= 1e-9),
            CheckRow("bidual-norm-gap", rep.max_bidual_norm_gap, 1e-6,
                     rep.max_bidual_norm_gap <= 1e-6),
        ]
        reports.append(make_report("duality", "bidual-diagram", inst, d_checks, notes=rep.notes))
        if rep.constant_chain_checked:
            c_checks = [
                CheckRow("constant-chain-residual", rep.max_constant_chain_residual, 1e-9,
                         rep.max_constant_chain_residual <= 1e-9)
            ]
            reports.append(make_report("duality", "constant-fiber-chain", inst, c_checks))
    return reports


# -- criterion fixtures ---------------------------------------------------------


def _criterion_bundle() -> Bundle:
    space = MeasureSpace(["a0", "a1", "a2"], [1.0, 0.5, 2.0])
    fibers = [
        Fiber(2, InnerProductNorm(np.eye(2))),
        Fiber(2, WeightedLpNorm(3, [1.0, 2.0])),
        Fiber(1, WeightedLpNorm(2, [1.5])),
    ]
    return Bundle(space, fibers)


def suite_criterion(seed: int = 0, triple_count: int = 200) -> list[TheoremReport]:
    """Fixture catalogue for the norm-criterion checks: induced norms pass
    and round-trip; sup-over-atoms and mixed norms fail restriction
    additivity with explicit witnesses; the measure power-inequality lemma
    never sees a set-level-true, density-level-false triple."""
    bundle = _criterion_bundle()
    inst = bundle_digest(bundle)
    reports = []

    fixtures = [
        (induced_norm(bundle, 2), 2, "PASS"),
        (induced_norm(bundle, 1.5), 1.5, "PASS"),
        (sup_over_atoms_norm(bundle), 2, "FAIL"),
        (mixed_sum_norm(bundle, 1.5, 3), 2, "FAIL"),
        (mixed_max_norm(bundle, 1.5, 3), 1.5, "FAIL"),
        (induced_norm(bundle, 2), 3, "FAIL"),  # mismatched exponent must be caught
    ]
    for norm, p, expected in fixtures:
        norm.check_axioms(probes=8, seed=seed)
        rep = restriction_additivity_check(norm, p, probes=6, seed=seed)
        witness = "" if rep.passed else f"subset-size-{len(rep.witness_subset)}"
        checks = [
            CheckRow("power-additivity-residual", rep.max_residual, 1e-9, rep.passed, witness)
        ]
        reports.append(
            make_report("criterion", "restriction-additivity",
                        f"{inst}:{norm.name}:p{p}", checks, expected=expected,
                        notes=[f"subsets checked: {rep.subsets_checked} ({rep.enumeration})"])
        )

    for norm in (induced_norm(bundle, 2), sup_over_atoms_norm(bundle)):
        rep = weak_star_continuity_check(norm, probes=4, seed=seed)
        checks = [
            CheckRow("limit-proxy-max", rep.max_limit_proxy, 1e-6, rep.passed)
        ]
        reports.append(
            make_report("criterion", "weak-star-continuity", f"{inst}:{norm.name}", checks)
        )

    rng = instance_rng(seed, 0, stream=9)
    for p in (1.5, 2, 3):
        norm = induced_norm(bundle, p)
        worst = 0.0
        for _ in range(4):
            v = random_section(bundle, rng)
            rec = reconstruct_pointwise_norm(norm, p, v)
            worst = max(worst, float(np.max(np.abs(rec.values - pointwise_norm(v).values))))
        checks = [CheckRow(f"round-trip-gap-p{p}", worst, 1e-9, worst <= 1e-9)]
        reports.append(
            make_report("criterion", "pointwise-norm-reconstruction",
                        f"{inst}:induced-p{p}", checks)
        )
    refused = False
    diagnostic = ""
    try:
        reconstruct_pointwise_norm(sup_over_atoms_norm(bundle), 2,
                                   random_section(bundle, rng))
    except ValueError as exc:
        refused = True
        diagnostic = str(exc)[:60]
    reports.append(
        make_report("criterion", "pointwise-norm-reconstruction", f"{inst}:sup-over-atoms",
                    [CheckRow("reconstruction-refused", 0.0 if refused else 1.0, 0.5,
                              refused, witness=diagnostic.replace(",", ";"))])
    )

    accepted = 0
    violations = 0
    idx = 0
    while accepted < triple_count:
        triple = random_measure_triple(seed, idx)
        idx += 1
        rep = measure_inequality_report(triple)
        if not rep.set_level_holds:
            continue
        accepted += 1
        if rep.implication_violated:
            violations += 1
    checks = [CheckRow("implication-violations", float(violations), 0.0, violations == 0)]
    reports.append(
        make_report("criterion", "measure-power-inequality", f"triples-seed{seed}", checks,
                    notes=[f"accepted {accepted} of {idx} sampled triples"])
    )
    return reports


# -- orchestration ---------------------------------------------------------------


def suite_names(tags) -> list[str]:
    """The suites that ``tags`` (one tag or a list; ``"all"`` means every
    suite) select, in run order; raises ValueError on an unknown tag."""
    if isinstance(tags, str):
        tags = (tags,)
    for t in tags:
        if t != "all" and t not in SUITE_TAGS:
            raise ValueError(f"unknown suite tag {t!r}; valid tags: {sorted(SUITE_TAGS)} or 'all'")
    return list(SUITE_NAMES) if "all" in tags else list(tags)


def run_suites(tags=("all",), recipes: dict | None = None, eps_grid=None,
               budget: SearchBudget | None = None, seed: int = 0) -> list[TheoremReport]:
    """Run the named suites (or all of them) and return their reports."""
    recipes = recipes or {}
    reports = []
    for name in suite_names(tags):
        recipe = recipes.get(name)
        if name == "hilbert":
            reports.extend(suite_hilbert(recipe))
        elif name == "uc-upper":
            reports.extend(suite_convexity_upper(recipe, eps_grid, budget))
        elif name == "uc-lower":
            reports.extend(suite_convexity_lower(recipe, eps_grid, budget))
        elif name == "pointwise":
            reports.extend(suite_pointwise_modulus(recipe, eps_grid, budget))
        elif name == "duality":
            reports.extend(suite_duality(recipe))
        elif name == "criterion":
            reports.extend(suite_criterion(seed))
    return reports
