"""Instance generators: determinism, range contracts, kind coverage."""

import numpy as np
import pytest

from bundlelab.generators import (
    ALL_KINDS,
    EXTRA_ROWS,
    InstanceRecipe,
    UC_KINDS,
    bundles_from_recipe,
    instance_rng,
    random_bundle,
    random_measure_triple,
    random_norm_spec,
    random_section,
    recipe_from_config,
)
from bundlelab.bundles import Bundle, Fiber
from bundlelab.criterion import measure_inequality_report
from bundlelab.measure import MeasureSpace
from bundlelab.norms import PolyhedralMaxNorm, PolytopeGaugeNorm, WeightedLpNorm
from bundlelab.serialize import ConfigError


def test_same_recipe_same_bundles():
    recipe = InstanceRecipe(seed=5, instance_count=6)
    first = [b for _, b in bundles_from_recipe(recipe)]
    second = [b for _, b in bundles_from_recipe(recipe)]
    for a, b in zip(first, second):
        assert a.space == b.space
        assert list(a.dimensions) == list(b.dimensions)
        for fa, fb in zip(a.fibers, b.fibers):
            if fa.dimension > 0:
                assert fa.norm.digest() == fb.norm.digest()


def test_different_indices_differ():
    recipe = InstanceRecipe(seed=5, instance_count=2, atom_range=(3, 3))
    a = random_bundle(recipe, 0)
    b = random_bundle(recipe, 1)
    different = a.space != b.space or list(a.dimensions) != list(b.dimensions) or any(
        fa.dimension != fb.dimension
        or (fa.dimension > 0 and fa.norm.digest() != fb.norm.digest())
        for fa, fb in zip(a.fibers, b.fibers)
    )
    assert different


def test_instance_rng_streams_are_independent():
    a = instance_rng(1, 2, stream=0).standard_normal(4)
    b = instance_rng(1, 2, stream=1).standard_normal(4)
    c = instance_rng(1, 2, stream=0).standard_normal(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_ranges_respected():
    recipe = InstanceRecipe(
        seed=3, instance_count=25, atom_range=(2, 5), dim_range=(1, 3),
        weight_range=(0.4, 2.5),
    )
    for _, bundle in bundles_from_recipe(recipe):
        assert 2 <= bundle.space.atom_count <= 5
        assert np.all(bundle.space.weights >= 0.4 - 1e-12)
        assert np.all(bundle.space.weights <= 2.5 + 1e-12)
        assert all(1 <= f.dimension <= 3 for f in bundle.fibers)


def test_kind_coverage_and_restriction():
    recipe = InstanceRecipe(seed=9, instance_count=40)
    seen = set()
    for _, bundle in bundles_from_recipe(recipe):
        for f in bundle.fibers:
            if f.dimension > 0:
                seen.add(f.norm.kind)
    assert seen == set(ALL_KINDS)

    uc_only = InstanceRecipe(seed=9, instance_count=20, kinds=UC_KINDS)
    for _, bundle in bundles_from_recipe(uc_only):
        for f in bundle.fibers:
            if f.dimension > 0:
                assert f.norm.kind in UC_KINDS


def test_constant_fraction_one_yields_constant_bundles():
    recipe = InstanceRecipe(seed=2, instance_count=10, constant_fraction=1.0)
    for _, bundle in bundles_from_recipe(recipe):
        assert bundle.is_constant


def test_zero_fiber_fraction_produces_zero_fibers():
    recipe = InstanceRecipe(
        seed=4, instance_count=20, atom_range=(4, 6), zero_fiber_fraction=0.5
    )
    dims = [f.dimension for _, b in bundles_from_recipe(recipe) for f in b.fibers]
    assert 0 in dims
    assert any(d > 0 for d in dims)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_norm_spec_kinds(kind, assert_norm_axioms):
    for seed in (0, 1, 2):
        spec = random_norm_spec(instance_rng(seed, 0), kind, 2, InstanceRecipe().lp_exponents)
        assert spec.kind == kind
        assert_norm_axioms(spec, probes=16, seed=0)


def test_sections_are_reproducible():
    recipe = InstanceRecipe(seed=7, instance_count=1)
    bundle = random_bundle(recipe, 0)
    v1 = random_section(bundle, instance_rng(7, 0, stream=2))
    v2 = random_section(bundle, instance_rng(7, 0, stream=2))
    for a, b in zip(v1.vectors, v2.vectors):
        assert np.array_equal(a, b)
    omega = random_section(bundle.dual(), instance_rng(7, 0, stream=3))
    assert len(omega.vectors) == bundle.space.atom_count


@pytest.mark.parametrize("dims", [[2, 3, 0, 1], [3, 3, 3], [0, 0], [5]])
def test_a_random_section_is_one_flat_draw(dims):
    """A flat draw reads the stream that one draw per atom, in atom order,
    would read, and leaves the generator where those draws would."""
    space = MeasureSpace([f"a{x}" for x in range(len(dims))], [1.0] * len(dims))
    bundle = Bundle(space, [Fiber(d, WeightedLpNorm(2, [1.0] * d) if d else None) for d in dims])
    rng, per_atom = np.random.default_rng(3), np.random.default_rng(3)
    section = random_section(bundle, rng)
    want = [per_atom.standard_normal(d) for d in dims]
    for got, w in zip(section.vectors, want):
        assert np.array_equal(got, w)
    assert rng.standard_normal() == per_atom.standard_normal()


def test_recipe_config_round_trip():
    recipe = InstanceRecipe(
        seed=11, instance_count=3, atom_range=(2, 6), dim_range=(1, 4),
        kinds=("inner_product",), lp_exponents=(2, "inf"),
        weight_range=(0.5, 1.5), exponents=(2,),
        constant_fraction=0.25, zero_fiber_fraction=0.1,
    )
    cfg = {
        "seed": 11, "instance_count": 3, "atom_range": [2, 6], "dim_range": [1, 4],
        "kinds": ["inner_product"], "lp_exponents": ["2", "inf"],
        "weight_range": [0.5, 1.5], "exponents": ["2"],
        "constant_fraction": 0.25, "zero_fiber_fraction": 0.1,
    }
    clone = recipe_from_config(cfg)
    assert clone.seed == recipe.seed
    assert clone.instance_count == recipe.instance_count
    assert tuple(clone.atom_range) == recipe.atom_range
    assert tuple(clone.kinds) == recipe.kinds
    assert clone.constant_fraction == recipe.constant_fraction
    # regenerated instances agree
    a = random_bundle(recipe, 0)
    b = random_bundle(clone, 0)
    assert a.space == b.space and list(a.dimensions) == list(b.dimensions)


@pytest.mark.parametrize("field, value", [
    ("constant_fraction", True),
    ("constant_fraction", "0.5"),
    ("constant_fraction", -2.0),
    ("zero_fiber_fraction", 7),
    ("weight_range", [True, 2]),
], ids=["fraction-bool", "fraction-string", "fraction-negative", "fraction-above-one",
        "weight-bool"])
def test_recipe_fractions_and_weights_are_numbers_in_range(field, value):
    """Fractions are numbers in [0, 1] and weight bounds are numbers: no
    bool or string is read as one, and the error names the field."""
    with pytest.raises(ConfigError, match=f"recipe config invalid: {field}"):
        recipe_from_config({field: value})


def test_recipe_dimensions_stay_within_the_facet_limit():
    """A recipe is refused when its polyhedral draws could exceed the gauge
    facet limit, and the largest draw of an accepted one builds."""
    assert recipe_from_config({"dim_range": [10, 10]}).dim_range == (10, 10)
    with pytest.raises(ConfigError, match="facet candidates"):
        recipe_from_config({"dim_range": [2, 11]})
    assert recipe_from_config({"dim_range": [11, 11], "kinds": ["inner_product"]})
    rows = np.random.default_rng(4).standard_normal((10 + EXTRA_ROWS, 10))
    PolytopeGaugeNorm(np.vstack([rows, -rows]))
    PolyhedralMaxNorm(rows).dual()


def test_measure_triples_deterministic_and_often_valid():
    accepted = 0
    for index in range(60):
        t1 = random_measure_triple(13, index)
        t2 = random_measure_triple(13, index)
        assert t1.space == t2.space
        assert np.array_equal(t1.density1, t2.density1)
        assert t1.alpha == t2.alpha
        if t1.space.atom_count <= 20:
            rep = measure_inequality_report(t1)
            if rep.set_level_holds:
                accepted += 1
                assert not rep.implication_violated
    # rejection sampling must accept often enough to be usable
    assert accepted >= 20
