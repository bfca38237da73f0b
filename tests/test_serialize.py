"""Config round trips and canonical digests."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from bundlelab.bundles import Bundle, Fiber, Section
from bundlelab.convexity import SearchBudget
from bundlelab.measure import MeasureSpace
from bundlelab.norms import InnerProductNorm, WeightedLpNorm
from bundlelab.serialize import (
    ConfigError,
    budget_from_config,
    bundle_digest,
    bundle_from_config,
    bundle_to_config,
    canonical_json,
    digest,
    section_from_config,
    space_from_config,
    space_to_config,
)


def sample_bundle():
    space = MeasureSpace(["a", "b", "c"], [1.0, 2.0, 0.5])
    return Bundle(
        space,
        [
            Fiber(2, InnerProductNorm(np.eye(2))),
            Fiber(0),
            Fiber(2, WeightedLpNorm(3, [1.0, 1.5])),
        ],
    )


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, {"z": None}]}) == '{"a":[1.5,{"z":null}],"b":1}'


def test_digest_frozen():
    # pinned: config digests key caches and appear in report rows, so they
    # must stay stable across releases
    cfg = {"kind": "weighted_lp", "r": 2.0, "weights": [1.0, 2.0]}
    assert digest(cfg) == "25124cbbb887"


def test_space_round_trip():
    space = MeasureSpace(["a", "b"], [1.0, 2.5])
    clone = space_from_config(space_to_config(space))
    assert clone == space


def test_space_config_errors():
    with pytest.raises(ConfigError, match="atoms required"):
        space_from_config({"weights": [1.0]})
    with pytest.raises(ConfigError, match="invalid"):
        space_from_config({"atoms": ["a"], "weights": [-1.0]})


def test_bundle_round_trip_and_digest():
    b = sample_bundle()
    clone = bundle_from_config(bundle_to_config(b))
    assert clone.space == b.space
    assert list(clone.dimensions) == list(b.dimensions)
    for fa, fb in zip(clone.fibers, b.fibers):
        if fa.dimension > 0:
            assert fa.norm.digest() == fb.norm.digest()
    assert bundle_digest(clone) == bundle_digest(b)


def test_bundle_config_errors():
    cfg = bundle_to_config(sample_bundle())
    missing_dim = {"space": cfg["space"], "fibers": [{}, {}, {}]}
    with pytest.raises(ConfigError, match=r"fiber dimension required \(fiber at atom index 0\)"):
        bundle_from_config(missing_dim)
    no_norm = {
        "space": cfg["space"],
        "fibers": [{"dimension": 2}, {"dimension": 0}, {"dimension": 2}],
    }
    with pytest.raises(ConfigError, match="fiber norm required"):
        bundle_from_config(no_norm)
    bad_norm = {
        "space": cfg["space"],
        "fibers": [
            {"dimension": 2, "norm": {"kind": "weighted_lp", "r": 0.5, "weights": [1, 1]}},
            {"dimension": 0},
            {"dimension": 0},
        ],
    }
    with pytest.raises(ConfigError, match="atom index 0 invalid"):
        bundle_from_config(bad_norm)


def test_section_round_trip_plain_and_dual():
    b = sample_bundle()
    v = Section(b, [[3.0, 4.0], [], [1.0, -2.0]])
    clone = section_from_config(b, {"vectors": [a.tolist() for a in v.vectors]})
    for a, c in zip(v.vectors, clone.vectors):
        assert np.array_equal(a, c)
    omega = Section(b.dual(), [[1.0, 0.0], [], [0.5, 0.5]])
    dclone = section_from_config(b, {"vectors": [a.tolist() for a in omega.vectors]},
                                 dual=True)
    assert dclone.bundle is b.dual()
    for a, c in zip(omega.vectors, dclone.vectors):
        assert np.array_equal(a, c)


def test_section_config_errors():
    b = sample_bundle()
    with pytest.raises(ConfigError, match="vectors required"):
        section_from_config(b, {})
    with pytest.raises(ConfigError, match="section config invalid"):
        section_from_config(b, {"vectors": [[1.0], [], [1.0, 2.0]]})


@pytest.mark.parametrize("vectors", [[[True, "2"]], [[1.0, "2"]], [[True, 2.0]], [np.array([True, False])]],
                         ids=["bool-and-string", "string", "bool", "bool-array"])
def test_section_entries_follow_the_real_number_rule(vectors):
    """A section entry is a real number, never a bool or a numeric string,
    as in the bundle schema."""
    space = MeasureSpace(["a"], [1.0])
    b = Bundle(space, [Fiber(2, InnerProductNorm(np.eye(2)))])
    with pytest.raises(ConfigError, match="real numbers, not booleans or strings"):
        section_from_config(b, {"vectors": vectors})
    assert section_from_config(b, {"vectors": [[1, 2.0]]}).vectors[0].tolist() == [1.0, 2.0]


def test_budget_round_trip():
    budget = SearchBudget(restarts=5, iterations=30, seed=9, init_step=0.4)
    clone = budget_from_config(dataclasses.asdict(budget))
    assert clone == budget
    assert budget_from_config(None) == SearchBudget()


def test_budget_config_errors():
    with pytest.raises(ConfigError, match="unknown fields"):
        budget_from_config({"restart": 5})
    with pytest.raises(ConfigError, match="must be a mapping"):
        budget_from_config([1, 2])
    with pytest.raises(ConfigError, match="restarts must be at least 1"):
        budget_from_config({"restarts": 0})
    with pytest.raises(ConfigError, match="min_step"):
        budget_from_config({"init_step": 0.1, "min_step": 0.5})
    with pytest.raises(ConfigError, match="must be an integer"):
        budget_from_config({"iterations": 2.5})


def test_config_error_is_a_value_error():
    # CLI exit-code mapping relies on the subclass relationship
    assert issubclass(ConfigError, ValueError)


def test_space_config_refuses_unknown_fields():
    with pytest.raises(ConfigError, match=r"measure space config has unknown fields: \['weigths'\]"):
        space_from_config({"atoms": ["a", "b"], "weights": [1, 1], "weigths": [5, 5]})


def test_bundle_config_refuses_unknown_fields():
    cfg = dict(bundle_to_config(sample_bundle()), extra=1)
    with pytest.raises(ConfigError, match=r"bundle config has unknown fields: \['extra'\]"):
        bundle_from_config(cfg)
    with pytest.raises(ConfigError, match="bundle config: fibers required"):
        bundle_from_config({"space": cfg["space"]})


def test_fiber_config_refuses_unknown_fields():
    cfg = bundle_to_config(sample_bundle())
    cfg["fibers"][2]["dimesion"] = 2
    with pytest.raises(ConfigError,
                       match=r"fiber at atom index 2 has unknown fields: \['dimesion'\]"):
        bundle_from_config(cfg)


def test_fiber_norm_config_refuses_unknown_fields():
    cfg = bundle_to_config(sample_bundle())
    cfg["fibers"][0]["norm"]["weights"] = [3.0, 3.0]
    with pytest.raises(ConfigError, match=r"fiber at atom index 0 invalid: norm config for kind "
                                          r"'inner_product' has unknown fields: \['weights'\]"):
        bundle_from_config(cfg)


def test_zero_dimensional_fiber_carries_no_norm():
    cfg = bundle_to_config(sample_bundle())
    cfg["fibers"][1]["norm"] = cfg["fibers"][0]["norm"]
    with pytest.raises(ConfigError,
                       match=r"zero-dimensional fibers carry no norm \(fiber at atom index 1\)"):
        bundle_from_config(cfg)


def test_section_config_refuses_unknown_fields():
    b = sample_bundle()
    with pytest.raises(ConfigError, match=r"section config has unknown fields: \['vector'\]"):
        section_from_config(b, {"vectors": [[1.0, 0.0], [], [0.0, 1.0]], "vector": []})


def _one_atom(weight, norm):
    """A one-atom bundle config with a 2-D fiber."""
    return {"space": {"atoms": ["a"], "weights": [weight]},
            "fibers": [{"dimension": 2, "norm": norm}]}


LP = {"kind": "weighted_lp", "r": 2, "weights": [1.0, 2.0]}


@pytest.mark.parametrize("cfg, message", [
    (_one_atom(True, LP), "measure space config invalid: weights must be real numbers"),
    (_one_atom("2", LP), "measure space config invalid: weights must be real numbers"),
    (_one_atom(1.0, dict(LP, r=True)), "exponent must be a number or a string, got True"),
    (_one_atom(1.0, dict(LP, weights=["2", 1.0])), "invalid: weights must be real numbers"),
    (_one_atom(1.0, dict(LP, weights=[2.0, True])), "invalid: weights must be real numbers"),
    (_one_atom(1.0, {"kind": "inner_product", "gram": [[1.0, 0.0], [0.0, True]]}),
     "invalid: gram must be real numbers"),
    (_one_atom(1.0, {"kind": "polyhedral_max", "functionals": [[1.0, 0.0], ["0", 1.0]]}),
     "invalid: functionals must be real numbers"),
], ids=["atom-weight-true", "atom-weight-string", "r-true", "norm-weight-string",
        "norm-weight-true", "gram-entry-true", "functional-entry-string"])
def test_bundle_numbers_refuse_booleans_and_strings(cfg, message):
    """numpy would cast ``true`` to 1.0 and ``"2"`` to 2.0; the schema's
    numbers are JSON numbers."""
    with pytest.raises(ConfigError, match=message):
        bundle_from_config(cfg)


def test_exponent_strings_still_load():
    for r, want in (("3/2", Fraction(3, 2)), ("inf", math.inf)):
        [fiber] = bundle_from_config(_one_atom(1.0, dict(LP, r=r))).fibers
        assert fiber.norm.r == want
