"""JSON configuration schema and text ingestion.

Schema (all plain JSON, decimal notation, no localization):

* measure space: ``{"atoms": [...ids], "weights": [...positive]}``
* norm kind:     ``{"kind": "inner_product", "gram": [[...]]}``
                 ``{"kind": "weighted_lp", "r": 2 | "3/2" | "inf", "weights": [...]}``
                 ``{"kind": "polyhedral_max", "functionals": [[...], ...]}``
                 ``{"kind": "polytope_gauge", "vertices": [[...], ...]}``
* bundle:        ``{"space": {...}, "fibers": [{"dimension": d, "norm": {...}}, ...]}``
                 (zero-dimensional fibers omit the norm)
* section:       ``{"vectors": [[...], ...]}`` (one row per atom, in order)
* search budget: ``{"restarts": 64, "iterations": 200, "seed": 0, ...}``
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .bundles import Bundle, Fiber, Section
from .convexity import SearchBudget
from .measure import MeasureSpace
from .norms import norm_spec_from_config

__all__ = [
    "ConfigError",
    "canonical_json",
    "digest",
    "space_to_config",
    "space_from_config",
    "bundle_to_config",
    "bundle_from_config",
    "section_from_config",
    "budget_from_config",
]


class ConfigError(ValueError):
    """A configuration file or mapping does not satisfy the schema."""


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, shortest float repr)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """Short stable digest of a config-shaped object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


def _known_fields(cfg, allowed, context: str) -> None:
    """Reject a config that is not a mapping or names a field not in ``allowed``."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be a mapping")
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"{context} has unknown fields: {sorted(unknown)}")


def _integer(what: str, value, least: int) -> int:
    """A whole-number setting (seed, count, range bound, dimension): a JSON integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _require(cfg: dict, key: str, context: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be a mapping")
    if key not in cfg:
        raise ConfigError(f"{context}: {key} required")
    return cfg[key]


# -- measure spaces -----------------------------------------------------------


def space_to_config(space: MeasureSpace) -> dict:
    return {"atoms": list(space.atoms), "weights": space.weights.tolist()}


def space_from_config(cfg: dict) -> MeasureSpace:
    atoms = _require(cfg, "atoms", "measure space config")
    weights = _require(cfg, "weights", "measure space config")
    try:
        return MeasureSpace(atoms, weights)
    except ValueError as exc:
        raise ConfigError(f"measure space config invalid: {exc}") from None


# -- bundles ------------------------------------------------------------------


def bundle_to_config(bundle: Bundle) -> dict:
    fibers = []
    for f in bundle.fibers:
        entry = {"dimension": int(f.dimension)}
        if f.dimension > 0:
            entry["norm"] = f.norm.config_dict()
        fibers.append(entry)
    return {"space": space_to_config(bundle.space), "fibers": fibers}


def bundle_from_config(cfg: dict) -> Bundle:
    space = space_from_config(_require(cfg, "space", "bundle config"))
    fiber_cfgs = _require(cfg, "fibers", "bundle config")
    fibers = []
    for i, fc in enumerate(fiber_cfgs):
        if not isinstance(fc, dict) or "dimension" not in fc:
            raise ConfigError(f"fiber dimension required (fiber at atom index {i})")
        dim = _integer(f"fiber dimension (fiber at atom index {i})", fc["dimension"], 0)
        if dim == 0:
            fibers.append(Fiber(0, None))
            continue
        if "norm" not in fc:
            raise ConfigError(f"fiber norm required (fiber at atom index {i})")
        try:
            spec = norm_spec_from_config(fc["norm"])
            fibers.append(Fiber(dim, spec))
        except ValueError as exc:
            raise ConfigError(f"fiber at atom index {i} invalid: {exc}") from None
    try:
        return Bundle(space, fibers)
    except ValueError as exc:
        raise ConfigError(f"bundle config invalid: {exc}") from None


def bundle_digest(bundle: Bundle) -> str:
    return digest(bundle_to_config(bundle))


# -- sections -----------------------------------------------------------------


def section_from_config(bundle: Bundle, cfg: dict, dual: bool = False) -> Section:
    """A section of ``bundle``, or of ``bundle.dual()`` with ``dual``."""
    vectors = _require(cfg, "vectors", "section config")
    try:
        return Section(bundle.dual() if dual else bundle, vectors)
    except ValueError as exc:
        raise ConfigError(f"section config invalid: {exc}") from None


# -- budgets -------------------------------------------------------


def budget_from_config(cfg: dict | None) -> SearchBudget:
    if cfg is None:
        return SearchBudget()
    _known_fields(cfg, [f.name for f in dataclasses.fields(SearchBudget)], "budget config")
    try:
        return SearchBudget(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"budget config invalid: {exc}") from None

