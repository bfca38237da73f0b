"""JSON configuration schema and text ingestion.

Schema (all plain JSON, decimal notation, no localization):

* measure space: ``{"atoms": [...ids], "weights": [...positive]}``
* norm kind:     ``{"kind": "inner_product", "gram": [[...]]}``
                 ``{"kind": "weighted_lp", "r": 2 | "3/2" | "inf", "weights": [...]}``
                 ``{"kind": "polyhedral_max", "functionals": [[...], ...]}``
                 ``{"kind": "polytope_gauge", "vertices": [[...], ...]}``
* bundle:        ``{"space": {...}, "fibers": [{"dimension": d, "norm": {...}}, ...]}``
                 (zero-dimensional fibers carry no norm)
* section:       ``{"vectors": [[...], ...]}`` (one row per atom, in order)
* search budget: ``{"restarts": 64, "iterations": 200, "seed": 0, ...}``

Every mapping takes only the fields listed (a budget may omit any); an
unknown or missing field is a ``ConfigError`` that names it.  Every number
is a JSON number, never a bool or a string, but for the exponent strings
shown.
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


def _known_fields(cfg, context: str, required=(), optional=()) -> None:
    """Reject a config that is not a mapping, names a field that is neither
    ``required`` nor ``optional``, or lacks a ``required`` one."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be a mapping")
    unknown = set(cfg) - {*required, *optional}
    if unknown:
        raise ConfigError(f"{context} has unknown fields: {sorted(unknown)}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{context}: {key} required")


def _integer(what: str, value, least: int) -> int:
    """A whole-number setting (seed, count, range bound, dimension): a JSON integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


# -- measure spaces -----------------------------------------------------------


def space_to_config(space: MeasureSpace) -> dict:
    return {"atoms": list(space.atoms), "weights": space.weights.tolist()}


def space_from_config(cfg: dict) -> MeasureSpace:
    _known_fields(cfg, "measure space config", ("atoms", "weights"))
    try:
        return MeasureSpace(cfg["atoms"], cfg["weights"])
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
    _known_fields(cfg, "bundle config", ("space", "fibers"))
    space = space_from_config(cfg["space"])
    fibers = []
    for i, fc in enumerate(cfg["fibers"]):
        where = f"fiber at atom index {i}"
        # a fiber needs its dimension, and a norm exactly when that is above 0
        _known_fields(fc, where, optional=("dimension", "norm"))
        if "dimension" not in fc:
            raise ConfigError(f"fiber dimension required ({where})")
        dim = _integer(f"fiber dimension ({where})", fc["dimension"], 0)
        if (dim > 0) != ("norm" in fc):
            raise ConfigError(f"fiber norm required ({where})" if dim
                              else f"zero-dimensional fibers carry no norm ({where})")
        try:
            fibers.append(Fiber(dim, norm_spec_from_config(fc["norm"]) if dim else None))
        except ValueError as exc:
            raise ConfigError(f"{where} invalid: {exc}") from None
    try:
        return Bundle(space, fibers)
    except ValueError as exc:
        raise ConfigError(f"bundle config invalid: {exc}") from None


def bundle_digest(bundle: Bundle) -> str:
    return digest(bundle_to_config(bundle))


# -- sections -----------------------------------------------------------------


def section_from_config(bundle: Bundle, cfg: dict, dual: bool = False) -> Section:
    """A section of ``bundle``, or of ``bundle.dual()`` with ``dual``."""
    _known_fields(cfg, "section config", ("vectors",))
    try:
        return Section(bundle.dual() if dual else bundle, cfg["vectors"])
    except ValueError as exc:
        raise ConfigError(f"section config invalid: {exc}") from None


# -- budgets -------------------------------------------------------


def budget_from_config(cfg: dict | None) -> SearchBudget:
    if cfg is None:
        return SearchBudget()
    _known_fields(cfg, "budget config", optional=[f.name for f in dataclasses.fields(SearchBudget)])
    try:
        return SearchBudget(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"budget config invalid: {exc}") from None

