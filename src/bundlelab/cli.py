"""Command-line entry point.

Four subcommands, all batch-style: read one JSON run configuration, compute,
write summary.md and CSV tables (modulus and suite also .dat plot data) into
the output directory.

    bundlelab modulus    --config run.json [--out DIR] [--seed N] [--grid a:b:step]
    bundlelab suite      --config run.json [--out DIR] [--seed N] [--grid a:b:step]
    bundlelab dual-check --config run.json [--out DIR] [--seed N]
    bundlelab criterion  --config run.json [--out DIR] [--seed N]

Seed, grid, exponent, counts and suite names each have one reader, shared by
every command that takes the setting.

Exit codes: 0 all verdicts as expected, 1 an unexpected FAIL, 2 bad
configuration, 3 an internal error (a bug; the traceback is printed).  Reruns
with an identical configuration write byte-identical CSV and .dat files;
only a ``suite`` summary carries a timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .bundles import pointwise_norm, section_lp_norm, section_modulus_curve
from .convexity import DEFAULT_EPS_GRID, check_eps_grid, modulus_curve
from .criterion import (
    induced_norm,
    mixed_max_norm,
    mixed_sum_norm,
    reconstruct_pointwise_norm,
    restriction_additivity_check,
    sup_over_atoms_norm,
    weak_star_continuity_check,
)
from .duality import (
    _duality_exponent,
    check_reflexivity_diagram,
    holder_maximizer,
    integrated_pairing,
    operator_norm,
)
from .generators import instance_rng, random_section, recipe_from_config
from .measure import as_exponent, conjugate_exponent, lp_norm
from .norms import norm_spec_from_config
from .reportio import (
    ReportBundle,
    csv_table,
    plot_data,
    report_data_files,
    suite_reports_table,
    suite_summary_markdown,
)
from .serialize import (
    ConfigError,
    budget_from_config,
    bundle_digest,
    bundle_from_config,
    digest,
    section_from_config,
)
from .suites import SUITE_TAGS, default_recipe, run_suites, suite_names

_EXPLICIT_TOL = 1e-9
_SAMPLED_TOL = 1e-6


def _config_value(what: str, fn, *args):
    """``fn(*args)`` on values read from the config: its ``TypeError`` or
    ``ValueError`` is a configuration error."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} invalid: {exc}") from None


def _integer(what: str, value, least: int) -> int:
    """A whole-number setting (seed or count): a JSON integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _seed(cfg: dict, args, fallback):
    """``--seed``, else the config's top-level ``seed``, else ``fallback``."""
    if args.seed is None and "seed" not in cfg:
        return fallback
    return _integer("seed", cfg["seed"] if args.seed is None else args.seed, 0)


def _resolve_grid(cfg: dict, args) -> np.ndarray:
    """``--grid``, else the config's ``grid``, as a list or an 'a:b:step'
    range; both pass ``check_eps_grid``."""
    grid = args.grid if args.grid is not None else cfg.get("grid")
    if grid is None:
        return DEFAULT_EPS_GRID
    if isinstance(grid, str):
        try:
            a, b, step = (float(t) for t in grid.split(":"))
            grid = np.round(np.arange(a, b + 0.5 * step, step), 12)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"grid must look like 'a:b:step', got {grid!r}") from None
    eps = _config_value("grid", np.asarray, grid, float)
    if eps.ndim != 1:
        raise ConfigError("grid must be a one-dimensional list of separations")
    return _config_value("grid", check_eps_grid, eps)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _run_digest(command: str, cfg: dict, seed, grid) -> str:
    payload = {"command": command, "config": cfg, "seed": seed,
               "grid": [float(e) for e in grid]}
    return digest(payload)


def _summary(command: str, run: str, instance: str, seed: int, *body: str) -> str:
    """summary.md of a one-instance run: the shared header, then ``body``."""
    return "\n".join([f"# {command} run", "", f"run-config digest: `{run}`",
                      f"instance: {instance}", f"seed: {seed}", *body, ""])


# -- modulus ---------------------------------------------------------------------


def cmd_modulus(cfg: dict, args) -> int:
    grid = _resolve_grid(cfg, args)
    budget = budget_from_config(cfg.get("budget"))
    # one seed for the search and the report; the budget's is the fallback
    seed = _seed(cfg, args, budget.seed)
    budget = dataclasses.replace(budget, seed=seed)

    if "norm" in cfg:
        spec = _config_value("norm config", norm_spec_from_config, cfg["norm"])
        instance = spec.digest()
        curve = modulus_curve(spec, grid, budget)
        what = f"norm kind {spec.kind}, dimension {spec.dimension}"
    elif "bundle" in cfg:
        bundle = bundle_from_config(cfg["bundle"])
        p = cfg.get("p", 2)
        _config_value("exponent p", as_exponent, p)
        if bundle.degenerate:
            raise ConfigError("every fiber is zero-dimensional; the section space has no modulus")
        instance = bundle_digest(bundle)
        curve = section_modulus_curve(bundle, p, grid, budget)
        what = f"section space at exponent {p} over {bundle.space.atom_count} atoms"
    else:
        raise ConfigError("modulus config needs a 'norm' or 'bundle' entry")

    run = _run_digest("modulus", cfg, seed, grid)
    rows = [
        (instance, seed, float(e), float(d), float(r))
        for e, d, r in zip(curve.epsilons, curve.deltas, curve.raw_deltas)
    ]
    bundle_out = ReportBundle(Path(args.out))
    bundle_out.tables["modulus_curve.csv"] = csv_table(
        ("instance", "seed", "epsilon", "delta", "raw_delta"), rows
    )
    bundle_out.data_files["modulus_curve.dat"] = plot_data(
        {"epsilon": curve.epsilons, "delta": curve.deltas},
        comment=f"instance={instance}",
    )
    bundle_out.summary = _summary(
        "modulus", run, f"`{instance}` ({what})", seed,
        f"grid: {len(grid)} separations in [{grid[0]:g}, {grid[-1]:g}]",
        f"max delta: {float(curve.deltas.max())!r}",
    )
    bundle_out.write()
    return 0


# -- suite -----------------------------------------------------------------------


def cmd_suite(cfg: dict, args) -> int:
    grid = _resolve_grid(cfg, args)
    seed = _seed(cfg, args, None)
    # an empty or absent budget keeps each suite's own
    budget = cfg.get("budget")
    budget = None if budget in (None, {}) else budget_from_config(budget)
    names = _config_value("suites", suite_names, cfg.get("suites", "all"))
    recipes = {}
    for name, rcfg in (cfg.get("recipes") or {}).items():
        if name not in SUITE_TAGS:
            raise ConfigError(
                f"recipe for unknown suite {name!r}; valid tags: {sorted(SUITE_TAGS)}"
            )
        if name not in names:
            raise ConfigError(
                f"recipe for suite {name!r}, which the run does not select; "
                f"selected suites: {sorted(names)}"
            )
        recipes[name] = recipe_from_config(rcfg)
    if seed is None:
        seed = 0
    else:
        # a run seed reseeds every selected recipe (fixed offset per suite)
        for k, name in enumerate(sorted(names)):
            base = recipes.get(name, default_recipe(name))
            recipes[name] = dataclasses.replace(base, seed=seed + 1000 * k)

    reports = run_suites(names, recipes, grid, budget, seed)
    run = _run_digest("suite", cfg, seed, grid)

    out = ReportBundle(Path(args.out))
    out.tables["suite_reports.csv"] = suite_reports_table(reports, seed)
    out.data_files.update(report_data_files(reports))
    out.summary = suite_summary_markdown("suite run", run, seed, reports)
    out.write()
    unexpected = sum(r.unexpected for r in reports)
    if unexpected:
        print(f"{unexpected} unexpected verdict(s); see summary.md", file=sys.stderr)
        return 1
    return 0


# -- dual-check ------------------------------------------------------------------


def cmd_dual_check(cfg: dict, args) -> int:
    seed = _seed(cfg, args, 0)
    if "bundle" not in cfg:
        raise ConfigError("dual-check config needs a 'bundle' entry")
    bundle = bundle_from_config(cfg["bundle"])
    p = cfg.get("p", 2)
    _config_value("exponent p", _duality_exponent, p)
    q = conjugate_exponent(p)
    instance = bundle_digest(bundle)

    omega = v = None
    if "dual_section" in cfg:
        omega = section_from_config(bundle, {"vectors": cfg["dual_section"]}, dual=True)
    if "section" in cfg:
        v = section_from_config(bundle, {"vectors": cfg["section"]})

    samples = _integer("samples", cfg.get("samples", 100), 0)
    rng = instance_rng(seed, 0, stream=5)
    rows = []

    def check(sample, quantity, value, reference, tol):
        residual = abs(value - reference)
        rows.append((instance, seed, sample, quantity, value, reference,
                     residual, tol, residual <= tol))

    if omega is not None:
        vstar = holder_maximizer(omega, p)
        opn = integrated_pairing(omega, vstar)
        check("explicit", "operator-norm-vs-dual-lq", opn,
              lp_norm(pointwise_norm(omega), q), _EXPLICIT_TOL)
        # the maximizer is a unit section, or zero for the zero functional
        check("explicit", "holder-attainment", section_lp_norm(vstar, p),
              1.0 if np.any(omega.coords) else 0.0, _EXPLICIT_TOL)
    if v is not None:
        check("explicit", "swapped-operator-norm-vs-lp", operator_norm(v, q),
              section_lp_norm(v, p), _EXPLICIT_TOL)
    if omega is not None and v is not None:
        lhs = integrated_pairing(omega, v)
        bound = opn * section_lp_norm(v, p)
        rows.append((instance, seed, "explicit", "holder-inequality-slack", lhs,
                     bound, max(0.0, lhs - bound), _EXPLICIT_TOL,
                     lhs <= bound + _EXPLICIT_TOL))

    if not bundle.degenerate:
        dual = bundle.dual()
        for s in range(samples):
            omega = random_section(dual, rng)
            v = random_section(bundle, rng)
            check(f"s{s}", "operator-norm-vs-dual-lq", operator_norm(omega, p),
                  lp_norm(pointwise_norm(omega), q), _SAMPLED_TOL)
            check(f"s{s}", "swapped-operator-norm-vs-lp", operator_norm(v, q),
                  section_lp_norm(v, p), _SAMPLED_TOL)

    diagram = check_reflexivity_diagram(bundle, p, samples=max(4, samples // 4),
                                        seed=seed)
    check("diagram", "max-pairing-residual", diagram.max_pairing_residual, 0.0,
          _EXPLICIT_TOL)
    check("diagram", "max-bidual-norm-gap", diagram.max_bidual_norm_gap, 0.0, _SAMPLED_TOL)

    run = _run_digest("dual-check", cfg, seed, [])
    out = ReportBundle(Path(args.out))
    out.tables["dual_residuals.csv"] = csv_table(
        ("instance", "seed", "sample", "quantity", "value", "reference",
         "residual", "threshold", "passed"),
        rows,
    )
    failed = [r for r in rows if not r[-1]]
    out.summary = _summary(
        "dual-check", run, f"`{instance}`", seed,
        f"exponent: {p} (conjugate {float(q)!r})",
        f"rows: {len(rows)}, failing: {len(failed)}", "",
        "overall: " + ("**FAIL**" if failed else "all residuals within tolerance"),
    )
    out.write()
    return 1 if failed else 0


# -- criterion -------------------------------------------------------------------


_CATALOGUE_EXPECT = {"induced": "PASS", "sup-over-atoms": "FAIL",
                     "mixed-sum": "FAIL", "mixed-max": "FAIL"}


def _catalogue_entry(bundle, entry: dict):
    if not isinstance(entry, dict) or "tag" not in entry:
        raise ConfigError("each norms entry needs a 'tag' field")
    tag = entry["tag"]
    for key in ("p", "p1", "p2", "p_check"):
        if key in entry:
            _config_value(f"norms entry {key}", as_exponent, entry[key])
    if tag == "induced":
        norm = induced_norm(bundle, entry.get("p", 2))
    elif tag == "sup-over-atoms":
        norm = sup_over_atoms_norm(bundle)
    elif tag == "mixed-sum":
        norm = mixed_sum_norm(bundle, entry.get("p1", 1.5), entry.get("p2", 3))
    elif tag == "mixed-max":
        norm = mixed_max_norm(bundle, entry.get("p1", 1.5), entry.get("p2", 3))
    else:
        raise ConfigError(
            f"unknown norm tag {tag!r}; valid tags: {sorted(_CATALOGUE_EXPECT)}"
        )
    expect = entry.get("expect", _CATALOGUE_EXPECT[tag])
    if expect not in ("PASS", "FAIL"):
        raise ConfigError("expect must be 'PASS' or 'FAIL'")
    p_check = entry.get("p_check", entry.get("p", 2))
    return norm, p_check, expect


def cmd_criterion(cfg: dict, args) -> int:
    seed = _seed(cfg, args, 0)
    if "bundle" not in cfg:
        raise ConfigError("criterion config needs a 'bundle' entry")
    bundle = bundle_from_config(cfg["bundle"])
    instance = bundle_digest(bundle)
    entries = cfg.get("norms") or [
        {"tag": "induced", "p": 2},
        {"tag": "sup-over-atoms"},
        {"tag": "mixed-sum"},
        {"tag": "mixed-max"},
    ]
    probes = _integer("probes", cfg.get("probes", 6), 1)

    add_rows = []
    verdict_rows = []
    rng = instance_rng(seed, 0, stream=9)

    def record(check, passed, residual, expected="PASS", probe="", mask=""):
        """Add a row for the current entry's norm; True if its verdict is unexpected."""
        verdict = "PASS" if passed else "FAIL"
        add_rows.append((instance, seed, norm.name, p_check, check, probe, mask,
                         residual, verdict, expected))
        return verdict != expected

    unexpected = 0
    for entry in entries:
        norm, p_check, expect = _catalogue_entry(bundle, entry)
        rep = restriction_additivity_check(norm, p_check, probes=probes, seed=seed)
        mask = "|".join(str(a) for a in rep.witness_subset) if rep.witness_subset else ""
        unexpected += record("restriction-additivity", rep.passed, rep.max_residual, expect,
                             rep.witness_probe, mask)
        verdict_rows.append((norm.name, p_check, "PASS" if rep.passed else "FAIL", expect))
        cont = weak_star_continuity_check(norm, probes=max(2, probes // 2), seed=seed)
        unexpected += record("weak-star-continuity", cont.passed, cont.max_limit_proxy)

        v = random_section(bundle, rng)
        if rep.passed:
            rec = reconstruct_pointwise_norm(norm, p_check, v)
            gap = float(np.max(np.abs(rec.values - pointwise_norm(v).values)))
            unexpected += record("pointwise-reconstruction", gap <= 1e-9, gap)
        else:
            try:
                reconstruct_pointwise_norm(norm, p_check, v)
                refused = False
            except ValueError:
                refused = True
            unexpected += record("reconstruction-refusal", refused, 0.0 if refused else 1.0)

    run = _run_digest("criterion", cfg, seed, [])
    out = ReportBundle(Path(args.out))
    out.tables["criterion_rows.csv"] = csv_table(
        ("instance", "seed", "norm", "exponent", "check", "probe",
         "subset", "residual", "verdict", "expected"),
        add_rows,
    )
    out.summary = _summary(
        "criterion", run, f"`{instance}`", seed, "",
        "| norm | exponent | additivity | expected |",
        "| --- | --- | --- | --- |",
        *(f"| {n} | {p} | {v} | {e} |" for n, p, v, e in verdict_rows), "",
        "overall: " + ("**UNEXPECTED VERDICTS PRESENT**" if unexpected
                       else "all verdicts as expected"),
    )
    out.write()
    return 1 if unexpected else 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlelab",
        description="measurable-bundle numerics: modulus curves, duality and "
                    "norm-criterion verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("modulus", cmd_modulus), ("suite", cmd_suite),
                     ("dual-check", cmd_dual_check), ("criterion", cmd_criterion)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name in ("modulus", "suite"):
            p.add_argument("--grid", default=None,
                           help="separation grid as 'a:b:step' (overrides config)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    # numpy leaves ~23k long-lived objects from import (``len(gc.get_objects())``
    # after ``import bundlelab.cli``); moving them to the collector's permanent
    # generation spares every full collection, including the one at
    # interpreter exit, from walking them (~8 ms each on a 2-vCPU VM).
    # Done here, not on package import, so library users keep normal GC.
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # configuration problems are ConfigError by now; anything else is a bug
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
