"""Per-layer timings of the section-modulus search kernel, of dual-check and
of the additivity check.

    python3 tools/layer_bench.py [--checkout DIR ...] [--repeats N] [--out FILE]

Times layers of the kernel that ``bundlelab suite`` runs for the
section-modulus workload, and of ``bundlelab dual-check``, on the ``src/``
of each ``--checkout`` (default: the checkout holding this script), in this
process, with BLAS and OpenMP pools pinned to one thread:

* ``norm_batch.<kind>.rows_<m>``: one ``norm_batch`` call of each norm kind
  (dimension 3) on ``m`` rows, for three row counts;
* ``norm.<kind>`` and ``linear_maximizer.<kind>``: one single-vector
  ``norm`` and ``linear_maximizer`` call of each norm kind (dimension 3), on
  the same vector;
* ``section_evaluator``: the section-space evaluator of a fixed 3-atom
  bundle (total dimension 9) at exponents 1.5 and 3, as the kernel calls it:
  one ``evaluate`` call of its ``convexity.SearchGroup`` on a 16-slab block
  (the midpoints and differences of one coordinate step), 34 lanes per
  exponent;
* ``section_evaluator_constant``: the same for the constant bundle whose
  three atoms all carry the dimension-3 polytope gauge below;
* ``search_batch``: one ``convexity.pair_search`` of that group's two
  searches under the workload's budget (4 restarts, 20 iterations, grid
  1, 2);
* ``fiber_search``: one ``convexity.pair_search`` of the fiber searches
  of the four dimension-3 norms above, from their structured start pairs,
  under the suites' fiber budget (``suites.SUITE_BUDGET``: 16 restarts,
  80 iterations) on the grid 1, 2;
* ``gauge_build.<d>x<pairs>``: one ``PolytopeGaugeNorm`` construction
  (vertex pairing, facet enumeration and the cross-check) from ``pairs``
  seeded standard normal rows in dimension ``d`` and their negations, at
  the benchmark's sizes 2x4 and 3x5 and the large sizes 3x40 and 2x256;
* ``dual_check``: one warm in-process ``cli.main`` run of ``dual-check`` on
  config 0 of the benchmark's duality-sampled workload (seed 0), writing
  its reports to a temporary directory;
* ``additivity_check``: one ``criterion.restriction_additivity_check`` of
  the induced norm at p = 2, with one probe and every subset, on the bundle
  of config 0 of the benchmark's criterion-enum workload (seed 0).

Each checkout's package is imported under its own module name, so that
several checkouts load side by side, and its ``convexity._worker_count`` is
pinned to 1, so that every ``pair_search`` runs in this process.  The tool
names no other private kernel attribute, and passes a dimension only to a
``pair_search`` that takes one, so it runs on any checkout whose searches
are start-pair arrays.  Every layer of every checkout is called
once untimed, so lazy set-up stays out of the timings.  A repeat times
every layer of every checkout in turn (in reverse checkout order on odd
repeats), each over the same number of calls, sized to take about 20 ms;
a machine whose speed drifts over minutes then moves every checkout
alike.  The JSON written to
``--out`` (default: standard output) holds, per layer and checkout, the
median, the quartiles and the interquartile range of the seconds per call
over the repeats; with two or more checkouts, also the quartiles of each
repeat's time ratio of every checkout to the first; and the machine and
the versions.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ROW_COUNTS = (2, 64, 1024)
#: (dimension, antipodal pairs) of the timed gauge constructions
GAUGE_SIZES = ((2, 4), (3, 5), (3, 40), (2, 256))
#: seconds one timed measurement of a layer aims at
TARGET_S = 0.02


def _kinds(norms):
    """One norm of each kind in dimension 3."""
    gram = [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]]
    functionals = [[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.4, 0.0, 1.0], [1.0, 1.0, 1.0]]
    vertices = np.vstack([np.eye(3), [[1.0, 1.0, 0.5]], -np.eye(3), [[-1.0, -1.0, -0.5]]])
    return {
        "inner_product": norms.InnerProductNorm(gram),
        "weighted_lp": norms.WeightedLpNorm(3, [1.0, 2.0, 0.5]),
        "polyhedral_max": norms.PolyhedralMaxNorm(functionals),
        "polytope_gauge": norms.PolytopeGaugeNorm(vertices),
    }


def _section_group(bl, kinds=("inner_product", "weighted_lp", "polytope_gauge")):
    """The search group at exponents 1.5 and 3 of the fixed 3-atom bundle
    whose atoms carry the dimension-3 norms ``kinds``, with each search's
    structured start pairs under the bundle's section-space norm."""
    norms = _kinds(bl.norms)
    space = bl.measure.MeasureSpace(["a", "b", "c"], [0.7, 1.0, 1.4])
    bundle = bl.bundles.Bundle(space, [bl.bundles.Fiber(3, norms[k]) for k in kinds])
    exponents = [1.5, 3]
    evaluate = bl.bundles._section_norms(bundle, exponents)
    searches = []
    for p in exponents:
        pairs = bl.convexity.structured_pairs_for_fn(
            lambda X, p=p: bl.bundles._section_lp_rows(bundle, X, p), 9)[:27]
        searches.append(np.array(pairs))
    return bl.convexity.SearchGroup(evaluate, searches)


def _workload_config(name: str) -> dict:
    """Config 0 (seed 0) of the benchmark's workload ``name``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name].config(0, 0)


def _dual_check_config(workdir: Path) -> Path:
    """Config 0 (seed 0) of the benchmark's duality-sampled workload, written
    to ``workdir``."""
    path = workdir / "dual_check.json"
    path.write_text(json.dumps(_workload_config("duality-sampled")))
    return path


def _layers(bl, config: Path, out: Path) -> dict:
    """Name -> zero-argument callable of every timed layer; ``dual_check``
    reads ``config`` and writes to ``out``."""
    cv = bl.convexity
    rng = np.random.default_rng(0)
    layers = {}
    for kind, spec in _kinds(bl.norms).items():
        for m in ROW_COUNTS:
            rows = rng.standard_normal((m, 3))
            layers[f"norm_batch.{kind}.rows_{m}"] = lambda spec=spec, rows=rows: spec.norm_batch(rows)
        c = rng.standard_normal(3)
        layers[f"norm.{kind}"] = lambda spec=spec, c=c: spec.norm(c)
        layers[f"linear_maximizer.{kind}"] = lambda spec=spec, c=c: spec.linear_maximizer(c)

    group = _section_group(bl)
    block = rng.standard_normal((16, 68, 9))
    for name, g in (("section_evaluator", group),
                    ("section_evaluator_constant", _section_group(bl, ["polytope_gauge"] * 3))):
        layers[name] = lambda g=g: g.evaluate(block, [34, 34])

    eps = np.array([1.0, 2.0])
    budget = cv.SearchBudget(restarts=4, iterations=20)
    # an older pair_search takes the dimension its searches share
    takes_dim = "dim" in inspect.signature(cv.pair_search).parameters
    section_args = ((9,) if takes_dim else ()) + (eps, budget)
    fiber_args = ((3,) if takes_dim else ()) + (eps, bl.suites.SUITE_BUDGET)
    layers["search_batch"] = lambda: cv.pair_search([group], *section_args)
    fibers = [cv.single_norm_group(spec.norm_batch, cv.structured_pairs(spec))
              for spec in _kinds(bl.norms).values()]
    layers["fiber_search"] = lambda: cv.pair_search(fibers, *fiber_args)

    for d, pairs in GAUGE_SIZES:
        half = np.random.default_rng(1000 * d + pairs).standard_normal((pairs, d))
        vertices = np.vstack([half, -half])
        layers[f"gauge_build.{d}x{pairs}"] = (
            lambda vertices=vertices: bl.norms.PolytopeGaugeNorm(vertices))

    argv = ["dual-check", "--config", str(config), "--out", str(out)]
    layers["dual_check"] = lambda: bl.cli.main(argv)

    bundle = bl.serialize.bundle_from_config(_workload_config("criterion-enum")["bundle"])
    induced = bl.criterion.induced_norm(bundle, 2)
    layers["additivity_check"] = (
        lambda: bl.criterion.restriction_additivity_check(induced, 2, probes=1))
    return layers


def _load(checkout: Path, name: str):
    """The ``bundlelab`` package of ``checkout``, imported as ``name``."""
    package = checkout.resolve() / "src" / "bundlelab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("bundles", "cli", "convexity", "criterion", "measure", "norms", "serialize",
                "suites"):
        importlib.import_module(f"{name}.{sub}")
    module.convexity._worker_count = lambda: 1
    return module


def _quartiles(samples: list) -> dict:
    q1, q2, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                  if len(samples) > 1 else samples * 3)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _time(layer_sets: list, repeats: int) -> dict:
    """Seconds per call of every layer of every checkout, ``repeats`` times,
    each time over the same number of calls for all checkouts."""
    names = list(layer_sets[0])
    samples = {name: [[] for _ in layer_sets] for name in names}
    number = {}
    for name in names:
        # first calls run lazy set-up (a polyhedral norm's dual, a run's
        # caches), which the timings leave out
        for layers in layer_sets[1:]:
            layers[name]()
        t0 = time.perf_counter()
        layer_sets[0][name]()
        number[name] = max(1, int(TARGET_S / max(time.perf_counter() - t0, 1e-7)))
    order = list(range(len(layer_sets)))
    for r in range(repeats):
        for name in names:
            for c in order if r % 2 == 0 else order[::-1]:
                fn = layer_sets[c][name]
                t0 = time.perf_counter()
                for _ in range(number[name]):
                    fn()
                samples[name][c].append((time.perf_counter() - t0) / number[name])
    return {name: {"calls_per_repeat": number[name], "repeats": repeats,
                   "seconds_per_call": [_quartiles(s) for s in per_checkout],
                   "ratio_to_first": [_quartiles([a / b for a, b in zip(s, per_checkout[0])])
                                      for s in per_checkout[1:]]}
            for name, per_checkout in samples.items()}


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), "")
    except OSError:
        pass
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu_model": model,
            "usable_cpus": cpus, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, action="append",
                        help="checkout whose src/ is timed; repeat to compare "
                             "(default: this one)")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", type=Path, help="JSON output file (default: standard output)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    checkouts = args.checkout or [ROOT]
    with tempfile.TemporaryDirectory() as tmp:
        config = _dual_check_config(Path(tmp))
        layer_sets = [_layers(_load(c, f"bundlelab_{k}"), config, Path(tmp) / f"out_{k}")
                      for k, c in enumerate(checkouts)]
        report = {"checkouts": [str(c.resolve()) for c in checkouts], "machine": _machine(),
                  "layers": _time(layer_sets, args.repeats)}
    text = json.dumps(report, indent=1)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
