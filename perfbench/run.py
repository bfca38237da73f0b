"""bundlelab benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Defaults: all workloads, seed 0, 40 seconds each, untraced.

Run it from the root of a checkout.  Each workload (see workloads.py and
README.md) runs the `bundlelab` CLI in a fresh interpreter per call, so the
module-level fiber-curve cache starts cold every time, as it does for a CLI
user.  The load model is a closed loop: one client, one call at a time.
Configs come from ``--seed`` alone; call k of a run uses config k, new
configs are started until ``--seconds`` is used up (an untraced run covers
at least one whole cycle of the workload's config strata), and config 0 is
then run once more to check that a second process writes the same report bytes.
Runs in one checkout must not overlap: they share ``.perfbench/calls``.

Every call's outputs are checked: a call fails on a non-zero exit, on any
unexpected verdict or residual row, on a report of the wrong shape, or when
a repeated config writes different CSV/.dat bytes (``summary.md`` carries a
timestamp and is left out of the SHA-256).

Before every untraced call a fixed reference job (reference.py: numpy and
scipy imports, small LPs, a Python loop; no bundlelab code) runs in its own
fresh interpreter.  The bounded timings ``wall_ref`` and ``items_per_ref``
take the duration of that reference run as their unit of time, so that the
machine's speed drift, which moves both alike, drops out; the uncalibrated
``wall_s`` and ``items_per_s`` are printed and reported with ``--trace 1``.
BLAS and OpenMP pools are pinned to one thread in every child.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
config untraced and then traced (tracer.py wraps the package's functions in
the child process) and reports the per-layer metrics, plus the tracing
overhead: median traced wall_s minus median untraced wall_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every output check passed, 1 when one failed, 2 when the benchmark could not
run (bad arguments, or no ``src/bundlelab`` to run).  Per-run records,
including the environment, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402
from workloads import WORKLOADS, Check, output_digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bundlelab"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

#: a call still running after this long is killed and counts as failed
CALL_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),            # spawn to the call into bundlelab.cli.main
    ("wall_ref", "ref"),         # spawn to exit, in reference runs (reference.py)
    ("items_per_ref", "1/ref"),  # workload items per reference run's time inside main
    ("peak_rss_mb", "MiB"),      # peak resident set of the child
)
PER_LAYER = tuple(tracer.layer_metrics()) + (
    ("delta_mean", "1"),
    ("trace_overhead_s", "s"),
    ("wall_s", "s"),             # spawn to exit, uncalibrated
    ("items_per_s", "1/s"),      # workload items per second inside main, uncalibrated
    ("ref_s", "s"),              # spawn to exit of the reference run
)

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CALL_NUMBERS = itertools.count()


@dataclass
class Call:
    """One CLI process: its timings, peak memory and output check."""

    index: int
    traced: bool
    wall_s: float
    setup_s: float
    rss_mb: float
    check: Check
    digest: str
    ref_s: float = 0.0  # the reference run just before this call (untraced calls)
    trace: dict | None = None
    repeat: bool = False  # a determinism check, left out of the timings

    @property
    def main_s(self) -> float:
        return self.wall_s - self.setup_s


def child_env() -> dict:
    """The caller's environment, with BLAS/OpenMP pools pinned to one thread.

    The calls use small matrices, and a second pool thread only makes their
    time depend on whether the machine's other core is free."""
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    return env


def environment(nproc: int, env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or None,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": nproc,
        "threads": {v: env[v] for v in _THREAD_VARS},
        "platform": platform.platform(),
        "cache": "cold: every call is a fresh interpreter",
        "load": "closed loop, one client, calls run one at a time",
        "calibration": "each untraced call follows a reference run (reference.py)",
    }


def call_context() -> tuple[dict, dict]:
    """The environment for the child processes, and its description."""
    env = child_env()
    return env, environment(len(os.sched_getaffinity(0)), env)


def run_reference(env: dict) -> tuple[float, str]:
    """Time one reference run from spawn to exit; returns (seconds, problem)."""
    spawned = time.monotonic()
    try:
        done = subprocess.run([sys.executable, str(REFERENCE)], capture_output=True,
                              env=env, cwd=ROOT, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.monotonic() - spawned, "the reference run timed out"
    seconds = time.monotonic() - spawned
    if done.returncode != 0:
        return seconds, f"the reference run exited with {done.returncode}"
    return seconds, ""


def run_call(workload, cfg: dict, index: int, tag: str, traced: bool, env: dict) -> Call:
    ref_s, ref_problem = run_reference(env) if not traced else (0.0, "")
    d = WORK / "calls" / tag
    d.mkdir(parents=True)
    (d / "config.json").write_text(json.dumps(cfg, indent=1))
    out, stamp, trace_file = d / "out", d / "stamp", d / "trace.json"
    cmd = [sys.executable, str(CHILD), str(stamp), str(trace_file) if traced else "-", "--",
           workload.command, "--config", str(d / "config.json"), "--out", str(out)]
    with open(d / "stdout", "wb") as so, open(d / "stderr", "wb") as se:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    # a call that died before reaching main counts its whole life as set-up
    setup = float(stamp.read_text()) - spawned if stamp.exists() else exited - spawned
    try:
        check = workload.check(cfg, out)
    except (OSError, ValueError, KeyError) as exc:
        check = Check()
        check.problems.append(f"unreadable output: {exc!r}")
    if proc.returncode != 0:
        tail = (d / "stderr").read_text(errors="replace").strip().splitlines()[-3:]
        check.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    if ref_problem:
        check.problems.append(ref_problem)
    digest = output_digest(out) if out.is_dir() else ""
    call = Call(index, traced, exited - spawned, setup, usage.ru_maxrss / 1024.0, check, digest,
                ref_s)
    if traced and trace_file.exists():
        call.trace = json.loads(trace_file.read_text())
    return call


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 size: str = "full", config=None) -> dict:
    """Run one workload for about ``seconds``; returns its calls and duration.

    ``size`` and ``config`` (a replacement for ``workload.config``) exist
    for the self-test, which runs the smallest inputs and a broken catalogue.
    """
    workload = WORKLOADS[name]
    make = config or (lambda k: workload.config(seed, k, size))
    calls: list[Call] = []
    start = time.monotonic()

    def step(k: int, traced: bool) -> Call:
        call = run_call(workload, make(k), k, f"{next(_CALL_NUMBERS):04d}-{name}", traced, env)
        calls.append(call)
        return call

    # an untraced run covers at least one whole cycle of strata and ends with
    # a repeat of config 0; a traced run repeats every config with tracing on
    k = 0
    while True:
        step(k, False)
        if trace:
            step(k, True)
        k += 1
        per_config = (time.monotonic() - start) / k
        if ((trace or k >= workload.cycle)
                and time.monotonic() - start + (1 + (not trace)) * per_config > seconds):
            break
    if not trace:
        step(0, False).repeat = True

    first = {}
    for call in calls:
        if call.digest:
            ref = first.setdefault(call.index, call.digest)
            if call.digest != ref:
                call.check.problems.append(f"config {call.index} wrote different report bytes "
                                   f"in another process ({call.digest[:12]} != {ref[:12]})")
    return {"workload": workload, "calls": calls, "seconds": time.monotonic() - start}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _strata(calls: list[Call], cycle: int, value) -> list[list[float]]:
    groups: dict = {}
    for c in calls:
        groups.setdefault(c.index % cycle, []).append(value(c))
    return list(groups.values())


def end_to_end(calls: list[Call], cycle: int) -> dict:
    """Per-call statistics, weighting every stratum of configs equally, so
    that how many calls of each shape fit into a run does not move them.

    The calibrated timings divide each call's time by the reference run
    made just before it (one reference run is the unit of time)."""

    def median(value):
        return statistics.fmean(statistics.median(g) for g in _strata(calls, cycle, value))

    def mean(value):
        return sum(statistics.fmean(g) for g in _strata(calls, cycle, value))

    items = mean(lambda c: c.check.items)
    return {
        "setup_s": median(lambda c: c.setup_s),
        "wall_ref": median(lambda c: c.wall_s / c.ref_s),
        "items_per_ref": items / mean(lambda c: c.main_s / c.ref_s),
        "peak_rss_mb": median(lambda c: c.rss_mb),
        "wall_s": median(lambda c: c.wall_s),
        "items_per_s": items / mean(lambda c: c.main_s),
        "ref_s": median(lambda c: c.ref_s),
    }


def metrics(result: dict, trace: bool) -> dict:
    calls = result["calls"]
    plain = [c for c in calls if not c.traced and not c.repeat]
    if not trace:
        values = end_to_end(plain, result["workload"].cycle)
        units = dict(END_TO_END)
    else:
        traced = [c for c in calls if c.traced and c.trace is not None]
        deltas = [d for c in plain for d in c.check.deltas]
        values = tracer.layer_values([c.trace for c in traced]) if traced else {}
        values.update((k, v) for k, v in end_to_end(plain, result["workload"].cycle).items()
                      if k in ("wall_s", "items_per_s", "ref_s"))
        values["delta_mean"] = statistics.fmean(deltas) if deltas else 0.0
        values["trace_overhead_s"] = (
            statistics.median(c.wall_s for c in traced)
            - statistics.median(c.wall_s for c in plain)) if traced else 0.0
        units = dict(PER_LAYER)
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}


def report(result: dict, trace: bool, seed: int, env_info: dict) -> dict:
    """Print the human-readable table and return the result object."""
    workload, calls = result["workload"], result["calls"]
    failed = [c for c in calls if not c.check.ok]
    out = {"correct": not failed, "attempted": len(calls), "failed": len(failed),
           "metrics": metrics(result, trace)}

    plain = [c for c in calls if not c.traced and not c.repeat]
    print(f"workload {workload.name} (bundlelab {workload.command}), seed {seed}, "
          f"trace {int(trace)}: {len(calls)} calls of {len({c.index for c in calls})} "
          f"configs in {result['seconds']:.1f} s")
    summary = end_to_end(plain, workload.cycle)
    print(f"{'metric':<22}{'unit':>6}{'value':>12}  per call:{'q1':>10}{'median':>10}"
          f"{'q3':>10}{'n':>4}")

    def row(name, unit, value, per_call):
        q1, med, q3 = _quartiles(per_call)
        print(f"{name:<22}{unit:>6}{value:>12.6g}{'':>11}{q1:>10.4g}{med:>10.4g}"
              f"{q3:>10.4g}{len(per_call):>4}")

    row("setup_s", "s", summary["setup_s"], [c.setup_s for c in plain])
    row("wall_ref", "ref", summary["wall_ref"], [c.wall_s / c.ref_s for c in plain])
    row(f"{workload.item}_per_ref", "1/ref", summary["items_per_ref"],
        [c.check.items * c.ref_s / c.main_s for c in plain])
    row("peak_rss_mb", "MiB", summary["peak_rss_mb"], [c.rss_mb for c in plain])
    row("wall_s", "s", summary["wall_s"], [c.wall_s for c in plain])
    row(f"{workload.item}_per_s", "1/s", summary["items_per_s"],
        [c.check.items / c.main_s for c in plain])
    row("ref_s", "s", summary["ref_s"], [c.ref_s for c in plain])
    row("failed_share", "1", len(failed) / len(calls), [float(not c.check.ok) for c in calls])
    deltas = [d for c in plain for d in c.check.deltas]
    if deltas:
        row("delta_mean", "1", statistics.fmean(deltas), deltas)
    if trace:
        for name, m in out["metrics"].items():
            print(f"  {name:<44}{m['unit']:>6}  {m['value']:.6g}")
    for c in calls:
        status = "ok" if c.check.ok else "FAILED: " + "; ".join(
            c.check.problems + ([f"{c.check.unexpected} unexpected rows"]
                                if c.check.unexpected else []))
        kind = " traced" if c.traced else " repeat" if c.repeat else ""
        print(f"  call config {c.index}{kind}: "
              f"wall {c.wall_s:.3f} s, setup {c.setup_s:.3f} s, ref {c.ref_s:.3f} s, "
              f"sha256 {c.digest[:16] or '-'}, {status}")
    print("environment: " + json.dumps(env_info, sort_keys=True))

    record = dict(out, workload=workload.name, seed=seed, trace=int(trace),
                  environment=env_info,
                  calls=[{"config": c.index, "traced": c.traced, "wall_s": c.wall_s,
                          "setup_s": c.setup_s, "ref_s": c.ref_s, "peak_rss_mb": c.rss_mb,
                          "items": c.check.items, "sha256": c.digest,
                          "problems": c.check.problems, "unexpected": c.check.unexpected}
                         for c in calls])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return out


def prepare() -> str | None:
    """Compile the package, so every call imports bytecode, and clear old
    call directories.  Returns an error message when there is nothing to run."""
    if not (PACKAGE / "cli.py").is_file():
        return f"{PACKAGE} not found; run from the root of a bundlelab checkout"
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        return f"compiling {PACKAGE} failed:\n{done.stdout}{done.stderr}"
    shutil.rmtree(WORK / "calls", ignore_errors=True)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    env, env_info = call_context()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        outs[name] = report(result, bool(args.trace), args.seed, env_info)
    if len(outs) == 1:
        final = outs[names[0]]
    else:
        final = {"correct": all(o["correct"] for o in outs.values()),
                 "attempted": sum(o["attempted"] for o in outs.values()),
                 "failed": sum(o["failed"] for o in outs.values()),
                 "metrics": {f"{n}.{m}": v for n, o in outs.items()
                             for m, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
