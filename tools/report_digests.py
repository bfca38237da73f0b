"""SHA-256 of the report bytes `bundlelab` writes for benchmark configs.

    python3 tools/report_digests.py WORKLOAD [WORKLOAD ...]
        [--seeds N [N ...]] [--indices K|A-B ...] [--checkout DIR] [--keep DIR]

WORKLOAD is a workload of ``perfbench/workloads.py`` (its configs come from
``(seed, index)``), ``suite:TAG``, the ``bundlelab suite`` run of TAG's
default recipe, or ``file:COMMAND:PATH``, the ``bundlelab COMMAND`` run of
the JSON config at PATH.  Seeds and indices apply only to workloads; the
other two print them as ``-``.  Defaults: seed 0, config index 0.

Every config runs through ``bundlelab.cli.main`` in a fresh interpreter on
the ``src/`` of ``--checkout`` (default: the checkout holding this script),
with BLAS and OpenMP pools pinned to one thread, as the benchmark runs it.
One line per config goes to standard output:

    workload seed index exit sha256

where the digest is the benchmark's ``output_digest`` (every report file
except the timestamped ``summary.md``), or ``-`` when nothing was written.
Run it on two checkouts and ``diff`` the outputs to check that a change
keeps report bytes identical.  With ``--keep DIR`` each config's reports
stay in ``DIR/<workload>-<seed>-<index>/`` (replaced if present; ``/`` in
a ``file:`` name becomes ``_``), so the CSVs of two checkouts can be
compared cell by cell.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_RUN_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from bundlelab.cli import main; sys.exit(main(sys.argv[2:]))"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _indices(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def digest_line(workloads, src: Path, name: str, seed, index, env: dict,
                keep: Path | None = None) -> str:
    """Run one config and return its ``workload seed index exit sha256`` line;
    with ``keep``, its reports are copied to ``keep/<workload>-<seed>-<index>``."""
    if name.startswith("suite:"):
        command, cfg = "suite", {"suites": [name.partition(":")[2]]}
    elif name.startswith("file:"):
        _, command, path = name.split(":", 2)
        cfg = json.loads(Path(path).read_text())
    else:
        workload = workloads.WORKLOADS[name]
        command, cfg = workload.command, workload.config(seed, index)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(cfg, indent=1))
        done = subprocess.run(
            [sys.executable, "-c", _RUN_CLI, str(src), command, "--config", str(config), "--out", str(out)],
            env=env, capture_output=True)
        digest = workloads.output_digest(out) if out.is_dir() else "-"
        if keep is not None and out.is_dir():
            dest = keep / f"{name}-{seed}-{index}".replace("/", "_")
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(out, dest)
    return f"{name} {seed} {index} {done.returncode} {digest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--indices", nargs="+", type=_indices, default=[[0]])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/ runs (default: this one)")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="keep each config's reports under DIR/<workload>-<seed>-<index>/")
    args = parser.parse_args(argv)
    workloads = _load_workloads()
    for name in args.workloads:
        if name.startswith("file:"):
            if name.count(":") < 2 or not Path(name.split(":", 2)[2]).is_file():
                parser.error(f"{name!r}: expected file:COMMAND:PATH with an existing PATH")
        elif not name.startswith("suite:") and name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}, "
                         "suite:TAG or file:COMMAND:PATH")
    src = (args.checkout / "src").resolve()
    env = dict(os.environ, **{var: "1" for var in _THREAD_VARS})
    for name in args.workloads:
        runs = ([("-", "-")] if name.startswith(("suite:", "file:")) else
                [(seed, k) for seed in args.seeds for ks in args.indices for k in ks])
        for seed, index in runs:
            print(digest_line(workloads, src, name, seed, index, env, args.keep), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
