"""Self-test of the benchmark harness at the smallest input sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

* BENCHMARK.json declares exactly the metrics and units run.py emits;
* an untraced and a traced run of every workload pass their output checks
  and emit every end-to-end or per-layer metric with its unit;
* a criterion catalogue whose PASS entry is flipped to ``expect: FAIL``
  makes the run fail (``failed`` > 0, ``correct`` false), so the output
  gate can actually fail.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import CRITERION_CATALOGUE, WORKLOADS  # noqa: E402


def main() -> int:
    problems = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != dict(emitted):
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(declared.items()) ^ set(emitted))}")

    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    env, info = run.call_context()

    def attempt(name, trace, config=None):
        result = run.run_workload(name, 0, 0.1, trace, env, size="tiny", config=config)
        return run.report(result, trace, 0, info)

    for name in WORKLOADS:
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            out = attempt(name, trace)
            if not out["correct"]:
                problems.append(f"{name} trace={int(trace)}: output check failed")
            for metric, unit in wanted:
                got = out["metrics"].get(metric)
                if got is None or got.get("unit") != unit or "value" not in got:
                    problems.append(f"{name} trace={int(trace)}: {metric} [{unit}] "
                                    f"missing or mislabelled: {got}")

    flipped = [dict(e) for e in CRITERION_CATALOGUE]
    flipped[0]["expect"] = "FAIL"  # the induced norm passes additivity
    crit = WORKLOADS["criterion-enum"]
    out = attempt("criterion-enum", False, lambda k: crit.config(0, k, "tiny", flipped))
    if out["correct"] or out["failed"] == 0:
        problems.append("a flipped catalogue expect did not fail the criterion run")

    for p in problems:
        print("SELFTEST FAIL: " + p)
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
