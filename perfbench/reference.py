"""Reference run: a fixed numpy/scipy job that does not touch bundlelab.

    python3 perfbench/reference.py

The harness runs this in a fresh interpreter before every timed CLI call and
times it from spawn to exit.  Its work never changes: the same imports
(numpy and scipy.optimize, most of a CLI call's set-up), the same small
HiGHS linear programs (most of the criterion and duality calls' time) and
the same pure-Python loop.  So its duration measures only how fast the
machine is at that moment, and dividing a call's time by it takes out the
machine's speed drift (see README.md, "Calibrated timings").

Exits 0 after checking that every LP reached its known optimum.
"""

import sys

import numpy as np
from scipy.optimize import linprog

# gauge-norm LPs as bundlelab builds them: min sum(lam) s.t. [V, -V] lam = x,
# lam >= 0, on fixed vertices V in R^3 and fixed right-hand sides x
_V = np.array([[1.0, 0.2, -0.4, 0.7, -1.1, 0.3],
               [0.1, 1.3, 0.5, -0.6, 0.2, -0.9],
               [-0.3, 0.4, 1.2, 0.8, 0.6, 0.5]])
_X = np.array([[1.0, -2.0, 0.5], [0.3, 0.3, -1.4], [-0.7, 1.1, 0.9], [2.0, 0.1, -0.2]])
LPS = 96
LOOP = 60_000


def main() -> int:
    a_eq = np.hstack([_V, -_V])
    cost = np.ones(a_eq.shape[1])
    values = []
    for r in range(LPS):
        res = linprog(cost, A_eq=a_eq, b_eq=_X[r % len(_X)], bounds=(0, None), method="highs")
        if res.status != 0:
            return 1
        values.append(res.fun)
    acc = {}
    for i in range(LOOP):
        acc[i % 101] = acc.get(i % 101, 0.0) + (i % 7) * 0.5
    # each right-hand side recurs LPS / 4 times and must give one optimum
    first = values[:len(_X)]
    ok = all(abs(v - first[i % len(_X)]) <= 1e-9 * max(1.0, abs(v)) for i, v in enumerate(values))
    return 0 if ok and sum(acc.values()) > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
