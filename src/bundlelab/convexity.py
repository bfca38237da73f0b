"""Convexity-profile estimation on unit spheres.

The central quantity is the modulus of convexity

    delta(eps) = inf { 1 - ||(v + w)/2||  :  ||v|| = ||w|| = 1, ||v - w|| >= eps }

estimated by multi-start projected coordinate descent with a penalty for
violating the separation constraint.  Every reported value is the
objective at an explicit witness pair separated by at least
``eps - FEASIBILITY_SLACK``, hence an upper bound on
``delta(eps - FEASIBILITY_SLACK)``, which is at most ``delta(eps)``.  The
two differ where delta is steep: for a round norm at eps = 2,
``delta(2) - delta(2 - slack)`` is about ``sqrt(slack)`` (3.2e-5), and a
weighted l^2 estimate there sits 2.25e-5 below ``delta(2)``.  The same
kernel, with the objective ``1 - defect/4`` on the separation grid
``[0.0]``, maximizes the parallelogram defect.

All searches are deterministic functions of their budget: starts come from
seeded sphere samples plus structured pairs (axis, sign-pattern, polytope
-vertex and antipodal pairs), and reductions run in fixed lane order.
Restart lanes are vectorized: a coordinate step normalizes six endpoints
per lane and evaluates the midpoints and differences of the eight move
patterns built from them, 22 norm rows per lane.  ``pair_search`` runs many
searches of one dimension in lockstep: each search owns a block of lanes
that its own norm evaluator handles, and leaves the batch once all its
lanes have converged.  Every evaluator must be row-independent (a row's
norm has the same bits whatever the other rows of the call and however
many); since every other step is per lane, a search then gives the same
bits in any batch as alone.  A call with enough work also splits its
searches into contiguous parts, one per usable CPU, and runs every part but
the first in a forked child that pickles its results and counters back
through a pipe; by the same contract the split moves no bit.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .norms import NormSpec, PolyhedralMaxNorm, PolytopeGaugeNorm

__all__ = [
    "SearchBudget",
    "ModulusCurve",
    "DEFAULT_EPS_GRID",
    "DEFAULT_BUDGET",
    "DEFECT_BUDGET",
    "check_eps_grid",
    "Search",
    "SearchGroup",
    "single_norm_group",
    "pair_search",
    "curve_from_search",
    "modulus_curve",
    "modulus_curves",
    "structured_pairs",
    "structured_pairs_for_fn",
    "parallelogram_defects",
    "modulus_grid_estimate_2d",
]

#: default separation grid 0.1, 0.2, ..., 2.0
DEFAULT_EPS_GRID = np.round(np.arange(1, 21) * 0.1, 12)

#: witness pairs may undershoot the separation constraint by this much
FEASIBILITY_SLACK = 1e-9

_MAX_EXTRA_PAIRS = 160


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the multi-start searches; fully determines a run."""

    restarts: int = 64
    iterations: int = 200
    seed: int = 0
    init_step: float = 0.25
    min_step: float = 1e-7
    penalty: float = 4.0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"budget {name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"budget {name} must be at least {least}, got {value}")
        for name in ("init_step", "min_step", "penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"budget {name} must be a number, got {value!r}")
            if not 0.0 < value < math.inf:
                raise ValueError(f"budget {name} must be finite and positive, got {value}")
        if self.min_step > self.init_step:
            raise ValueError(
                f"budget min_step {self.min_step} exceeds init_step {self.init_step}"
            )


DEFAULT_BUDGET = SearchBudget()
DEFECT_BUDGET = SearchBudget(restarts=32, iterations=120, init_step=0.35)


@dataclass
class ModulusCurve:
    """Estimated modulus of convexity along a separation grid.

    Each raw per-point estimate bounds ``delta(eps - FEASIBILITY_SLACK)``
    from above, not ``delta(eps)`` (see the module docstring).  ``deltas``
    is non-decreasing (isotonic clamp: reverse running minimum, which
    preserves that bound because a witness pair for a larger separation is
    feasible for a smaller one).  The raw estimates are kept alongside, and
    each point carries its witness pair.
    """

    epsilons: np.ndarray
    deltas: np.ndarray
    raw_deltas: np.ndarray
    witnesses: list
    budget: SearchBudget
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.deltas) < 0.0):
            raise AssertionError("modulus curve must be non-decreasing after clamping")


def check_eps_grid(eps_values) -> np.ndarray:
    """A separation grid as a float array; raises ValueError unless it is a
    non-empty, strictly increasing list in (0, 2]."""
    eps = np.atleast_1d(np.asarray(eps_values, dtype=float))
    if eps.size == 0:
        raise ValueError("separation grid must be non-empty")
    if np.any(eps <= 0.0) or np.any(eps > 2.0):
        raise ValueError("separations must lie in (0, 2]")
    if np.any(np.diff(eps) <= 0.0):
        raise ValueError("separation grid must be strictly increasing")
    return eps


# -- structured starting pairs --------------------------------------------


def _unit_rows(norm_batch, rows: np.ndarray) -> np.ndarray:
    U = rows / norm_batch(rows)[:, None]
    return U / norm_batch(U)[:, None]


def structured_pairs_for_fn(norm_batch, dim: int) -> list:
    """Deterministic start pairs for a black-box norm: axis, antipodal
    and Hamming-neighbor sign-pattern pairs (the latter for dim <= 6)."""
    axes = _unit_rows(norm_batch, np.eye(dim))
    pairs = [(axes[0], -axes[0])]
    for i in range(dim):
        for j in range(i + 1, dim):
            pairs.append((axes[i], axes[j]))
            pairs.append((axes[i], -axes[j]))
    if 2 <= dim <= 6:
        signs = np.array(
            [[1.0 if (s >> k) & 1 else -1.0 for k in range(dim)] for s in range(2**dim)]
        )
        signs = _unit_rows(norm_batch, signs)
        for s in range(2**dim):
            for k in range(dim):
                t = s ^ (1 << k)
                if s < t:
                    pairs.append((signs[s], signs[t]))
                if len(pairs) >= _MAX_EXTRA_PAIRS:
                    return pairs[:_MAX_EXTRA_PAIRS]
    return pairs[:_MAX_EXTRA_PAIRS]


def structured_pairs(spec: NormSpec) -> list:
    """Structured start pairs for a norm kind, including polytope vertices."""
    pairs = structured_pairs_for_fn(spec.norm_batch, spec.dimension)
    verts = None
    if isinstance(spec, PolytopeGaugeNorm):
        verts = spec.vertices
    elif isinstance(spec, PolyhedralMaxNorm) and spec.dimension == 2:
        verts = _polyhedral_ball_vertices_2d(spec)
    if verts is not None and len(verts) >= 2:
        V = _unit_rows(spec.norm_batch, np.asarray(verts, dtype=float))
        for i in range(len(V)):
            for j in range(i + 1, len(V)):
                pairs.append((V[i], V[j]))
                if len(pairs) >= _MAX_EXTRA_PAIRS:
                    return pairs[:_MAX_EXTRA_PAIRS]
    return pairs[:_MAX_EXTRA_PAIRS]


def _polyhedral_ball_vertices_2d(spec: PolyhedralMaxNorm) -> np.ndarray:
    """Vertices of the planar unit ball {v : max_i |<a_i, v>| <= 1}."""
    A = spec.functionals
    pts = []
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            M = np.array([A[i], A[j]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    x = np.linalg.solve(M, np.array([si, sj]))
                    if abs(spec.norm(x) - 1.0) <= 1e-9:
                        pts.append(x)
    return np.array(pts) if pts else np.empty((0, 2))


# -- core pair search ------------------------------------------------------

#: lanes x dimension of one batch of searches run in lockstep (a larger
#: search runs alone).  Wider batches share the per-step call overhead;
#: working memory grows with the lanes of a batch (22 rows per lane plus
#: evaluator temporaries).  ``cli.main`` on the benchmark's section-modulus
#: configs 0-7 at seed 0, in fresh processes (2-vCPU VM, BLAS on one thread;
#: time as the sum over the configs of each's median of three runs, peak RSS
#: as the mean over the configs of each's median):
#:
#:     cap     time     peak RSS
#:     1000    5.34 s   38.83 MiB
#:     2000    5.26 s   38.89 MiB
#:     3000    4.60 s   39.00 MiB
#:     5000    4.63 s   39.12 MiB
#:     8000    4.59 s   39.13 MiB
#:
#: The largest part of any of these calls holds 4896 lane coordinates, so
#: from 5000 up each part runs as one batch and these runs do not change;
#: 5000 is the widest cap that changes them, 0.23 MiB above cap 2000's peak.
#: A wider one would only raise the working memory of larger runs.
_MAX_LANE_COORDS = 5000

#: lane coordinates x ``budget.iterations`` of a ``pair_search`` call above
#: which it splits its searches over forked children.  A fork round trip
#: (fork, pipe, exit, wait) costs about 3 ms with ``gc.freeze()`` on and the
#: CLI's 35 MiB heap, and parts end unevenly since searches converge at
#: different iterations.  The calls ``suite_convexity_upper`` makes on the
#: benchmark's section-modulus configs 0-7 at seed 0, and every prefix of
#: their groups that holds two or more searches, each timed alone and in two
#: parts (2-vCPU VM, BLAS on one thread; the minimum of three runs), summed
#: by work:
#:
#:     work          calls   alone     2 parts   ratio
#:     below 10k       2      0.09 s    0.09 s   1.08
#:     10k - 20k      10      0.56 s    0.57 s   1.02
#:     20k - 40k      28      2.68 s    2.30 s   0.86
#:     40k - 100k     60     10.97 s    7.87 s   0.72
#:     100k and up    84     27.24 s   18.33 s   0.67
_MIN_FORK_WORK = 20_000

# A coordinate step moves each lane's pair (V, W) along one axis e_i by the
# lane's step s, in eight patterns: single-endpoint moves, joint moves that
# translate both endpoints (the separation stays while the midpoint slides,
# which escapes stalls against the constraint wall at polygonal corners),
# and opposite-sign moves that stretch or shrink the pair.  The patterns
# share six endpoints, normalized once per step, in this order:
#: V + s e_i, V - s e_i, V, W + s e_i, W - s e_i, W, per unit step
_END_STEPS = np.array([1.0, -1.0, 0.0, 1.0, -1.0, 0.0])
#: (V endpoints, W endpoints) of the patterns, two per entry: (V+-, W),
#: (V, W+-), (V+, W+) and (V-, W-), (V+, W-) and (V-, W+).  The order fixes
#: the argmin tie-breaks, so it must not change.
_PATTERNS = ((slice(0, 2), slice(5, 6)), (slice(2, 3), slice(3, 5)),
             (slice(0, 2), slice(3, 5)), (slice(0, 2), slice(4, 2, -1)))
#: the V and the W endpoint of each pattern
_V_END, _W_END = np.concatenate(
    [np.broadcast_arrays(np.arange(6)[v], np.arange(6)[w]) for v, w in _PATTERNS], axis=1)
_N_PAT = len(_V_END)


class Search(NamedTuple):
    """Start pairs of one search: ``extra_pairs`` join the lanes of every
    separation, ``extras_by_eps[e]`` only those of separation ``e``."""

    extra_pairs: Sequence = ()
    extras_by_eps: Sequence[Sequence] | None = None


class SearchGroup(NamedTuple):
    """Searches that share one norm evaluator.

    ``evaluate(A, counts)`` takes a block ``A`` of shape ``(k, lanes, dim)``,
    ``k`` rows per lane, whose lanes belong to the searches in order: the
    first ``counts[0]`` lanes to ``searches[0]``, the next ``counts[1]`` to
    ``searches[1]``, and so on (a count may be 0).  It returns the ``(k,
    lanes)`` norms, each lane's rows under the norm of its own search.  It
    must be row-independent: the norm of a row has the same bits whatever
    the other rows of the call, and however many there are.
    """

    evaluate: Callable[[np.ndarray, Sequence[int]], np.ndarray]
    searches: Sequence[Search]


def single_norm_group(norm_batch, search: Search) -> SearchGroup:
    """A group of one search under a plain batched norm evaluator, which
    takes rows ``(m, dim)`` to their ``(m,)`` norms."""

    def evaluate(A, counts):
        return norm_batch(A.reshape(-1, A.shape[-1])).reshape(A.shape[:-1])

    return SearchGroup(evaluate, [search])


def _midpoint_gap(mid_norms, sep_norms):
    """The modulus objective ``1 - ||(v+w)/2||``, written over ``mid_norms``."""
    return np.subtract(1.0, mid_norms, out=mid_norms)


def pair_search(groups: Sequence[SearchGroup], dim: int, eps_values, budget: SearchBudget,
                objective=_midpoint_gap):
    """Minimize an objective over separated unit pairs, for many searches.

    Every search of every group runs in ``dim`` dimensions on the separation
    grid ``eps_values`` under ``budget``.  ``objective(mid_norms,
    sep_norms)`` maps the norms of ``(v+w)/2`` and ``v-w`` of candidate
    pairs into [0, 1], elementwise, and may overwrite its arguments; the
    default, ``1 - ||(v+w)/2||``, reads no separations, so the repair below
    asks for none.  Returns one ``(raw, witnesses, counters)`` per search,
    in group order: per eps the least objective found, clamped into [0, 1],
    witness pairs with ``||v|| = ||w|| = 1`` within 1e-9 and
    ``||v - w|| >= eps - 1e-9``, and the counters ``iterations`` (used),
    ``lanes``, ``repaired`` (lanes that never met the separation and were
    repaired by bisection) and ``rows`` (rows its evaluator was asked for).

    Each lane holds one pair.  An iteration steps every coordinate in turn:
    the six endpoints V +- s e_i, V, W +- s e_i and W are normalized, and
    the midpoints and differences of the eight move patterns built from
    them are evaluated, 22 rows per lane and coordinate.  A lane keeps the
    best pattern that lowers its penalized objective and halves its step
    after an iteration without one.

    Searches run in lockstep batches of at most ``_MAX_LANE_COORDS`` lane
    coordinates (a larger search runs alone).  Each search owns a contiguous
    block of lanes, which its group's evaluator handles together with the
    blocks of the group's other searches in the batch, and leaves the batch
    once all its lanes have step below ``budget.min_step``.  Every step
    other than the evaluator is per lane, so a search gives the same bits
    in any batch as alone, provided every evaluator is row-independent (see
    ``SearchGroup``).

    The searches are split into contiguous parts of about equal lane
    coordinates, one per worker (``_worker_count``), each batched as above;
    the first part runs here and every other in a forked child, which
    pickles its results and counters back through a pipe.  By the
    row-independence above the split moves no bit.  It applies only where
    ``os.fork`` exists, no other thread runs and the lane coordinates times
    ``budget.iterations`` exceed ``_MIN_FORK_WORK``.  An evaluator's side
    effects in a child are lost with it, and a child's exception is raised
    here as a ``RuntimeError`` carrying its traceback.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    rng = np.random.default_rng(budget.seed)
    X = rng.standard_normal((budget.restarts, dim))
    Y = rng.standard_normal((budget.restarts, dim))
    X[np.linalg.norm(X, axis=1) < 1e-12] = 1.0
    Y[np.linalg.norm(Y, axis=1) < 1e-12] = 1.0

    jobs = []
    for g, group in enumerate(groups):
        for j, s in enumerate(group.searches):
            lanes = len(eps_values) * (budget.restarts + len(s.extra_pairs)) + (
                0 if s.extras_by_eps is None else sum(len(e) for e in s.extras_by_eps))
            jobs.append(((g, j), lanes * dim))
    parts = _split(jobs, budget.iterations)

    def run(part, parent=None):
        """Results of a part's searches; a child exits once ``parent`` is gone."""
        results, batch, coords = [], [], 0
        for k, (search, lane_coords) in enumerate(part):
            batch.append(search)
            coords += lane_coords
            if k + 1 == len(part) or coords + part[k + 1][1] > _MAX_LANE_COORDS:
                if parent is not None and os.getppid() != parent:
                    os._exit(1)
                results += _search_batch(groups, batch, dim, eps_values, budget, objective, X, Y)
                batch, coords = [], 0
        return results

    if len(parts) == 1:
        return run(parts[0])
    return _run_forked(run, parts)


def _worker_count() -> int:
    """Parts a ``pair_search`` call may run at once: usable CPUs per BLAS
    thread (OpenBLAS reads OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS, else takes one per CPU).  Idle pool threads spin on the
    cores other parts run on: 60 3-D fiber searches took 9.5 s alone and
    5.1 s in two parts on one BLAS thread, 11.1 s and 17.6 s on two."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "")
        if threads.isdigit() and int(threads) > 0:
            return max(1, len(os.sched_getaffinity(0)) // int(threads))
    return 1


def _split(jobs, iterations: int) -> list:
    """Contiguous parts of ``(search, lane coordinates)`` jobs with about
    equal lane coordinates each: one part unless forking applies (see
    ``pair_search``)."""
    total = sum(c for _, c in jobs)
    n = min(_worker_count(), len(jobs))
    if (n < 2 or not hasattr(os, "fork") or threading.active_count() != 1
            or total * iterations <= _MIN_FORK_WORK):
        return [jobs]
    # a job joins the part its midpoint falls in
    parts = [[] for _ in range(n)]
    before = 0
    for job in jobs:
        parts[min(n - 1, int(n * (before + job[1] / 2) / total))].append(job)
        before += job[1]
    return [part for part in parts if part]


def _run_forked(run, parts) -> list:
    """``run(part)`` of every part, the first here and each other in a forked
    child, concatenated in part order.  No child outlives the call: on any
    exception here the children still running are killed, and every child
    is reaped."""
    parent = os.getpid()
    children = []  # [pid, or None when not forked or reaped; its pipe's read end]
    try:
        for part in parts[1:]:
            read_end, write_end = os.pipe()
            children.append([None, os.fdopen(read_end, "rb")])
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write_end, lambda: run(part, parent))
                children[-1][0] = pid
            finally:
                os.close(write_end)
        results = run(parts[0])
        for child in children:
            data = child[1].read()
            _, status = os.waitpid(child[0], 0)
            child[0] = None
            if not data:
                raise RuntimeError(f"pair_search worker ended with wait status {status} "
                                   "and sent no results")
            ok, payload = pickle.loads(data)
            if not ok:
                raise RuntimeError(f"pair_search worker failed:\n{payload}")
            results += payload
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(write_end: int, work) -> None:
    """Body of a forked child: pickles ``(True, work())``, or ``(False,
    traceback text)`` if it raises, into ``write_end`` and ends the process
    with ``os._exit``, so no atexit hook runs and no inherited stdio
    buffer is flushed twice."""
    status = 1
    try:
        try:
            payload, status = (True, work()), 0
        except Exception:
            payload = (False, traceback.format_exc())
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(status)


class _Lanes(NamedTuple):
    """Where one search's lanes live in a batch."""

    position: int  # of the search in its batch
    group: int  # index of its group in the batch
    index: int  # of the search in its group
    eps_idx: np.ndarray  # separation index of each lane


def _layout(groups, blocks):
    """``(evaluate, start, stop, rows per search, blocks)`` for each group
    with rows, given ``(lanes, rows)`` blocks that lie consecutively in
    group order; a group keeps its blocks that have rows."""
    out, start = [], 0
    for g, group in enumerate(groups):
        members = [(lanes, rows) for lanes, rows in blocks if lanes.group == g and rows]
        if members:
            counts = [0] * len(group.searches)
            for lanes, rows in members:
                counts[lanes.index] = rows
            out.append((group.evaluate, start, start + sum(counts), counts, members))
            start += sum(counts)
    return out


def _group_norms(layout, A, asked):
    """Norms of the rows of ``A``, shape ``(k, lanes, dim)``: ``k`` rows per
    lane, each group's lanes by its own evaluator, which gets its block of
    lanes as it lies.  Adds the rows asked of each search to ``asked``,
    indexed by search position.
    """
    k = len(A)
    out = np.empty(A.shape[:-1])
    for evaluate, a, b, counts, members in layout:
        out[:, a:b] = evaluate(A[:, a:b], counts)
        for lanes, rows in members:
            asked[lanes.position] += rows * k
    return out


def _pairs_array(pairs, dim: int) -> np.ndarray:
    return np.asarray(pairs, dtype=float).reshape(-1, 2, dim)


def _start_lanes(groups, batch, dim, eps_values, budget, X, Y, asked):
    """Unnormalized start pairs of every lane of a batch of ``(group, index
    in group)`` searches, and the lanes of each search: for each eps, the
    restart pairs, the pairs shared by every eps, then the pairs of this eps."""
    restarts, n_eps = budget.restarts, len(eps_values)
    searches, extras = [], []
    for g, j in batch:
        search = groups[g].searches[j]
        shared = _pairs_array(search.extra_pairs, dim)
        own = [_pairs_array(() if search.extras_by_eps is None else search.extras_by_eps[e], dim)
               for e in range(n_eps)]
        per_eps = [restarts + len(shared) + len(o) for o in own]
        searches.append(_Lanes(len(searches), g, j, np.repeat(np.arange(n_eps), per_eps)))
        extras.append((shared, own))
    layout = _layout(groups, [(s, restarts) for s in searches])

    def restart_norms(R):
        return _group_norms(layout, R[None], asked)[0]

    XU = _unit_rows(restart_norms, np.tile(X, (len(searches), 1)))
    YU = _unit_rows(restart_norms, np.tile(Y, (len(searches), 1)))
    lane_V, lane_W = [], []
    for s, (shared, own) in zip(searches, extras):
        Xs = XU[s.position * restarts : (s.position + 1) * restarts]
        Ys = YU[s.position * restarts : (s.position + 1) * restarts]
        # every other restart begins on a guaranteed-feasible antipodal pair
        Ys[::2] = -Xs[::2]
        for o in own:
            lane_V += [Xs, shared[:, 0], o[:, 0]]
            lane_W += [Ys, shared[:, 1], o[:, 1]]
    return np.concatenate(lane_V), np.concatenate(lane_W), searches


def _search_batch(groups, batch, dim, eps_values, budget, objective, X, Y):
    n_eps = len(eps_values)
    rho = budget.penalty
    asked = [0] * len(batch)
    V, W, searches = _start_lanes(groups, batch, dim, eps_values, budget, X, Y, asked)
    live = searches
    layout = _layout(groups, [(s, len(s.eps_idx)) for s in live])

    def lane_norms(R):
        return _group_norms(layout, R[None], asked)[0]

    V = _unit_rows(lane_norms, V)
    W = _unit_rows(lane_norms, W)
    eps_lane = eps_values[np.concatenate([s.eps_idx for s in live])]
    step = np.full(len(eps_lane), budget.init_step)

    mid0, sep0 = _group_norms(layout, np.stack([(V + W) * 0.5, V - W]), asked)
    obj0 = objective(mid0, sep0)
    best_pen = obj0 + rho * np.maximum(0.0, eps_lane - sep0)
    feas_obj = np.where(sep0 >= eps_lane - FEASIBILITY_SLACK, obj0, np.inf)
    feas_V = V.copy()
    feas_W = W.copy()
    results = [None] * len(searches)

    def finish(done, iterations):
        """Record the results of the searches ``done``, (lanes, slice) pairs."""
        # lanes that never produced a feasible pair get repaired by pushing one
        # endpoint toward the antipode of the other (always reaches separation 2)
        broken = [sl.start + np.nonzero(~np.isfinite(feas_obj[sl]))[0] for _, sl in done]
        idx = np.concatenate(broken)
        if len(idx):
            repair_layout = _layout(groups, [(s, len(b)) for (s, _), b in zip(done, broken)])

            def norm_batch(R):
                return _group_norms(repair_layout, R[None], asked)[0]

            fixed = _repair_separation_batch(norm_batch, V[idx], W[idx], eps_lane[idx])
            feas_V[idx] = V[idx]
            feas_W[idx] = fixed
            mid = norm_batch((V[idx] + fixed) * 0.5)
            sep = None if objective is _midpoint_gap else norm_batch(V[idx] - fixed)
            feas_obj[idx] = objective(mid, sep)
        for (s, sl), b in zip(done, broken):
            objs, fV, fW = feas_obj[sl], feas_V[sl], feas_W[sl]
            raw = np.empty(n_eps)
            witnesses = []
            for e in range(n_eps):
                at = np.nonzero(s.eps_idx == e)[0]
                j = at[int(np.argmin(objs[at]))]
                raw[e] = min(max(objs[j], 0.0), 1.0)
                witnesses.append((fV[j].copy(), fW[j].copy()))
            counters = {"iterations": iterations, "lanes": len(s.eps_idx),
                        "repaired": len(b), "rows": asked[s.position]}
            results[s.position] = (raw, witnesses, counters)

    def lane_slices():
        stops = np.cumsum([len(s.eps_idx) for s in live])
        return [slice(int(b - len(s.eps_idx)), int(b)) for s, b in zip(live, stops)]

    # endpoint-major: slab e holds endpoint e of every lane, so the pair
    # arithmetic runs over whole slabs; then the midpoints and the
    # differences of the pattern pairs.  Both live in buffers that a batch
    # allocates once and views in a shorter prefix as searches leave it.
    ends_buf = np.empty(len(_END_STEPS) * len(eps_lane) * dim)
    pairs_buf = np.empty(2 * _N_PAT * len(eps_lane) * dim)
    for it in range(budget.iterations):
        n_lanes = len(eps_lane)
        lanes = np.arange(n_lanes)
        improved = np.zeros(n_lanes, dtype=bool)
        ends = ends_buf[: len(_END_STEPS) * n_lanes * dim].reshape(-1, n_lanes, dim)
        pairs = pairs_buf[: 2 * _N_PAT * n_lanes * dim].reshape(-1, n_lanes, dim)
        mids, diffs = pairs[:_N_PAT], pairs[_N_PAT:]
        moves = _END_STEPS[:, None] * step
        floor = eps_lane - FEASIBILITY_SLACK
        for i in range(dim):
            ends[:3] = V
            ends[3:] = W
            ends[:, :, i] += moves
            nrm = _group_norms(layout, ends, asked)
            good = nrm > 1e-12
            ok = good[_V_END] & good[_W_END]
            nrm[~good] = 1.0
            ends /= nrm[:, :, None]
            for k, (v, w) in enumerate(_PATTERNS):
                np.add(ends[v], ends[w], out=mids[2 * k : 2 * k + 2])
                np.subtract(ends[v], ends[w], out=diffs[2 * k : 2 * k + 2])
            mids *= 0.5
            both = _group_norms(layout, pairs, asked)
            sep = both[_N_PAT:]
            obj = objective(both[:_N_PAT], sep)
            # penalized objective, inf where a candidate could not be normalized
            pen = eps_lane - sep
            np.maximum(0.0, pen, out=pen)
            pen *= rho
            pen += obj
            pen[~ok] = np.inf
            # descent acceptance: best improving pattern per lane (fixed
            # tie-break through argmin keeps runs deterministic)
            best_p = pen.argmin(axis=0)
            min_pen = pen[best_p, lanes]
            acc = min_pen < best_pen
            if acc.any():
                V[acc] = ends[_V_END[best_p[acc]], lanes[acc]]
                W[acc] = ends[_W_END[best_p[acc]], lanes[acc]]
                best_pen[acc] = min_pen[acc]
                improved |= acc
            # feasible incumbent: any candidate meeting the separation may
            # update it, accepted or not
            obj[~(ok & (sep >= floor))] = np.inf
            best_f = obj.argmin(axis=0)
            min_obj = obj[best_f, lanes]
            hit = min_obj < feas_obj
            if hit.any():
                feas_obj[hit] = min_obj[hit]
                feas_V[hit] = ends[_V_END[best_f[hit]], lanes[hit]]
                feas_W[hit] = ends[_W_END[best_f[hit]], lanes[hit]]
        step[~improved] *= 0.5

        # a search whose lanes all have step below min_step is done: record
        # its result and compact its lanes out of the batch
        slices = lane_slices()
        done = np.logical_and.reduceat(step < budget.min_step, [sl.start for sl in slices])
        if np.any(done):
            finish([(s, sl) for s, sl, d in zip(live, slices, done) if d], it + 1)
            keep = np.repeat(~done, [len(s.eps_idx) for s in live])
            V, W, step, eps_lane = V[keep], W[keep], step[keep], eps_lane[keep]
            best_pen, feas_obj = best_pen[keep], feas_obj[keep]
            feas_V, feas_W = feas_V[keep], feas_W[keep]
            live = [s for s, d in zip(live, done) if not d]
            if not live:
                break
            layout = _layout(groups, [(s, len(s.eps_idx)) for s in live])
    if live:
        finish(list(zip(live, lane_slices())), budget.iterations)
    return results


def _repair_separation_batch(norm_batch, V, W, eps):
    """Bisect each w toward the antipode -v until separation >= eps.

    Separation is monotone along the path w -> -v after renormalization
    (it reaches exactly 2 at the endpoint), so the bisection always lands
    on a feasible point; all rows are processed in lockstep.
    """
    n = len(eps)
    lo = np.zeros(n)
    hi = np.ones(n)  # s = 1 is the antipode -v, separation 2
    for _ in range(60):
        s = 0.5 * (lo + hi)
        raw = (1.0 - s)[:, None] * W - s[:, None] * V
        nr = norm_batch(raw)
        degen = nr < 1e-12
        cand = raw / np.where(degen, 1.0, nr)[:, None]
        sep = norm_batch(V - cand)
        good = ~degen & (sep >= eps)
        hi[good] = s[good]
        lo[~good] = s[~good]
    raw = (1.0 - hi)[:, None] * W - hi[:, None] * V
    nr = norm_batch(raw)
    degen = nr < 1e-12
    cand = np.where(degen[:, None], -V, raw / np.where(degen, 1.0, nr)[:, None])
    # second normalization pass squeezes renormalization drift below 1e-12
    return cand / norm_batch(cand)[:, None]


def _isotonic_clamp(raw: np.ndarray, witnesses: list):
    """Reverse running minimum with witness transfer (keeps upper bounds)."""
    clamped = raw.copy()
    wits = list(witnesses)
    best = math.inf
    best_w = None
    for i in reversed(range(len(raw))):
        if raw[i] <= best:
            best = raw[i]
            best_w = wits[i]
        else:
            clamped[i] = best
            wits[i] = best_w
    return clamped, wits


# -- public wrappers -------------------------------------------------------


def _line_curve(norm_batch, eps, budget, meta) -> ModulusCurve:
    # the unit sphere of a line is a two-point set; the only separated pair
    # is antipodal with midpoint zero, so the modulus is 1 at every eps
    u = _unit_rows(norm_batch, np.ones((1, 1)))[0]
    raw = np.ones(len(eps))
    wits = [(u.copy(), -u.copy()) for _ in eps]
    return ModulusCurve(eps, raw.copy(), raw, wits, budget, dict(meta, dim=1))


def curve_from_search(eps, budget: SearchBudget, result, meta: dict) -> ModulusCurve:
    """A ``ModulusCurve`` from one ``pair_search`` result; the search
    counters go to ``meta["search"]``."""
    raw, witnesses, counters = result
    deltas, witnesses = _isotonic_clamp(raw, witnesses)
    return ModulusCurve(eps, deltas, raw, witnesses, budget, dict(meta, search=counters))


def _spec_searches(specs: Sequence[NormSpec], eps, budget: SearchBudget,
                   objective=_midpoint_gap) -> dict:
    """``pair_search`` results of the specs of dimension two and up, keyed by
    index, from structured start pairs.  Each distinct spec (by digest) is
    searched once, in one kernel call per dimension, and every index that
    holds it gets that result."""
    digests = {k: spec.digest() for k, spec in enumerate(specs) if spec.dimension > 1}
    first: dict = {}
    for k, d in digests.items():
        first.setdefault(d, k)
    by_dim: dict = {}
    for k in first.values():
        by_dim.setdefault(specs[k].dimension, []).append(k)
    results = {}
    for dim, ks in by_dim.items():
        groups = [single_norm_group(specs[k].norm_batch,
                                    Search(_pairs_array(structured_pairs(specs[k]), dim))) for k in ks]
        results.update(zip(ks, pair_search(groups, dim, eps, budget, objective=objective)))
    return {k: results[first[d]] for k, d in digests.items()}


def modulus_curves(specs: Sequence[NormSpec], eps_grid=None,
                   budget: SearchBudget | None = None) -> list:
    """Modulus-of-convexity curves of several norm kinds along one grid.

    Each distinct kind (by digest) is searched once per call, and the
    searches of each dimension run in one ``pair_search`` call; each curve
    equals the one ``modulus_curve`` gives for its kind alone.  Nothing is
    kept between calls.
    """
    eps = check_eps_grid(DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
    budget = budget or DEFAULT_BUDGET
    results = _spec_searches(specs, eps, budget)
    return [
        curve_from_search(eps, budget, results[k], _spec_meta(spec)) if k in results
        else _line_curve(spec.norm_batch, eps, budget, _spec_meta(spec))
        for k, spec in enumerate(specs)
    ]


def _spec_meta(spec: NormSpec) -> dict:
    return {"kind": spec.kind, "digest": spec.digest()}


def modulus_curve(spec: NormSpec, eps_grid=None, budget: SearchBudget | None = None) -> ModulusCurve:
    """Modulus-of-convexity curve of a norm kind along a separation grid."""
    return modulus_curves([spec], eps_grid, budget)[0]


def _defect_objective(mid_norms, sep_norms):
    """``1 - defect/4`` of unit pairs, where the parallelogram defect
    ``| ||v+w||^2 + ||v-w||^2 - 4 |`` lies in [0, 4]: the sum of squares is
    at most 8, and at least 2 because ``||v+w|| + ||v-w|| >= ||2v|| = 2``."""
    return 1.0 - np.abs(mid_norms**2 + 0.25 * sep_norms**2 - 1.0)


def parallelogram_defects(specs: Sequence[NormSpec], budget: SearchBudget | None = None) -> list:
    """``(defect, (v, w))`` per norm kind: the largest found
    ``| ||v+w||^2 + ||v-w||^2 - 4 |`` over unit pairs, 0 on a line.  Each
    distinct kind (by digest) is searched once per call, and one
    ``pair_search`` call per dimension minimizes ``1 - defect/4`` on the
    grid ``[0.0]``; each result equals its kind's alone.  Inner-product
    kinds give 0 up to roundoff; every other shipped kind has a sign-pattern
    or vertex start pair with a macroscopic defect."""
    budget = budget or DEFECT_BUDGET
    results = _spec_searches(specs, [0.0], budget, _defect_objective)
    out = []
    for k, spec in enumerate(specs):
        if k in results:
            raw, [pair], _ = results[k]
            out.append((4.0 * (1.0 - float(raw[0])), pair))
        else:
            u = spec.unit(np.ones(1))
            out.append((0.0, (u, -u)))
    return out


# -- dense planar grid oracle ----------------------------------------------

#: grid points paired with all others per block of the dense planar estimate
_GRID_CHUNK = 256


def _structural_angles(spec: NormSpec) -> np.ndarray:
    pts = [np.eye(2)[0], np.eye(2)[1]]
    if isinstance(spec, PolytopeGaugeNorm):
        pts.extend(spec.vertices)
    elif isinstance(spec, PolyhedralMaxNorm):
        pts.extend(_polyhedral_ball_vertices_2d(spec))
    angles = np.array([math.atan2(p[1], p[0]) for p in pts if np.any(p)])
    return np.concatenate([angles, angles + math.pi])


def modulus_grid_estimate_2d(
    spec: NormSpec,
    eps_grid=None,
    samples: int = 4096,
):
    """Brute-force planar modulus estimate from a dense angle-pair grid.

    Independent of the descent optimizer: enumerates pairs of unit vectors
    from a dense (plus structural) angle set and takes, for each grid
    separation, the smallest midpoint gap among pairs at least that far
    apart.  Only implemented for two-dimensional kinds.
    """
    if spec.dimension != 2:
        raise ValueError("dense grid estimation is only available in dimension 2")
    eps = check_eps_grid(DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
    base = np.linspace(0.0, 2.0 * math.pi, int(samples), endpoint=False)
    angles = np.concatenate([base, _structural_angles(spec)])
    angles = np.unique(np.round(np.mod(angles, 2.0 * math.pi), 12))
    P = np.column_stack([np.cos(angles), np.sin(angles)])
    P = _unit_rows(spec.norm_batch, P)
    K = len(P)
    best = np.full(len(eps), np.inf)
    for start in range(0, K, _GRID_CHUNK):
        block = P[start : start + _GRID_CHUNK]
        diff = block[:, None, :] - P[None, :, :]
        flat = diff.reshape(-1, 2)
        sep = spec.norm_batch(flat).reshape(len(block), K)
        mid = spec.norm_batch(((block[:, None, :] + P[None, :, :]) * 0.5).reshape(-1, 2))
        obj = 1.0 - mid.reshape(len(block), K)
        for e, eps_val in enumerate(eps):
            # same feasibility slack as the descent search, so that pairs whose
            # separation equals the threshold exactly (antipodes at 2.0, facet
            # endpoint pairs) are not dropped to roundoff
            mask = sep >= eps_val - FEASIBILITY_SLACK
            if np.any(mask):
                best[e] = min(best[e], float(np.min(obj[mask])))
    best = np.clip(best, 0.0, 1.0)
    # same isotonic clamp as the optimizer curve
    for i in reversed(range(len(best) - 1)):
        best[i] = min(best[i], best[i + 1])
    return eps, best
