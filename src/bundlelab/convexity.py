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
``[0.0]``, maximizes the parallelogram defect.  A line is answered by the
kernel without a search: its unit sphere is {u, -u}, so every separated
pair is antipodal, and a line's modulus is 1 and its defect 0 at every eps.

All searches are deterministic functions of their budget: starts come from
seeded sphere samples plus the search's own start pairs (structured axis,
sign-pattern, polytope-vertex and antipodal pairs, or any others), and
reductions run in fixed lane order.  A search is its array of start pairs,
``(k, 2, dim)`` for every eps or ``(len(eps), k, 2, dim)`` with a row per
eps, and its witnesses come back as one ``(len(eps), 2, dim)`` array of
pairs ``(v, w)``.
Restart lanes are vectorized: a coordinate step normalizes six endpoints
per lane and evaluates the midpoints and differences of the eight move
patterns built from them, 22 norm rows per lane.  One ``pair_search`` call
takes searches of any dimensions and runs those of each dimension in
lockstep batches: each search owns a block of lanes that its own norm
evaluator handles, and one closure over the batch (``_evaluator``) hands
every group its block and counts the rows asked of each search.  A lane
leaves the batch once it has converged, or once a lane of its own (search,
eps) row holds a feasible objective <= 0, which the clamp into [0, 1] makes
final; it keeps its best feasible pair, and a search is done when its last
lane has left.  Every row holds a feasible pair from the start: every other
restart lane begins on an antipodal pair, whose separation 2 meets every
eps.  Every evaluator must be row-independent (a row's norm has the same
bits whatever the other rows of the call and however many); since every
other step is per lane, a search then gives the same bits in any batch as
alone.  A call with enough work also splits its searches into contiguous
parts, one per usable CPU, and runs every part but the first in a forked
child that pickles its results and counters back through a pipe; by the
same contract the split moves no bit.
"""

from __future__ import annotations

import itertools
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

from .measure import _real
from .norms import NormSpec, PolyhedralMaxNorm, PolytopeGaugeNorm

__all__ = [
    "SearchBudget",
    "ModulusCurve",
    "DEFAULT_EPS_GRID",
    "DEFAULT_BUDGET",
    "DEFECT_BUDGET",
    "check_eps_grid",
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


#: a lane retires at the end of the iteration in which its step falls below
#: MIN_STEP; a candidate pair pays PENALTY per unit of separation it lacks
MIN_STEP = 1e-7
PENALTY = 4.0


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the multi-start searches; fully determines a run."""

    restarts: int = 64
    iterations: int = 200
    seed: int = 0
    init_step: float = 0.25

    def __post_init__(self):
        for name, least in (("restarts", 1), ("iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"budget {name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"budget {name} must be at least {least}, got {value}")
        if not _real(self.init_step):
            raise TypeError(f"budget init_step must be a number, got {self.init_step!r}")
        if not 0.0 < self.init_step < math.inf:
            raise ValueError(f"budget init_step must be finite and positive, got {self.init_step}")
        if MIN_STEP > self.init_step:
            raise ValueError(f"budget min_step {MIN_STEP} exceeds init_step {self.init_step}")


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
    ``witnesses[i]``, shape ``(2, dim)``, is the witness pair ``(v, w)`` of
    point i.
    """

    epsilons: np.ndarray
    deltas: np.ndarray
    raw_deltas: np.ndarray
    witnesses: np.ndarray
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


def structured_pairs_for_fn(norm_batch, dim: int, count: int = _MAX_EXTRA_PAIRS) -> np.ndarray:
    """The first ``count`` (at most ``_MAX_EXTRA_PAIRS``) deterministic start
    pairs for a black-box norm, shape ``(k, 2, dim)``: axis, antipodal and
    Hamming-neighbor sign-pattern pairs (the latter for dim <= 6).  The sign
    patterns are normalized only when the axis pairs fall short of ``count``."""
    count = min(count, _MAX_EXTRA_PAIRS)
    axes = _unit_rows(norm_batch, np.eye(dim))
    i, j = np.triu_indices(dim, 1)
    # (e_0, -e_0), then (e_i, e_j) and (e_i, -e_j) for each i < j
    V = [axes[:1], np.repeat(axes[i], 2, axis=0)]
    W = [-axes[:1], np.stack([axes[j], -axes[j]], axis=1).reshape(-1, dim)]
    if 2 <= dim <= 6 and count > 1 + len(i) * 2:
        bits = (np.arange(2**dim)[:, None] >> np.arange(dim)) & 1
        signs = _unit_rows(norm_batch, np.where(bits, 1.0, -1.0))
        # each pattern s, then its neighbor with a clear bit k of s set
        s, k = np.nonzero(bits == 0)
        V.append(signs[s])
        W.append(signs[s | (1 << k)])
    return np.stack([np.concatenate(V), np.concatenate(W)], axis=1)[:count]


def _exposed_vertices(spec: NormSpec) -> np.ndarray:
    """Vertices of a kind's unit ball that the start pairs and the planar
    grid include, as rows: a gauge's vertices and a planar polyhedral
    kind's unit candidates (the vertices of its ball); none otherwise."""
    if isinstance(spec, PolytopeGaugeNorm):
        return spec.vertices
    if isinstance(spec, PolyhedralMaxNorm) and spec.dimension == 2:
        return spec._candidates
    return np.zeros((0, spec.dimension))


def structured_pairs(spec: NormSpec) -> np.ndarray:
    """Structured start pairs for a norm kind, shape ``(k, 2, dim)``: those of
    ``structured_pairs_for_fn``, then pairs of exposed vertices, at most
    ``_MAX_EXTRA_PAIRS`` in all."""
    pairs = structured_pairs_for_fn(spec.norm_batch, spec.dimension)
    verts = _exposed_vertices(spec)
    room = _MAX_EXTRA_PAIRS - len(pairs)
    if len(verts) < 2 or room <= 0:
        return pairs
    V = _unit_rows(spec.norm_batch, verts)
    ij = np.array(list(itertools.islice(itertools.combinations(range(len(V)), 2), room)))
    return np.concatenate([pairs, V[ij]])


# -- core pair search ------------------------------------------------------

#: lanes x dimension of one batch of searches run in lockstep (a larger
#: search runs alone).  Wider batches share the per-step call overhead;
#: working memory grows with the lanes of a batch (22 rows per lane plus
#: evaluator temporaries).  ``cli.main`` on the benchmark's section-modulus
#: configs 0-7 at seed 0, in fresh processes (2-vCPU VM, BLAS on one thread;
#: time as the sum over the configs of each's median of five runs, peak RSS
#: as the mean over the configs of each's median), with rows that reach 0
#: retiring:
#:
#:     cap     time     peak RSS
#:     1000    2.23 s   38.85 MiB
#:     2000    1.92 s   38.93 MiB
#:     3000    1.82 s   39.02 MiB
#:     5000    1.79 s   39.28 MiB
#:     8000    1.77 s   39.29 MiB
#:
#: The largest part of any of these calls holds 4896 lane coordinates, so
#: from 5000 up each part runs as one batch and these runs do not change
#: (their two rows differ by noise alone); 5000 is the widest cap that
#: changes them, 0.35 MiB above cap 2000's peak.  A wider one would only
#: raise the working memory of larger runs.
_MAX_LANE_COORDS = 5000

#: lane coordinates x ``budget.iterations`` of a ``pair_search`` call above
#: which it splits its searches over forked children.  A fork round trip
#: (fork, pipe, exit, wait) costs about 3 ms with ``gc.freeze()`` on and the
#: CLI's 35 MiB heap, and parts end unevenly since searches converge at
#: different iterations.  The calls ``suite_convexity_upper`` makes on the
#: benchmark's section-modulus configs 0-7 at seed 0, and every prefix of
#: their groups that holds two or more searches, each timed alone and in two
#: parts (2-vCPU VM, BLAS on one thread; the minimum of three runs), summed
#: by work, with rows that reach 0 retiring:
#:
#:     work          calls   alone     2 parts   ratio
#:     below 10k       2      0.03 s    0.04 s   1.60
#:     10k - 20k      10      0.31 s    0.30 s   0.95
#:     20k - 40k      28      1.28 s    1.02 s   0.79
#:     40k - 100k     60      4.50 s    3.28 s   0.73
#:     100k and up    84     10.93 s    7.58 s   0.69
#:
#: Two parts gain from 20k up.  Below, the 10k - 20k calls save about 1 ms
#: each, which is noise: an earlier run of the same table read 0.96 below
#: 10k and 0.92 from 10k to 20k.
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


class SearchGroup(NamedTuple):
    """Searches that share one norm evaluator.

    A search is its array of start pairs: shape ``(k, 2, dim)``, pairs that
    join the lanes of every separation, or ``(len(eps), k, 2, dim)``, whose
    row ``e`` joins those of separation ``e`` only.  Searches of one group
    may differ in dimension.

    ``evaluate(A, counts)`` takes a block ``A`` of shape ``(k, lanes, dim)``,
    ``k`` rows per lane, whose lanes belong to the searches in order: the
    first ``counts[0]`` lanes to ``searches[0]``, the next ``counts[1]`` to
    ``searches[1]``, and so on (a count may be 0, as for every search of
    another dimension).  It returns the ``(k, lanes)`` norms, each lane's
    rows under the norm of its own search.  It must be row-independent: the
    norm of a row has the same bits whatever the other rows of the call, and
    however many there are.
    """

    evaluate: Callable[[np.ndarray, Sequence[int]], np.ndarray]
    searches: Sequence[np.ndarray]


def single_norm_group(norm_batch, search: np.ndarray) -> SearchGroup:
    """A group of one search (its start pairs) under a plain batched norm
    evaluator, which takes rows ``(m, dim)`` to their ``(m,)`` norms."""

    def evaluate(A, counts):
        return norm_batch(A.reshape(-1, A.shape[-1])).reshape(A.shape[:-1])

    return SearchGroup(evaluate, [search])


def _midpoint_gap(mid_norms, sep_norms):
    """The modulus objective ``1 - ||(v+w)/2||``, written over ``mid_norms``."""
    return np.subtract(1.0, mid_norms, out=mid_norms)


def pair_search(groups: Sequence[SearchGroup], eps_values, budget: SearchBudget,
                objective=_midpoint_gap):
    """Minimize an objective over separated unit pairs, for many searches.

    Every search of every group runs in the dimension of its start pairs on
    the separation grid ``eps_values`` under ``budget``.  ``objective(mid_norms,
    sep_norms)`` maps the norms of ``(v+w)/2`` and ``v-w`` of candidate
    pairs into [0, 1], elementwise, and may overwrite its arguments; the
    default is ``1 - ||(v+w)/2||``.  Returns one ``(raw, witnesses,
    counters)`` per search, in group order: per eps the least objective
    found, clamped into [0, 1], the ``(len(eps), 2, dim)`` array of witness
    pairs ``(v, w)`` with ``||v|| = ||w|| = 1`` within 1e-9 and ``||v - w||
    >= eps - 1e-9``, and the counters ``iterations`` (used), ``lanes`` and
    ``rows`` (rows its evaluator was asked for).  Every counter is per
    search: the same in any batch, in any fork and alone.  No report prints
    the counters.

    Each lane holds one pair.  For each eps, a search's lanes start from the
    restart pairs, ``budget.restarts`` pairs of normal rows drawn from
    ``budget.seed`` and normalized under its own norm, then from its own
    start pairs (see ``SearchGroup``).  Every other restart pair, the first
    included, is antipodal, ``(u, -u)``: separated by 2 up to roundoff, it
    meets every eps of the grid, and a budget has at least one restart, so
    every (search, eps) row holds a feasible pair from its first evaluation
    on.  A lane's feasible incumbent is the best candidate it has met that
    meets its separation, and a lane that meets none adds nothing to its
    row.  An iteration steps every coordinate in turn: the six endpoints V
    +- s e_i, V, W +- s e_i and W are normalized, and the midpoints and
    differences of the eight move patterns built from them are evaluated,
    22 rows per lane and coordinate.  A lane keeps the best pattern that
    lowers its penalized objective and halves its step after an iteration
    without one.

    The searches are taken dimension by dimension, in call order within one,
    and run in lockstep batches of one dimension and at most
    ``_MAX_LANE_COORDS`` lane coordinates (a larger search runs alone).  Each
    search ``s`` owns a contiguous block of lanes, eps by eps, and each lane
    knows its row ``s * len(eps) + e``.  One closure (``_evaluator``) takes
    every norm of a batch: it hands each group's evaluator the blocks of its
    searches with their live lane counts, and counts their rows.  A lane
    retires at the end of the iteration in which its step falls below
    ``MIN_STEP``, or in which some lane of its (search, eps) row holds a
    feasible objective <= 0: the row then reports exactly 0 whatever later
    steps find, and its witness is the first of its lanes with the least
    objective.  A retiring lane is compacted out of the batch and keeps its
    feasible incumbent.  A search is done when its last lane retires, which
    sets its ``iterations``; the results are read once the whole batch is
    done.  Every step other than the evaluator, retirement included, reads
    only the search's own lanes, so a search gives the same bits in any batch
    as alone, provided every evaluator is row-independent (see
    ``SearchGroup``).

    The searches of all dimensions are split at once, in the order above, into
    contiguous parts of about equal lane coordinates, one per worker
    (``_worker_count``), each batched as above; the first part runs here and
    every other in a forked child, which pickles its results and counters back
    through a pipe.  By the row-independence above the split moves no bit.  It
    applies only where ``os.fork`` exists, no other thread runs and the lane
    coordinates times ``budget.iterations`` exceed ``_MIN_FORK_WORK``.  An
    evaluator's side effects in a child are lost with it, and a child's
    exception is raised here as a ``RuntimeError`` carrying its traceback.

    A line (dimension 1) is answered before any split, without lanes: its
    unit sphere is {u, -u}, so ``raw`` is the objective at midpoint norm 0
    and separation 2 at every eps, and each witness is ``(u, -u)``, with
    ``u`` normalized from 1 by the same evaluator closure, one lane per
    search (counters: 0 iterations, 0 lanes, 2 rows).
    """
    eps_values = np.asarray(eps_values, dtype=float)
    n_eps = len(eps_values)
    # the dimension of each (group, index in group) search: lines first, then
    # each dimension's searches together, in call order
    dims = {(g, j): dim for dim, g, j in sorted(
        (np.shape(s)[-1], g, j) for g, group in enumerate(groups)
        for j, s in enumerate(group.searches))}
    lines = [search for search, dim in dims.items() if dim == 1]
    raw = np.clip(objective(np.zeros(n_eps), np.full(n_eps, 2.0)), 0.0, 1.0)
    asked = np.zeros(len(lines), dtype=int)
    norms = _evaluator(groups, lines, [1] * len(lines), asked)
    U = _unit_rows(lambda R: norms(R[None])[0], np.ones((len(lines), 1)))
    results = [(raw.copy(), np.tile([u, -u], (n_eps, 1, 1)),
                {"iterations": 0, "lanes": 0, "rows": int(rows)}) for u, rows in zip(U, asked)]

    jobs = [((g, j), n_eps * (budget.restarts + np.shape(groups[g].searches[j])[-3]) * dim)
            for (g, j), dim in dims.items() if dim != 1]
    parts = _split(jobs, budget.iterations)

    def run(part, parent=None):
        """Results of a part's searches; a child exits once ``parent`` is gone."""
        results, batch, coords = [], [], 0
        for k, (search, lane_coords) in enumerate(part):
            batch.append(search)
            coords += lane_coords
            if (k + 1 == len(part) or dims[part[k + 1][0]] != dims[search]
                    or coords + part[k + 1][1] > _MAX_LANE_COORDS):
                if parent is not None and os.getppid() != parent:
                    os._exit(1)
                results += _search_batch(groups, batch, dims[search], eps_values, budget, objective)
                batch, coords = [], 0
        return results

    results += run(parts[0]) if len(parts) == 1 else _run_forked(run, parts)
    found = dict(zip(dims, results))
    return [found[g, j] for g, group in enumerate(groups) for j in range(len(group.searches))]


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


def _evaluator(groups, batch, lanes, asked):
    """The norms of a batch's rows: ``norms(A)`` takes ``A`` of shape ``(k,
    sum(lanes), dim)``, ``k`` rows per lane, whose lanes lie search by search
    in batch order, ``lanes[s]`` of search ``s = (group, index in group)``.
    Each group's evaluator gets its block of lanes as it lies, with the
    per-search counts of the ``SearchGroup`` contract; a group without lanes
    is not called.  Each call adds the ``k`` rows per lane it asked of each
    search to ``asked``, indexed by batch position."""
    lanes = np.array(lanes, dtype=int)
    blocks, start = [], 0
    for g, members in itertools.groupby(zip(batch, lanes.tolist()), lambda m: m[0][0]):
        counts = [0] * len(groups[g].searches)
        for (_, j), n in members:
            counts[j] = n
        if sum(counts):
            blocks.append((groups[g].evaluate, start, start + sum(counts), counts))
        start += sum(counts)

    def norms(A):
        out = np.empty(A.shape[:-1])
        for evaluate, a, b, counts in blocks:
            out[:, a:b] = evaluate(A[:, a:b], counts)
        np.add(asked, len(A) * lanes, out=asked)
        return out

    return norms


def _start_lanes(groups, batch, dim, eps_values, budget, asked):
    """Unnormalized start pairs ``V`` and ``W`` of every lane of a batch of
    ``(group, index in group)`` searches, and each search's lanes per eps:
    for each eps, the restart pairs (see ``pair_search``), then the search's
    start pairs of this eps."""
    restarts, n_eps = budget.restarts, len(eps_values)
    XY = np.random.default_rng(budget.seed).standard_normal((2, restarts, dim))
    XY[np.linalg.norm(XY, axis=2) < 1e-12] = 1.0
    norms = _evaluator(groups, batch, [restarts] * len(batch), asked)
    XU, YU = (_unit_rows(lambda A: norms(A[None])[0], np.tile(R, (len(batch), 1)))
              .reshape(len(batch), restarts, dim) for R in XY)
    # every other restart begins on a guaranteed-feasible antipodal pair
    YU[:, ::2] = -XU[:, ::2]
    lanes, per_eps = [], []
    for (g, j), Xs, Ys in zip(batch, XU, YU):
        pairs = np.asarray(groups[g].searches[j], dtype=float)
        pairs = np.broadcast_to(pairs, (n_eps,) + pairs.shape[-3:])
        restart_pairs = np.broadcast_to(np.stack([Xs, Ys], axis=1), (n_eps, restarts, 2, dim))
        lanes.append(np.concatenate([restart_pairs, pairs], axis=1).reshape(-1, 2, dim))
        per_eps.append(restarts + pairs.shape[1])
    V, W = np.concatenate(lanes).transpose(1, 0, 2).copy()
    return V, W, np.array(per_eps)


def _search_batch(groups, batch, dim, eps_values, budget, objective):
    n_eps = len(eps_values)
    asked = np.zeros(len(batch), dtype=int)
    V, W, per_eps = _start_lanes(groups, batch, dim, eps_values, budget, asked)
    counts = per_eps * n_eps
    norms = _evaluator(groups, batch, counts, asked)
    V, W = (_unit_rows(lambda A: norms(A[None])[0], E) for E in (V, W))
    # a search's lanes lie eps by eps, as many per eps: row s * n_eps + e,
    # search s at separation e, of each batch lane, and where each row starts
    lane_row = np.repeat(np.arange(len(batch) * n_eps), np.repeat(per_eps, n_eps))
    row_starts = np.searchsorted(lane_row, np.arange(len(batch) * n_eps))
    batch_eps = eps_values[lane_row % n_eps]
    step = np.full(len(batch_eps), budget.init_step)

    mid0, sep0 = norms(np.stack([(V + W) * 0.5, V - W]))
    obj0 = objective(mid0, sep0)
    best_pen = obj0 + PENALTY * np.maximum(0.0, batch_eps - sep0)
    # indexed by batch lane, live or retired: the feasible incumbent, inf
    # until the lane holds one (each row's antipodal restarts hold one here)
    feas_obj = np.where(sep0 >= batch_eps - FEASIBILITY_SLACK, obj0, np.inf)
    feas_V, feas_W = V.copy(), W.copy()
    left = counts.copy()  # live lanes per search
    used = np.zeros(len(batch), dtype=int)  # iterations, set as a search ends
    at = np.arange(len(batch_eps))  # batch lane of each live lane
    eps_lane = batch_eps  # separation of each live lane

    # endpoint-major: slab e holds endpoint e of every lane, so the pair
    # arithmetic runs over whole slabs; then the midpoints and the
    # differences of the pattern pairs.  Both live in buffers that a batch
    # allocates once and views in a shorter prefix as lanes retire.
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
            nrm = norms(ends)
            good = nrm > 1e-12
            ok = good[_V_END] & good[_W_END]
            nrm[~good] = 1.0
            ends /= nrm[:, :, None]
            for k, (v, w) in enumerate(_PATTERNS):
                np.add(ends[v], ends[w], out=mids[2 * k : 2 * k + 2])
                np.subtract(ends[v], ends[w], out=diffs[2 * k : 2 * k + 2])
            mids *= 0.5
            both = norms(pairs)
            sep = both[_N_PAT:]
            obj = objective(both[:_N_PAT], sep)
            # penalized objective, inf where a candidate could not be normalized
            pen = eps_lane - sep
            np.maximum(0.0, pen, out=pen)
            pen *= PENALTY
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
            hit = min_obj < feas_obj[at]
            if hit.any():
                j = at[hit]
                feas_obj[j] = min_obj[hit]
                feas_V[j] = ends[_V_END[best_f[hit]], lanes[hit]]
                feas_W[j] = ends[_W_END[best_f[hit]], lanes[hit]]
        step[~improved] *= 0.5

        # a lane whose step fell below MIN_STEP, that used the last
        # iteration, or whose (search, eps) row holds a feasible objective
        # <= 0, which the clamp makes final, retires with its feasible
        # incumbent.  A search whose last lane retired is done
        settled = np.minimum.reduceat(feas_obj, row_starts) <= 0.0
        gone = (step < MIN_STEP) | (it + 1 == budget.iterations) | settled[lane_row[at]]
        if gone.any():
            ended = np.bincount(lane_row[at[gone]] // n_eps, minlength=len(batch))
            left -= ended
            used[(left == 0) & (ended > 0)] = it + 1
            if not left.any():
                break
            keep = ~gone
            V, W, step, eps_lane = V[keep], W[keep], step[keep], eps_lane[keep]
            best_pen, at = best_pen[keep], at[keep]
            norms = _evaluator(groups, batch, left, asked)

    results = []
    for s, n in enumerate(per_eps):
        # the first best lane of each eps
        rows = row_starts[s * n_eps : (s + 1) * n_eps]
        j = rows + feas_obj[rows[0] : rows[0] + n * n_eps].reshape(n_eps, n).argmin(axis=1)
        counters = {"iterations": int(used[s]), "lanes": int(counts[s]), "rows": int(asked[s])}
        results.append((np.clip(feas_obj[j], 0.0, 1.0), np.stack([feas_V[j], feas_W[j]], axis=1),
                        counters))
    return results


def _isotonic_clamp(raw: np.ndarray, witnesses: np.ndarray):
    """Reverse running minimum with witness transfer (keeps upper bounds):
    point i takes the value and the witness of the first j >= i where
    ``raw[j]`` is the least of ``raw[i:]``.  Those j are the points that
    hold the least of their own suffix, so a second reverse running minimum,
    over their indices, finds them."""
    least = np.minimum.accumulate(raw[::-1])[::-1]
    held = np.where(raw == least, np.arange(len(raw)), len(raw))
    return least, witnesses[np.minimum.accumulate(held[::-1])[::-1]]


# -- public wrappers -------------------------------------------------------


def curve_from_search(eps, budget: SearchBudget, result, meta: dict) -> ModulusCurve:
    """A ``ModulusCurve`` from one ``pair_search`` result; the search
    counters go to ``meta["search"]``."""
    raw, witnesses, counters = result
    deltas, witnesses = _isotonic_clamp(raw, witnesses)
    return ModulusCurve(eps, deltas, raw, witnesses, budget, dict(meta, search=counters))


def _spec_searches(specs: Sequence[NormSpec], eps, budget: SearchBudget,
                   objective=_midpoint_gap) -> list:
    """``pair_search`` results of the specs, in order, from structured start
    pairs.  Each distinct spec (by digest) is searched once, in one kernel
    call, and every index that holds it gets that result."""
    digests = [spec.digest() for spec in specs]
    first: dict = {}
    for k, d in enumerate(digests):
        first.setdefault(d, k)
    groups = [single_norm_group(specs[k].norm_batch, structured_pairs(specs[k]))
              for k in first.values()]
    # eps_values and budget by keyword: perfbench/tracer.py reads them by name
    results = dict(zip(first, pair_search(groups, eps_values=eps, budget=budget,
                                          objective=objective)))
    return [results[d] for d in digests]


def modulus_curves(specs: Sequence[NormSpec], eps_grid=None,
                   budget: SearchBudget | None = None) -> list:
    """Modulus-of-convexity curves of several norm kinds along one grid.

    Each distinct kind (by digest) is searched once per call, and all the
    searches run in one ``pair_search`` call; each curve equals the one
    ``modulus_curve`` gives for its kind alone.  Nothing is kept between
    calls.
    """
    eps = check_eps_grid(DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
    budget = budget or DEFAULT_BUDGET
    return [curve_from_search(eps, budget, result, _spec_meta(spec))
            for spec, result in zip(specs, _spec_searches(specs, eps, budget))]


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
    ``pair_search`` call minimizes ``1 - defect/4`` on the grid ``[0.0]``;
    each result equals its kind's alone.  Inner-product kinds give 0 up to
    roundoff; every other shipped kind has a sign-pattern or vertex start
    pair with a macroscopic defect."""
    budget = budget or DEFECT_BUDGET
    return [(4.0 * (1.0 - float(raw[0])), pair)
            for raw, [pair], _ in _spec_searches(specs, [0.0], budget, _defect_objective)]


# -- dense planar grid oracle ----------------------------------------------

#: grid points paired with all others per block of the dense planar estimate
_GRID_CHUNK = 256
#: evenly spaced angles of the dense planar grid, before the structural ones
GRID_SAMPLES = 4096


def _structural_angles(spec: NormSpec) -> np.ndarray:
    pts = np.vstack([np.eye(2), _exposed_vertices(spec)])
    angles = np.array([math.atan2(p[1], p[0]) for p in pts if np.any(p)])
    return np.concatenate([angles, angles + math.pi])


def modulus_grid_estimate_2d(spec: NormSpec, eps_grid=None):
    """Brute-force planar modulus estimate from a dense angle-pair grid.

    Independent of the descent optimizer: enumerates pairs of unit vectors
    from a dense (plus structural) angle set and takes, for each grid
    separation, the smallest midpoint gap among pairs at least that far
    apart.  Only implemented for two-dimensional kinds.
    """
    if spec.dimension != 2:
        raise ValueError("dense grid estimation is only available in dimension 2")
    eps = check_eps_grid(DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
    base = np.linspace(0.0, 2.0 * math.pi, GRID_SAMPLES, endpoint=False)
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
    return eps, np.minimum.accumulate(best[::-1])[::-1]
