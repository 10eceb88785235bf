"""Greene invariants: an exact min-cost flow oracle and insertion-tableau
fast paths.

The r-th Greene invariant of a word is the maximum total size of r pairwise
disjoint weakly increasing subwords; for timed words, sizes become measures
of time samples whose selected subwords are timed rows. Where two chains
share a run, swapping their tails moves the whole run into one chain, so the
oracle works over whole runs (blocks of equal letters, or timed runs on the
grid 1/q). A family of r chains of runs is a flow of r units through a
network of runs, so a_r is the value of a min-cost flow (Greene, Adv. Math.
14, 1974; Greene and Kleitman, JCT A 20, 1976). Successive shortest paths
reach a min-cost flow of every value on the way, so one flow of r units
gives the whole profile a_1, ..., a_r. The oracle never touches insertion,
which it can therefore cross-check.
"""

from __future__ import annotations

from itertools import accumulate, groupby

from .classical import Word, insertion_tableau, shape
from .errors import OracleSizeError, _lazy_module, _text
from .timed_words import TimedWord
from .timed_tableaux import timed_insertion_tableau, timed_shape

fractions = _lazy_module("fractions")


# The flow's work: its arcs (about runs x distinct letters) times its
# augmentations (at most r). A call at the bound takes 0.4 to 1.0 s on a
# 2-vCPU host, and at r = 1 its arc lists take up to ~50 MB.
_MAX_FLOW_WORK = 1_000_000


def _greene_runs(letters, counts, r: int) -> tuple[int, ...]:
    """(a_1, ..., a_r): the maximum total count of i disjoint weakly
    increasing chains of whole runs for each i <= r, run i being counts[i]
    copies of letters[i].

    Successive shortest paths push r units through a network of runs: run i
    is a node pair in_i -> out_i joined by a use arc (capacity 1, cost
    -counts[i]) and a bypass arc (capacity r, cost 0). The source feeds the
    first run of each letter, and out_i feeds the sink and the next run of
    each letter >= letters[i], so a path's used runs form a chain. Each unit
    takes a Dijkstra shortest path on reduced costs; costs stay exact ints.
    The flow after i units is a min-cost flow of value i, so each unit that
    gains appends a_i. The flow stops at the first unit that gains nothing
    (every run is used), which comes by unit k + 1 for k distinct letters:
    the k blocks of equal letters take everything. So r is capped at k, and
    a network whose runs x k x r passes _MAX_FLOW_WORK raises OracleSizeError
    before it is built. A negative r raises ValueError before anything else.
    """
    if r < 0:
        raise ValueError(f"r must be a nonnegative integer, got {_text(r)}")
    # Imported here, so that commands that run no oracle start no slower.
    from heapq import heappop, heappush

    n, k = len(letters), len(set(letters))
    r = min(r, k)
    if not r:
        # Nothing to push; with no capacity the first pass below would add
        # costs to inf, which overflows once they pass the float range.
        return ()
    if n * k * r > _MAX_FLOW_WORK:
        raise OracleSizeError(
            f"flow over {n} runs of {k} letters at r={r} exceeds the bound of {_MAX_FLOW_WORK}"
        )
    # Node 0 is the source, 2i + 1 and 2i + 2 are in_i and out_i, and the
    # sink comes last: every arc points forward in this order.
    sink = 2 * n + 1
    arcs: list[list[int]] = [[] for _ in range(sink + 1)]
    head, cap, cost = [], [], []

    def arc(u: int, v: int, capacity: int, c: int) -> None:
        # arc e and its reverse e ^ 1, which starts empty
        arcs[u].append(len(head))
        arcs[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((capacity, 0))
        cost.extend((c, -c))

    after: dict[int, int] = {}  # letter -> its first run after run i
    for i in range(n - 1, -1, -1):
        arc(2 * i + 1, 2 * i + 2, 1, -counts[i])
        arc(2 * i + 1, 2 * i + 2, r, 0)
        arc(2 * i + 2, sink, r, 0)
        for c, j in after.items():
            if c >= letters[i]:
                arc(2 * i + 2, 2 * j + 1, r, 0)
        after[letters[i]] = i
    for j in after.values():
        arc(0, 2 * j + 1, r, 0)

    # First potentials: shortest distances by one pass in node order.
    inf = float("inf")
    pot = [0] + [inf] * sink
    for u in range(sink + 1):
        for e in arcs[u]:
            if cap[e] and pot[u] + cost[e] < pot[head[e]]:
                pot[head[e]] = pot[u] + cost[e]
    total, profile = 0, []
    for _ in range(r):
        dist = [0] + [inf] * sink
        via = [0] * (sink + 1)
        heap = [(0, 0)]
        while heap:
            d, u = heappop(heap)
            if u == sink:
                break
            if d > dist[u]:
                continue
            du = d + pot[u]
            for e in arcs[u]:
                if cap[e]:
                    v = head[e]
                    dv = du + cost[e] - pot[v]
                    if dv < dist[v]:
                        dist[v], via[v] = dv, e
                        heappush(heap, (dv, v))
        # Nodes not settled lie at least dist[sink] away; capping at it keeps
        # every residual arc's reduced cost nonnegative.
        d = dist[sink]
        pot = [p + (dv if dv < d else d) for p, dv in zip(pot, dist)]
        if pot[sink] >= 0:  # no path gains: more chains add nothing
            break
        total -= pot[sink]
        profile.append(total)
        v = sink
        while v:
            e = via[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            v = head[e ^ 1]
    return tuple(profile)


def greene_classical_oracle(w: Word, r: int) -> tuple[int, ...]:
    """The Greene profile of w up to rank r, greene_classical(w)[:r] when
    insertion is right: a_i is the exact maximum total size of i pairwise
    disjoint weakly increasing subwords, for i up to r or until a_i takes
    all of w, by one min-cost flow over w's blocks of equal letters."""
    letters = [c for c, _ in groupby(w)]
    counts = [len(list(block)) for _, block in groupby(w)]
    return _greene_runs(letters, counts, r)


def greene_classical(w: Word) -> tuple[int, ...]:
    """Greene profile (a_1, ..., a_l) via partial sums of the insertion
    tableau's shape; the fast path the oracle validates."""
    return tuple(accumulate(shape(insertion_tableau(w))))


def greene_timed_oracle(w: TimedWord, r: int) -> tuple[fractions.Fraction, ...]:
    """The timed Greene profile of w up to rank r, greene_timed(w)[:r] when
    insertion is right: one min-cost flow over w's runs with their counts on
    the grid 1/q (w.counts), each value divided by q. Nothing is expanded
    on the grid, so its size costs nothing; the one bound is the flow's work,
    _MAX_FLOW_WORK, past which OracleSizeError is raised."""
    return tuple(fractions.Fraction(a, w.q) for a in _greene_runs(w.letters, w.counts, r))


def greene_timed(w: TimedWord) -> tuple[fractions.Fraction, ...]:
    """Timed Greene profile via partial sums of the insertion tableau's shape."""
    return tuple(accumulate(timed_shape(timed_insertion_tableau(w))))
