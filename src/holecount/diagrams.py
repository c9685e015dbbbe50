"""Views of a persistence pair multiset: diagram, barcode, staircase,
hole-count probabilities, bottleneck distance and widest-gap inference."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from . import _fastdel


@dataclass(frozen=True)
class Diagram:
    """Multiset of (birth, death) pairs, canonically sorted.

    The diagonal is implicit: pairs with birth == death may be present but
    carry no information.
    """

    pairs: np.ndarray  # (m, 2) float64, sorted by (birth, death)

    @classmethod
    def from_pairs(cls, pairs) -> "Diagram":
        """The diagram of the pairs, in a read-only array of its own.

        A sweep emits its pairs with births non-increasing, so reversed they
        are already sorted when the births are distinct, which is checked;
        otherwise, as when births tie on a lattice, they are sorted."""
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
        if len(arr):
            if (arr[:, 0] > arr[:, 1]).any():
                raise ValueError("pair with birth > death")
            if (arr[:, 0] < 0).any() or not np.isfinite(arr).all():
                raise ValueError("pairs must satisfy 0 <= birth <= death < inf")
            rev = arr[::-1]
            if (rev[1:, 0] > rev[:-1, 0]).all():
                arr = rev.copy()
            else:
                arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        else:
            arr = np.empty((0, 2))
        arr.flags.writeable = False
        return cls(pairs=arr)

    def __len__(self) -> int:
        return len(self.pairs)

    def persistences(self) -> np.ndarray:
        if not len(self.pairs):
            return np.empty(0)
        return self.pairs[:, 1] - self.pairs[:, 0]

    def off_diagonal(self) -> np.ndarray:
        """Pairs with strictly positive persistence; `pairs` itself, not a
        copy, when no pair lies on the diagonal."""
        keep = self.pairs[:, 1] > self.pairs[:, 0]
        return self.pairs if keep.all() else self.pairs[keep]


@dataclass(frozen=True)
class Barcode:
    """Bar lengths (death - birth), sorted descending."""

    lengths: np.ndarray


@dataclass(frozen=True)
class Staircase:
    """Piecewise-constant hole count over the scale.

    counts[i] holds on the half-open interval [breakpoints[i],
    breakpoints[i+1]); the hole-existence convention is birth <= alpha < death.
    """

    breakpoints: np.ndarray  # (m+1,) ascending
    counts: np.ndarray       # (m,) int
    # (counts in order of first appearance, the share of the range each one
    # holds) when the merge kernel built the staircase; None otherwise
    shares: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def empty(self) -> bool:
        return len(self.counts) == 0

    def count_at(self, alpha: float) -> int:
        if np.isnan(alpha):
            raise ValueError("scale is NaN")
        if self.empty or alpha < self.breakpoints[0] or alpha >= self.breakpoints[-1]:
            return 0
        i = int(np.searchsorted(self.breakpoints, alpha, side="right")) - 1
        return int(self.counts[i])


@dataclass(frozen=True)
class HoleProbabilityTable:
    """P(k holes) for a scale drawn uniformly from the diagram's full range."""

    probabilities: dict
    empty_range: bool = False

    def most_likely(self) -> int:
        """Hole count with the highest probability (ties: smaller count)."""
        return min(self.probabilities, key=lambda k: (-self.probabilities[k], k))

    def sorted_entries(self) -> list:
        """(k, P(k)) sorted by probability descending, count ascending."""
        return sorted(self.probabilities.items(), key=lambda kv: (-kv[1], kv[0]))


def staircase(diagram: Diagram) -> Staircase:
    """The staircase of the off-diagonal pairs.  With the kernels loaded it
    comes from one merge of the births, which `Diagram` keeps ascending,
    with the sorted deaths (``hc_staircase``), which also sums each count's
    share of the range for `hole_probabilities`.  Otherwise, and on pairs
    the kernel declines, `np.unique` ranks all values, the reference; both
    give the same arrays bit for bit."""
    pairs = diagram.off_diagonal()
    if not len(pairs):
        return Staircase(breakpoints=np.empty(0), counts=np.empty(0, dtype=np.int64))
    merged = _fastdel.staircase(pairs)
    if merged is not None:
        points, counts, present, shares = merged
        stair = Staircase(breakpoints=points, counts=counts)
        object.__setattr__(stair, "shares", (present, shares))
        return stair
    points, rank = np.unique(pairs, return_inverse=True)
    rank = rank.reshape(pairs.shape)
    deltas = (np.bincount(rank[:, 0], minlength=len(points))
              - np.bincount(rank[:, 1], minlength=len(points)))
    counts = np.cumsum(deltas)[:-1]
    return Staircase(breakpoints=points, counts=counts)


def hole_probabilities(diagram: Diagram) -> HoleProbabilityTable:
    """P(k) = total length of scale intervals with k holes, relative to the
    full range [min birth, max death]."""
    stair = staircase(diagram)
    if stair.empty:
        return HoleProbabilityTable(probabilities={0: 1.0}, empty_range=True)
    if stair.shares is not None:
        present, shares = stair.shares
    else:
        lengths = np.diff(stair.breakpoints)
        total = stair.breakpoints[-1] - stair.breakpoints[0]
        # bincount adds the weights in interval order, as a running sum
        # would, and as the kernel does; the dict lists the counts in order
        # of first appearance
        counts = stair.counts
        sums = np.bincount(counts, weights=lengths / total)
        first = np.full(len(sums), len(counts))
        np.minimum.at(first, counts, np.arange(len(counts)))
        present = counts[np.sort(first[first < len(counts)])]
        shares = sums[present]
    return HoleProbabilityTable(
        probabilities=dict(zip(present.tolist(), shares.tolist())))


def barcode(diagram: Diagram) -> Barcode:
    pers = diagram.persistences()
    return Barcode(lengths=np.sort(pers)[::-1].copy())


def infer_hole_count(diagram: Diagram) -> tuple:
    """Most prominent hole count: the number of pairs above the widest gap
    in the sorted persistence values (with 0 prepended).

    Returns (count, gap width).  Zero-persistence pairs never count.
    """
    pairs = diagram.off_diagonal()
    if not len(pairs):
        return 0, 0.0
    pers = np.sort(pairs[:, 1] - pairs[:, 0])
    values = np.concatenate(([0.0], pers))
    gaps = np.diff(values)
    split = int(np.argmax(gaps))
    return len(pers) - split, float(gaps[split])


def _covers(rows: np.ndarray, cols: np.ndarray, usable: np.ndarray,
            forced: np.ndarray, n_cols: int) -> bool:
    """Whether the usable edges (rows[e], cols[e]), grouped by row, hold a
    matching that covers every row marked `forced`."""
    n_forced = int(np.count_nonzero(forced))
    if n_forced == 0:
        return True
    if n_forced > n_cols:
        return False
    keep = usable & forced[rows]
    counts = np.bincount(rows[keep], minlength=len(forced))
    if not counts[forced].all():
        return False
    indptr = np.zeros(len(forced) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    indices = cols[keep]
    graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                       shape=(len(forced), n_cols))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool((match[forced] >= 0).all())


def _upper_bound(p1, p2, diag1, diag2, tree1, tree2) -> float:
    """Cost of one augmented matching: mutual L-infinity nearest neighbours
    are paired (or both sent to the diagonal, if cheaper), every other point
    goes to the diagonal."""
    j_of = tree2.query(p1, p=np.inf)[1]
    i_of = tree1.query(p2, p=np.inf)[1]
    i = np.flatnonzero(i_of[j_of] == np.arange(len(p1)))
    j = j_of[i]
    pair_cost = np.minimum(np.abs(p1[i] - p2[j]).max(axis=1),
                           np.maximum(diag1[i], diag2[j]))
    return float(max(pair_cost.max(initial=0.0), np.delete(diag1, i).max(initial=0.0),
                     np.delete(diag2, j).max(initial=0.0)))


def _ball_pairs(tree, queries: np.ndarray, radii: np.ndarray) -> tuple:
    """(query index, tree index) of every tree point within each query's
    L-infinity radius."""
    hits = tree.query_ball_point(queries, r=radii, p=np.inf)
    counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    found = np.fromiter(chain.from_iterable(hits), dtype=np.intp,
                        count=int(counts.sum()))
    return np.repeat(np.arange(len(queries)), counts), found


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values by one sort.  np.unique hashes integers
    first: 4.2 s against 0.06 s for 4e6 int64 keys."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def bottleneck_distance(d1: Diagram, d2: Diagram) -> float:
    """Exact bottleneck distance between two finite diagrams.

    L-infinity ground metric; a point may match the diagonal at cost
    (death - birth) / 2.  The result is the smallest candidate cost at
    which the augmented graph (points plus diagonal slots) has a perfect
    matching, bit for bit the float of `oracles.bottleneck_distance_dense`,
    found without a dense cost matrix or graph.  With the kernels loaded
    one ``hc_bottleneck`` call computes it (`_fastdel.bottleneck`);
    without them the code below does, the reference, by the same steps:

    * At a threshold delta a point is forced when its diagonal cost exceeds
      delta.  A perfect augmented matching exists exactly when the edges of
      cost <= delta hold one matching covering d1's forced points and one
      covering d2's (Mendelsohn-Dulmage), so each test is at most two
      rectangular Hopcroft-Karp runs.
    * Mutual nearest neighbours under L-infinity give a feasible matching of
      cost U, an upper bound.  Feasibility changes only at 0, at diagonal
      costs and at costs c(i, j) < max(diag_i, diag_j), so kd-tree ball
      queries of radius min(diag, U) from both sides find every edge that
      can matter; their costs are recomputed and filtered exactly.
    * Every point pays at least its cheapest option, which bounds the
      result from below; the search gallops up from that bound through the
      candidates and then bisects.

    The kernel repeats the nearest-neighbour rounds on the points left
    unpaired, finds neighbours by scanning the birth-sorted pairs instead
    of kd-trees, and keeps only the edges up to a threshold that gallops up
    from the lower bound; the smallest feasible candidate is the same.
    """
    p1 = d1.off_diagonal()
    p2 = d2.off_diagonal()
    distance = _fastdel.bottleneck(p1, p2)
    if distance is not None:
        return distance
    diag1 = (p1[:, 1] - p1[:, 0]) / 2.0
    diag2 = (p2[:, 1] - p2[:, 0]) / 2.0
    if not len(p1) or not len(p2):
        return float(max(diag1.max(initial=0.0), diag2.max(initial=0.0)))

    tree1, tree2 = cKDTree(p1), cKDTree(p2)
    bound = _upper_bound(p1, p2, diag1, diag2, tree1, tree2)
    # the trees' own distances only select; every kept cost is recomputed
    i_a, j_a = _ball_pairs(tree2, p1, np.nextafter(np.minimum(diag1, bound), np.inf))
    j_b, i_b = _ball_pairs(tree1, p2, np.nextafter(np.minimum(diag2, bound), np.inf))
    i, j = np.divmod(_distinct(np.concatenate((i_a * len(p2) + j_a,
                                               i_b * len(p2) + j_b))), len(p2))
    cost = np.abs(p1[i] - p2[j]).max(axis=1)
    keep = (cost < np.maximum(diag1[i], diag2[j])) & (cost <= bound)
    i, j, cost = i[keep], j[keep], cost[keep]

    # the edges come grouped by i; regroup a copy by j
    by_j = np.argsort(j, kind="stable")
    i2, j2, c2 = i[by_j], j[by_j], cost[by_j]

    def feasible(delta):
        return (_covers(i, j, cost <= delta, diag1 > delta, len(p2))
                and _covers(j2, i2, c2 <= delta, diag2 > delta, len(p1)))

    # every point pays at least its cheapest option, the diagonal or an
    # edge; an edge left out costs at least the point's diagonal or more
    # than the upper bound, so it is never the cheapest
    cheapest1, cheapest2 = diag1.copy(), diag2.copy()
    np.minimum.at(cheapest1, i, cost)
    np.minimum.at(cheapest2, j, cost)
    lower = max(cheapest1.max(), cheapest2.max())
    candidates = _distinct(np.concatenate((
        diag1[diag1 <= bound], diag2[diag2 <= bound], cost)))
    candidates = candidates[np.searchsorted(candidates, lower):]
    # gallop up from the lower bound, which is often the answer, then bisect;
    # the largest candidate shares its feasibility with the upper bound
    lo, hi, probe = 0, len(candidates) - 1, 0
    while probe < hi and not feasible(candidates[probe]):
        lo, probe = probe + 1, min(2 * probe + 1, hi)
    hi = probe
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])
