"""Views of a persistence pair multiset: diagram, barcode, staircase,
hole-count probabilities, bottleneck distance and widest-gap inference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


@dataclass(frozen=True)
class Diagram:
    """Multiset of (birth, death) pairs, canonically sorted.

    The diagonal is implicit: pairs with birth == death may be present but
    carry no information.
    """

    pairs: np.ndarray  # (m, 2) float64, sorted by (birth, death)

    @classmethod
    def from_pairs(cls, pairs) -> "Diagram":
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
        if len(arr):
            if (arr[:, 0] > arr[:, 1]).any():
                raise ValueError("pair with birth > death")
            if (arr[:, 0] < 0).any() or not np.isfinite(arr).all():
                raise ValueError("pairs must satisfy 0 <= birth <= death < inf")
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        return cls(pairs=arr)

    def __len__(self) -> int:
        return len(self.pairs)

    def persistences(self) -> np.ndarray:
        if not len(self.pairs):
            return np.empty(0)
        return self.pairs[:, 1] - self.pairs[:, 0]

    def off_diagonal(self) -> np.ndarray:
        """Pairs with strictly positive persistence."""
        if not len(self.pairs):
            return self.pairs
        return self.pairs[self.pairs[:, 1] > self.pairs[:, 0]]


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

    @property
    def empty(self) -> bool:
        return len(self.counts) == 0

    def count_at(self, alpha: float) -> int:
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
    pairs = diagram.off_diagonal()
    if not len(pairs):
        return Staircase(breakpoints=np.empty(0), counts=np.empty(0, dtype=np.int64))
    points = np.unique(pairs)
    deltas = np.zeros(len(points), dtype=np.int64)
    births = np.searchsorted(points, pairs[:, 0])
    deaths = np.searchsorted(points, pairs[:, 1])
    np.add.at(deltas, births, 1)
    np.add.at(deltas, deaths, -1)
    counts = np.cumsum(deltas)[:-1]
    return Staircase(breakpoints=points, counts=counts)


def hole_probabilities(diagram: Diagram) -> HoleProbabilityTable:
    """P(k) = total length of scale intervals with k holes, relative to the
    full range [min birth, max death]."""
    stair = staircase(diagram)
    if stair.empty:
        return HoleProbabilityTable(probabilities={0: 1.0}, empty_range=True)
    lengths = np.diff(stair.breakpoints)
    total = stair.breakpoints[-1] - stair.breakpoints[0]
    # bincount adds the weights in interval order, as a running sum would;
    # the dict lists the counts in order of first appearance
    sums = np.bincount(stair.counts, weights=lengths / total)
    present, first = np.unique(stair.counts, return_index=True)
    present = present[np.argsort(first)]
    return HoleProbabilityTable(
        probabilities=dict(zip(present.tolist(), sums[present].tolist())))


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


def _matching_feasible(real_cost: np.ndarray, diag1: np.ndarray,
                       diag2: np.ndarray, delta: float) -> bool:
    """Perfect matching test for the augmented bipartite diagram graph.

    Rows are d1's points followed by diagonal slots for d2's points, columns
    are d2's points followed by diagonal slots for d1's points.
    """
    m1, m2 = len(diag1), len(diag2)
    n = m1 + m2
    adj = np.zeros((n, n), dtype=bool)
    adj[:m1, :m2] = real_cost <= delta
    adj[np.arange(m1), m2 + np.arange(m1)] = diag1 <= delta
    adj[m1 + np.arange(m2), np.arange(m2)] = diag2 <= delta
    adj[m1:, m2:] = True  # diagonal-to-diagonal is free
    match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    return int((match >= 0).sum()) == n


def bottleneck_distance(d1: Diagram, d2: Diagram) -> float:
    """Exact bottleneck distance between two finite diagrams.

    L-infinity ground metric; a point may match the diagonal at cost
    (death - birth) / 2.  Binary search over the finite set of candidate
    costs with a bipartite matching feasibility test.
    """
    p1 = d1.off_diagonal()
    p2 = d2.off_diagonal()
    m1, m2 = len(p1), len(p2)
    if m1 == 0 and m2 == 0:
        return 0.0
    diag1 = (p1[:, 1] - p1[:, 0]) / 2.0 if m1 else np.empty(0)
    diag2 = (p2[:, 1] - p2[:, 0]) / 2.0 if m2 else np.empty(0)
    if m1 and m2:
        real_cost = np.abs(p1[:, None, :] - p2[None, :, :]).max(axis=2)
    else:
        real_cost = np.empty((m1, m2))

    candidates = np.unique(np.concatenate([
        np.array([0.0]), diag1, diag2, real_cost.reshape(-1)
    ]))
    lo, hi = 0, len(candidates) - 1
    # The largest candidate (everything to the diagonal) is always feasible.
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(real_cost, diag1, diag2, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])
