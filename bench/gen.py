"""Seeded input generators for the four benchmark workloads.

Every generator takes a `random.Random` and returns plain data (points,
labels, maximal simplices, filtration specs) that `run.py` writes as the
CSV/JSON files handed to fshom. Nothing here imports fshom, so the inputs do
not depend on the code under test.

The work fshom does grows like a power of the simplex counts, so a cloud of
random points would make one seed several times slower than another. The
clouds are therefore pinned: a seeded hill climb moves points until the
Vietoris-Rips complex has exactly the requested number of edges and
triangles. Seeds then change the geometry and the homology but not the sizes
of the boundary matrices.
"""

from __future__ import annotations

import random
from itertools import combinations

MAX_MOVES = 200_000


def rng_for(workload: str, seed: int, part: str) -> random.Random:
    """An independent stream per (workload, seed, input part)."""
    return random.Random(f"{workload}/{part}/{seed}")


def _close(p, q, rr) -> bool:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= rr


class _RipsCounter:
    """Edge and triangle counts of a radius graph, updated point by point."""

    def __init__(self, points, radius):
        self.points = list(points)
        self.rr = radius * radius
        n = len(self.points)
        self.adj = [set() for _ in range(n)]
        for i, j in combinations(range(n), 2):
            if _close(self.points[i], self.points[j], self.rr):
                self.adj[i].add(j)
                self.adj[j].add(i)
        self.edges = sum(len(a) for a in self.adj) // 2
        self.triangles = sum(self._tri_at(i) for i in range(n)) // 3

    def _tri_at(self, i, nbrs=None) -> int:
        nbrs = self.adj[i] if nbrs is None else nbrs
        return sum(1 for a, b in combinations(sorted(nbrs), 2) if b in self.adj[a])

    def neighbours_at(self, i, p) -> set:
        return {j for j, q in enumerate(self.points) if j != i and _close(p, q, self.rr)}

    def delta(self, i, p) -> tuple:
        """Change in (edges, triangles) if point i moved to p."""
        new = self.neighbours_at(i, p)
        old = self.adj[i]
        # triangles through i are pairs of its neighbours joined by an edge;
        # edges not touching i do not change when i moves
        return len(new) - len(old), self._tri_at(i, new) - self._tri_at(i)

    def move(self, i, p) -> None:
        d_e, d_t = self.delta(i, p)
        new = self.neighbours_at(i, p)
        for j in self.adj[i]:
            self.adj[j].discard(i)
        self.points[i] = p
        self.adj[i] = new
        for j in new:
            self.adj[j].add(i)
        self.edges += d_e
        self.triangles += d_t


def pinned_cloud(rng: random.Random, n: int, side: int, radius: int,
                 edges: int, triangles: int) -> list:
    """n distinct integer points in [0, side]^2 whose radius graph has exactly
    the given numbers of edges and triangles (closed threshold)."""
    cells = [(x, y) for x in range(side + 1) for y in range(side + 1)]
    points = rng.sample(cells, n)
    used = set(points)
    counter = _RipsCounter(points, radius)
    score = abs(counter.edges - edges) + abs(counter.triangles - triangles)
    for _ in range(MAX_MOVES):
        if score == 0:
            return list(counter.points)
        i = rng.randrange(n)
        p = rng.choice(cells)
        if p in used:
            continue
        d_e, d_t = counter.delta(i, p)
        new_score = abs(counter.edges + d_e - edges) + abs(counter.triangles + d_t - triangles)
        if new_score <= score:
            used.discard(counter.points[i])
            used.add(p)
            counter.move(i, p)
            score = new_score
    raise RuntimeError(f"no cloud with {edges} edges and {triangles} triangles "
                       f"after {MAX_MOVES} moves")


def balanced_labels(rng: random.Random, n: int, colours: int) -> list:
    """Colour names a, b, c, ... in counts differing by at most one, shuffled."""
    labels = [chr(ord("a") + i % colours) for i in range(n)]
    rng.shuffle(labels)
    return labels


def rips_simplices(points, radius, max_dim: int) -> list:
    """Simplices of the Vietoris-Rips complex by dimension, as sorted tuples.

    The same closed threshold and clique order as fshom's Rips construction, written
    independently so the benchmark can check fshom's counts and chains.
    """
    rr = radius * radius
    n = len(points)
    close = [[_close(points[i], points[j], rr) for j in range(n)] for i in range(n)]
    by_dim = [[(i,) for i in range(n)]]
    for _ in range(max_dim):
        nxt = [s + (v,) for s in by_dim[-1] for v in range(s[-1] + 1, n)
               if all(close[u][v] for u in s)]
        if not nxt:
            break
        by_dim.append(nxt)
    return by_dim


def maximal_of(by_dim) -> list:
    """Maximal simplices of a complex given by dimension (top first)."""
    covered = set()
    out = []
    for group in reversed(by_dim):
        for s in group:
            if s not in covered:
                out.append(list(s))
            covered.update(combinations(s, len(s) - 1))
    return out


def _rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix over GF(p), by row reduction."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        top = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def betti_mod(by_dim, p: int) -> list:
    """Betti numbers over GF(p) of a complex given by dimension."""
    ranks = [0]
    for d in range(1, len(by_dim)):
        index = {s: i for i, s in enumerate(by_dim[d - 1])}
        rows = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, s in enumerate(by_dim[d]):
            for k in range(len(s)):
                rows[index[s[:k] + s[k + 1:]]][j] = -1 if k % 2 else 1
        ranks.append(_rank_mod(rows, p))
    ranks.append(0)
    return [len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(len(by_dim))]


def random_2complex(rng: random.Random, vertices: int, triangles: int) -> list:
    """All edges on the vertices plus exactly `triangles` random triangles,
    as maximal simplices."""
    chosen = sorted(rng.sample(list(combinations(range(vertices), 3)), triangles))
    edges = list(combinations(range(vertices), 2))
    return maximal_of([[(v,) for v in range(vertices)], edges, chosen])


def density_ranks(points, radius) -> list:
    """Rank of each point by neighbour count within the radius, densest first
    (ties by index)."""
    rr = radius * radius
    counts = [sum(1 for q in points if _close(p, q, rr)) for p in points]
    order = sorted(range(len(points)), key=lambda i: (-counts[i], i))
    rank = [0] * len(points)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


def grid_name(i: int, j: int) -> str:
    return f"p{i}{j}"


def grid_bifiltration(points, ranks, radii, thresholds, max_dim: int) -> dict:
    """Density-Rips bifiltration on a grid poset.

    Stage (i, j) is the Rips complex at radii[i] on the points whose density
    rank is below thresholds[j]. Vertex ids are the original point indices,
    so every stage is a subcomplex of the stages above it.
    """
    elements = [grid_name(i, j) for i in range(len(radii)) for j in range(len(thresholds))]
    covers = []
    for i in range(len(radii)):
        for j in range(len(thresholds)):
            if i + 1 < len(radii):
                covers.append([grid_name(i, j), grid_name(i + 1, j)])
            if j + 1 < len(thresholds):
                covers.append([grid_name(i, j), grid_name(i, j + 1)])
    stages = {}
    for i, r in enumerate(radii):
        for j, t in enumerate(thresholds):
            keep = sorted(k for k in range(len(points)) if ranks[k] < t)
            local = rips_simplices([points[k] for k in keep], r, max_dim)
            stages[grid_name(i, j)] = maximal_of(
                [[tuple(keep[v] for v in s) for s in group] for group in local])
    return {"poset": {"elements": elements, "covers": covers}, "stages": stages}


def write_csv(path, points, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,label\n")
        for (x, y), label in zip(points, labels):
            fh.write(f"{x},{y},{label}\n")
