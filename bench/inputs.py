"""Writes one workload's input files for a seed and returns what the
benchmark itself knows about them (the complexes, by dimension), which the
correctness checks compare fshom's reports against.

Where a workload's cost depends on more than the simplex counts, the cloud is
drawn again from the next sub-seed until the benchmark's own Betti numbers
and value-set sizes match the pinned targets in `workloads.json`, so every
seed asks fshom for the same amount of work.
"""

from __future__ import annotations

import json
import os
from itertools import combinations

import gen

MAX_ATTEMPTS = 2000
# rank over a large prime stands in for the rational rank when selecting inputs
SELECTION_PRIME = 2_147_483_647


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _faces(maximal) -> list:
    """Downward closure of maximal simplices, by dimension, sorted."""
    faces = set()
    for s in maximal:
        for k in range(1, len(s) + 1):
            faces.update(combinations(sorted(s), k))
    top = max(len(s) for s in faces)
    return [sorted(s for s in faces if len(s) == k) for k in range(1, top + 1)]


def _closure(values, top, meet) -> set:
    """L(kappa_d): the closure of the values plus top under meet."""
    closed = set(values) | {top}
    frontier = set(closed)
    while frontier:
        fresh = {meet(a, b) for a in frontier for b in closed} - closed
        closed |= fresh
        frontier = fresh
    return closed


def _union(a, b):
    # chromatic values are meets of colour generators; the meet of two is
    # the meet of the union of their colours, and top is the empty meet
    return a | b


def _grid_meet(a, b):
    # principal up-sets of the grid: the meet of up(a) and up(b) is up(max)
    return max(a[0], b[0]), max(a[1], b[1])


def _cloud(rng, p) -> list:
    return gen.pinned_cloud(rng, p["points"], p["side"], p["radius"], p["edges"], p["triangles"])


def crisp_homology_z(p, seed, wd, name) -> dict:
    rp = p["rips"]
    points = _cloud(gen.rng_for(name, seed, "rips"), rp)
    labels = gen.balanced_labels(gen.rng_for(name, seed, "rips-labels"), rp["points"], rp["colours"])
    gen.write_csv(os.path.join(wd, "rips.csv"), points, labels)
    _write_json(os.path.join(wd, "rips.json"), {
        "chromatic": {"csv": "rips.csv", "radius": rp["radius"], "max_dim": rp["max_dim"]}})
    cp = p["random_2complex"]
    maximal = gen.random_2complex(gen.rng_for(name, seed, "random"), cp["vertices"], cp["triangles"])
    _write_json(os.path.join(wd, "random.json"), {
        "lattice": {"kind": "fdl", "generators": ["x"]}, "complex": {"maximal": maximal}})
    return {"rips": gen.rips_simplices(points, rp["radius"], rp["max_dim"]),
            "random": _faces(maximal)}


def chromatic_eta_gf3(p, seed, wd, name) -> dict:
    for attempt in range(MAX_ATTEMPTS):
        points = _cloud(gen.rng_for(name, seed, f"cloud{attempt}"), p)
        labels = gen.balanced_labels(gen.rng_for(name, seed, f"labels{attempt}"),
                                     p["points"], p["colours"])
        by_dim = gen.rips_simplices(points, p["radius"], p["max_dim"])
        if gen.betti_mod(by_dim, 3) != p["betti_gf3"]:
            continue
        sizes = [len(_closure({frozenset(labels[v] for v in s) for s in group}, frozenset(), _union))
                 for group in by_dim]
        if sizes == p["kappa_values"]:
            gen.write_csv(os.path.join(wd, "eta.csv"), points, labels)
            return {"eta": by_dim}
    raise RuntimeError(f"{name}: no input matched the targets in {MAX_ATTEMPTS} attempts")


def _grid_position(s, points, ranks, radii, thresholds) -> tuple:
    """Least (radius index, threshold index) whose stage contains s."""
    rr = max(((points[a][0] - points[b][0]) ** 2 + (points[a][1] - points[b][1]) ** 2
              for a, b in combinations(s, 2)), default=0)
    i = next(k for k, r in enumerate(radii) if rr <= r * r)
    worst = max(ranks[v] for v in s)
    j = next(k for k, t in enumerate(thresholds) if worst < t)
    return i, j


def bifiltration_ranks(p, seed, wd, name) -> dict:
    n = p["points"]
    radii = p["radii"]
    thresholds = [n * (j + 1) // p["density_steps"] for j in range(p["density_steps"])]
    for attempt in range(MAX_ATTEMPTS):
        points = _cloud(gen.rng_for(name, seed, f"cloud{attempt}"), p)
        by_dim = gen.rips_simplices(points, radii[-1], p["max_dim"])
        ranks = gen.density_ranks(points, p["density_radius"])
        # the cut enumeration depends on which grid positions L(kappa_d)
        # holds, not only on how many, so the sets themselves are pinned
        value_sets = [sorted(_closure({_grid_position(s, points, ranks, radii, thresholds)
                                       for s in group}, (0, 0), _grid_meet)) for group in by_dim]
        if [[list(x) for x in v] for v in value_sets] != p["kappa_values"]:
            continue
        if gen.betti_mod(by_dim, SELECTION_PRIME) == p["betti"]:
            spec = gen.grid_bifiltration(points, ranks, radii, thresholds, p["max_dim"])
            _write_json(os.path.join(wd, "filtration.json"), spec)
            return {"filtration": by_dim}
    raise RuntimeError(f"{name}: no input matched the targets in {MAX_ATTEMPTS} attempts")


def chromatic_ingest(p, seed, wd, name) -> dict:
    points = _cloud(gen.rng_for(name, seed, "cloud"), p)
    labels = gen.balanced_labels(gen.rng_for(name, seed, "labels"), p["points"], p["colours"])
    gen.write_csv(os.path.join(wd, "ingest.csv"), points, labels)
    return {"ingest": gen.rips_simplices(points, p["radius"], p["max_dim"])}


INPUT_MAKERS = {
    "crisp-homology-z": crisp_homology_z,
    "chromatic-eta-gf3": chromatic_eta_gf3,
    "bifiltration-ranks": bifiltration_ranks,
    "chromatic-ingest": chromatic_ingest,
}


def make_inputs(name: str, params: dict, seed: int, workdir: str) -> dict:
    return INPUT_MAKERS[name](params, seed, workdir, name)
