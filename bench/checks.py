"""Invariants of fshom's reports, computed without fshom.

Each check takes the parsed report and the benchmark's own complex (simplices
by dimension, as sorted vertex tuples) and returns a list of problems; an
empty list means the report passed. The boundary operator and the lattice
order used here are the benchmark's own.
"""

from __future__ import annotations

from collections import defaultdict


def _simplex(key: str) -> tuple:
    return tuple(int(v) for v in key.split(","))


def _modulus(ring: str) -> int:
    """0 for Z, p for zmod:p."""
    return int(ring.split(":", 1)[1]) if ring.startswith("zmod:") else 0


def chain_problems(chain: dict, d: int, by_dim, p: int) -> list:
    """Problems with a chain {"0,1": coefficient}: unknown simplices, or a
    non-zero boundary (mod p when p > 0)."""
    known = set(by_dim[d]) if d < len(by_dim) else set()
    out = []
    boundary = defaultdict(int)
    for key, c in chain.items():
        s = _simplex(key)
        if s not in known:
            out.append(f"chain uses {key}, not a {d}-simplex of the complex")
        for k in range(len(s) if len(s) > 1 else 0):
            boundary[s[:k] + s[k + 1:]] += -c if k % 2 else c
    bad = [f for f, c in boundary.items() if (c % p if p else c)]
    if bad:
        out.append(f"degree-{d} chain is not a cycle (boundary non-zero on {len(bad)} faces)")
    return out


def euler_problems(betti, by_dim) -> list:
    chi = sum((-1) ** d * len(g) for d, g in enumerate(by_dim))
    total = sum((-1) ** d * b for d, b in enumerate(betti))
    return [] if chi == total else [f"sum (-1)^d betti_d = {total}, Euler characteristic {chi}"]


def parse_level(text: str):
    """A lattice level as printed by fshom, in a form `leq` compares.

    Up-set values print as {a,b} (a set of poset elements, ordered by
    inclusion); free distributive lattice values as joins of meets,
    "x & y | z", with "0" and "1" for bottom and top.
    """
    if text.startswith("{"):
        inner = text[1:-1]
        return ("upset", frozenset(inner.split(",")) if inner else frozenset())
    if text == "0":
        return ("fdl", frozenset())
    if text == "1":
        return ("fdl", frozenset([frozenset()]))
    return ("fdl", frozenset(frozenset(t.strip() for t in term.split("&"))
                             for term in text.split("|")))


def leq(a, b) -> bool:
    if a[0] == "upset":
        return a[1] <= b[1]
    # a join of meets is below another when each meet-term of a is refined
    # by some meet-term of b (every generator of that b-term occurs in it)
    return all(any(B <= A for B in b[1]) for A in a[1])


def antitone_problems(ranks: dict, what: str) -> list:
    """ranks maps level text to a rank; a larger level must not have a larger rank."""
    levels = {t: parse_level(t) for t in ranks}
    out = []
    for a, la in levels.items():
        for b, lb in levels.items():
            if a != b and leq(la, lb) and ranks[b] > ranks[a]:
                out.append(f"{what}: rank {ranks[b]} at {b} exceeds rank {ranks[a]} at {a} below it")
    return out


def check_homology(report, by_dim) -> list:
    p = _modulus(report["ring"])
    out = []
    if [e["degree"] for e in report["degrees"]] != list(range(len(by_dim))):
        out.append("degrees do not match the complex dimension")
    for e in report["degrees"]:
        for g in e["torsion_generators"] + e["free_generators"]:
            out += chain_problems(g, e["degree"], by_dim, p)
    return out + euler_problems([e["betti"] for e in report["degrees"]], by_dim)


def check_eta(report, by_dim) -> list:
    p = _modulus(report["ring"])
    out = []
    for e in report["reports"]:
        d = e["degree"]
        for g in e["generators"]:
            out += chain_problems(g["chain"], d, by_dim, p)
        hdl = {lv: s["betti"] for lv, s in e["hdl"].items()}
        cuts = {lv: s["betti"] for lv, s in e["cuts"].items()}
        out += antitone_problems(hdl, f"H_{d}(l)")
        out += antitone_problems(cuts, f"cut_{d}")
        out += [f"cut_{d} at {lv} has rank {cuts[lv]} below H_{d}({lv}) rank {r}"
                for lv, r in hdl.items() if cuts.get(lv, -1) < r]
    return out + euler_problems([e["betti"] for e in report["reports"]], by_dim)


def check_rank_table(report, by_dim) -> list:
    out = []
    if [e["degree"] for e in report["reports"]] != list(range(len(by_dim))):
        out.append("degrees do not match the complex dimension")
    for e in report["reports"]:
        out += antitone_problems(e["ranks"], f"rank table degree {e['degree']}")
    return out


def check_validate(report, by_dim) -> list:
    counts = [len(g) for g in by_dim]
    out = [] if report["valid"] else ["validate reports the project invalid"]
    if report["simplex_counts"] != counts:
        out.append(f"simplex counts {report['simplex_counts']} differ from the clique count {counts}")
    return out


def check_project(project, by_dim) -> list:
    """A written project must value exactly the benchmark's own simplices."""
    got = sorted(tuple(e["simplex"]) for e in project["mu"])
    want = sorted(s for g in by_dim for s in g)
    return [] if got == want else [f"project values {len(got)} simplices, expected {len(want)}"]


CHECKS = {
    "homology": check_homology,
    "eta": check_eta,
    "rank-table": check_rank_table,
    "validate": check_validate,
    "project": check_project,
}
