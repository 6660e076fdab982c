"""Project file loading: sources, rings, derived lattices, normalization."""

import copy
import json
import os
import random

import pytest

import fshom.fuzzy
import fshom.project
from fshom.cli import main
from fshom.exact import ZZ, parse_ring
from fshom.fuzzy import ChromaticDataset, FuzzySubcomplex, vietoris_rips
from fshom.lattice import (
    CdlLattice, FreeDistributiveLattice, format_value, lattice_from_spec, lattice_to_spec, parse_value,
)
from fshom.project import (
    ProjectError,
    dump_json,
    dump_project,
    load_project,
    load_project_file,
    project_from_fuzzy,
    read_chromatic_csv,
)
from fshom.simplicial import EMPTY_COMPLEX, Simplex, SimplicialComplex
from oracles import (
    carrier, pairwise_complete_values, pairwise_explicit_violations, project_dict,
    walk_from_maximal, walk_mu_entries,
)
from randgen import lattice_family
from test_filtration import grid_spec


def complex_source(**extra):
    data = {
        "lattice": {"kind": "fdl", "generators": ["x", "y"]},
        "complex": {"maximal": [[0, 1]]},
        "mu": [
            {"simplex": [0], "value": "x"},
            {"simplex": [1], "value": "x"},
            {"simplex": [0, 1], "value": "x"},
        ],
    }
    data.update(extra)
    return data


class TestSources:
    def test_exactly_one_source(self):
        with pytest.raises(ProjectError):
            load_project({"lattice": {"kind": "fdl", "generators": ["x"]}})
        data = complex_source()
        data["chromatic"] = {"csv": "points.csv", "radius": 1}
        with pytest.raises(ProjectError):
            load_project(data)

    def test_reference_file(self, reference_project):
        p = reference_project
        assert p.source == "complex" and p.is_valid and p.ring is ZZ
        assert p.complex.dim == 2
        assert format_value(p.mu.value(Simplex((1, 2)))) == "x & y"

    def test_mu_optional_defaults_to_top(self):
        data = complex_source()
        del data["mu"]
        p = load_project(data)
        assert all(format_value(v) == "1" for _, v in p.mu.items())

    def test_partial_mu_completed(self):
        data = complex_source(mu=[{"simplex": [0, 1], "value": "x & y"}])
        p = load_project(data)
        assert format_value(p.mu.value(Simplex((0,)))) == "x & y"

    def test_violations_reported_not_raised(self):
        data = complex_source(mu=[
            {"simplex": [0], "value": "x & y"},
            {"simplex": [0, 1], "value": "x"},
        ])
        p = load_project(data)
        assert not p.is_valid and len(p.violations) == 1

    def test_violations_name_the_complexs_simplices(self, tmp_path, capsys):
        """Entries read in bulk are keyed by plain tuples; a violation still
        holds simplices, so its message writes <a,b>."""
        data = complex_source(mu=[
            {"simplex": [1, 2], "value": "x"},
            {"simplex": [0, 1], "value": "x | y"},
            {"simplex": [0, 1, 2], "value": "y"},
        ], complex={"maximal": [[0, 1, 2]]})
        (v,) = load_project(data).violations
        assert type(v.face) is Simplex and type(v.coface) is Simplex
        assert v.message() == "mu(<1,2>) = x does not dominate mu(<0,1,2>) = y"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "mu(<1,2>) = x does not dominate mu(<0,1,2>) = y" in capsys.readouterr().out

    def test_chromatic_source(self, fixture_path):
        data = {"chromatic": {"csv": "points.csv", "radius": 2, "max_dim": 2}}
        p = load_project(data, base_dir=fixture_path(""))
        assert p.source == "chromatic"
        assert p.complex.n(2) == 2
        assert sorted(p.lattice.generators) == ["blue", "red"]

    def test_chromatic_forbids_lattice_and_mu(self, fixture_path):
        for extra in ({"lattice": {"kind": "fdl", "generators": ["x"]}},
                      {"mu": []}):
            data = {"chromatic": {"csv": "points.csv", "radius": 2}}
            data.update(extra)
            with pytest.raises(ProjectError):
                load_project(data, base_dir=fixture_path(""))

    def test_filtration_source(self, fixture_path):
        p = load_project_file(fixture_path("filtration_chain.json"))
        assert p.source == "filtration"
        assert p.warnings == []
        got = {s.vertices: format_value(v) for s, v in p.mu.items()}
        assert got == {(0,): "{a,b}", (1,): "{b}", (0, 1): "{b}"}

    def test_filtration_warns_when_not_meet_prime(self, fixture_path):
        p = load_project_file(fixture_path("filtration_antichain.json"))
        assert len(p.warnings) == 1 and "meet-prime" in p.warnings[0]

    def test_ring_override(self, fixture_path):
        p = load_project_file(fixture_path("reference.json"), ring_override="zmod:5")
        assert p.ring.p == 5
        with pytest.raises(ProjectError):
            load_project_file(fixture_path("reference.json"), ring_override="zmod:9")


class TestErrors:
    def test_bad_entries(self):
        for mu in ([{"simplex": [9], "value": "x"}],
                    [{"simplex": [0], "value": "w"}],
                    [{"simplex": [0], "value": "x"}, {"simplex": [0], "value": "y"}],
                    [{"simplex": [0]}]):
            with pytest.raises(ProjectError):
                load_project(complex_source(mu=mu))

    def test_bad_entry_messages_name_entry_and_simplex(self):
        for mu, message in (
                ([{"simplex": [0, 2], "value": "x"}], "mu entry 0: <0,2> is not in the complex"),
                ([{"simplex": [0], "value": "x"}, {"simplex": [0], "value": "y"}],
                 "mu entry 1: duplicate value for <0>"),
                ([{"simplex": [0]}], "mu entry 0 must have 'simplex' and 'value'")):
            with pytest.raises(ProjectError) as exc:
                load_project(complex_source(mu=mu))
            assert str(exc.value) == message

    def test_unsorted_mu_simplex_loads(self):
        data = complex_source(complex={"maximal": [[0, 1, 2]]},
                              mu=[{"simplex": [2, 1, 0], "value": "x"}])
        p = load_project(data)
        assert p.is_valid and format_value(p.mu.value(Simplex((0, 1, 2)))) == "x"

    def test_bad_files(self, tmp_path, fixture_path):
        with pytest.raises(ProjectError):
            load_project_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ProjectError):
            load_project_file(str(bad))

    def test_csv_errors(self, tmp_path):
        no_label = tmp_path / "a.csv"
        no_label.write_text("x,y\n1,2\n")
        with pytest.raises(ProjectError):
            read_chromatic_csv(str(no_label))
        empty = tmp_path / "b.csv"
        empty.write_text("x,label\n")
        with pytest.raises(ProjectError):
            read_chromatic_csv(str(empty))


class TestNormalization:
    def test_round_trip_through_dump(self, reference_project, tmp_path):
        text = dump_project(reference_project.mu, reference_project.ring)
        assert dump_project(load_project(json.loads(text)).mu, reference_project.ring) == text
        path = tmp_path / "out.json"
        path.write_text(text)
        p = load_project_file(str(path))
        assert {s: format_value(v) for s, v in p.mu.items()} == \
            {s: format_value(v) for s, v in reference_project.mu.items()}

    def test_round_trip_at_bench_scale(self, bench_subcomplexes):
        """For every lattice family (and the clouds and the grid), a project
        of about 860 simplices is loaded, exported, and its text reads back
        to the same text and the same values."""
        for name, mu in bench_subcomplexes:
            text = dump_project(mu)
            p = load_project(json.loads(text))
            assert p.is_valid and list(p.mu.items()) == list(mu.items()), name
            assert dump_project(p.mu, p.ring) == text, name


# every character class that the encoder escapes differently
TEXT = ["", "a", "Z", " ", "~", "\u00e9", "\u2603", "\U0001f600", "\ud800", '"', "\\", "/",
        "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f"]
INTS = [0, 1, -1, 2 ** 63, 2 ** 64, 2 ** 64 + 1, -(2 ** 64) - 1, 10 ** 40]


def random_text(rng):
    return "".join(rng.choice(TEXT) for _ in range(rng.randint(0, 5)))


def random_json(rng, depth):
    """A random value of the types dump_json writes, nested at most `depth` deep."""
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice(INTS + [rng.randint(-2 ** 70, 2 ** 70), rng.randint(-9, 9)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([[], (), {}, [[]], [()], {"": {}}, [{}, []], {"a": [{}]}])
    items = [random_json(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {random_text(rng): v for v in items}


@pytest.fixture(scope="module")
def bench_subcomplexes():
    """(name, subcomplex) at the scale of the benchmark's inputs: three seeded
    3-colour chromatic clouds of about 860 simplices, the 4x4 grid
    bifiltration of bifiltration-ranks, and, for every lattice family, the
    complex-source project on the first cloud's complex whose values are the
    meets of random vertex values."""
    out = []
    for seed in range(3):
        rng = random.Random(9100 + seed)
        points = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(130))
        _, mu = vietoris_rips(ChromaticDataset(points, tuple(rng.choices("abc", k=130))), 5, 2)
        assert 700 <= len(mu.complex) <= 1100
        out.append((f"cloud-{seed}", mu))
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        import gen

        out.append(("grid", load_project({"filtration": grid_spec(gen, 4, 2, points=32, side=20)}).mu))
    rng = random.Random(9103)
    K = out[0][1].complex
    for lattice in lattice_family():
        elements = list(carrier(lattice))
        at = {v: rng.choice(elements) for (v,) in K.simplices(0)}
        data = {"lattice": lattice_to_spec(lattice),
                "complex": {"maximal": [list(s) for s in K.maximal_simplices()]},
                "mu": [{"simplex": list(s), "value": format_value(lattice.meet(at[v] for v in s))}
                       for s in K.all_simplices()]}
        out.append((f"lattice-{lattice!r}", load_project(data).mu))
    return out


class TestDumpProject:
    def test_normal_form_is_written_in_one_pass(self, bench_subcomplexes):
        """Every subcomplex at bench scale, and hand-made ones (generator
        names that the encoder escapes, in the lattice spec and in the value
        texts, on vertices from 0, 2**63 and 10**40; the empty complex), over
        Z and Z/3: `dump_project` writes what the standard encoder writes for
        the entry-by-entry reference dict, and `project_from_fuzzy` reads
        that dict back."""
        names = ['x "q"', "\u00e9\u2603", "a\\b", "\n\t", "\U0001f600", "/"]
        L = FreeDistributiveLattice(names)
        hand = [("empty", FuzzySubcomplex(EMPTY_COMPLEX, L, {}))]
        for offset in (0, 2 ** 63, 10 ** 40):
            K = SimplicialComplex.from_maximal([[offset + v for v in s] for s in ([0, 1, 2], [2, 3], [4])])
            hand.append((f"escaped-{offset}", FuzzySubcomplex(
                K, L, {s: L.generator(names[i % len(names)]) for i, s in enumerate(K.all_simplices())})))
        for name, mu in [*bench_subcomplexes, *hand]:
            for ring in (ZZ, parse_ring("zmod:3")):
                expected = project_dict(mu, ring)
                assert dump_project(mu, ring) == json.dumps(expected, indent=2, sort_keys=True) + "\n", name
                assert project_from_fuzzy(mu, ring) == expected, name


class TestDumpJson:
    def test_equals_the_standard_encoder(self):
        rng = random.Random(41)
        for _ in range(400):
            value = random_json(rng, rng.randint(0, 4))
            assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "x"}, [{"a": 1.0}], {"a": {None: 1}},
                                       ("x", frozenset()), b"x"],
                             ids=["float", "set", "int-key", "nested-float", "none-key",
                                  "frozenset", "bytes"])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            dump_json(value)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_load_compares_each_pair_of_distinct_values_once(tmp_path, monkeypatch):
    """Loading the benchmark's 130-point 3-colour chromatic project (seed 0)
    makes at most k^2 lattice comparisons and k + 2 `ValueCoding.code`
    calls, k the number of distinct values: they are bounded by the values,
    not by the faces or face pairs of the complex."""
    monkeypatch.syspath_prepend(BENCH)  # bench/inputs.py imports its sibling gen.py
    import inputs

    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"]["chromatic-ingest"]
    inputs.make_inputs("chromatic-ingest", spec["params"], 0, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["build-chromatic", "ingest.csv", "--radius", "5", "--max-dim", "2",
                 "--out", "ingest.json"]) == 0
    calls, code_calls = [], []
    leq = CdlLattice.leq
    monkeypatch.setattr(CdlLattice, "leq", lambda self, a, b: calls.append(1) or leq(self, a, b))

    class CountedCoding(fshom.fuzzy.ValueCoding):
        def __init__(self, lattice):
            super().__init__(lattice)
            code = self.code
            self.code = lambda v: code_calls.append(1) or code(v)

    monkeypatch.setattr(fshom.project, "ValueCoding", CountedCoding)
    project = load_project_file("ingest.json")
    k = len({v for _, v in project.mu.items()})
    assert len(project.complex) > 800 and project.is_valid
    assert 0 < len(calls) <= k * k, (len(calls), k)
    # the mu values arrive as codes: each distinct text is coded once
    assert 0 < len(code_calls) <= k + 2, (len(code_calls), k)


def test_load_completes_once_and_lists_violations_only_on_failure(monkeypatch):
    """Complex-source projects on a chromatic complex of about 860 simplices,
    for every lattice family: mu on every simplex of a face-monotone
    assignment (the meet of random vertex values), the same with one vertex
    lowered to 0, a random part of it, random values on a random part, and
    no mu. The completed values and the violations, in order, equal the
    pairwise definitions; a valid load builds one `ValueCoding` and lists no
    violations."""
    codings, listings = [], []

    class CountedCoding(fshom.fuzzy.ValueCoding):
        def __init__(self, lattice):
            codings.append(1)
            super().__init__(lattice)

    listed = fshom.project.explicit_violations
    # the load builds its coding in fshom.project; the listing builds its own in fshom.fuzzy
    monkeypatch.setattr(fshom.project, "ValueCoding", CountedCoding)
    monkeypatch.setattr(fshom.fuzzy, "ValueCoding", CountedCoding)
    monkeypatch.setattr(fshom.project, "explicit_violations",
                        lambda *a: listings.append(1) or listed(*a))
    rng = random.Random(29)
    points = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(130))
    K, _ = vietoris_rips(ChromaticDataset(points, ("a",) * 130), 5, 2)
    assert 700 <= len(K) <= 1000
    simplices = list(K.all_simplices())
    seen_violations = False
    for lattice in lattice_family():
        elements = list(carrier(lattice))
        at = {v: rng.choice(elements) for (v,) in K.simplices(0)}
        monotone = {s: lattice.meet(at[v] for v in s) for s in simplices}
        # one vertex lowered to 0 below a non-zero coface: a single moved value
        coface = rng.choice([s for s in simplices if s.dim and monotone[s] != lattice.bottom])
        lowered = {**monotone, K.get(coface[:1]): lattice.bottom}
        for explicit in (
                monotone,
                lowered,
                {s: monotone[s] for s in rng.sample(simplices, len(simplices) // 3)},
                {s: rng.choice(elements) for s in rng.sample(simplices, len(simplices) // 4)},
                {}):
            data = {"lattice": lattice_to_spec(lattice),
                    "complex": {"maximal": [list(s) for s in K.maximal_simplices()]},
                    "mu": [{"simplex": list(s), "value": format_value(v)}
                           for s, v in explicit.items()]}
            codings.clear()
            listings.clear()
            p = load_project(data)
            L = p.lattice
            given = ({s: parse_value(format_value(v), L) for s, v in explicit.items()}
                     or {s: L.top for s in K.maximal_simplices()})
            expected = pairwise_explicit_violations(given, L)
            assert p.violations == expected
            assert list(p.mu.items()) == list(pairwise_complete_values(p.complex, L, given).items())
            # the listing, run on failure only, codes the explicit values itself
            assert len(listings) == (1 if expected else 0) and len(codings) == 1 + len(listings)
            seen_violations = seen_violations or bool(expected)
    assert seen_violations


def walk_load(data):
    """A complex-source project loaded by the entry-by-entry walks and the
    pairwise definitions: (complex, completed values, violations), or the
    ProjectError that names its first bad entry."""
    lattice = lattice_from_spec(data["lattice"])
    try:
        K = walk_from_maximal(data["complex"]["maximal"])
    except (ValueError, TypeError) as e:
        raise ProjectError(f"bad complex: {e}") from None
    given = walk_mu_entries(data["mu"], K, lattice) or {s: lattice.top for s in K.all_simplices()}
    return K, pairwise_complete_values(K, lattice, given), pairwise_explicit_violations(given, lattice)


# faults of one mu entry, made in place at index i
ENTRY_FAULTS = ("not-a-dict", "no-simplex", "no-value", "bool-vertex", "float-vertex",
                "negative-vertex", "unsorted", "repeated-vertex", "empty-simplex",
                "not-in-complex", "duplicate", "non-string-value", "unparsable-value")
# faults of one maximal simplex, made in place at index i
MAXIMAL_FAULTS = ("bool-vertex", "float-vertex", "negative-vertex", "unsorted",
                  "repeated-vertex", "empty-simplex", "not-a-list")


def fault_entry(rng, entries, i, fault):
    entry = entries[i]
    simplex = entry["simplex"]
    j = rng.randrange(len(simplex))
    if fault == "not-a-dict":
        entries[i] = [simplex, entry["value"]]
    elif fault == "no-simplex":
        del entry["simplex"]
    elif fault == "no-value":
        del entry["value"]
    elif fault == "bool-vertex":
        simplex[j] = bool(simplex[j] % 2)
    elif fault == "float-vertex":
        simplex[j] = float(simplex[j])
    elif fault == "negative-vertex":
        simplex[j] = -1 - simplex[j]
    elif fault == "unsorted":
        simplex.reverse()
    elif fault == "repeated-vertex":
        simplex.append(simplex[j])
    elif fault == "empty-simplex":
        simplex.clear()
    elif fault == "not-in-complex":
        simplex[j] = 1000
    elif fault == "duplicate":
        other = entries[rng.choice([k for k in range(len(entries)) if k != i])]
        if isinstance(other, dict) and "simplex" in other:
            entry["simplex"] = list(other["simplex"])
    elif fault == "non-string-value":
        entry["value"] = rng.choice([1, None, ["x"], True])
    else:
        entry["value"] = rng.choice(["(", "nope", "", "x &"])


def fault_maximal(rng, maximal, i, fault):
    simplex = maximal[i]
    j = rng.randrange(len(simplex))
    if fault == "not-a-list":
        maximal[i] = rng.choice([3, "01", None])
    else:
        fault_entry(rng, [{"simplex": simplex, "value": ""}], 0, fault)


def test_bulk_load_agrees_with_the_entry_walk():
    """Seeded projects on a small Rips complex, for every lattice family,
    each valid or with one or two faults of the mu list or of the maximal
    list, and hand-made lists that the shared int-list test refuses (an
    empty mu list, an empty simplex, a bool or float vertex) or passes on to
    a later check (a vertex of 2**64, a negative vertex): `load_project`
    raises the walk's first message, and on valid input gives the walk's
    complex, values (in order) and violations."""
    rng = random.Random(47)
    points = tuple((rng.randint(0, 12), rng.randint(0, 12)) for _ in range(24))
    K, _ = vietoris_rips(ChromaticDataset(points, ("a",) * 24), 4, 2)
    simplices = list(K.all_simplices())
    outcomes = {True: 0, False: 0}

    def check(data) -> bool:
        """Whether the project loads, after asserting that the load agrees with the walk."""
        try:
            expected = walk_load(copy.deepcopy(data))
        except ProjectError as e:
            with pytest.raises(ProjectError) as exc:
                load_project(data)
            assert str(exc.value) == str(e), data
            return False
        p = load_project(data)
        complex_, values, violations = expected
        assert p.complex == complex_
        assert list(p.mu.items()) == list(values.items())
        assert p.violations == violations
        return True

    lattice = lattice_family()[0]
    maximal = [list(s) for s in K.maximal_simplices()]
    entry = [{"simplex": list(s), "value": format_value(lattice.top)} for s in simplices[:3]]
    odd = [[], [True], [1.0], [2 ** 64], [-1]]
    for mu in ([], *([*entry, {"simplex": vs, "value": "1"}] for vs in odd)):
        outcomes[check({"lattice": lattice_to_spec(lattice), "complex": {"maximal": maximal}, "mu": mu})] += 1
    for vs in odd:
        outcomes[check({"lattice": lattice_to_spec(lattice),
                        "complex": {"maximal": [*maximal, vs]}, "mu": entry})] += 1
    assert outcomes == {True: 2, False: 9}, outcomes
    for trial in range(400):
        lattice = lattice_family()[trial % len(lattice_family())]
        elements = list(carrier(lattice))
        data = {"lattice": lattice_to_spec(lattice),
                "complex": {"maximal": [list(s) for s in K.maximal_simplices()]},
                "mu": [{"simplex": list(s), "value": format_value(rng.choice(elements))}
                       for s in rng.sample(simplices, rng.randint(2, len(simplices)))]}
        kind = trial % 4  # valid, one mu fault, two mu faults, one maximal fault
        entries, maximal = data["mu"], data["complex"]["maximal"]
        if kind == 1 and trial % 20 == 1:
            data["mu"] = rng.choice([{"simplex": [0], "value": "1"}, "x", None])
        elif kind in (1, 2):
            at = sorted(rng.sample(range(len(entries)), kind))
            for i in reversed(at):
                fault_entry(rng, entries, i, rng.choice(ENTRY_FAULTS))
        elif kind == 3:
            fault_maximal(rng, maximal, rng.randrange(len(maximal)), rng.choice(MAXIMAL_FAULTS))
        outcomes[check(data)] += 1
    assert outcomes[True] > 100 and outcomes[False] > 150, outcomes
