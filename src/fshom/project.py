"""Project files: self-contained JSON descriptions of a fuzzy subcomplex.

A project names a value lattice, exactly one complex source, and the
coefficient ring. Complex sources:

- "complex": maximal simplices, with optional "mu" entries (partial values
  are completed as the join of explicit coface values; a project without mu
  means the constant assignment 1);
- "chromatic": a labeled point cloud in a CSV file plus a Vietoris-Rips
  radius and dimension cap, lattice derived from the labels;
- "filtration": a poset with one complex per element, lattice derived as
  the up-sets of the poset. Each stage becomes the face set of its maximal
  simplices (no complex is built per stage), and `from_filtration` builds
  one complex, for their union.

Loading normalizes everything to (lattice, complex, fuzzy subcomplex). A
complex source is read in bulk passes: the maximal list and the mu list are
each checked once at C level (entry and vertex types, vertex ranges, the mu
simplices looked up in the complex as vertex tuples, no repeats), each
distinct mu value text is parsed and coded once into the subcomplex's
`ValueCoding`, and `complete_values` takes the codes, so a load makes one
`code` call per distinct value. A list that fails a bulk check is walked
again entry by entry, only to name its first bad entry with the message of
that entry, or to read a valid entry in another form (say, unsorted
vertices). A mu value must be a string. The monotonicity violations of
explicit mu values are listed for reporting only when the completion moves
one.

`dump_json` writes every CLI report: it gives the bytes of
`json.dumps(obj, indent=2, sort_keys=True)` without the standard library's
pure-Python encoder, which is what `json.dumps` runs under `indent`.
`dump_project` writes the one project layout, the normal form of a fuzzy
subcomplex that `build-chromatic` and `import-filtration` export, straight
from the subcomplex: one %-format per maximal simplex and per mu entry, in
the bytes that `json.dumps(indent=2, sort_keys=True)` gives for that
project. `project_from_fuzzy` is that text read back as a dict.
"""

from __future__ import annotations

import csv
import json
import os
from collections import namedtuple
from itertools import combinations, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .exact import ZZ, format_ring, parse_ring
from .fuzzy import (
    ChromaticDataset,
    FuzzyError,
    FuzzySubcomplex,
    ValueCoding,
    complete_values,
    explicit_violations,
    from_filtration,
    vietoris_rips,
)
from .lattice import (
    LatticeError,
    format_value,
    lattice_from_spec,
    lattice_to_spec,
    parse_value,
    poset_from_spec,
)
from .simplicial import Simplex, SimplicialComplex, _int_lists


class ProjectError(ValueError):
    pass


class LoadedProject(namedtuple("LoadedProject", "lattice complex mu ring source violations warnings")):
    """A loaded project: lattice, complex (SimplicialComplex), mu (FuzzySubcomplex), ring,
    source (str), violations (list of Violation) and warnings (list of str)."""

    __slots__ = ()

    @property
    def is_valid(self) -> bool:
        return not self.violations


def _require(cond, message):
    if not cond:
        raise ProjectError(message)


def _load_complex_spec(spec) -> SimplicialComplex:
    _require(isinstance(spec, dict) and "maximal" in spec,
             "complex spec must be an object with a 'maximal' list")
    maximal = spec["maximal"]
    _require(isinstance(maximal, list) and maximal, "'maximal' must be a non-empty list")
    try:
        return SimplicialComplex.from_maximal(maximal)
    except (ValueError, TypeError) as e:
        raise ProjectError(f"bad complex: {e}") from None


def _stage_faces(p, maximal, closures) -> frozenset:
    """The faces of filtration stage p, given by its maximal simplices, as
    sorted vertex tuples. In a stage whose entries are all non-empty lists of
    ints, each entry is validated and closed once for all stages: `closures` maps it, as
    a tuple, to its faces. Any other stage is not cached, and `Simplex` names
    its first malformed entry."""
    _require(isinstance(maximal, list) and maximal, f"stage {p!r}: 'maximal' must be a non-empty list")
    faces = set()
    ints = _int_lists(maximal)
    for vertices in maximal:
        key = tuple(vertices) if ints else None
        closed = closures.get(key)
        if closed is None:
            try:
                s = Simplex(vertices)
            except (ValueError, TypeError) as e:
                raise ProjectError(f"stage {p!r}: bad complex: {e}") from None
            closed = [face for k in range(1, len(s) + 1) for face in combinations(s, k)]
            if key is not None:
                closures[key] = closed
        faces.update(closed)
    return frozenset(faces)


def _load_mu_entries(entries, complex, coding) -> dict:
    """The explicit mu entries as {simplex: code of `coding`}, each distinct
    value text parsed and coded once, in order of first appearance.

    The whole list is checked in bulk passes: every entry a dict with
    'simplex' and 'value', every simplex a non-empty list of ints
    (`_int_lists`) found in the complex's index (as a sorted tuple) and none
    repeated, every value a string that parses; its keys are then those
    sorted tuples, which the complex's simplices equal. Any other list, an
    empty one too, is walked entry by entry, which names the first bad entry
    and reads what is valid but not in that form (say, unsorted vertices)."""
    _require(isinstance(entries, list), "'mu' must be a list of {simplex, value} objects")
    if {*map(type, entries)} <= {dict} and all(map(dict.__contains__, entries, repeat("simplex"))) \
            and all(map(dict.__contains__, entries, repeat("value"))):
        simplices = [*map(itemgetter("simplex"), entries)]
        texts = [*map(itemgetter("value"), entries)]
        if _int_lists(simplices) and {*map(type, texts)} <= {str}:
            found = [*map(tuple, simplices)]
            if all(map(complex._index.__contains__, found)) and len(set(found)) == len(found):
                lattice = coding.lattice
                try:
                    code = {t: coding.code(parse_value(t, lattice)) for t in dict.fromkeys(texts)}
                except LatticeError:
                    pass
                else:
                    return dict(zip(found, map(code.__getitem__, texts)))
    return _walk_mu_entries(entries, complex, coding)


def _walk_mu_entries(entries, complex, coding) -> dict:
    """`_load_mu_entries` entry by entry: the first bad entry is a
    ProjectError naming its index, and a valid entry in any form is read."""
    explicit = {}
    code = {}  # value text -> code: each distinct text is parsed once
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict) and "simplex" in entry and "value" in entry,
                 f"mu entry {i} must have 'simplex' and 'value'")
        vertices, text = entry["simplex"], entry["value"]
        try:
            s = Simplex(vertices)
        except (ValueError, TypeError) as e:
            raise ProjectError(f"mu entry {i}: {e}") from None
        if s not in complex:
            raise ProjectError(f"mu entry {i}: {s!r} is not in the complex")
        if s in explicit:
            raise ProjectError(f"mu entry {i}: duplicate value for {s!r}")
        if not isinstance(text, str):
            raise ProjectError(f"mu entry {i}: value must be a string")
        if text not in code:
            try:
                code[text] = coding.code(parse_value(text, coding.lattice))
            except LatticeError as e:
                raise ProjectError(f"mu entry {i}: {e}") from None
        explicit[s] = code[text]
    return explicit


def read_chromatic_csv(path) -> ChromaticDataset:
    """Labeled points: coordinate columns (header order) then a 'label' column."""
    try:
        # utf-8-sig drops the byte-order mark that some spreadsheets write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise ProjectError(f"cannot read {path}: {e}") from None
    _require(rows, f"{path}: empty CSV")
    header = [cell.strip() for cell in rows[0]]
    _require("label" in header, f"{path}: no 'label' column")
    label_at = header.index("label")
    coord_at = [i for i in range(len(header)) if i != label_at]
    points, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        _require(len(row) == len(header), f"{path}:{lineno}: wrong number of fields")
        points.append(tuple(row[i].strip() for i in coord_at))
        labels.append(row[label_at].strip())
    _require(points, f"{path}: no data rows")
    return ChromaticDataset(tuple(points), tuple(labels))


def load_project(data: dict, base_dir: str = ".", ring_override: str | None = None) -> LoadedProject:
    _require(isinstance(data, dict), "project must be a JSON object")
    sources = [k for k in ("complex", "chromatic", "filtration") if k in data]
    _require(len(sources) == 1,
             f"exactly one complex source required, found {sources or 'none'}")
    source = sources[0]

    ring_text = ring_override if ring_override is not None else data.get("ring", "z")
    try:
        ring = parse_ring(str(ring_text))
    except ValueError as e:
        raise ProjectError(str(e)) from None

    warnings, violations = [], []

    if source == "complex":
        _require("lattice" in data, "a 'lattice' spec is required with a 'complex' source")
        try:
            lattice = lattice_from_spec(data["lattice"])
        except LatticeError as e:
            raise ProjectError(f"bad lattice: {e}") from None
        complex = _load_complex_spec(data["complex"])
        coding = ValueCoding(lattice)
        explicit = (_load_mu_entries(data.get("mu", []), complex, coding)
                    or dict.fromkeys(complex.all_simplices(), coding.code(lattice.top)))
        mu = complete_values(complex, coding, explicit)
        # an explicit f completes to v_f joined with the values of its explicit
        # cofaces, so it moves exactly when one of those is not below v_f
        if not explicit.items() <= mu._code.items():
            violations = explicit_violations(
                {s: coding.values[c] for s, c in explicit.items()}, lattice)
    elif source == "chromatic":
        _require("lattice" not in data and "mu" not in data,
                 "chromatic projects derive the lattice and values from the labels")
        spec = data["chromatic"]
        _require(isinstance(spec, dict) and "csv" in spec and "radius" in spec,
                 "chromatic spec needs 'csv' and 'radius'")
        path, max_dim = spec["csv"], spec.get("max_dim", 2)
        _require(isinstance(path, str), "'csv' must be a file path")
        _require(isinstance(max_dim, int) and not isinstance(max_dim, bool),
                 "'max_dim' must be an integer")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        dataset = read_chromatic_csv(path)
        try:
            complex, mu = vietoris_rips(dataset, spec["radius"], max_dim)
        except FuzzyError as e:
            raise ProjectError(str(e)) from None
        lattice = mu.lattice
    else:
        _require("lattice" not in data and "mu" not in data,
                 "filtration projects derive the lattice and values from the poset")
        spec = data["filtration"]
        _require(isinstance(spec, dict) and "poset" in spec and "stages" in spec,
                 "filtration spec needs 'poset' and 'stages'")
        pspec = spec["poset"]
        _require(isinstance(pspec, dict) and "elements" in pspec,
                 "poset spec needs 'elements' (and optional 'covers')")
        try:
            poset = poset_from_spec(pspec)
        except LatticeError as e:
            raise ProjectError(f"bad poset: {e}") from None
        _require(poset.elements, "empty poset")
        stages, closures = {}, {}
        raw_stages = spec["stages"]
        _require(isinstance(raw_stages, dict), "'stages' must map poset elements to complexes")
        for p in poset.elements:
            _require(p in raw_stages, f"no stage for poset element {p!r}")
            stages[p] = _stage_faces(p, raw_stages[p], closures)
        extra = set(raw_stages) - set(poset.elements)
        _require(not extra, f"stages for unknown poset elements: {sorted(extra)}")
        try:
            mu = from_filtration(poset, stages)
        except FuzzyError as e:
            raise ProjectError(str(e)) from None
        complex = mu.complex
        lattice = mu.lattice
        if not lattice.zero_is_meet_prime:
            warnings.append(
                "0 is not meet-prime in the up-set lattice of this poset "
                "(two poset elements have no common upper bound); "
                "fuzzy homology commands will be refused")

    return LoadedProject(lattice, complex, mu, ring, source, violations, warnings)


def read_json(path: str):
    """The JSON document in a file; a file that cannot be read or parsed is a ProjectError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ProjectError(f"cannot read {path}: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or a number past the int digit limit
        raise ProjectError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise ProjectError(f"{path}: JSON nested too deeply to parse") from None


def load_project_file(path: str, ring_override: str | None = None) -> LoadedProject:
    return load_project(read_json(path), base_dir=os.path.dirname(os.path.abspath(path)),
                        ring_override=ring_override)


def dump_project(mu: FuzzySubcomplex, ring=ZZ) -> str:
    """The normal-form project of a fuzzy subcomplex, as the bytes of
    `json.dumps(project, indent=2, sort_keys=True)` and a newline: its
    lattice spec, its maximal simplices, one mu entry per simplex in
    (dim, vertices) order and its ring.

    Each maximal simplex is written by one %-format of its vertices and each
    mu entry by one of its vertices and its value text; the text of each
    code is formatted and encoded once.
    """
    K = mu.complex
    quoted = [*map(encode_basestring_ascii, map(format_value, mu.coding.values))]
    simplices = [*K.all_simplices()]
    texts = map(quoted.__getitem__, map(mu._code.__getitem__, simplices))
    # one format per simplex size k: k vertices, then (in a mu entry) the value text
    cell = {k: "[\n        " + ",\n        ".join(["%d"] * k) + "\n      ]" for k in range(1, K.dim + 2)}
    entry = {k: '{\n      "simplex": ' + c + ',\n      "value": %s\n    }' for k, c in cell.items()}
    maximal = ",\n      ".join([cell[len(s)] % s for s in K.maximal_simplices()])
    entries = ",\n    ".join([entry[len(s)] % (*s, t) for s, t in zip(simplices, texts)])
    return "".join((
        '{\n  "complex": {\n    "maximal": ',
        "[\n      " + maximal + "\n    ]" if maximal else "[]",
        '\n  },\n  "lattice": ',
        dump_json(lattice_to_spec(mu.lattice)).replace("\n", "\n  "),
        ',\n  "mu": ',
        "[\n    " + entries + "\n  ]" if entries else "[]",
        ',\n  "ring": ',
        encode_basestring_ascii(format_ring(ring)),
        "\n}\n"))


def project_from_fuzzy(mu: FuzzySubcomplex, ring=ZZ) -> dict:
    """The normal-form project of a fuzzy subcomplex as a dict: `dump_project` read back."""
    return json.loads(dump_project(mu, ring))


_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, type(None): {None: "null"}.__getitem__,
           bool: {True: "true", False: "false"}.__getitem__}


def dump_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for
    str-keyed dicts, lists, tuples, str, int, bool and None (anything else is
    a TypeError). The pure-Python encoder that `json.dumps` runs under
    `indent` builds a generator per container; this writer appends chunks to
    one list and encodes each scalar in C. A scalar goes into one chunk with
    the separator and key before it, which halves the live chunks and so the
    writer's peak memory."""
    chunks = []
    out, leaf, key = chunks.append, _LEAVES.get, encode_basestring_ascii

    def write(o, newline):
        inner = newline + "  "
        sep = "," + inner
        if type(o) is dict:
            if not o:
                out("{}")
                return
            start = "{" + inner
            for k, v in sorted(o.items()):
                f = leaf(type(v))
                if f:
                    out(start + key(k) + ": " + f(v))
                else:
                    out(start + key(k) + ": ")
                    write(v, inner)
                start = sep
            out(newline + "}")
        elif type(o) is list or type(o) is tuple:
            if not o:
                out("[]")
                return
            start = "[" + inner
            for v in o:
                f = leaf(type(v))
                if f:
                    out(start + f(v))
                else:
                    out(start)
                    write(v, inner)
                start = sep
            out(newline + "]")
        else:
            f = leaf(type(o))
            if f is None:
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
            out(f(o))

    write(obj, "\n")
    return "".join(chunks)
