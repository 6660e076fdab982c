"""Project files: self-contained JSON descriptions of a fuzzy subcomplex.

A project names a value lattice, exactly one complex source, and the
coefficient ring. Complex sources:

- "complex": maximal simplices, with optional "mu" entries (partial values
  are completed as the join of explicit coface values; a project without mu
  means the constant assignment 1);
- "chromatic": a labeled point cloud in a CSV file plus a Vietoris-Rips
  radius and dimension cap, lattice derived from the labels;
- "filtration": a poset with one complex per element, lattice derived as
  the up-sets of the poset.

Loading normalizes everything to (lattice, complex, fuzzy subcomplex) and
keeps the monotonicity violations of the explicit values for reporting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from .exact import ZZ, format_ring, parse_ring
from .fuzzy import (
    ChromaticDataset,
    FuzzyError,
    FuzzySubcomplex,
    complete_values,
    explicit_violations,
    from_filtration,
    vietoris_rips,
)
from .lattice import LatticeError, Poset, lattice_from_spec, lattice_to_spec, parse_value, format_value
from .simplicial import Simplex, SimplicialComplex


class ProjectError(ValueError):
    pass


@dataclass
class LoadedProject:
    lattice: object
    complex: SimplicialComplex
    mu: FuzzySubcomplex
    ring: object
    source: str
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

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


def _load_mu_entries(entries, complex, lattice):
    explicit = {}
    parsed = {}  # value text -> value: each distinct text is parsed once
    _require(isinstance(entries, list), "'mu' must be a list of {simplex, value} objects")
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict) and "simplex" in entry and "value" in entry,
                 f"mu entry {i} must have 'simplex' and 'value'")
        try:
            s = Simplex(entry["simplex"])
        except (ValueError, TypeError) as e:
            raise ProjectError(f"mu entry {i}: {e}") from None
        _require(s in complex, f"mu entry {i}: {s!r} is not in the complex")
        _require(s not in explicit, f"mu entry {i}: duplicate value for {s!r}")
        text = str(entry["value"])
        if text not in parsed:
            try:
                parsed[text] = parse_value(text, lattice)
            except LatticeError as e:
                raise ProjectError(f"mu entry {i}: {e}") from None
        explicit[s] = parsed[text]
    return explicit


def read_chromatic_csv(path) -> ChromaticDataset:
    """Labeled points: coordinate columns (header order) then a 'label' column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
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

    warnings = []
    violations = []

    if source == "complex":
        _require("lattice" in data, "a 'lattice' spec is required with a 'complex' source")
        try:
            lattice = lattice_from_spec(data["lattice"])
        except LatticeError as e:
            raise ProjectError(f"bad lattice: {e}") from None
        complex = _load_complex_spec(data["complex"])
        explicit = _load_mu_entries(data.get("mu", []), complex, lattice)
        if not explicit:
            explicit = {s: lattice.top for s in complex.all_simplices()}
        violations = explicit_violations(explicit, lattice)
        values = complete_values(complex, lattice, explicit)
        mu = FuzzySubcomplex(complex, lattice, values)
    elif source == "chromatic":
        _require("lattice" not in data and "mu" not in data,
                 "chromatic projects derive the lattice and values from the labels")
        spec = data["chromatic"]
        _require(isinstance(spec, dict) and "csv" in spec and "radius" in spec,
                 "chromatic spec needs 'csv' and 'radius'")
        import os
        path = spec["csv"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        dataset = read_chromatic_csv(path)
        try:
            complex, mu = vietoris_rips(dataset, spec["radius"], int(spec.get("max_dim", 2)))
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
            poset = Poset(pspec["elements"], pspec.get("covers", []))
        except LatticeError as e:
            raise ProjectError(f"bad poset: {e}") from None
        _require(poset.elements, "empty poset")
        stages = {}
        raw_stages = spec["stages"]
        _require(isinstance(raw_stages, dict), "'stages' must map poset elements to complexes")
        for p in poset.elements:
            _require(p in raw_stages, f"no stage for poset element {p!r}")
            stages[p] = _load_complex_spec({"maximal": raw_stages[p]})
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


def load_project_file(path: str, ring_override: str | None = None) -> LoadedProject:
    import os
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ProjectError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ProjectError(f"{path}: invalid JSON: {e}") from None
    return load_project(data, base_dir=os.path.dirname(os.path.abspath(path)),
                        ring_override=ring_override)


def project_from_fuzzy(mu: FuzzySubcomplex, ring=ZZ) -> dict:
    """Normal-form project dict for a fuzzy subcomplex (values on all simplices)."""
    maximal = [list(s.vertices) for s in mu.complex.maximal_simplices()]
    entries = [{"simplex": list(s.vertices), "value": format_value(v)}
               for s, v in mu.items()]
    return {
        "lattice": lattice_to_spec(mu.lattice),
        "complex": {"maximal": maximal},
        "mu": entries,
        "ring": format_ring(ring),
    }


def dump_project(project: dict) -> str:
    return json.dumps(project, indent=2, sort_keys=True) + "\n"
