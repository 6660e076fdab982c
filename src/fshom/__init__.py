"""Simplicial homology over a PID and lattice-valued fuzzy homology."""

from .exact import (
    ExactMatrix,
    IntegerRing,
    PrimeField,
    SmithDecomposition,
    ZZ,
    format_ring,
    kernel,
    parse_ring,
    snf,
    solve,
)
from .fuzzy import (
    ChromaticDataset,
    FuzzyError,
    FuzzySubcomplex,
    Violation,
    chromatic,
    complete_values,
    explicit_violations,
    from_filtration,
    vietoris_rips,
)
from .fuzzyhomology import (
    FuzzyHomologyContext,
    NotComputableError,
)
from .homology import (
    ClassCoordinates,
    DegreeHomology,
    DegreePartition,
    ReducedChainComplex,
    homology,
)
from .lattice import (
    CdlLattice,
    FreeDistributiveLattice,
    LatticeError,
    LatticeValue,
    Poset,
    TotalOrder,
    UpSetLattice,
    enumerate_fdl,
    format_value,
    lattice_from_spec,
    lattice_to_spec,
    parse_value,
)
from .modules import (
    HomologyAmbient,
    ModuleStructure,
    SubmoduleOfHomology,
    module_structure,
)
from .project import (
    LoadedProject,
    ProjectError,
    dump_project,
    load_project,
    load_project_file,
    project_from_fuzzy,
    read_chromatic_csv,
)
from .simplicial import (
    EMPTY_COMPLEX,
    Simplex,
    SimplicialComplex,
    from_maximal,
)

__version__ = "1.0.0"
