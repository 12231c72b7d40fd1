"""lamkit: exact combinatorics of finite laminations under angle d-tupling."""

from .circle import (
    Angle,
    AngleError,
    OrbitInfo,
    circle_dist,
    format_angle,
    format_itinerary,
    orbit_info,
    parse_angle,
    preimages,
    sigma,
)
from .core import (
    Chord,
    ChordSet,
    ClassLamination,
    CoveringResult,
    GapDecomposition,
    LaminationError,
    PolygonClass,
    RoundGap,
    chords_cross,
    covering_degree,
    criticality_audit,
    gap_decomposition,
    gap_degree,
)
from .fdl import (
    FDL,
    FdlError,
    PullbackTree,
    build_pullback_tree,
    canonical_form,
    enumerate_children,
    root_fdl,
    validate_fdl,
)
from .io import (
    BFile,
    DocumentError,
    export_dot_gengraph,
    export_dot_tree,
    load_chordset,
    load_lamination,
    oeis_compare,
    parse_bfile,
    render_svg,
    save_lamination,
)
from .paramgraph import (
    CriticalityRecord,
    GenGraph,
    closure_is_refinement,
    criticality,
    generational_graph,
    refines,
)
from .portraits import (
    PortraitError,
    PortraitShape,
    count_all,
    count_injective,
    enumerate_all_portraits,
    enumerate_injective_portraits,
    portrait_to_tree,
    reduce_portrait,
    tree_to_portrait,
)
from .pullback import (
    ApproxSequence,
    CriticalChordSet,
    PropernessReport,
    PullbackError,
    hyperbolic_approx,
    lamination_distance,
    place_critical_chords,
    properness_report,
    pullback_lamination,
    pullback_step,
)

__version__ = "0.1.0"
