"""Exact-arithmetic engine for Cayley-Dickson zero-divisor structure.

Basis products and integer multivectors (algebra), finite unit loops and
identity checks (loops), box-kites with their sails, tray-racks, and codes
(kites), line-algebra multiplication tables (lariats), general 2^n-ion
enumeration and sweeps (emanation), golden fixtures and their verification
(fixtures, verify), and table emission (render, cli).
"""

from .algebra import (
    BasisBlade,
    Hypercomplex,
    aso_form,
    blade_mul,
    blade_sign,
    enumerate_trips,
    hc_mul,
    trip_orientation,
)
from .emanation import (
    CensusReport,
    SweepReport,
    ZDGraph,
    census,
    find_box_kites,
    pathion_lift,
    trip_sync_sweep,
    zd_graph,
)
from .kites import (
    Assessor,
    BoxKite,
    Diagonal,
    Sail,
    TrayRack,
    assessors_for_strut,
    automorpheme,
    build_box_kite,
    goto_numbers,
    is_zero_divisor_pair,
    octonion_loop_axes,
    sail_six_cycle,
    tray_racks,
    trigram_code,
)
from .lariats import (
    LariatResult,
    LariatTable,
    NonCollapsibleError,
    QuizzicalLariat,
    TripSyncReport,
    lariat_product,
    mock_octonion_table,
    quizzical_tables,
    switching_yard,
    trip_sync_report,
)
from .loops import (
    Counterexample,
    UnitLoop,
    check_identity,
    is_quaternion_group,
    loop_closure,
    moufang_report,
)
from .render import RenderSpec, cmd_emit
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "Assessor",
    "BasisBlade",
    "BoxKite",
    "CensusReport",
    "Counterexample",
    "Diagonal",
    "Hypercomplex",
    "LariatResult",
    "LariatTable",
    "NonCollapsibleError",
    "QuizzicalLariat",
    "RenderSpec",
    "Sail",
    "SweepReport",
    "TrayRack",
    "TripSyncReport",
    "UnitLoop",
    "VerificationReport",
    "ZDGraph",
    "aso_form",
    "assessors_for_strut",
    "automorpheme",
    "blade_mul",
    "blade_sign",
    "build_box_kite",
    "census",
    "check_identity",
    "cmd_emit",
    "enumerate_trips",
    "find_box_kites",
    "goto_numbers",
    "hc_mul",
    "is_quaternion_group",
    "is_zero_divisor_pair",
    "lariat_product",
    "loop_closure",
    "mock_octonion_table",
    "moufang_report",
    "octonion_loop_axes",
    "pathion_lift",
    "quizzical_tables",
    "run_verification",
    "sail_six_cycle",
    "switching_yard",
    "tray_racks",
    "trigram_code",
    "trip_orientation",
    "trip_sync_report",
    "trip_sync_sweep",
    "zd_graph",
]
