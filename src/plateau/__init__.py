"""Exact analysis of functions F_p^n -> F_p^m: Walsh spectra, value
distributions, differential tables, and the structural checks tying them
together.  All arithmetic is exact (integers and cyclotomic integers);
no statistic is ever computed in floating point.
"""

from .constructions import (
    check_gold,
    check_mm1,
    check_mm2,
    gold_trace,
    linear_compose,
    mm1_case,
    mm1_expected_histogram,
    mm_pair,
    mm_pi_phi,
    monomial,
    monomial_fiber,
)
from .cyclotomic import CycInt
from .differential import (
    DiffSummary,
    FourthMoment,
    ddt_rows,
    diff_summary,
    fourth_moment,
)
from .distribution import (
    ABClass,
    BoundPair,
    PreimageDist,
    SurjectivityReport,
    ab_walsh_consequences,
    classify_almost_balanced,
    image_lower_bound,
    imbalance,
    imbalance_defect,
    preimage_bounds,
    preimage_distribution,
    surjectivity_certificate,
)
from .domain import DomainParams, FuncTable
from .errors import (
    BudgetError,
    ConstructionError,
    FileFormatError,
    InternalCheckError,
)
from .field import FieldCtx, default_modulus, is_irreducible
from .fileio import (
    format_binary,
    format_text,
    parse_function_bytes,
    parse_function_file,
    write_function_file,
)
from .plateaued import (
    AmplitudeProfile,
    apn_structure,
    check_diff_two_valued,
    component_profile,
    detect_dto1,
    dto1_check,
    walsh_integrality_check,
)
from .report import AnalysisOptions, run_analysis
from .verdict import CheckResult, combine
from .walsh import WalshVector, spectrum_rows, walsh_point, walsh_row, zero_column

__version__ = "1.0.0"

__all__ = [
    "ABClass",
    "AmplitudeProfile",
    "AnalysisOptions",
    "BoundPair",
    "BudgetError",
    "CheckResult",
    "ConstructionError",
    "CycInt",
    "DiffSummary",
    "DomainParams",
    "FieldCtx",
    "FileFormatError",
    "FourthMoment",
    "FuncTable",
    "InternalCheckError",
    "PreimageDist",
    "SurjectivityReport",
    "WalshVector",
    "ab_walsh_consequences",
    "apn_structure",
    "check_diff_two_valued",
    "check_gold",
    "check_mm1",
    "check_mm2",
    "classify_almost_balanced",
    "combine",
    "component_profile",
    "ddt_rows",
    "default_modulus",
    "detect_dto1",
    "diff_summary",
    "dto1_check",
    "format_binary",
    "format_text",
    "fourth_moment",
    "gold_trace",
    "image_lower_bound",
    "imbalance",
    "imbalance_defect",
    "is_irreducible",
    "linear_compose",
    "mm1_case",
    "mm1_expected_histogram",
    "mm_pair",
    "mm_pi_phi",
    "monomial",
    "monomial_fiber",
    "parse_function_bytes",
    "parse_function_file",
    "preimage_bounds",
    "preimage_distribution",
    "run_analysis",
    "spectrum_rows",
    "surjectivity_certificate",
    "walsh_integrality_check",
    "walsh_point",
    "walsh_row",
    "write_function_file",
    "zero_column",
]
