"""Completely regular codes with covering radius 1 in Hamming graphs H(n,q)."""

from .hamming import Code, Space
from .parameters import (ConditionOneWitness, FeasibilityVerdict, check_condition1,
                         eigenvalue, feasible, feasible_h3q, feasible_hnq, feasible_table,
                         multiplicity, solve_condition1)
from .verifier import (CrcCertificate, CrcFailure, check_crc, clique_profile,
                       distance_partition, essential_positions, extend_code,
                       hyperface_profile, reduce_code)
from .constructions import (build_a, build_b, build_c, build_d, build_feasible,
                            build_index1, build_index3)
from .search import SearchConstraints, SearchSummary, enumerate_crcs
from .structure import classify, clique_cover, extract_construction_d

__version__ = "0.1.0"

__all__ = [
    "Space", "Code",
    "CrcCertificate", "CrcFailure", "check_crc", "distance_partition",
    "hyperface_profile", "clique_profile", "essential_positions",
    "reduce_code", "extend_code",
    "ConditionOneWitness", "FeasibilityVerdict", "eigenvalue", "multiplicity",
    "check_condition1", "solve_condition1", "feasible_h3q", "feasible_hnq",
    "feasible", "feasible_table",
    "build_a", "build_b", "build_c", "build_d", "build_index1", "build_index3",
    "build_feasible",
    "SearchConstraints", "SearchSummary", "enumerate_crcs",
    "classify", "clique_cover", "extract_construction_d",
]
