"""Constructive zero-sum subset certificates for sum-full subsets of abelian groups."""

from .char3 import (AdditiveQuadruple, AuditReport, SubgroupHandle, ZeroSumList, audit_char3,
                    chain_extract, fp_basis, is_sidon, olson_bound, subgroup_closure)
from .errors import (BudgetExceeded, InternalVerificationError, MatrixClassError,
                     NotSumFullError, ShapeMismatch)
from .extractor import Trail, ZeroSumCertificate, build_matrix, extract, verify_certificate
from .gen import GenConfig, SplitMix64, random_matrix, random_set, random_sumfull_set
from .groups import GroupElement, GroupSpec, add, negate, scalar_sum, zero
from .oracle import (brute_force_zero_sum, enumerate_class, max_zero_sum_free_length,
                     quadruple_oracle)
from .sumfull import InputSet, RepresentationTable, check_sum_full
from .witness import (ConstraintMatrix, WitnessSubset, all_witnesses, find_witness,
                      validate_membership, verify_witness)

__version__ = "0.1.0"

__all__ = [
    "AdditiveQuadruple", "AuditReport", "BudgetExceeded", "ConstraintMatrix", "GenConfig",
    "GroupElement", "GroupSpec", "InputSet", "InternalVerificationError", "MatrixClassError",
    "NotSumFullError", "RepresentationTable", "ShapeMismatch",
    "SplitMix64", "SubgroupHandle", "Trail", "WitnessSubset", "ZeroSumCertificate", "ZeroSumList",
    "add", "all_witnesses", "audit_char3", "brute_force_zero_sum", "build_matrix", "chain_extract",
    "check_sum_full", "enumerate_class", "extract", "find_witness",
    "fp_basis", "is_sidon", "max_zero_sum_free_length", "negate", "olson_bound", "quadruple_oracle",
    "random_matrix", "random_set", "random_sumfull_set", "scalar_sum",
    "subgroup_closure", "validate_membership", "verify_certificate", "verify_witness", "zero",
]
