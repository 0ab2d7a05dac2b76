"""latwav: reduced Lawton systems, lattice encodings, and cross-dimension
transfer of Parseval-frame scaling filters under dyadic dilations."""

from .cascade import CascadeGrid, cascade_step, initial_grid, run_cascade, support_bounding_box, translate_gram
from .encode import EncodingParams, IndexWindow, additivity_holds, decode_index, decode_support, encode_index, encode_support, enumerate_windows, flatten_point, radix_encode
from .intlat import DilationMatrix, IntMatrix, SnfFactorization, from_adapted, in_dilated_lattice, is_expansive, smith_normal_form, to_adapted
from .lawton import Equation, ReducedSystem, SupportSet, build_reduced_system, equations_equal_up_to_conjugation, generated_equation, restrict_index_set
from .quincunx import shannon_coeff, sublattice_premise, support_pattern
from .transfer import Filter, IsoMap, TransferReport, from_one_d, shift_normalize, to_one_d, transfer, verify_isomorphism
from .verify import ResidualReport, lawton_residuals, qmf_check

__version__ = "0.1.0"

__all__ = [
    "CascadeGrid", "DilationMatrix", "EncodingParams", "Equation", "Filter",
    "IndexWindow", "IntMatrix", "IsoMap", "ReducedSystem", "ResidualReport",
    "SnfFactorization", "SupportSet", "TransferReport", "additivity_holds",
    "build_reduced_system", "cascade_step", "decode_index", "decode_support",
    "encode_index", "encode_support",
    "enumerate_windows", "equations_equal_up_to_conjugation", "flatten_point",
    "from_adapted", "from_one_d", "generated_equation", "in_dilated_lattice",
    "initial_grid", "is_expansive", "lawton_residuals", "qmf_check",
    "radix_encode", "restrict_index_set", "run_cascade", "shannon_coeff",
    "shift_normalize", "smith_normal_form",
    "sublattice_premise", "support_bounding_box", "support_pattern",
    "to_adapted", "to_one_d", "transfer", "translate_gram",
    "verify_isomorphism",
]
