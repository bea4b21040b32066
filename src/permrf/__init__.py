"""Exact arithmetic in towers of finite fields and batch verification of
trace-quotient permutation rational functions x -> L(x) + c/(Tr(x) + b).

Everything is deterministic: field elements are canonical integer
encodings, random sampling is seeded, and reports serialize to stable
bytes.  See the README for the command line surface.
"""

from .bivariate import (
    BivarPoly,
    build_f2,
    build_f3,
    build_f3_kernel,
    conjugate_factor_search,
    count_offdiag_points,
    eval_poly,
    norm_poly,
    weil_holds,
    weil_threshold,
)
from .errors import PermRFError, SizeBudgetExceeded, UsageError
from .gf_core import (
    DEFAULT_SIZE_BUDGET,
    FieldTower,
    basis_det_b,
    make_tower,
)
from .linmaps import (
    LinearizedPoly,
    compose,
    dual_basis,
    invert_lin,
    matrix_of,
    rank_kernel_image,
    trace_decompose,
)
from .ratfunc import (
    Criterion,
    KernelCriterion,
    RatFuncSpec,
    classify_c,
    closed_form_c,
    eval_rf,
    is_permutation,
    is_permutation_direct,
    is_permutation_reduced,
    kernel_criterion,
    lifted_c_set,
    normalize_spec,
    pairwise_criterion,
    remark3_check,
)
from .verify import (
    SuiteReport,
    reports_to_csv,
    reports_to_json,
    run_battery,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BivarPoly",
    "Criterion",
    "DEFAULT_SIZE_BUDGET",
    "FieldTower",
    "KernelCriterion",
    "LinearizedPoly",
    "PermRFError",
    "RatFuncSpec",
    "SizeBudgetExceeded",
    "SuiteReport",
    "UsageError",
    "basis_det_b",
    "build_f2",
    "build_f3",
    "build_f3_kernel",
    "classify_c",
    "closed_form_c",
    "compose",
    "conjugate_factor_search",
    "count_offdiag_points",
    "dual_basis",
    "eval_poly",
    "eval_rf",
    "invert_lin",
    "is_permutation",
    "is_permutation_direct",
    "is_permutation_reduced",
    "kernel_criterion",
    "lifted_c_set",
    "make_tower",
    "matrix_of",
    "norm_poly",
    "normalize_spec",
    "pairwise_criterion",
    "rank_kernel_image",
    "remark3_check",
    "reports_to_csv",
    "reports_to_json",
    "run_battery",
    "run_suite",
    "trace_decompose",
    "weil_holds",
    "weil_threshold",
]
