"""Exact abundancy-index arithmetic and friend-of-10 candidate filtering.

The library splits into arbitrary-precision integer arithmetic (`arith`),
index algebra and friend detection (`abundancy`), the structured-candidate
filter chain (`friend10`), segmented resumable scanning (`scan`), and
exhaustive verification suites (`verify`). The `friendly` command exposes
all of it.
"""

from .abundancy import (
    FriendPair,
    SolitaryVerdict,
    abundancy_index,
    are_friends,
    find_friends,
    index_upper_bound,
    solitary_certificate,
)
from .arith import (
    FactoringBudgetError,
    Factorization,
    crt,
    factorize,
    is_prime,
    multiplicative_order,
    p_adic_valuation,
    sigma,
    sigma_prime_power,
)
from .friend10 import (
    TARGET_INDEX,
    Candidate,
    FilterReport,
    OrderParams,
    ResidueClass,
    RuleResult,
    Verdict,
    am_gm_sigma_bound,
    congruence_sum_check,
    derive_residue_class,
    divides_sigma_even_power,
    enumerate_structured,
    eq1_check,
    exponent_filter_mod27,
    exponent_filter_mod3,
    filter_chain,
    lower_bound,
    nine_exact_divisibility,
    omega_lower_bound,
    prime_support_filter,
    sigma5_mod8,
    smallest_odd_f,
    structural_precheck,
)
from .scan import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointVersionError,
    ScanOutcome,
    ScanRecord,
    checkpoint_load,
    checkpoint_save,
    scan,
    scan_range,
)
from .sieve import SieveBudgetError, sigma_range
from .verify import SUITE_NAMES, SuiteResult, run_suites

__version__ = "0.1.0"
