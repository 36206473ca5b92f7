"""Incentive-aligned statistical contracts built from e-values.

A principal (regulator) licenses profit to an agent (experimenter) as a
function of trial evidence. Menus whose license functions are rescaled
e-values make bluffing unprofitable; this package provides the license
algebra, the agent's closed-form best responses, principal welfare curves,
an approval-protocol audit, and the multi-round dynamic program with its
supermartingale alignment checks.
"""

from .gaussian import (
    GaussianModel,
    RandomStream,
    replicate_rng,
    sample_normal,
    upper_tail,
    upper_tail_inverse,
)
from .licenses import (
    LicenseFn,
    Menu,
    constant_license,
    is_evalue,
    is_incentive_aligned,
    null_expectation,
)
from .single_round import (
    AgentDecision,
    Contract,
    agent_decide,
    np_best_response,
    posterior_null_share,
    status_quo_license,
)
from .welfare import (
    HIGH_SEVERITY,
    LOW_SEVERITY,
    MaximinReport,
    TypeMixture,
    WelfareSpec,
    aligned_contract,
    expected_market_size,
    maximin_check,
    principal_utility,
    status_quo_contract,
    welfare_curve,
)
from .fda import (
    AuditRow,
    Protocol,
    Verdict,
    audit_table,
    builtin_protocols,
    classify,
    matches_reference,
    placebo_expected_value,
)
from . import multiround

__version__ = "0.1.0"
