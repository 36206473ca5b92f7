"""Incentive audit of simplified drug-approval protocols.

Each protocol is reduced to a single number: the probability that a placebo
gets approved. The audit asks whether running a trial on a known placebo has
positive expected value (approval probability times market profit, minus the
trial cost). Money is handled as integer thousands of dollars internally so
the emitted tables are bit-exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

# Verdict band: expected values within 2% of the trial cost in either
# direction count as borderline.
DEFAULT_BAND = 0.02

DEFAULT_TRIAL_COST = 50_000_000
DEFAULT_PROFITS = (1_000_000_000, 10_000_000_000, 100_000_000_000)


class Verdict(str, enum.Enum):
    ALIGNED = "aligned"
    BORDERLINE = "borderline"
    NOT_ALIGNED = "not_aligned"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class Protocol:
    name: str
    p_null_approval: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_null_approval <= 1.0:
            raise ValueError(
                f"approval probability must lie in [0, 1], got {self.p_null_approval}"
            )


def builtin_protocols() -> list[Protocol]:
    """The three simplified approval protocols.

    standard: significance in two independent trials at one-sided 0.025,
    so 0.025^2 = 0.000625. modernized: one trial at the stricter single-study
    standard, 0.005. accelerated: either of two trials at two-sided 0.05,
    1 - 0.975^2 = 0.049375, quoted as 0.0494.
    """
    return [
        Protocol("standard", 0.000625),
        Protocol("modernized", 0.005),
        Protocol("accelerated", 0.0494),
    ]


@dataclass(frozen=True)
class AuditRow:
    protocol: str
    p_null_approval: float
    profit: int  # dollars
    cost: int  # dollars
    expected_value: int  # dollars, rounded to the nearest thousand
    verdict: Verdict


def _to_thousands(dollars: float) -> int:
    return round(dollars / 1000.0)


def placebo_expected_value(p: float, profit: float, cost: float) -> int:
    """p * profit - cost in dollars, exact at thousand-dollar resolution."""
    if cost <= 0.0:
        raise ValueError(f"trial cost must be positive, got {cost}")
    cost_thousands = _to_thousands(cost)
    if cost_thousands == 0:
        raise ValueError(
            f"trial cost {cost} rounds to 0 thousand dollars; the audit counts "
            "money in thousands, so the cost must exceed 500"
        )
    ev_thousands = round(p * _to_thousands(profit)) - cost_thousands
    return ev_thousands * 1000


def classify(ev: float, cost: float, band: float = DEFAULT_BAND) -> Verdict:
    """Verdict from the expected value of a placebo trial.

    aligned when the placebo loses more than band*cost, not_aligned when it
    gains more than band*cost, borderline in between.
    """
    if cost <= 0.0:
        raise ValueError(f"trial cost must be positive, got {cost}")
    if band < 0.0:
        raise ValueError(f"band must be nonnegative, got {band}")
    margin = band * cost
    if ev > margin:
        return Verdict.NOT_ALIGNED
    if ev < -margin:
        return Verdict.ALIGNED
    return Verdict.BORDERLINE


def audit_table(
    protocols: Sequence[Protocol] | None = None,
    profits: Sequence[float] | None = None,
    cost: float = DEFAULT_TRIAL_COST,
    band: float = DEFAULT_BAND,
) -> list[AuditRow]:
    """Audit rows for every (protocol, profit) pair."""
    if protocols is None:
        protocols = builtin_protocols()
    if profits is None:
        profits = DEFAULT_PROFITS
    rows = []
    for proto in protocols:
        for profit in profits:
            ev = placebo_expected_value(proto.p_null_approval, profit, cost)
            rows.append(
                AuditRow(
                    protocol=proto.name,
                    p_null_approval=proto.p_null_approval,
                    profit=round(profit),
                    cost=round(cost),
                    expected_value=ev,
                    verdict=classify(ev, cost, band),
                )
            )
    return rows


# Reference verdicts for the default audit (three builtin protocols crossed
# with 1B/10B/100B profits at 50M trial cost); the CLI refuses to emit a
# default table that disagrees.
REFERENCE_VERDICTS = {
    ("standard", 1_000_000_000): Verdict.ALIGNED,
    ("standard", 10_000_000_000): Verdict.ALIGNED,
    ("standard", 100_000_000_000): Verdict.NOT_ALIGNED,
    ("modernized", 1_000_000_000): Verdict.ALIGNED,
    ("modernized", 10_000_000_000): Verdict.BORDERLINE,
    ("modernized", 100_000_000_000): Verdict.NOT_ALIGNED,
    ("accelerated", 1_000_000_000): Verdict.BORDERLINE,
    ("accelerated", 10_000_000_000): Verdict.NOT_ALIGNED,
    ("accelerated", 100_000_000_000): Verdict.NOT_ALIGNED,
}


def matches_reference(rows: Sequence[AuditRow]) -> bool:
    """True iff the rows carry exactly the committed default verdicts."""
    seen = {(row.protocol, row.profit): row.verdict for row in rows}
    return seen == REFERENCE_VERDICTS
