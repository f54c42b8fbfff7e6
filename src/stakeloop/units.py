"""Time conventions used throughout the package.

Rates are continuously accruing annual fractions (0.03 means 3% per year).
Timestamps at module interfaces are UTC seconds; durations are converted to
years with a fixed 365-day year, the convention used by on-chain rate math.
"""

SECONDS_PER_YEAR = 365 * 24 * 3600
SECONDS_PER_DAY = 24 * 3600
SECONDS_PER_HOUR = 3600
