"""Resource guards.

Every exhaustive construction or search in the library is bounded by one of
these knobs.  Exceeding a guard raises ``GuardExceeded`` instead of degrading
to an approximate answer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_GUARD = "EXLIFT_GUARD"


@dataclass(frozen=True)
class Guards:
    # Largest carrier a ring construction may produce.
    carrier: int = 65536
    # Largest n*n operation table we will materialize (entries, per table).
    table_entries: int = 2**24
    # Largest vector space enumerated: the |R/J|**d vectors behind a class key.
    enumeration: int = 2**25
    # try_inverse solves A*x = e_j over |R|**n candidate columns and refuses
    # when |R|**n exceeds 16 times this.
    search_candidates: int = 200_000
    # Default V-monoid truncation dimension.
    truncation: int = 2

    def with_carrier(self, carrier: int) -> "Guards":
        return replace(self, carrier=carrier)


def default_guards() -> Guards:
    """Guards from defaults, honouring the EXLIFT_GUARD carrier override."""
    raw = os.environ.get(ENV_GUARD)
    g = Guards()
    if raw is not None:
        try:
            g = g.with_carrier(int(raw))
        except ValueError:
            raise ValueError(f"{ENV_GUARD} must be an integer, got {raw!r}")
    return g


DEFAULT = Guards()
