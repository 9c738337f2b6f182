"""Resource guards.

Exceeding a guard raises ``GuardExceeded`` instead of degrading to an
approximate answer.  ``Guards`` holds the two settable ones: the largest
carrier a ring construction may produce (the CLI's ``--guard`` and
``EXLIFT_GUARD``) and the V-monoid truncation.  No command sets the
truncation and no report names it; it only sizes the box that
``lifting.effective_truncation`` hands to ``vmonoid.build_v_monoid``.  The
fixed bounds are constants next to the check they bound:
``rings.TABLE_ENTRIES`` and ``vmonoid.ENUMERATION``.  ``TABLE_ENTRIES``
bounds |R|^2, the work of a whole-table kernel over R, whether or not the
ring's whole operation tables are ever formed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InvalidSpec

ENV_GUARD = "EXLIFT_GUARD"


@dataclass(frozen=True)
class Guards:
    # Largest carrier a ring construction may produce.
    carrier: int = 65536
    # V-monoid truncation dimension of the box build_v_monoid builds.
    truncation: int = 2

    def with_carrier(self, carrier: int) -> "Guards":
        return replace(self, carrier=carrier)


def default_guards() -> Guards:
    """Guards from defaults and the EXLIFT_GUARD carrier, an integer."""
    raw = os.environ.get(ENV_GUARD)
    g = Guards()
    if raw is not None:
        try:
            g = g.with_carrier(int(raw))
        except ValueError:
            raise InvalidSpec(f"{ENV_GUARD} must be an integer, got {raw!r}")
    return g


DEFAULT = Guards()
