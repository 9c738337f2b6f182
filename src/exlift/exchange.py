"""Exchange-ring and exchange-ideal predicates, decided by theorem.

A finite ring R is semiperfect: R/J(R) = prod M_{n_i}(F_{q_i})
(Wedderburn-Artin) and idempotents lift modulo J(R).  A semiperfect ring is
an exchange ring (Warfield 1972; Nicholson 1977), and every ideal of an
exchange ring is an exchange ideal (Ara 1997, *Extensions of exchange
rings*).  So both predicates hold on every ring exlift builds.  Each
establishes its premise with ``vmonoid._wedderburn_data``, which reads
R/J(R) off the class keys of R's idempotents and raises on a ring where
that reading fails, and then states the theorem.  No element is searched:
the exchange witnesses (e, r, s) of single elements are test oracles, and
the tests check these verdicts against them.
"""

from __future__ import annotations

from .errors import InvalidSpec
from .rings import FiniteRing, Ideal
from .vmonoid import _wedderburn_data


def is_exchange_ring(ring: FiniteRing) -> bool:
    """R is an exchange ring: it is finite, hence semiperfect."""
    _wedderburn_data(ring)
    return True


def is_exchange_ideal(ring: FiniteRing, ideal: Ideal) -> bool:
    """I is an exchange ideal: every ideal of an exchange ring is one."""
    if ideal.ring is not ring:
        raise InvalidSpec("ideal belongs to a different ring")
    return is_exchange_ring(ring)
