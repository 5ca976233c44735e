"""Exact rational arithmetic. Every exact result of the core is a rational.
Floats only propose LP solutions, which simplex.solve then proves optimal
exactly, and estimate Monte-Carlo profits.

gmpy2.mpq is used when available (it is 10-20x faster than fractions.Fraction
and hash/comparison compatible with it); otherwise we fall back to Fraction.
"""

from __future__ import annotations

from functools import lru_cache

try:
    from gmpy2 import mpq as Q

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q

    HAVE_GMPY2 = False

ZERO = Q(0)
ONE = Q(1)
HALF = Q(1, 2)


def rat(x) -> Q:
    """Coerce ints, 'p/q' strings, and rational-likes to the rational type."""
    if isinstance(x, str):
        if "/" in x:
            p, q = x.split("/", 1)
            return Q(int(p), int(q))
        return Q(int(x))
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass an int or 'p/q' string")
    return Q(x)


@lru_cache(maxsize=1024)
def rat_str(x) -> str:
    """Render as 'p/q' (or bare integer when the denominator is 1). Memoized,
    so reports that keep many equal numbers hold one copy of each string."""
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
