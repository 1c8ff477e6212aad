"""The independence search that the BR and TBRSC walks are checked against.

A set X is independent for a closure cl when its elements can be ordered so
that each leaves the closure of the earlier ones. The search below tries the
orders prefix by prefix, memoising each prefix's answer, and shares nothing
with the library's level walks.
"""

from brsc.core import bits


def independent_order(cl, X):
    """An order of X's elements in which each leaves the closure cl of the
    earlier ones, or None when there is none."""
    memo = {}

    def extend(placed):
        # an order of X - placed extending the prefix placed, or None
        if placed == X:
            return []
        if placed not in memo:
            memo[placed] = None
            for x in bits(X & ~placed & ~cl(placed)):
                rest = extend(placed | 1 << x)
                if rest is not None:
                    memo[placed] = [x] + rest
                    break
        return memo[placed]

    return extend(0)
