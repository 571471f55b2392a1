"""Test-side walks of the W_n removal recursion in a forced order, and the
tuple removal kernel the bitset kernel replaced.

The library removes the largest cycle first and memoizes.  These walks
step through the same kernel, ``wnchars.removals`` on row bitsets, in any
order the test chooses and without a memo, so the tests can check that the
order does not change a trace and that one explicit removal step
reproduces it.  ``tuple_removals`` is the earlier kernel on sorted tuples,
kept as the reference the bitset kernel is compared with.
"""

from bisect import bisect_left

from weylchars.symbols import BiSymbol, normalize_bisymbol
from weylchars.wnchars import mask_row, mn_trace_wn, reduce_mask, removals, row_mask


def tuple_removals(row: tuple, k: int) -> list:
    """Every nonzero result of subtracting k from one entry of the row.

    ``row`` is strictly increasing and shift-minimal.  Returns one
    ``(sign, reduced_row)`` pair per entry x, in row order, for which x - k
    is non-negative and not already in the row.  The new entry is inserted
    where it sorts, at j = bisect_left(row, x - k), which moves it past
    i - j entries and so costs the sign (-1)^(i-j); a new leading 0 is
    shifted away, keeping the result shift-minimal.
    """
    out = []
    for i in range(bisect_left(row, k), len(row)):
        y = row[i] - k
        j = bisect_left(row, y)
        if row[j] == y:
            continue  # repeated entry: the zero symbol
        new = row[:j] + (y,) + row[j:i] + row[i + 1 :]
        if y == 0:
            t = 1
            while t < len(new) and new[t] == t:
                t += 1
            new = tuple(x - t for x in new[t:])
        out.append((-1 if (i - j) & 1 else 1, new))
    return out


def _canonical(sym):
    """(sign, top, bottom) with both rows as shift-minimal bitsets; sign 0 is zero."""
    norm = normalize_bisymbol(sym.top, sym.bottom)
    if norm.is_zero:
        return 0, 0, 0
    top, bottom = (reduce_mask(row_mask(row)) for row in (norm.symbol.top, norm.symbol.bottom))
    return norm.sign, top, bottom


def _children(top, bottom, negative, k):
    """(sign, top, bottom) per nonzero child of removing one k-cycle; a
    negative cycle negates the bottom-row children."""
    bottom_sign = -1 if negative else 1
    return [(s, t, bottom) for s, t in removals(top, k)] + [
        (bottom_sign * s, top, b) for s, b in removals(bottom, k)
    ]


def _walk(top, bottom, order):
    if not order:
        return 1
    (negative, k), rest = order[0], order[1:]
    return sum(s * _walk(t, b, rest) for s, t, b in _children(top, bottom, negative, k))


def trace_in_order(sym: BiSymbol, order) -> int:
    """Trace of sym at the class whose cycles are the (negative, k) pairs of
    order, removed in that order."""
    sign, top, bottom = _canonical(sym)
    return sign * _walk(top, bottom, tuple(order)) if sign else 0


def sn_trace_in_order(beta, order) -> int:
    """Trace of a beta-sequence at the cycles of order, removed in that order."""
    return trace_in_order(BiSymbol(beta, ()), [(False, k) for k in order])


def expand_once(sym: BiSymbol, cls, negative: bool, k: int) -> int:
    """One explicit removal step, each child evaluated in full by mn_trace_wn."""
    sign, top, bottom = _canonical(sym)
    if not sign:
        return 0
    rest = cls.remove(negative, k)
    return sign * sum(
        s * mn_trace_wn(BiSymbol(mask_row(t), mask_row(b)), rest)
        for s, t, b in _children(top, bottom, negative, k)
    )
