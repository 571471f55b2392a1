"""Test-side walks of the W_n removal recursion in a forced order, and the
tuple removal kernel the bitset kernel replaced.

The library removes the largest cycle first and memoizes.  These walks
step through the same kernel, ``wnchars.removals`` on row bitsets, in any
order the test chooses and without a memo, so the tests can check that the
order does not change a trace and that one explicit removal step
reproduces it.  ``tuple_removals`` is the earlier kernel on sorted tuples,
kept as the reference the bitset kernel is compared with.

It also holds the helpers that only tests read: the product and inverse
of explicit signed permutations (``sp_mul``, ``sp_inv``), the signed cycle
type of one (``sp_cycle_type``), one cycle removed from a class
(``remove_cycle``) and the type-D admissibility of a split as tuple rows
(``split_admissible_d``).
"""

from bisect import bisect_left

from weylchars.symbols import BiSymbol, SignedCycleType
from weylchars.verifications import pair_sum_free
from weylchars.wnchars import _cycle_spans, mask_row, mn_trace_wn, removals, row_bitsets


def sp_mul(u, v):
    """Compose signed permutations: (u*v)(i) = u(v(i))."""
    out = []
    for i in range(len(u)):
        j = v[i]
        out.append(u[j - 1] if j > 0 else -u[-j - 1])
    return tuple(out)


def sp_inv(u):
    out = [0] * len(u)
    for i, j in enumerate(u, start=1):
        if j > 0:
            out[j - 1] = i
        else:
            out[-j - 1] = -i
    return tuple(out)


def sp_cycle_type(u) -> SignedCycleType:
    """Signed cycle type of a signed permutation."""
    spans = _cycle_spans(u)
    return SignedCycleType(
        tuple(k for _, _, negative, k in spans if not negative),
        tuple(k for _, _, negative, k in spans if negative),
    )


def remove_cycle(cls: SignedCycleType, negative: bool, k: int) -> SignedCycleType:
    """The class with one negative (or positive) k-cycle fewer."""
    row = list(cls.neg if negative else cls.pos)
    row.remove(k)
    if negative:
        return SignedCycleType(cls.pos, tuple(row))
    return SignedCycleType(tuple(row), cls.neg)


def split_admissible_d(top, bottom, m: int) -> bool:
    """Both rows avoid entry pairs summing to 2m-1."""
    return pair_sum_free(top, 2 * m - 1) and pair_sum_free(bottom, 2 * m - 1)


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
    sign, top, bottom = row_bitsets(sym, sym.weight)
    return sign * _walk(top, bottom, tuple(order)) if sign else 0


def sn_trace_in_order(beta, order) -> int:
    """Trace of a beta-sequence at the cycles of order, removed in that order."""
    return trace_in_order(BiSymbol(beta, ()), [(False, k) for k in order])


def expand_once(sym: BiSymbol, cls, negative: bool, k: int) -> int:
    """One explicit removal step, each child evaluated in full by mn_trace_wn."""
    sign, top, bottom = row_bitsets(sym, sym.weight)
    if not sign:
        return 0
    rest = remove_cycle(cls, negative, k)
    return sign * sum(
        s * mn_trace_wn(BiSymbol(mask_row(t), mask_row(b)), rest)
        for s, t, b in _children(top, bottom, negative, k)
    )
