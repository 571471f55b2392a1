"""Test-side walks of the W_n removal recursion in a forced order.

The library removes the largest cycle first and memoizes.  These walks
step through the same kernel, ``wnchars.removals``, in any order the test
chooses and without a memo, so the tests can check that the order does
not change a trace and that one explicit removal step reproduces it.
"""

from weylchars.symbols import BiSymbol, normalize_bisymbol
from weylchars.wnchars import mn_trace_wn, removals


def _canonical(sym):
    """(sign, top, bottom) with both rows sorted and shift-minimal; sign 0 is zero."""
    norm = normalize_bisymbol(sym.top, sym.bottom)
    if norm.is_zero:
        return 0, (), ()
    reduced = norm.symbol.reduced()
    return norm.sign, reduced.top, reduced.bottom


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
        s * mn_trace_wn(BiSymbol(t, b), rest)
        for s, t, b in _children(top, bottom, negative, k)
    )
