"""Property tests for the removal kernel and the recursion built on it.

Random raw symbols (unsorted, shifted so that they hold 0, sometimes with a
repeated entry) are evaluated by the recursion and by the independent
oracles; the bitset kernel itself is compared with the normalize-then-reduce
step and with the tuple kernel it replaced.  Examples are derandomized so
every run sees the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from removal_walk import sn_trace_in_order, trace_in_order, tuple_removals
from weylchars.snchars import mn_trace_sn, oracle_trace_sn
from weylchars.symbols import (
    BiSymbol,
    normalize_beta,
    partition_to_beta,
    partitions,
    reduce_beta,
    shift_beta,
    signed_cycle_types,
)
from weylchars.wnchars import mask_row, mn_trace_wn, oracle_trace_wn, reduce_mask, removals, row_mask

FEW = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def raw_rows(draw, weight: int, max_len: int):
    """A beta-sequence of the given weight in raw form.

    The partition is padded by up to a few shifts (leading zeros), the
    entries are shuffled, and sometimes one entry copies another, which
    makes the zero symbol.
    """
    parts = draw(st.sampled_from(list(partitions(weight))))
    length = draw(st.integers(len(parts), max(len(parts), max_len)))
    padded = shift_beta(partition_to_beta(parts), length - len(parts))
    row = list(draw(st.permutations(padded)))
    if len(row) > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.permutations(range(len(row))))[:2]
        row[i] = row[j]
    return tuple(row)


@st.composite
def wn_cases(draw, max_weight: int, max_len: int):
    """A bi-symbol with both rows in raw form, and a class of its weight."""
    n = draw(st.integers(0, max_weight))
    r = draw(st.integers(0, n))
    sym = BiSymbol(draw(raw_rows(r, max_len)), draw(raw_rows(n - r, max_len)))
    return sym, draw(st.sampled_from(signed_cycle_types(n)))


@st.composite
def sn_cases(draw, max_weight: int, max_len: int):
    n = draw(st.integers(0, max_weight))
    beta = draw(raw_rows(n, max_len))
    return beta, draw(st.sampled_from(list(partitions(n))))


@FEW
@given(wn_cases(max_weight=4, max_len=5))
def test_wn_recursion_matches_oracle_on_raw_symbols(case):
    sym, cls = case
    assert mn_trace_wn(sym, cls) == oracle_trace_wn(sym, cls)


@FEW
@given(sn_cases(max_weight=7, max_len=7))
def test_sn_recursion_matches_oracle_on_raw_symbols(case):
    beta, cls = case
    assert mn_trace_sn(beta, cls) == oracle_trace_sn(beta, cls)


@FEW
@given(wn_cases(max_weight=6, max_len=7), st.randoms(use_true_random=False))
def test_wn_removal_order_independence(case, rng):
    sym, cls = case
    order = [(False, k) for k in cls.pos] + [(True, k) for k in cls.neg]
    rng.shuffle(order)
    assert trace_in_order(sym, order) == mn_trace_wn(sym, cls)


@FEW
@given(sn_cases(max_weight=8, max_len=8), st.randoms(use_true_random=False))
def test_sn_removal_order_independence(case, rng):
    beta, cls = case
    order = list(cls)
    rng.shuffle(order)
    assert sn_trace_in_order(beta, order) == mn_trace_sn(beta, cls)


def normalized_step(row, k):
    """Subtract k from each entry in turn, then normalize and reduce."""
    out = []
    for i in range(len(row)):
        norm = normalize_beta(row[:i] + (row[i] - k,) + row[i + 1 :])
        if not norm.is_zero:
            out.append((norm.sign, reduce_beta(norm.entries)))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sets(st.integers(1, 24), max_size=9), st.integers(1, 12))
def test_removals_match_normalized_step(entries, k):
    row = tuple(sorted(entries))  # positive entries: shift-minimal
    got = [(sign, mask_row(mask)) for sign, mask in removals(row_mask(row), k)]
    assert got == normalized_step(row, k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sets(st.integers(0, 40), max_size=14), st.integers(1, 30))
def test_bitset_kernel_matches_tuple_kernel(entries, k):
    mask = reduce_mask(row_mask(entries))  # any set, made shift-minimal
    row = mask_row(mask)
    assert [(sign, mask_row(new)) for sign, new in removals(mask, k)] == tuple_removals(row, k)
