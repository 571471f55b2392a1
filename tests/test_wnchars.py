import itertools
import random
from collections import Counter
from math import factorial

import pytest

from removal_walk import (
    expand_once,
    remove_cycle,
    sp_cycle_type,
    sp_inv,
    sp_mul,
    trace_in_order,
)
from weylchars.symbols import (
    BiSymbol,
    SignedCycleType,
    bipartition_to_bisymbol,
    bipartitions,
    shift_beta,
    signed_cycle_types,
)
from weylchars.wnchars import (
    _induction_profile,
    centralizer_order_wn,
    character_table_wn,
    chi_value,
    class_representative,
    induce,
    mn_trace_wn,
    oracle_trace_wn,
    wn_elements,
)


def test_trivial_character():
    sym = BiSymbol((4,), ())
    for cls in signed_cycle_types(4):
        assert mn_trace_wn(sym, cls) == 1


def test_flip_counting_character():
    # bottom-only symbol of a full row is the flip-counting character
    for n in (1, 2, 3):
        sym = BiSymbol((), (n,))
        for cls in signed_cycle_types(n):
            assert mn_trace_wn(sym, cls) == chi_value(cls)


def test_chi_value_examples():
    assert chi_value(SignedCycleType((3,), ())) == 1
    assert chi_value(SignedCycleType((), (1, 3))) == 1
    assert chi_value(SignedCycleType((1,), (1,))) == -1


def test_chi_multiplicative():
    a = SignedCycleType((2,), (1,))
    b = SignedCycleType((1,), (3, 3))
    union = SignedCycleType(a.pos + b.pos, a.neg + b.neg)
    assert chi_value(union) == chi_value(a) * chi_value(b)


def test_small_closed_form_values():
    assert mn_trace_wn(BiSymbol((0, 1), (2,)), SignedCycleType((), (2,))) == -1
    assert mn_trace_wn(BiSymbol((1,), (0,)), SignedCycleType((), (1,))) == 1
    assert mn_trace_wn(BiSymbol((0,), (1,)), SignedCycleType((), (1,))) == -1


def test_zero_symbol_and_weight_errors():
    assert mn_trace_wn(BiSymbol((1, 1), (0,)), SignedCycleType((), (2,))) == 0
    with pytest.raises(ValueError):
        mn_trace_wn(BiSymbol((2,), ()), SignedCycleType((), (1,)))


def test_oracle_small_group():
    sym = BiSymbol((1,), (0,))
    for cls in signed_cycle_types(1):
        assert oracle_trace_wn(sym, cls) == 1
    assert oracle_trace_wn(BiSymbol((0,), (1,)), SignedCycleType((), (1,))) == -1


def test_oracle_dimension():
    sym = BiSymbol((1, 2), (2,))
    identity = SignedCycleType((1, 1, 1, 1), ())
    assert oracle_trace_wn(sym, identity) == 6


def test_oracle_bound():
    sym = BiSymbol((6,), ())
    with pytest.raises(ValueError):
        oracle_trace_wn(sym, SignedCycleType((6,), ()))


def test_oracle_equivalence_w5():
    # every entry of the W_5 table against the literal induced sum
    table = character_table_wn(5)
    assert len(table.row_labels) == len(table.col_labels) == 36
    for sym, row in zip(table.row_labels, table.entries):
        for cls, value in zip(table.col_labels, row):
            assert oracle_trace_wn(sym, cls) == value, (sym, cls)


def test_induction_profile_counts_every_conjugate():
    n = 4
    elements = wn_elements(n)
    assert len(elements) == 2**n * factorial(n)
    blocked_classes = 0
    for cls in signed_cycle_types(n):
        rep = class_representative(cls)
        profile = _induction_profile(n, rep)
        assert len(profile) == n + 1
        # every conjugate stabilizes the empty set and the whole of 1..n
        assert sum(count for _, count in profile[0]) == len(elements)
        assert sum(count for _, count in profile[n]) == len(elements)
        in_block = 0
        for x in elements:
            h = sp_mul(sp_mul(x, rep), sp_inv(x))
            in_block += all(abs(v) <= 2 for v in h[:2])
        assert sum(count for _, count in profile[2]) == in_block
        blocked_classes += in_block > 0
        # conjugation keeps the signed cycle type: at r = n the first block
        # is the whole class, at r = 0 the second
        assert profile[n] == ((((cls.pos, cls.neg), ((), ())), len(elements)),)
        assert profile[0] == (((((), ()), (cls.pos, cls.neg)), len(elements)),)
    # cycle lengths 1111 (5 sign patterns), 211 (6) and 22 (3) split 2 + 2
    assert blocked_classes == 14


def test_oracle_equivalence_n3():
    for n in range(4):
        for pair in bipartitions(n):
            sym = bipartition_to_bisymbol(pair)
            for cls in signed_cycle_types(n):
                assert mn_trace_wn(sym, cls) == oracle_trace_wn(sym, cls), (pair, cls)


def test_oracle_equivalence_spot_n4():
    # the exhaustive n=4 sweep lives in the acceptance suite
    sym = bipartition_to_bisymbol(((1,), (1, 2)))
    for cls in [
        SignedCycleType((), (1, 1, 2)),
        SignedCycleType((2,), (1, 1)),
        SignedCycleType((), (4,)),
    ]:
        assert mn_trace_wn(sym, cls) == oracle_trace_wn(sym, cls)


def test_removal_order_independence():
    rng = random.Random(7)
    for n in (2, 3):
        for pair in bipartitions(n):
            sym = bipartition_to_bisymbol(pair)
            for cls in signed_cycle_types(n):
                reference = mn_trace_wn(sym, cls)
                cycles = [(False, k) for k in cls.pos] + [(True, k) for k in cls.neg]
                for _ in range(3):
                    rng.shuffle(cycles)
                    assert trace_in_order(sym, list(cycles)) == reference


def test_single_step_expansion_matches():
    # removing a negative k-cycle when the remainder has no negative k-cycle
    # and no positive 2k-cycle must reproduce the full value
    for n in (3, 4):
        for pair in bipartitions(n):
            sym = bipartition_to_bisymbol(pair)
            for cls in signed_cycle_types(n):
                for k in set(cls.neg):
                    rest = remove_cycle(cls, True, k)
                    if k in rest.neg or 2 * k in rest.pos:
                        continue
                    assert expand_once(sym, cls, True, k) == mn_trace_wn(sym, cls)


def test_simultaneous_row_shift_invariance():
    for pair in bipartitions(3):
        sym = bipartition_to_bisymbol(pair)
        for cls in signed_cycle_types(3):
            value = mn_trace_wn(sym, cls)
            for d in (1, 2):
                shifted = BiSymbol(shift_beta(sym.top, d), shift_beta(sym.bottom, d))
                assert mn_trace_wn(shifted, cls) == value


def test_independent_row_shift_is_harmless():
    # rows encode partitions independently, so padding one row only is fine
    sym = BiSymbol((1,), (0,))
    padded = BiSymbol(shift_beta((1,), 2), (0,))
    for cls in signed_cycle_types(1):
        assert mn_trace_wn(sym, cls) == mn_trace_wn(padded, cls)


def test_induce_counts_the_subsets_a_class_fixes():
    # inducing the trivial character of W_r x W_{n-r} gives the permutation
    # character on r-subsets: an element fixes the unions of its cycles
    for n in range(6):
        for cls in signed_cycle_types(n):
            cycles = cls.pos + cls.neg
            for r in range(n + 1):
                fixed = sum(
                    sum(chosen) == r
                    for size in range(len(cycles) + 1)
                    for chosen in itertools.combinations(cycles, size)
                )
                assert induce(n, r, cls, lambda b1, b2: 1) == fixed, (n, r, cls)


def test_induce_rejects_bad_input():
    with pytest.raises(ValueError, match="weight mismatch"):
        induce(4, 2, SignedCycleType((1,), ()), lambda b1, b2: 1)
    for r in (-1, 5):  # -1 would silently read the entry for r = n
        with pytest.raises(ValueError, match="r must be in 0..4"):
            induce(4, r, SignedCycleType((1, 1, 1, 1), ()), lambda b1, b2: 1)


def test_type_d_membership_matches_flips():
    for w in wn_elements(3):
        flips = sum(1 for v in w if v < 0)
        assert sp_cycle_type(w).in_type_d == (flips % 2 == 0)


def test_class_representative_roundtrip():
    for cls in signed_cycle_types(4):
        assert sp_cycle_type(class_representative(cls)) == cls


def test_centralizers_weight_to_group_order():
    from fractions import Fraction

    for n in range(1, 5):
        order = 2**n * factorial(n)
        total = sum(
            Fraction(order, centralizer_order_wn(c)) for c in signed_cycle_types(n)
        )
        assert total == order
        # each class, counted element by element, has |W_n| / centralizer members
        sizes = Counter(sp_cycle_type(w) for w in wn_elements(n))
        assert sorted(sizes) == signed_cycle_types(n)
        for cls, size in sizes.items():
            assert size * centralizer_order_wn(cls) == order, cls


def test_table_w1():
    table = character_table_wn(1)
    assert len(table.row_labels) == 2
    neg = SignedCycleType((), (1,))
    pos = SignedCycleType((1,), ())
    trivial = BiSymbol((1,), ())
    flip = BiSymbol((), (1,))
    assert table.value(trivial, pos) == 1 and table.value(trivial, neg) == 1
    assert table.value(flip, pos) == 1 and table.value(flip, neg) == -1


def test_table_w2_closed_form_entry():
    table = character_table_wn(2)
    assert len(table.row_labels) == 5
    sym = BiSymbol((), (2,))  # the shift-minimal form of ((0, 1), (2,))
    assert table.value(sym, SignedCycleType((), (2,))) == -1


def test_table_orthogonality_and_dimensions():
    for n in range(1, 5):
        table = character_table_wn(n)
        assert table.is_orthogonal()
        identity = SignedCycleType(tuple([1] * n), ())
        for sym in table.row_labels:
            assert table.value(sym, identity) >= 1


def test_table_entries_match_the_trace():
    # the builder normalizes each row once; every cell must still be the trace
    for n in range(6):
        table = character_table_wn(n)
        for sym, row in zip(table.row_labels, table.entries):
            assert row == tuple(mn_trace_wn(sym, cls) for cls in table.col_labels), sym


def test_table_bound():
    for n in (7, -1):
        with pytest.raises(ValueError):
            character_table_wn(n)
