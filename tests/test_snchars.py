import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np
import pytest

from removal_walk import sn_trace_in_order
from weylchars.snchars import (
    CharacterTable,
    centralizer_order_sn,
    character_table_sn,
    mn_trace_sn,
    oracle_trace_sn,
    young_perm_char,
)
from weylchars.symbols import (
    bipartition_to_bisymbol,
    bipartitions,
    partition_to_beta,
    partitions,
    shift_beta,
    signed_cycle_types,
)
from weylchars.wnchars import centralizer_order_wn, character_table_wn, table_entries


def test_trivial_and_sign_characters():
    assert mn_trace_sn((3,), (3,)) == 1
    assert mn_trace_sn((1, 2, 3), (1, 2)) == -1
    for cls in partitions(4):
        assert mn_trace_sn((4,), cls) == 1


def test_standard_examples():
    # frozen from oracle_trace_sn
    assert oracle_trace_sn((1, 3), (1, 1, 1)) == 2
    assert mn_trace_sn((1, 3), (1, 1, 1)) == 2
    assert mn_trace_sn((1, 3), (3,)) == -1


def test_zero_symbol():
    for cls in [(2,), (1, 1)]:
        assert mn_trace_sn((1, 1), cls) == 0
        assert oracle_trace_sn((1, 1), cls) == 0


def test_weight_mismatch_raises():
    with pytest.raises(ValueError):
        mn_trace_sn((1, 3), (2,))
    with pytest.raises(ValueError):
        oracle_trace_sn((1, 3), (1, 1))


def test_a_repeated_oracle_call_reads_the_memo_first(monkeypatch):
    import weylchars.snchars as snchars

    normalized = []
    normalize = snchars.normalize_beta
    monkeypatch.setattr(snchars, "normalize_beta", lambda e: normalized.append(e) or normalize(e))
    snchars.clear_caches()
    # a nonzero symbol, then a zero one, each under two orders of one class
    for entries, cycles, value in (((1, 4), (1, 1, 2), 1), ((1, 1), (1, 2), 0)):
        assert oracle_trace_sn(entries, cycles) == value
        assert oracle_trace_sn(entries, cycles[::-1]) == value
        assert normalized == [entries]
        normalized.clear()
    # a key that raises is never stored, so it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            oracle_trace_sn((1, 3), (1, 1))
    assert ((1, 3), (1, 1)) not in snchars._ORACLE_CACHE


def test_young_perm_char_examples():
    assert young_perm_char((2, 2), (1, 1, 1, 1)) == 6
    assert young_perm_char((2, 2), (2, 2)) == 2
    for cls in partitions(5):
        assert young_perm_char((5,), cls) == 1


def test_young_perm_char_zero_blocks():
    assert young_perm_char((3, 0), (1, 2)) == 1
    assert young_perm_char((0, 0), ()) == 1
    with pytest.raises(ValueError):
        young_perm_char((2, 1), (2, 2))


def young_perm_char_by_assignments(blocks, cycles):
    """Count every assignment of the cycles to the blocks whose block sums
    are the block sizes."""
    count = 0
    for where in itertools.product(range(len(blocks)), repeat=len(cycles)):
        sums = [0] * len(blocks)
        for block, length in zip(where, cycles):
            sums[block] += length
        count += sums == list(blocks)
    return count


def test_young_perm_char_matches_a_count_of_assignments():
    for n in range(7):
        for k in (1, 2, 3):
            for blocks in itertools.product(range(n + 1), repeat=k):
                if sum(blocks) != n:
                    continue
                for cycles in partitions(n):
                    expected = young_perm_char_by_assignments(blocks, cycles)
                    assert young_perm_char(blocks, cycles) == expected, (blocks, cycles)


@pytest.mark.parametrize("bad", [0, -1])
def test_cycle_lengths_below_one_are_rejected(bad):
    with pytest.raises(ValueError, match="cycle lengths must be >= 1"):
        young_perm_char((2, 2), (bad, 4 - bad))
    with pytest.raises(ValueError, match="cycle lengths must be >= 1"):
        oracle_trace_sn((1, 3), (bad, 3 - bad))
    # a zero symbol is no way round the check
    with pytest.raises(ValueError, match="cycle lengths must be >= 1"):
        oracle_trace_sn((1, 1), (bad, 2 - bad))


SN_CALLS = [
    (mn_trace_sn, (1, 3), (1, 1, 1)),
    (oracle_trace_sn, (1, 3), (1, 1, 1)),
    (young_perm_char, (2, 1), (1, 1, 1)),
]


@pytest.mark.parametrize("fraction", [1.9, 1.5])
@pytest.mark.parametrize("trace, first, cycles", SN_CALLS)
def test_fractional_input_is_rejected(trace, first, cycles, fraction):
    # a truncating coercion would read (1.9, 1.9, 1.9) as the class (1, 1, 1)
    with pytest.raises(TypeError):
        trace(first, (fraction,) * 3)
    with pytest.raises(TypeError):
        trace((fraction,) + first[1:], cycles)


@pytest.mark.parametrize("trace, first, cycles", SN_CALLS)
def test_numpy_integer_input_acts_as_ints(trace, first, cycles):
    want = trace(first, cycles)
    got = trace(np.array(first, dtype=np.int64), np.array(cycles, dtype=np.int64))
    assert type(got) is int and got == want


def test_oracle_trivialities():
    for cls in partitions(6):
        assert oracle_trace_sn((6,), cls) == 1
    assert oracle_trace_sn((0, 1, 2), ()) == 1
    assert oracle_trace_sn((), ()) == 1


def test_oracle_equivalence_small():
    for n in range(6):
        for p in partitions(n):
            beta = partition_to_beta(p)
            for cls in partitions(n):
                assert mn_trace_sn(beta, cls) == oracle_trace_sn(beta, cls), (p, cls)


def test_removal_order_independence():
    rng = random.Random(99)
    for n in (4, 5, 6):
        for p in partitions(n):
            beta = partition_to_beta(p)
            for cls in partitions(n):
                reference = mn_trace_sn(beta, cls)
                for _ in range(3):
                    order = list(cls)
                    rng.shuffle(order)
                    assert sn_trace_in_order(beta, order) == reference


def test_shift_invariance():
    for p in partitions(5):
        beta = partition_to_beta(p)
        for cls in partitions(5):
            value = mn_trace_sn(beta, cls)
            for d in (1, 2, 3):
                assert mn_trace_sn(shift_beta(beta, d), cls) == value


def test_linearity_under_permutation():
    beta = (0, 2, 5)
    from weylchars.symbols import perm_sign

    for cls in partitions(4):
        reference = mn_trace_sn(beta, cls)
        for perm in itertools.permutations(range(3)):
            shuffled = tuple(beta[i] for i in perm)
            assert mn_trace_sn(shuffled, cls) == perm_sign(perm) * reference


def test_centralizer_orders():
    assert centralizer_order_sn((1, 1, 1)) == 6
    assert centralizer_order_sn((3,)) == 3
    assert centralizer_order_sn((1, 2)) == 2
    # centralizer orders weight the classes back to the group order
    for n in range(1, 7):
        import math

        total = sum(
            Fraction(math.factorial(n), centralizer_order_sn(c))
            for c in partitions(n)
        )
        assert total == math.factorial(n)


def test_table_small():
    table = character_table_sn(1)
    assert table.entries == ((1,),)
    table = character_table_sn(3)
    assert table.row((1, 3)) == (2, 0, -1)
    assert table.col_labels == ((1, 1, 1), (1, 2), (3,))
    table = character_table_sn(4)
    assert table.value((2, 3), (1, 1, 1, 1)) == 2  # partition (2,2)


def test_table_orthogonality():
    for n in range(1, 7):
        assert character_table_sn(n).is_orthogonal()


def fraction_defect(table):
    """Reference: one Fraction per term of every weighted inner product."""
    return max(
        abs(
            sum(Fraction(x * y, z) for x, y, z in zip(a, b, table.centralizers))
            - (1 if i == j else 0)
        )
        for i, a in enumerate(table.entries)
        for j, b in enumerate(table.entries)
    )


def pairwise_defect(table):
    """Reference: the weighted inner product of every pair of rows i <= j in
    integers, sum(x * y * (N // z)) against N * delta, one pair at a time."""
    order = lcm(*table.centralizers)
    weights = [order // z for z in table.centralizers]
    worst = 0
    for i, row_i in enumerate(table.entries):
        weighted = [x * w for x, w in zip(row_i, weights)]
        for j in range(i, len(table.entries)):
            s = sum(map(mul, weighted, table.entries[j]))
            worst = max(worst, abs(s - (order if i == j else 0)))
    return Fraction(worst, order)


def gram(table):
    """Reference Gram matrix: sum(x * y * (N // z)) for every pair of rows."""
    order = lcm(*table.centralizers)
    weights = [order // z for z in table.centralizers]
    return [[sum(x * y * w for x, y, w in zip(a, b, weights)) for b in table.entries] for a in table.entries]


def with_cells(table, cells):
    """The table with the entry at each (row, column) of ``cells`` replaced."""
    rows = [list(row) for row in table.entries]
    for (i, j), value in cells.items():
        rows[i][j] = value
    return replace(table, entries=tuple(tuple(row) for row in rows))


def test_orthogonality_defect_sees_one_perturbed_entry():
    tables = [character_table_sn(n) for n in range(1, 6)] + [character_table_wn(n) for n in range(6)]
    for table in tables:
        assert table.orthogonality_defect() == fraction_defect(table) == 0
        last, width = len(table.entries) - 1, len(table.col_labels)
        x = table.entries
        # the identity class: every row's value there is its positive degree
        identity = next(c for c in range(width) if all(row[c] > 0 for row in x))
        negative = with_cells(table, {(last, identity): x[last][identity] - 1})
        if last:  # row last now meets every other row with a negative sum
            assert min(gram(negative)[last][:last]) < 0
        # row 0 made constant at +-top, top one more than every |entry|: its
        # Gram diagonal is max|x|^2 sum(N // z), the most the packed width
        # must hold
        top = max(abs(v) for row in x for v in row) + 1
        bound = [with_cells(table, {(0, c): sign * top for c in range(width)}) for sign in (1, -1)]
        order = lcm(*table.centralizers)
        assert gram(bound[1])[0][0] == top**2 * sum(order // z for z in table.centralizers)
        for bad in [
            with_cells(table, {(0, 0): x[0][0] + 1}),
            with_cells(table, {(last, width - 1): x[last][width - 1] + 1}),
            negative,
            *bound,
        ]:
            assert bad.orthogonality_defect() == fraction_defect(bad) > 0
            assert not bad.is_orthogonal()


def test_orthogonality_defect_matches_the_pairwise_loop_on_w7():
    n = 7
    cols = tuple(signed_cycle_types(n))
    rows = tuple(bipartition_to_bisymbol(bp) for bp in sorted(bipartitions(n)))
    cents = tuple(centralizer_order_wn(cls) for cls in cols)
    table = CharacterTable("W7", rows, cols, table_entries(n, rows, cols), cents)
    assert len(rows) == 110
    assert table.orthogonality_defect() == pairwise_defect(table) == 0
    x = table.entries
    for cells in ({(50, 60): x[50][60] + 1}, {(109, 0): x[109][0] - 2, (3, 107): x[3][107] + 5}):
        bad = with_cells(table, cells)
        assert bad.orthogonality_defect() == pairwise_defect(bad) > 0


def test_identity_column_is_dimension():
    for n in range(1, 7):
        table = character_table_sn(n)
        identity = tuple([1] * n)
        for beta in table.row_labels:
            assert table.value(beta, identity) >= 1


def test_table_entries_match_the_trace():
    # the builder normalizes each row once; every cell must still be the trace
    for n in range(8):
        table = character_table_sn(n)
        for beta, row in zip(table.row_labels, table.entries):
            assert row == tuple(mn_trace_sn(beta, cls) for cls in table.col_labels), beta


def test_table_bound():
    for n in (9, -1):
        with pytest.raises(ValueError):
            character_table_sn(n)
