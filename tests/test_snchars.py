import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from removal_walk import sn_trace_in_order
from weylchars.snchars import (
    centralizer_order_sn,
    character_table_sn,
    mn_trace_sn,
    oracle_trace_sn,
    young_perm_char,
)
from weylchars.symbols import partition_to_beta, partitions, shift_beta


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


def test_orthogonality_defect_sees_one_perturbed_entry():
    for n in range(1, 6):
        table = character_table_sn(n)
        assert table.orthogonality_defect() == fraction_defect(table) == 0
        for i, j in ((0, 0), (len(table.entries) - 1, len(table.col_labels) - 1)):
            rows = [list(row) for row in table.entries]
            rows[i][j] += 1
            bad = replace(table, entries=tuple(tuple(row) for row in rows))
            assert bad.orthogonality_defect() == fraction_defect(bad) > 0
            assert not bad.is_orthogonal()


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
