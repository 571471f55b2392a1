"""Virtual characters of symmetric groups from beta-sequences.

Two independent evaluation routes are kept side by side on purpose:

* ``mn_trace_sn`` peels one cycle at a time off the class, subtracting its
  length from each symbol entry in turn (a beta-sequence form of the
  classical border-strip recursion).  It has no recursion of its own: a
  beta-sequence is the one-row case of a bi-symbol, so it calls the W_n
  removal kernel in ``wnchars`` with an empty bottom row and positive
  cycles;
* ``oracle_trace_sn`` expands the symbol as an alternating sum over
  permutations of Young-subgroup permutation characters, each evaluated by
  counting distributions of cycles into blocks.

The test suite checks the two against each other exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from operator import index, mul

from .symbols import (
    BiSymbol,
    SignedCycleType,
    beta_weight,
    check_weight,
    normalize_beta,
    partition_to_beta,
    partitions,
    perm_sign,
)

# module-level memo of oracle values, emptied by clear_caches
_ORACLE_CACHE: dict = {}


def clear_caches():
    _ORACLE_CACHE.clear()


def mn_trace_sn(entries, cycles) -> int:
    """Trace of the virtual character of a beta-sequence at a cycle type.

    ``cycles`` is the multiset of cycle lengths, each at least 1.  Raises
    ValueError when the symbol weight does not match the class size.
    Evaluated as the one-row case of the W_n recursion: a bi-symbol with an
    empty bottom row at a class of positive cycles.
    """
    from .wnchars import mn_trace_wn  # wnchars imports this module

    return mn_trace_wn(BiSymbol(entries, ()), SignedCycleType(pos=cycles))


def young_perm_char(blocks, cycles) -> int:
    """Number of ways to assign each cycle to a block, filling every block.

    ``blocks`` is a composition (labeled block sizes, zeros allowed); a block
    of size b must receive cycles of total length exactly b.  This is the
    value of the permutation character of the Young subgroup with those
    block sizes.  The cycles are placed one at a time, longest first, into
    every block with room left, memoized on (cycles placed, room left).
    """
    blocks = tuple(index(b) for b in blocks)
    cycles = tuple(sorted((index(c) for c in cycles), reverse=True))
    if min(cycles, default=1) < 1:
        raise ValueError("cycle lengths must be >= 1")
    if any(b < 0 for b in blocks):
        raise ValueError("block sizes must be non-negative")
    if sum(blocks) != sum(cycles):
        raise ValueError("total block size must equal total cycle length")

    @cache
    def place(placed, room):
        if placed == len(cycles):
            return 1
        c = cycles[placed]
        return sum(
            place(placed + 1, room[:j] + (r - c,) + room[j + 1 :])
            for j, r in enumerate(room)
            if r >= c
        )

    return place(0, blocks)


def oracle_trace_sn(entries, cycles) -> int:
    """Alternating-sum evaluation, independent of the removal recursion.

    Sums sgn(sigma) * young_perm_char over all permutations sigma of the
    entries, with block sizes entry[sigma(i)] - i + 1 (terms with a negative
    block vanish).  The zero, sign and sorting rules of the symbol calculus
    all fall out of the sum, so raw unsorted sequences are fine.
    """
    entries = tuple(index(x) for x in entries)
    cycles = tuple(sorted(index(c) for c in cycles))
    if min(cycles, default=1) < 1:
        raise ValueError("cycle lengths must be >= 1")
    # only a key that passed the checks below is ever stored
    key = (entries, cycles)
    val = _ORACLE_CACHE.get(key)
    if val is not None:
        return val
    if normalize_beta(entries).is_zero:
        _ORACLE_CACHE[key] = 0  # zero character; the sum below needs matching weights
        return 0
    check_weight(beta_weight(entries), sum(cycles))
    a = len(entries)
    total = 0
    for perm in itertools.permutations(range(a)):
        blocks = tuple(entries[perm[i]] - i for i in range(a))
        if any(b < 0 for b in blocks):
            continue
        total += perm_sign(perm) * young_perm_char(blocks, cycles)
    _ORACLE_CACHE[key] = total
    return total


def centralizer_order_sn(cycles) -> int:
    """Order of the centralizer of an element with the given cycle type."""
    z = 1
    for length in set(cycles):
        m = tuple(cycles).count(length)
        z *= length**m * factorial(m)
    return z


@dataclass(frozen=True)
class CharacterTable:
    """Exact character table with per-class centralizer orders.

    Rows are canonical symbols, columns are class labels; entries[i][j] is
    the trace of row i at class j.
    """

    group: str
    row_labels: tuple
    col_labels: tuple
    entries: tuple
    centralizers: tuple

    def row(self, label):
        return self.entries[self.row_labels.index(label)]

    def value(self, row_label, col_label) -> int:
        return self.entries[self.row_labels.index(row_label)][
            self.col_labels.index(col_label)
        ]

    def orthogonality_defect(self):
        """Max deviation of weighted row inner products from the identity.

        With N the lcm of the centralizer orders (the group order), each
        inner product sum(x * y / z) is checked as the integer sum
        sum(x * y * (N // z)) against N * delta; only the worst deviation
        becomes a Fraction.  The sums are formed on packed integers: with
        w_c = N // z_c and b one bit more than N and max|x|^2 sum w_c need,
        every Gram entry (and N) lies in (-2^(b-1), 2^(b-1)), so the weighted
        column P_c = w_c sum_i x_ic 2^(b i) makes sum_c x_jc P_c row j of the
        Gram matrix, one signed b-bit digit per row i.  A row passes when it
        is N << (b j); only a failing row is unpacked into its digits.
        """
        order = lcm(*self.centralizers)
        weights = [order // z for z in self.centralizers]
        biggest = max((abs(x) for row in self.entries for x in row), default=0)
        bits = max(biggest * biggest * sum(weights), order).bit_length() + 1
        packed = [
            w * sum(x << (bits * i) for i, x in enumerate(column))
            for w, column in zip(weights, zip(*self.entries))
        ]
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        worst = 0
        for j, row in enumerate(self.entries):
            gram = sum(map(mul, row, packed))
            if gram == order << (bits * j):
                continue
            for i in range(len(self.entries)):
                digit = ((gram + half) & mask) - half
                gram = (gram - digit) >> bits
                worst = max(worst, abs(digit - (order if i == j else 0)))
        return Fraction(worst, order)

    def is_orthogonal(self) -> bool:
        return self.orthogonality_defect() == 0


SN_TABLE_LIMIT = 8


def character_table_sn(n: int) -> CharacterTable:
    """Character table of S_n: rows keyed by minimal beta-sequences, each
    the one-row case of a W_n row at classes of positive cycles."""
    from .wnchars import check_table_bound, table_entries  # wnchars imports this module

    check_table_bound("S_n", n, SN_TABLE_LIMIT)
    cols = tuple(sorted(partitions(n)))
    rows = tuple(partition_to_beta(p) for p in cols)
    syms = [BiSymbol(beta, ()) for beta in rows]
    entries = table_entries(n, syms, [SignedCycleType(pos=p) for p in cols])
    cents = tuple(centralizer_order_sn(cls) for cls in cols)
    return CharacterTable(f"S{n}", rows, cols, entries, cents)
