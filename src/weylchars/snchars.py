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
from operator import mul

from .symbols import (
    BiSymbol,
    SignedCycleType,
    beta_weight,
    normalize_beta,
    partition_to_beta,
    partitions,
    perm_sign,
)

# module-level memo of oracle values, emptied by clear_caches
_ORACLE_CACHE: dict = {}


def clear_caches():
    _ORACLE_CACHE.clear()


def _check_weight(entries, cycles):
    if beta_weight(entries) != sum(cycles):
        raise ValueError(
            f"weight mismatch: symbol {entries} has weight {beta_weight(entries)}"
            f" but class {cycles} has size {sum(cycles)}"
        )


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
    blocks = tuple(int(b) for b in blocks)
    cycles = tuple(sorted((int(c) for c in cycles), reverse=True))
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
    entries = tuple(int(x) for x in entries)
    cycles = tuple(sorted(int(c) for c in cycles))
    if min(cycles, default=1) < 1:
        raise ValueError("cycle lengths must be >= 1")
    if normalize_beta(entries).is_zero:
        return 0  # zero character; the sum below needs matching weights
    _check_weight(entries, cycles)
    key = (entries, cycles)
    val = _ORACLE_CACHE.get(key)
    if val is not None:
        return val
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
        becomes a Fraction.
        """
        order = lcm(*self.centralizers)
        weights = [order // z for z in self.centralizers]
        worst = 0
        for i, row_i in enumerate(self.entries):
            weighted = [x * w for x, w in zip(row_i, weights)]
            for j in range(i, len(self.entries)):
                s = sum(map(mul, weighted, self.entries[j]))
                worst = max(worst, abs(s - (order if i == j else 0)))
        return Fraction(worst, order)

    def is_orthogonal(self) -> bool:
        return self.orthogonality_defect() == 0


SN_TABLE_LIMIT = 8


def character_table_sn(n: int) -> CharacterTable:
    """Character table of S_n: rows keyed by minimal beta-sequences."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > SN_TABLE_LIMIT:
        raise ValueError(f"n={n} exceeds the S_n table bound {SN_TABLE_LIMIT}")
    from .wnchars import _mn, row_bitsets  # wnchars imports this module

    cols = sorted(partitions(n))
    rows = [partition_to_beta(p) for p in sorted(partitions(n))]
    classes = [SignedCycleType(pos=cls).pos for cls in cols]
    entries = []
    for beta in rows:  # the one-row case of character_table_wn
        sign, top, _ = row_bitsets(BiSymbol(beta, ()), n)
        entries.append(tuple(sign * _mn(top, 0, pos, ()) for pos in classes))
    cents = tuple(centralizer_order_sn(cls) for cls in cols)
    return CharacterTable(f"S{n}", tuple(rows), tuple(cols), tuple(entries), cents)
