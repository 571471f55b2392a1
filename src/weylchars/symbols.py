"""Beta-sequences, bi-symbols and signed cycle types.

A beta-sequence (l_1, ..., l_a) of weight n = sum(l_i) - a(a-1)/2 encodes a
virtual character of the symmetric group S_n.  Sorting the entries costs a
sign, a repeated or negative entry kills the symbol, and prepending 0 while
incrementing every entry (a "shift") leaves the encoded character unchanged.
A bi-symbol is a pair of beta-sequences and encodes a virtual character of
the hyperoctahedral group W_n (signed permutations of n letters); signed
cycle types label the conjugacy classes of W_n.

All values are exact Python integers.  Every function here is pure and all
types are immutable; nothing here is memoized (the trace memos of
``wnchars`` and ``snchars`` are module-level dicts, emptied by their
``clear_caches``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, lt


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of 0-based images."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class NormalizedBeta:
    """Result of normalizing a beta-sequence: sign 0 means the zero symbol."""

    sign: int
    entries: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


ZERO_BETA = NormalizedBeta(0, ())


def normalize_beta(entries) -> NormalizedBeta:
    """Sort a beta-sequence into canonical form.

    Returns the zero symbol if entries repeat or any entry is negative;
    otherwise the sign of the sorting permutation together with the sorted
    entries.  Total function, idempotent on canonical sequences.
    """
    entries = tuple(map(index, entries))
    if len(set(entries)) != len(entries) or (entries and min(entries) < 0):
        return ZERO_BETA
    ordered = tuple(sorted(entries))
    if ordered == entries:
        return NormalizedBeta(1, entries)
    order = sorted(range(len(entries)), key=entries.__getitem__)
    return NormalizedBeta(perm_sign(order), ordered)


def shift_beta(entries, d: int = 1) -> tuple[int, ...]:
    """Prepend 0 and increment all entries, d times.  Preserves the weight."""
    entries = tuple(index(x) for x in entries)
    for _ in range(d):
        entries = (0,) + tuple(x + 1 for x in entries)
    return entries


def reduce_beta(entries) -> tuple[int, ...]:
    """Shift-minimal representative of a canonical beta-sequence.

    Inverse of shift_beta: strips a leading 0 and decrements while possible.
    The weight-0 symbol in any presentation reduces to the empty sequence.
    """
    entries = tuple(map(index, entries))
    if not all(map(lt, entries, entries[1:])):
        raise ValueError("reduce_beta expects a strictly increasing sequence")
    if entries and entries[0] < 0:
        raise ValueError("reduce_beta expects non-negative entries")
    # a leading run 0, 1, ..., t-1 is t shifts: strip it, decrement by t
    t = 0
    while t < len(entries) and entries[t] == t:
        t += 1
    return tuple(x - t for x in entries[t:]) if t else entries


def beta_weight(entries) -> int:
    """n such that the sequence is a symbol of S_n (may be negative for junk)."""
    a = len(entries)
    return sum(entries) - a * (a - 1) // 2


def check_weight(symbol_weight: int, class_weight: int):
    """ValueError unless a symbol's weight matches the weight of its class:
    the one weight rule of the S_n and W_n traces and the split checks."""
    if symbol_weight != class_weight:
        raise ValueError(
            f"weight mismatch: symbol has weight {symbol_weight},"
            f" class has weight {class_weight}"
        )


def partition_to_beta(parts) -> tuple[int, ...]:
    """Minimal beta-sequence of a weakly increasing partition: drops the
    zero parts, then adds i-1 to the i-th part.  ``shift_beta`` pads it."""
    parts = tuple(index(p) for p in parts)
    if any(parts[i] > parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly increasing")
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be non-negative")
    parts = tuple(p for p in parts if p > 0)
    return tuple(p + i for i, p in enumerate(parts))


def beta_to_partition(entries) -> tuple[int, ...]:
    """Partition (weakly increasing, no zero parts) of a canonical sequence."""
    entries = tuple(index(x) for x in entries)
    norm = normalize_beta(entries)
    if norm.is_zero or norm.entries != entries:
        raise ValueError("beta_to_partition expects a canonical sequence")
    parts = tuple(x - i for i, x in enumerate(entries))
    return tuple(p for p in parts if p > 0)


def partitions(n: int, _maxpart: int | None = None):
    """All partitions of n as weakly increasing tuples, deterministic order."""
    if _maxpart is None:
        _maxpart = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, _maxpart), 0, -1):
        for rest in partitions(n - p, p):
            yield rest + (p,)


@dataclass(frozen=True)
class BiSymbol:
    """Two-row symbol: a pair of beta-sequences (raw, possibly unsorted)."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "top", tuple(map(index, self.top)))
        object.__setattr__(self, "bottom", tuple(map(index, self.bottom)))

    @property
    def weight(self) -> int:
        return beta_weight(self.top) + beta_weight(self.bottom)


@dataclass(frozen=True)
class NormalizedBiSymbol:
    sign: int
    symbol: BiSymbol

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


def normalize_bisymbol(top, bottom) -> NormalizedBiSymbol:
    """Normalize both rows; the sign is the product of the row signs."""
    nt, nb = normalize_beta(top), normalize_beta(bottom)
    if nt.is_zero or nb.is_zero:
        return NormalizedBiSymbol(0, BiSymbol((), ()))
    return NormalizedBiSymbol(nt.sign * nb.sign, BiSymbol(nt.entries, nb.entries))


def bipartitions(n: int):
    """All ordered pairs of partitions with total size n."""
    for j in range(n + 1):
        for p in partitions(j):
            for p2 in partitions(n - j):
                yield p, p2


def bipartition_to_bisymbol(pair) -> BiSymbol:
    """Minimal canonical bi-symbol of a bipartition."""
    a, b = pair
    return BiSymbol(partition_to_beta(a), partition_to_beta(b))


@dataclass(frozen=True, order=True)
class SignedCycleType:
    """Conjugacy class label of W_n: multisets of positive/negative lengths.

    A positive k-cycle permutes k letters without net sign change; a negative
    k-cycle flips the total sign, so its image in S_2k under the convention
    that letter i also carries a mirror letter i' is a single 2k-cycle.
    """

    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(sorted(index(k) for k in self.pos)))
        object.__setattr__(self, "neg", tuple(sorted(index(k) for k in self.neg)))
        if any(k < 1 for k in self.pos + self.neg):
            raise ValueError("cycle lengths must be >= 1")

    @property
    def weight(self) -> int:
        return sum(self.pos) + sum(self.neg)

    @property
    def in_type_d(self) -> bool:
        """Whether elements of this class have an even number of sign flips."""
        return len(self.neg) % 2 == 0


def signed_cycle_types(n: int):
    """All conjugacy class labels of W_n, deterministic order."""
    return sorted(SignedCycleType(p, q) for p, q in bipartitions(n))
