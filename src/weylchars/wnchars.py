"""Virtual characters of hyperoctahedral groups from bi-symbols.

W_n is realized as signed permutations: an element maps letter i to a
letter w(i) with a sign, stored as a tuple of nonzero integers in
(-n..-1, 1..n).  A bi-symbol (top row of weight r, bottom row of weight
r') encodes the character obtained by pulling the two symmetric-group
characters back to W_r x W_r', twisting the second factor by the
flip-counting character chi, and inducing up to W_n.

``mn_trace_wn`` evaluates by cycle removal: a negative k-cycle expands with
+ signs on the top row and - signs on the bottom row, a positive k-cycle
with + signs on both.  One kernel, ``removals``, does every removal step of
the memoized recursion ``_mn``, and the S_n traces of ``snchars`` are its
one-row case (bottom bitset 0).  The recursion works on row bitsets: an int
whose bit x is set when x is an entry, shift-minimal (bit 0 clear).  Tuples
exist only at the API edge: ``row_bitsets`` normalizes a symbol, checks it
and converts each row with ``row_mask`` and ``reduce_mask`` (``mask_row`` is
the way back), once per trace in ``mn_trace_wn`` and once per row in
``table_entries``, the one table loop, which the S_n tables share.  The
split checks of ``verifications`` build bitsets and call ``_mn``.
``oracle_trace_wn`` evaluates the inducing construction literally on an
explicitly enumerated group (n <= 6) and is the correctness reference for
the recursion.

Induction is one sum, ``induce(n, r, cls, value)``: it weighs each pair of
block classes of W_r x W_{n-r} by the class function ``value`` and divides
by the subgroup order.  The pairs and their counts come from the cached
``_induction_profile(n)``, one pass over the elements of W_n that sorts
every class's members lying in each block subgroup by their pair of block
classes.  By orbit-stabilizer each member stands for |W_n| / |class|
conjugates of a class representative; both orders are counted in the same
pass, so the oracle shares no code with the recursion or the tables.
``induce`` serves both the oracle (any r) and the induced linear characters
of lemma 2.17 in ``verifications`` (n = 4, r = 2).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial

from .snchars import CharacterTable, centralizer_order_sn, oracle_trace_sn
from .symbols import (
    BiSymbol,
    SignedCycleType,
    beta_weight,
    bipartition_to_bisymbol,
    bipartitions,
    check_weight,
    normalize_bisymbol,
    signed_cycle_types,
)

_MN_CACHE: dict = {}

WN_ORACLE_LIMIT = 6
WN_TABLE_LIMIT = 6
# largest symbol entry: a row bitset holds one bit per value up to its top entry
WN_ENTRY_LIMIT = 1 << 20


def clear_caches():
    _MN_CACHE.clear()


def chi_value(cls: SignedCycleType) -> int:
    """The sign-flip counting character: -1 to the number of negative cycles."""
    return -1 if len(cls.neg) % 2 else 1


def mn_trace_wn(sym: BiSymbol, cls: SignedCycleType) -> int:
    """Trace of the bi-symbol character at a signed cycle type."""
    sign, top, bottom = row_bitsets(sym, cls.weight)
    if not sign:
        return 0  # the zero character, whatever the class
    return sign * _mn(top, bottom, cls.pos, cls.neg)


def row_bitsets(sym: BiSymbol, weight: int):
    """``(sign, top, bottom)``: the normalized symbol as shift-minimal row
    bitsets, or ``(0, 0, 0)`` for the zero character.  ValueError if a
    nonzero symbol is not of the given weight or has an entry past the bound."""
    norm = normalize_bisymbol(sym.top, sym.bottom)
    if norm.is_zero:
        return 0, 0, 0
    check_weight(sym.weight, weight)
    top, bottom = norm.symbol.top, norm.symbol.bottom
    for row in (top, bottom):
        if row and row[-1] >= WN_ENTRY_LIMIT:
            raise ValueError(
                f"symbol entry {row[-1]} exceeds the row bitset bound {WN_ENTRY_LIMIT}"
            )
    return norm.sign, reduce_mask(row_mask(top)), reduce_mask(row_mask(bottom))


def row_mask(row) -> int:
    """Bitset of a row of distinct non-negative entries: bit x set for each entry x."""
    mask = 0
    for x in row:
        mask |= 1 << x
    return mask


def mask_row(mask: int) -> tuple:
    """The sorted entries of a row bitset; the inverse of ``row_mask``."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def reduce_mask(mask: int) -> int:
    """Shift-minimal form of a row bitset.

    A run of set bits 0, 1, ..., t-1 is t shifts: drop it and move the rest
    down by t.
    """
    return mask >> ((mask ^ (mask + 1)).bit_length() - 1)


def removals(mask: int, k: int) -> list:
    """Every nonzero result of subtracting k from one entry of the row.

    ``mask`` is a shift-minimal row bitset (bit 0 clear).  Returns one
    ``(sign, reduced_mask)`` pair per entry x, lowest first, for which
    y = x - k is non-negative and not already an entry, that is per set bit
    y of ``(mask >> k) & ~mask``.  Moving the entry from x down to y passes
    the entries strictly between them, so the sign is -1 to their count; a
    new entry 0 is shifted away, keeping the result shift-minimal.
    """
    out = []
    free = (mask >> k) & ~mask
    while free:
        low = free & -free  # bit y
        free ^= low
        high = low << k  # bit x
        new = mask ^ high | low
        if low == 1:
            new = reduce_mask(new)
        out.append((-1 if (mask & (high - 1) & -low).bit_count() & 1 else 1, new))
    return out


def _mn(top: int, bottom: int, pos, neg) -> int:
    """Memoized trace at the class (pos, neg) of the canonical bi-symbol
    with shift-minimal row bitsets top and bottom."""
    key = (top, bottom, pos, neg)
    val = _MN_CACHE.get(key)
    if val is None:
        if not (pos or neg):
            val = 1  # weight 0: both reduced rows are empty
        else:
            # largest cycle first, negative winning ties: entries shrink
            # fastest, so most children die; a negative cycle negates every
            # bottom-row child
            if neg and (not pos or neg[-1] >= pos[-1]):
                k, neg, bottom_sign = neg[-1], neg[:-1], -1
            else:
                k, pos, bottom_sign = pos[-1], pos[:-1], 1
            val = 0
            for s, t in removals(top, k):
                val += s * _mn(t, bottom, pos, neg)
            for s, b in removals(bottom, k):
                val += bottom_sign * s * _mn(top, b, pos, neg)
        _MN_CACHE[key] = val
    return val


# --- explicit signed permutations (oracle route) ---


def _cycle_spans(h):
    """(lowest letter, highest letter, negative, length) of each cycle of h.

    A cycle is negative when its sign product is -1.
    """
    n = len(h)
    seen = [False] * n
    spans = []
    for i in range(1, n + 1):
        if seen[i - 1]:
            continue
        j, length, sign, high = i, 0, 1, i
        while not seen[j - 1]:
            seen[j - 1] = True
            img = h[j - 1]
            if img < 0:
                sign = -sign
            j = abs(img)
            high = max(high, j)
            length += 1
        # every letter below i is in an earlier cycle, so i is this one's lowest
        spans.append((i, high, sign == -1, length))
    return spans


@lru_cache(maxsize=None)
def wn_elements(n: int):
    """All 2^n n! signed permutations of n letters."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple(s * p for s, p in zip(signs, perm)))
    return tuple(out)


@lru_cache(maxsize=None)
def _induction_profile(n: int):
    """Every class of W_n sorted into the block subgroups, in one pass.

    One pass over ``wn_elements(n)`` decomposes each element h once into
    cycle spans (elements with the same spans are handled once), reads its
    class as the ``(pos, neg)`` pair of its cycle lengths and counts the
    members of each class.  Entry r of a class's profile (r = 0..n) sorts
    the members h that stabilize {1..r}, that is lie in W_r x W_{n-r}, by
    the pair of signed cycle types of h on {1..r} and on {r+1..n}; each type
    is a plain ``(pos, neg)`` pair of sorted length tuples, and each entry a
    sorted tuple of ``(pair, count)`` items.  Each member counts
    |W_n| / |class| times, the number of x with x rep x^-1 = h for a fixed
    representative rep, so entry r counts the conjugates of rep over all of
    W_n; both orders are counted in the pass, and ArithmeticError is raised
    if the division is not exact.  The result maps each class to its
    profile; ``induce`` is its one reader.
    """
    shapes = Counter(tuple(_cycle_spans(h)) for h in wn_elements(n))
    members = Counter()
    counts = {}
    for spans, times in shapes.items():
        spans = sorted(spans, key=lambda span: span[3])
        cls = (
            tuple(length for _, _, negative, length in spans if not negative),
            tuple(length for _, _, negative, length in spans if negative),
        )
        members[cls] += times
        profile = counts.setdefault(cls, [{} for _ in range(n + 1)])
        cut = [True] * (n + 1)
        for low, high, _, _ in spans:
            cut[low:high] = [False] * (high - low)  # r in low..high-1 splits it
        for r in range(n + 1):
            if not cut[r]:
                continue
            first, second = ([], []), ([], [])
            for low, high, negative, length in spans:
                (first if high <= r else second)[negative].append(length)
            key = (
                (tuple(first[0]), tuple(first[1])),
                (tuple(second[0]), tuple(second[1])),
            )
            profile[r][key] = profile[r].get(key, 0) + times
    order = sum(shapes.values())
    out = {}
    for cls, profile in counts.items():
        weight, rest = divmod(order, members[cls])
        if rest:
            raise ArithmeticError(
                f"class {cls} has {members[cls]} members, which does not divide |W_{n}| = {order}"
            )
        out[cls] = tuple(
            tuple(sorted((key, weight * count) for key, count in entry.items())) for entry in profile
        )
    return out


def induce(n: int, r: int, cls: SignedCycleType, value) -> int:
    """Trace at cls of a class function of W_r x W_{n-r} induced to W_n.

    ``value(block1, block2)`` is the class function at a pair of block
    classes, each a ``(pos, neg)`` pair of sorted length tuples.  The sum
    over the conjugates of a class representative in the block subgroup,
    read from the class's entry r of ``_induction_profile(n)``, must be
    divisible by its order 2^n r! (n-r)!.
    """
    if cls.weight != n:
        raise ValueError(
            f"weight mismatch: inducing to W_{n} needs weight {n},"
            f" class has weight {cls.weight}"
        )
    if not 0 <= r <= n:
        raise ValueError(f"r must be in 0..{n}, got {r}")
    total = 0
    for (block1, block2), count in _induction_profile(n)[cls.pos, cls.neg][r]:
        total += count * value(block1, block2)
    order = 2**n * factorial(r) * factorial(n - r)
    if total % order:
        raise ArithmeticError("induced sum not divisible by the subgroup order")
    return total // order


def oracle_trace_wn(sym: BiSymbol, cls: SignedCycleType) -> int:
    """Literal evaluation of the inducing construction on the full group.

    Builds W_n explicitly, sorts the class's members over the block
    subgroups in the one pass of ``_induction_profile``, and induces the
    block-subgroup class function (product of two symmetric-group
    characters, the second twisted by chi) from W_r x W_r'.  The two
    symmetric-group values come from oracle_trace_sn at the underlying cycle
    types, and the class sizes are counted on the elements, so no step here
    shares code with the removal recursion or the centralizer orders of the
    tables.
    """
    if normalize_bisymbol(sym.top, sym.bottom).is_zero:
        return 0
    n = cls.weight
    check_weight(sym.weight, n)
    if n > WN_ORACLE_LIMIT:
        raise ValueError(f"oracle bound exceeded: n={n} > {WN_ORACLE_LIMIT}")

    def value(block1, block2):
        (pos1, neg1), (pos2, neg2) = block1, block2
        chi = -1 if len(neg2) % 2 else 1
        return chi * oracle_trace_sn(sym.top, pos1 + neg1) * oracle_trace_sn(sym.bottom, pos2 + neg2)

    return induce(n, beta_weight(sym.top), cls, value)


def centralizer_order_wn(cls: SignedCycleType) -> int:
    """Centralizer order in W_n: (2k)^m m! per cycle length k of each kind,
    that is 2 per cycle times the S_n centralizers of the two kinds."""
    return 2 ** len(cls.pos + cls.neg) * centralizer_order_sn(cls.pos) * centralizer_order_sn(cls.neg)


def check_table_bound(group: str, n: int, limit: int):
    """ValueError unless 0 <= n <= limit, the bound of the ``group`` table."""
    if not 0 <= n <= limit:
        raise ValueError(
            f"n must be >= 0, got {n}" if n < 0 else f"n={n} exceeds the {group} table bound {limit}"
        )


def table_entries(n: int, syms, classes) -> tuple:
    """Entry rows of the bi-symbols ``syms`` of weight n at the signed
    classes ``classes``: one normalization per row, then the memo per cell.
    The S_n tables pass their one-row case, bi-symbols with an empty bottom
    row at classes of positive cycles."""
    classes = [(cls.pos, cls.neg) for cls in classes]
    entries = []
    for sym in syms:
        sign, top, bottom = row_bitsets(sym, n)
        entries.append(tuple(sign * _mn(top, bottom, pos, neg) for pos, neg in classes))
    return tuple(entries)


def character_table_wn(n: int) -> CharacterTable:
    """Character table of W_n: rows keyed by minimal canonical bi-symbols."""
    check_table_bound("W_n", n, WN_TABLE_LIMIT)
    cols = tuple(signed_cycle_types(n))
    rows = tuple(bipartition_to_bisymbol(bp) for bp in sorted(bipartitions(n)))
    cents = tuple(centralizer_order_wn(cls) for cls in cols)
    return CharacterTable(f"W{n}", rows, cols, table_entries(n, rows, cols), cents)
