"""Exhaustive checks of the trace and multiplicity identities.

The distinguished classes here have one negative cycle of each even length
2, 4, ..., 2m (weight m^2 + m) or of each odd length 1, 3, ..., 2m-1
(weight m^2).  Splitting {0, ..., 2m} or {0, ..., 2m-1} into the two rows
of a bi-symbol and evaluating at the matching class gives closed-form
traces; summing them with alternating signs over all splits gives the
multiplicity of the distinguished constituent, which must come out to
exactly 1.  Each check enumerates every split and reports counterexamples
rather than stopping at the first.  Each rule is written once: Lemmas 2.6
and 2.9 share one split-trace comparison, ``_trace_failures`` (a sign on
admissible splits, 0 on the rest), and differ only in the sign, a constant
for 2.6 and one read off the bottom bitset for 2.9; Propositions 2.11 and
2.12 share one multiplicity check, ``_multiplicity_check``.

A split is a pair of row bitsets (``bc_splits``, ``d_splits``): bit x is
set when x is an entry.  A bitset needs no sorting and the rows are
disjoint, so there is no symbol to normalize: each split's two bitsets are
reduced and handed straight to the memoized recursion of ``wnchars``.
The weight guard runs once per sweep, since every split of one universe
has the same weight.  Admissibility reads the bottom bitset alone, the
parity counts are popcounts against the even and the high entries, and the
tuple predicates (``split_admissible_bc`` ...) state the same conditions
entry by entry.  A row becomes a tuple, through ``mask_row``, only in a
counterexample.

Lemma 2.17 induces the linear characters of the block subgroup W_2 x W_2
to W_4 through ``wnchars.induce``, the one induction sum, which the oracle
reads too: it hands ``induce`` each linear character as a function of the
two block classes.

Claim ids (lemma26, prop211, ...) are the stable tokens of the CLI verify
interface.  ``CLAIMS`` is the one place the claims are defined, with the
valid and the default values of each swept parameter; every swept check
validates its parameter through ``claim_params``, which reads them.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .report import CheckRecord, run_check
from .symbols import BiSymbol, SignedCycleType, check_weight, signed_cycle_types
from .wnchars import (
    _mn,
    induce,
    mask_row,
    mn_trace_wn,
    reduce_mask,
    row_mask,
)

SO5_DEFAULT_Q = 3
SO5_DEFAULT_SAMPLES = 200

# a claim's integer parameter: its name, the values the check accepts and
# the values ``verify <claim>`` and ``verify all`` run
Sweep = namedtuple("Sweep", "param values defaults")

# lemma217 (W_4 only) and so5 (a field size and a sample count) are not swept
CLAIMS = {
    "lemma26": Sweep("m", range(0, 11), range(0, 6)),
    "lemma27": Sweep("m", range(0, 11), range(0, 6)),
    "lemma29": Sweep("m", range(1, 11), range(1, 6)),
    "lemma210": Sweep("m'", range(1, 6), range(1, 3)),
    "prop211": Sweep("m", range(1, 11), range(1, 6)),
    "prop212": Sweep("m", range(2, 11, 2), range(2, 5, 2)),
    "lemma217": None,
    "so5": None,
}


def claim_params(claim: str, value: int) -> str:
    """The params string of a swept claim's record at value, such as ``m=3``;
    ValueError, naming the parameter, if the claim does not take the value."""
    param, values, _ = CLAIMS[claim]
    if value not in values:
        even = "even " if values.step == 2 and values.start % 2 == 0 else ""
        raise ValueError(
            f"{claim} needs {even}{param} within {values[0]}..{values[-1]}"
        )
    return f"{param}={value}"


def even_negative_cycles(m: int) -> SignedCycleType:
    """Negative cycles of lengths 2, 4, ..., 2m; weight m^2 + m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return SignedCycleType((), tuple(2 * i for i in range(1, m + 1)))


def odd_negative_cycles(m: int) -> SignedCycleType:
    """Negative cycles of lengths 1, 3, ..., 2m-1; weight m^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return SignedCycleType((), tuple(2 * i - 1 for i in range(1, m + 1)))


def pair_sum_free(row, total: int) -> bool:
    """No two distinct entries of the row sum to the given total."""
    return all(x + y != total for x, y in itertools.combinations(row, 2))


def _splits(size: int, m: int):
    """(top, bottom) row bitsets of every split of {0..size-1} into m bottom
    entries and the rest, bottom rows in lexicographic order."""
    full = (1 << size) - 1
    for bits in itertools.combinations([1 << x for x in range(size)], m):
        b = sum(bits)
        yield full ^ b, b


def bc_splits(m: int):
    """Splits of {0..2m} into a bottom row of size m and its complement."""
    return _splits(2 * m + 1, m)


def d_splits(m: int):
    """Splits of {0..2m-1} into two rows of size m (bottom row chosen)."""
    return _splits(2 * m, m)


def split_admissible_bc(top, bottom, m: int) -> bool:
    """Both rows avoid entry pairs summing to 2m."""
    return pair_sum_free(top, 2 * m) and pair_sum_free(bottom, 2 * m)


def count_even(row) -> int:
    return sum(1 for x in row if x % 2 == 0)


def _admissible(size: int, m: int):
    """Admissibility of a split of {0..size-1} with m bottom entries, as a
    test of its bottom bitset: no row holds two entries summing to size - 1,
    as ``split_admissible_bc`` and its type-D partner in
    ``tests/removal_walk.py`` say entry by entry.  Such pairs are the mirror
    pairs (x, size-1-x), x < m, so each needs one entry per row: the
    bottom's low m bits are the complement of its high m bits reversed."""
    low, shift = (1 << m) - 1, size - m
    reverse = [0] * (1 << m)  # the m-bit reversal of each index
    for h in range(1, 1 << m):
        reverse[h] = reverse[h >> 1] >> 1 | (h & 1) << (m - 1)
    return lambda b: (b & low) ^ reverse[b >> shift] == low


def _split_trace(cls: SignedCycleType, size: int, m: int):
    """The trace at cls of a split of {0..size-1} with m bottom entries, as
    a function of its two row bitsets.

    The rows of a split are disjoint bitsets, so only the shift is left to
    normalize; and every split of these sizes has one weight, m (size - m)
    (that of rows m..size-1 and 0..m-1), so the weight guard of
    ``mn_trace_wn`` runs here, once for the whole sweep.
    """
    check_weight(m * (size - m), cls.weight)
    pos, neg = cls.pos, cls.neg
    return lambda top, bottom: _mn(reduce_mask(top), reduce_mask(bottom), pos, neg)


def _split_text(top: int, bottom: int) -> str:
    return f"top={mask_row(top)} bottom={mask_row(bottom)}"


def _signed_split_sum(splits, size: int, m: int, cls: SignedCycleType) -> int:
    """Sum over the splits of the trace at cls, negated when the bottom row
    holds an odd number of even entries."""
    trace = _split_trace(cls, size, m)
    even = row_mask(range(0, size, 2))
    total = 0
    for t, b in splits:
        value = trace(t, b)
        total += -value if (b & even).bit_count() & 1 else value
    return total


def _trace_failures(splits, size: int, m: int, cls: SignedCycleType, on_admissible):
    """A failure for each split of {0..size-1} with m bottom entries whose
    trace at cls is not ``on_admissible(bottom)`` when admissible, 0
    otherwise."""
    trace = _split_trace(cls, size, m)
    admissible = _admissible(size, m)
    for t, b in splits:
        expected = on_admissible(b) if admissible(b) else 0
        got = trace(t, b)
        if got != expected:
            yield f"split {_split_text(t, b)}: expected {expected}, got {got}"


def check_lemma26(m: int) -> CheckRecord:
    """Every split traces to (-1)^((m^2+m)/2) at the even-cycle class when
    admissible, and to 0 otherwise."""
    params = claim_params("lemma26", m)
    cls = even_negative_cycles(m)
    sign = (-1) ** ((m * m + m) // 2)
    return run_check(
        "lemma26", params, lambda: _trace_failures(bc_splits(m), 2 * m + 1, m, cls, lambda b: sign)
    )


def check_lemma27(m: int) -> CheckRecord:
    """For admissible splits, the count of even bottom entries has the
    parity of (m^2+m)/2."""
    params = claim_params("lemma27", m)
    even = row_mask(range(0, 2 * m + 1, 2))
    parity = (m * m + m) // 2 % 2

    def scan():
        admissible = _admissible(2 * m + 1, m)
        for t, b in bc_splits(m):
            if admissible(b) and (b & even).bit_count() % 2 != parity:
                yield f"split {_split_text(t, b)}: even-count parity off"

    return run_check("lemma27", params, scan)


def check_lemma29(m: int) -> CheckRecord:
    """Every split traces to (-1)^(N + m(m-1)/2) at the odd-cycle class when
    admissible (N = bottom entries >= m), and to 0 otherwise."""
    params = claim_params("lemma29", m)
    cls = odd_negative_cycles(m)

    def sign(b):
        return (-1) ** ((b >> m).bit_count() + m * (m - 1) // 2)

    return run_check("lemma29", params, lambda: _trace_failures(d_splits(m), 2 * m, m, cls, sign))


def check_lemma210(m_prime: int) -> CheckRecord:
    """Both parity identities for even m = 2m': on admissible splits,
    (a) #{bottom >= m} - #{bottom even} has the parity of m', and
    (b) #{bottom even} has the parity of N + m(m-1)/2."""
    params = claim_params("lemma210", m_prime)
    m = 2 * m_prime
    even = row_mask(range(0, 2 * m, 2))

    def scan():
        admissible = _admissible(2 * m, m)
        for t, b in d_splits(m):
            if not admissible(b):
                continue
            n_high = (b >> m).bit_count()
            n_even = (b & even).bit_count()
            if (n_high - n_even) % 2 != m_prime % 2:
                yield f"split {_split_text(t, b)}: identity (a) fails"
            if n_even % 2 != (n_high + m * (m - 1) // 2) % 2:
                yield f"split {_split_text(t, b)}: identity (b) fails"

    return run_check("lemma210", params, scan)


def multiplicity_sum_bc(m: int) -> int:
    """Signed sum over all splits of {0..2m}, before dividing by 2^m.

    The sign of a split is -1 to the number of even bottom entries.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _signed_split_sum(bc_splits(m), 2 * m + 1, m, even_negative_cycles(m))


def multiplicity_bc(m: int) -> Fraction:
    """Multiplicity of the distinguished constituent, types B/C; exact."""
    return Fraction(multiplicity_sum_bc(m), 2**m)


def multiplicity_sum_d(m: int) -> int:
    """Signed sum over all splits of {0..2m-1}, before dividing by 2^m.

    Each term is the trace of the restriction to the type-D subgroup, which
    equals the full trace when the two rows differ as sets (the restriction
    stays irreducible) and the class lies in the subgroup.  Both hold once
    for the whole sweep: the rows of every split are disjoint and hold
    m >= 2 entries each, so they differ as sets, and the class is checked
    here.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    cls = odd_negative_cycles(m)
    if not cls.in_type_d:
        raise ValueError("class has an odd number of negative cycles")
    return _signed_split_sum(d_splits(m), 2 * m, m, cls)


def multiplicity_d(m: int) -> Fraction:
    """Multiplicity of the distinguished constituent, type D; exact."""
    return Fraction(multiplicity_sum_d(m), 2**m)


def _multiplicity_check(claim: str, m: int, multiplicity) -> CheckRecord:
    """The claim's record: ``multiplicity(m)`` must be exactly 1."""
    params = claim_params(claim, m)

    def scan():
        value = multiplicity(m)
        if value != 1:
            yield f"multiplicity {value} != 1"

    return run_check(claim, params, scan)


def check_prop211(m: int) -> CheckRecord:
    return _multiplicity_check("prop211", m, multiplicity_bc)


def check_prop212(m: int) -> CheckRecord:
    return _multiplicity_check("prop212", m, multiplicity_d)


# --- induction from the block subgroup W_2 x W_2 of W_4 ---


def _w2_linear_value(kind, block) -> int:
    """One of the four +-1-valued characters of W_2, at a (pos, neg) class.

    ``kind`` gives the character's values on the two generators: the first
    factor, if -1, is the sign of the underlying permutation, (-1) to the
    sum of (k - 1) over all cycles; the second, if -1, is chi, (-1) to the
    number of negative cycles.
    """
    on_perm_sign, on_flips = kind
    pos, neg = block
    odd = 0
    if on_perm_sign == -1:
        odd += sum(pos) + sum(neg) - len(pos) - len(neg)
    if on_flips == -1:
        odd += len(neg)
    return -1 if odd % 2 else 1


def induced_linear_trace_w4(kind1, kind2, cls: SignedCycleType) -> int:
    """Trace at cls of the induction to W_4 of a linear character of
    W_2 x W_2, each factor labeled by its values on the two generators."""
    return induce(4, 2, cls, lambda b1, b2: _w2_linear_value(kind1, b1) * _w2_linear_value(kind2, b2))


def underlying_order(cls: SignedCycleType) -> int:
    """Order of the image of the class in the symmetric group."""
    import math

    order = 1
    for k in cls.pos + cls.neg:
        order = math.lcm(order, k)
    return order


def check_lemma217() -> CheckRecord:
    """Every induced linear character of the block subgroup W_2 x W_2 takes
    even values on W_4, the trivial one matching the 6/2/0 pattern of the
    underlying 4-letter permutation; and the bi-symbol ([1,2];[2]) is even
    on every class."""
    kinds = [(a, b) for a in (1, -1) for b in (1, -1)]
    classes = signed_cycle_types(4)

    def scan():
        for kind1 in kinds:
            for kind2 in kinds:
                for cls in classes:
                    value = induced_linear_trace_w4(kind1, kind2, cls)
                    if value % 2:
                        yield (
                            f"epsilon={kind1}x{kind2} class={cls}: odd value {value}"
                        )
                    if kind1 == kind2 == (1, 1):
                        order = underlying_order(cls)
                        expected = 6 if order == 1 else 2 if order == 2 else 0
                        if value != expected:
                            yield (
                                f"trivial epsilon class={cls}: expected"
                                f" {expected}, got {value}"
                            )
        sym = BiSymbol((1, 2), (2,))
        for cls in classes:
            value = mn_trace_wn(sym, cls)
            if value % 2:
                yield f"symbol (1,2);(2) class={cls}: odd value {value}"

    return run_check("lemma217", "n=4", scan)


def check_so5(q: int = SO5_DEFAULT_Q, samples: int = SO5_DEFAULT_SAMPLES, seed: int = 0) -> CheckRecord:
    """The SO_5(F_q) identity: element by element at q = 3, on ``samples``
    random elements at any other odd prime q."""
    from .so5 import OrthogonalGeometry  # numpy only where it is used

    geometry = OrthogonalGeometry(q=q)
    if q == 3:
        return geometry.verify(seed)
    return geometry.verify_sampled(samples, seed)
