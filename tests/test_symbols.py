import itertools
import random

import numpy as np
import pytest

from weylchars.snchars import mn_trace_sn, oracle_trace_sn
from weylchars.symbols import (
    BiSymbol,
    SignedCycleType,
    beta_to_partition,
    beta_weight,
    bipartitions,
    normalize_beta,
    normalize_bisymbol,
    partition_to_beta,
    partitions,
    perm_sign,
    reduce_beta,
    shift_beta,
    signed_cycle_types,
)
from weylchars.verifications import _split_trace, odd_negative_cycles
from weylchars.wnchars import mn_trace_wn, oracle_trace_wn


def test_normalize_examples():
    assert normalize_beta([3, 1]) == normalize_beta([3, 1])
    norm = normalize_beta([3, 1])
    assert (norm.sign, norm.entries) == (-1, (1, 3))
    assert normalize_beta([1, 1]).is_zero
    assert normalize_beta([2, -1, 0]).is_zero
    norm = normalize_beta([0, 2, 5])
    assert (norm.sign, norm.entries) == (1, (0, 2, 5))
    assert not normalize_beta(()).is_zero


def test_normalize_idempotent():
    for entries in itertools.product(range(5), repeat=3):
        norm = normalize_beta(entries)
        if norm.is_zero:
            continue
        again = normalize_beta(norm.entries)
        assert again.sign == 1
        assert again.entries == norm.entries


def test_sign_coherence_exhaustive():
    # permuting a distinct sequence multiplies the sign by that permutation's
    base = (0, 2, 3, 7)
    reference = normalize_beta(base).sign
    for perm in itertools.permutations(range(4)):
        shuffled = tuple(base[i] for i in perm)
        assert normalize_beta(shuffled).sign == perm_sign(perm) * reference


def test_sign_coherence_random():
    rng = random.Random(1234)
    for _ in range(200):
        size = rng.randrange(1, 7)
        base = tuple(rng.sample(range(20), size))
        perm = list(range(size))
        rng.shuffle(perm)
        shuffled = tuple(base[i] for i in perm)
        assert (
            normalize_beta(shuffled).sign
            == perm_sign(tuple(perm)) * normalize_beta(base).sign
        )


def test_shift_examples():
    assert shift_beta((1, 3), 1) == (0, 2, 4)
    assert shift_beta((7,), 0) == (7,)
    assert shift_beta((0, 2), 2) == (0, 1, 2, 4)


def test_shift_preserves_weight():
    for entries in [(1, 3), (), (0, 2, 5), (4,)]:
        for d in range(4):
            assert beta_weight(shift_beta(entries, d)) == beta_weight(entries)


def test_reduce_examples():
    assert reduce_beta((0, 2, 4)) == (1, 3)
    assert reduce_beta((1, 3)) == (1, 3)
    assert reduce_beta((0, 1, 2)) == ()


def test_reduce_shift_inverse():
    for entries in [(1, 3), (), (2,), (1, 2, 4), (0,)]:
        reduced = reduce_beta(normalize_beta(entries).entries)
        for d in range(4):
            assert reduce_beta(shift_beta(reduced, d)) == reduced


def test_reduce_rejects_junk():
    with pytest.raises(ValueError):
        reduce_beta((3, 1))
    with pytest.raises(ValueError):
        reduce_beta((-1, 2))


def test_partition_beta_examples():
    assert partition_to_beta((5,)) == (5,)
    assert partition_to_beta((1, 1, 1)) == (1, 2, 3)
    assert partition_to_beta((0, 2)) == (2,)  # zero parts dropped
    assert beta_to_partition((1, 3)) == (1, 2)


def test_partition_roundtrip():
    for n in range(13):
        for p in partitions(n):
            for a in range(len(p), len(p) + 3):
                beta = shift_beta(partition_to_beta(p), a - len(p))
                assert beta_weight(beta) == n
                assert beta_to_partition(beta) == p


def test_partition_to_beta_errors():
    with pytest.raises(ValueError):
        partition_to_beta((2, 1))  # not weakly increasing


def test_partition_counts():
    counts = [len(list(partitions(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_normalize_bisymbol_examples():
    norm = normalize_bisymbol((2, 0), (1,))
    assert norm.sign == -1
    assert (norm.symbol.top, norm.symbol.bottom) == ((0, 2), (1,))
    assert normalize_bisymbol((1, 1), (0,)).is_zero
    norm = normalize_bisymbol((0, 1), (2,))
    assert norm.sign == 1


def test_bisymbol_weight():
    sym = BiSymbol((0, 1), (2,))
    assert sym.weight == 2
    assert BiSymbol((5,), ()).weight == 5


def test_cycle_type_weights():
    assert SignedCycleType((1, 1), ()).weight == 2
    assert SignedCycleType((), (2, 4, 6)).weight == 12
    assert SignedCycleType((), (1, 3)).weight == 4


def test_signed_cycle_type_invariants():
    t = SignedCycleType((3, 1), (2,))
    assert t.pos == (1, 3)  # stored sorted
    assert not t.in_type_d
    assert SignedCycleType((), (1, 3)).in_type_d
    with pytest.raises(ValueError):
        SignedCycleType((0,), ())


def test_class_counts():
    # number of W_n classes = number of bipartitions
    for n in range(6):
        assert len(signed_cycle_types(n)) == len(list(bipartitions(n)))
    assert len(signed_cycle_types(4)) == 20


# each entry point that coerces its integers, with an argument list whose
# first sequence is the one made fractional
SYMBOL_CALLS = [
    (normalize_beta, ((2, 0, 1),)),
    (shift_beta, ((0, 2),)),
    (reduce_beta, ((0, 1, 3),)),
    (partition_to_beta, ((1, 2, 2),)),
    (beta_to_partition, ((1, 3),)),
    (BiSymbol, ((0, 2), (1,))),
    (lambda top, bottom: BiSymbol(bottom, top), ((1,), (0, 2))),
    (SignedCycleType, ((1, 3), (2,))),
    (lambda neg, pos: SignedCycleType(pos, neg), ((2,), (1, 3))),
]


@pytest.mark.parametrize("call, args", SYMBOL_CALLS)
@pytest.mark.parametrize("fraction", [1.9, 1.5])
def test_fractional_entries_are_rejected(call, args, fraction):
    first, *rest = args
    with pytest.raises(TypeError):
        call((fraction,) + first[1:], *rest)


@pytest.mark.parametrize("call, args", SYMBOL_CALLS)
def test_numpy_integer_entries_act_as_ints(call, args):
    want = call(*args)
    got = call(*(tuple(np.int64(x) for x in seq) for seq in args))
    assert got == want and repr(got) == repr(want)


WEIGHT_3_AT_4 = "weight mismatch: symbol has weight 3, class has weight 4"


# every trace and the split checks share one weight rule and one message
@pytest.mark.parametrize(
    "trace",
    [
        lambda: mn_trace_wn(BiSymbol((1, 3), ()), SignedCycleType(pos=(2, 2))),
        lambda: oracle_trace_wn(BiSymbol((1, 3), ()), SignedCycleType(pos=(2, 2))),
        lambda: mn_trace_sn((1, 3), (2, 2)),
        lambda: oracle_trace_sn((1, 3), (2, 2)),
        # splits of {0..3} with one bottom entry have weight 1 * 3
        lambda: _split_trace(odd_negative_cycles(2), 4, 1),
    ],
    ids=["mn_trace_wn", "oracle_trace_wn", "mn_trace_sn", "oracle_trace_sn", "split"],
)
def test_one_weight_rule(trace):
    with pytest.raises(ValueError) as raised:
        trace()
    assert str(raised.value) == WEIGHT_3_AT_4
