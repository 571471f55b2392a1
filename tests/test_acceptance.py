"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (integer or rational equality), and the stated
wall-clock budgets are asserted.
"""

import itertools
import random
import time
from fractions import Fraction

from removal_walk import sn_trace_in_order, trace_in_order
from weylchars.snchars import character_table_sn, mn_trace_sn, oracle_trace_sn
from weylchars.symbols import (
    BiSymbol,
    SignedCycleType,
    bipartition_to_bisymbol,
    bipartitions,
    normalize_beta,
    partition_to_beta,
    partitions,
    perm_sign,
    shift_beta,
    signed_cycle_types,
)
from weylchars.verifications import (
    bc_splits,
    check_lemma26,
    check_lemma27,
    check_lemma29,
    check_lemma210,
    check_lemma217,
    d_splits,
    multiplicity_bc,
    multiplicity_d,
    multiplicity_sum_bc,
    multiplicity_sum_d,
    split_admissible_bc,
)
from weylchars.wnchars import character_table_wn, mask_row, mn_trace_wn, oracle_trace_wn


def _report(number, description, elapsed, budget):
    print(f"PASS criterion {number}: {description} [{elapsed:.2f}s / {budget}s]")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_multiplicity_bc():
    start = time.monotonic()
    for m in range(1, 6):
        assert multiplicity_bc(m) == 1, m
    _report(1, "type B/C multiplicity is exactly 1 for m=1..5", time.monotonic() - start, 30)


def test_criterion_2_multiplicity_d():
    start = time.monotonic()
    for m in (2, 4):
        assert multiplicity_d(m) == 1, m
    _report(2, "type D multiplicity is exactly 1 for m=2,4", time.monotonic() - start, 30)


def test_criterion_3_even_cycle_traces():
    start = time.monotonic()
    for m in range(6):
        record = check_lemma26(m)
        assert record.ok, record.counterexamples[:3]
    _report(3, "even-cycle closed-form traces, all splits, m<=5", time.monotonic() - start, 60)


def test_criterion_4_odd_cycle_traces():
    start = time.monotonic()
    for m in range(1, 6):
        record = check_lemma29(m)
        assert record.ok, record.counterexamples[:3]
    _report(4, "odd-cycle closed-form traces, all splits, m<=5", time.monotonic() - start, 60)


def test_criterion_5_parity_identities():
    start = time.monotonic()
    for m in range(6):
        record = check_lemma27(m)
        assert record.ok, record.counterexamples[:3]
    for m_prime in (1, 2):
        record = check_lemma210(m_prime)
        assert record.ok, record.counterexamples[:3]
    _report(5, "parity identities on admissible splits", time.monotonic() - start, 60)


def test_criterion_6_induction_evenness():
    start = time.monotonic()
    record = check_lemma217()
    assert record.ok, record.counterexamples[:3]
    _report(6, "induced characters from the W_2 x W_2 block are even", time.monotonic() - start, 5)


def test_criterion_7_oracle_equivalence():
    start = time.monotonic()
    for n in range(7):
        for p in partitions(n):
            beta = partition_to_beta(p)
            for cls in partitions(n):
                assert mn_trace_sn(beta, cls) == oracle_trace_sn(beta, cls), (p, cls)
    for n in range(5):
        for pair in bipartitions(n):
            sym = bipartition_to_bisymbol(pair)
            for cls in signed_cycle_types(n):
                assert mn_trace_wn(sym, cls) == oracle_trace_wn(sym, cls), (pair, cls)
    _report(
        7,
        "recursion matches the independent oracles (S_n n<=6, W_n n<=4)",
        time.monotonic() - start,
        120,
    )


def test_criterion_8_property_suite():
    start = time.monotonic()
    rng = random.Random(2024)

    # shift invariance of traces
    for p in partitions(5):
        beta = partition_to_beta(p)
        for cls in partitions(5):
            value = mn_trace_sn(beta, cls)
            for d in (1, 2, 3):
                assert mn_trace_sn(shift_beta(beta, d), cls) == value
    for pair in bipartitions(3):
        sym = bipartition_to_bisymbol(pair)
        for cls in signed_cycle_types(3):
            value = mn_trace_wn(sym, cls)
            shifted = BiSymbol(shift_beta(sym.top), shift_beta(sym.bottom))
            assert mn_trace_wn(shifted, cls) == value

    # removal-order independence
    for n in (5, 6):
        for p in partitions(n):
            beta = partition_to_beta(p)
            for cls in partitions(n):
                reference = mn_trace_sn(beta, cls)
                order = list(cls)
                rng.shuffle(order)
                assert sn_trace_in_order(beta, order) == reference
    for pair in bipartitions(3):
        sym = bipartition_to_bisymbol(pair)
        for cls in signed_cycle_types(3):
            reference = mn_trace_wn(sym, cls)
            cycles = [(False, k) for k in cls.pos] + [(True, k) for k in cls.neg]
            rng.shuffle(cycles)
            assert trace_in_order(sym, cycles) == reference

    # sign coherence of normalization
    for _ in range(150):
        size = rng.randrange(1, 7)
        base = tuple(rng.sample(range(25), size))
        perm = list(range(size))
        rng.shuffle(perm)
        shuffled = tuple(base[i] for i in perm)
        assert (
            normalize_beta(shuffled).sign
            == perm_sign(tuple(perm)) * normalize_beta(base).sign
        )

    # weighted row orthogonality
    for n in range(1, 7):
        assert character_table_sn(n).is_orthogonal()
    for n in range(1, 5):
        assert character_table_wn(n).is_orthogonal()

    # value at the identity class is a dimension, hence >= 1
    for n in range(1, 7):
        table = character_table_sn(n)
        for beta in table.row_labels:
            assert table.value(beta, tuple([1] * n)) >= 1
    for n in range(1, 5):
        table = character_table_wn(n)
        identity = SignedCycleType(tuple([1] * n), ())
        for sym in table.row_labels:
            assert table.value(sym, identity) >= 1

    # 2^m divisibility of the signed sums
    for m in range(1, 6):
        assert multiplicity_sum_bc(m) % 2**m == 0
    for m in (2, 4):
        assert multiplicity_sum_d(m) % 2**m == 0

    # admissible split count is 2^m
    for m in range(6):
        count = sum(
            1 for t, b in bc_splits(m) if split_admissible_bc(mask_row(t), mask_row(b), m)
        )
        assert count == 2**m

    _report(8, "property suite (shift, order, signs, orthogonality, counts)", time.monotonic() - start, 120)


def test_criterion_9_so5_identity(geo3):
    start = time.monotonic()
    elements = geo3.enumerate_group()
    assert len(elements) == 51840
    record = geo3.verify(seed=0)
    assert record.ok, record.counterexamples[:5]
    _report(
        9,
        "SO_5(F_3): 51840 elements, trace identity, four labels, induced character",
        time.monotonic() - start,
        120,
    )
