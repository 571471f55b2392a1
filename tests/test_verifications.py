import itertools
from fractions import Fraction

import pytest

from removal_walk import class_representative, sp_cycle_type, sp_inv, sp_mul, split_admissible_d
from weylchars import cli, verifications
from weylchars.report import CheckRecord, all_passed, render_report, run_check
from weylchars.symbols import BiSymbol, SignedCycleType, perm_sign, signed_cycle_types
from weylchars.verifications import (
    bc_splits,
    check_lemma26,
    check_lemma27,
    check_lemma29,
    check_lemma210,
    check_lemma217,
    check_prop211,
    check_prop212,
    count_even,
    d_splits,
    even_negative_cycles,
    induced_linear_trace_w4,
    multiplicity_bc,
    multiplicity_d,
    multiplicity_sum_bc,
    multiplicity_sum_d,
    odd_negative_cycles,
    pair_sum_free,
    split_admissible_bc,
    underlying_order,
)
from weylchars.wnchars import (
    chi_value,
    mask_row,
    mn_trace_wn,
    wn_elements,
)


def test_distinguished_classes():
    assert even_negative_cycles(1) == SignedCycleType((), (2,))
    assert even_negative_cycles(0) == SignedCycleType((), ())
    assert even_negative_cycles(3) == SignedCycleType((), (2, 4, 6))
    assert even_negative_cycles(3).weight == 12
    assert odd_negative_cycles(1) == SignedCycleType((), (1,))
    assert odd_negative_cycles(2) == SignedCycleType((), (1, 3))
    assert odd_negative_cycles(2).in_type_d
    assert not odd_negative_cycles(3).in_type_d
    for m in range(6):
        assert even_negative_cycles(m).weight == m * m + m
    for m in range(1, 6):
        assert odd_negative_cycles(m).weight == m * m


def test_admissibility_examples():
    assert split_admissible_bc((0, 1), (2,), 1)
    assert not split_admissible_bc((0, 2), (1,), 1)
    assert split_admissible_d((1,), (0,), 1)  # single entries: vacuous
    assert pair_sum_free((0, 1, 4), 4) is False
    assert pair_sum_free((0, 1, 4), 10) is True


def rows(splits):
    """The splits' row bitsets as sorted tuples."""
    for t, b in splits:
        yield mask_row(t), mask_row(b)


def test_split_enumeration_sizes():
    from math import comb

    sweeps = [(bc_splits(m), 2 * m + 1, m, comb(2 * m + 1, m)) for m in range(6)]
    sweeps += [(d_splits(m), 2 * m, m, comb(2 * m, m)) for m in range(1, 6)]
    for splits, size, m, count in sweeps:
        splits = list(splits)
        assert len(splits) == count
        assert len({b for _, b in splits}) == count
        for t, b in splits:
            assert b.bit_count() == m and b >> size == 0
            assert t == b ^ ((1 << size) - 1)  # the complement


def test_admissible_split_count_is_power_of_two():
    for m in range(6):
        count = sum(1 for top, bottom in rows(bc_splits(m)) if split_admissible_bc(top, bottom, m))
        assert count == 2**m
    for m in range(1, 6):
        count = sum(1 for top, bottom in rows(d_splits(m)) if split_admissible_d(top, bottom, m))
        assert count == 2**m
    # the bitset test the checks use, up to the claims' bound
    for m in range(11):
        admissible = verifications._admissible(2 * m + 1, m)
        assert sum(1 for _, b in bc_splits(m) if admissible(b)) == 2**m
    for m in range(1, 11):
        admissible = verifications._admissible(2 * m, m)
        assert sum(1 for _, b in d_splits(m) if admissible(b)) == 2**m


def test_lemma26_m1_values():
    cls = even_negative_cycles(1)
    values = {
        bottom: mn_trace_wn(BiSymbol(top, bottom), cls)
        for top, bottom in rows(bc_splits(1))
    }
    assert values == {(0,): -1, (1,): 0, (2,): -1}


def test_lemma26_m0():
    record = check_lemma26(0)
    assert record.ok
    assert mn_trace_wn(BiSymbol((0,), ()), SignedCycleType((), ())) == 1


def test_lemma_checks_pass_small():
    for m in range(4):
        assert check_lemma26(m).ok
        assert check_lemma27(m).ok
    for m in range(1, 4):
        assert check_lemma29(m).ok
    assert check_lemma210(1).ok


def test_lemma_bounds():
    with pytest.raises(ValueError):
        check_lemma26(11)
    with pytest.raises(ValueError):
        check_lemma210(0)


def test_multiplicity_bc_hand_expansion_m1():
    # three bottom choices: {0} and {2} contribute +1 each, {1} vanishes
    cls = even_negative_cycles(1)
    contributions = {}
    for top, bottom in rows(bc_splits(1)):
        sign = (-1) ** count_even(bottom)
        contributions[bottom] = sign * mn_trace_wn(BiSymbol(top, bottom), cls)
    assert contributions == {(0,): 1, (1,): 0, (2,): 1}
    assert multiplicity_sum_bc(1) == 2
    assert multiplicity_bc(1) == 1


def test_multiplicity_values():
    assert multiplicity_bc(1) == Fraction(1)
    assert multiplicity_bc(2) == 1
    assert multiplicity_d(2) == 1


def test_multiplicity_divisibility():
    for m in (1, 2, 3):
        assert multiplicity_sum_bc(m) % 2**m == 0
    assert multiplicity_sum_d(2) % 4 == 0


def test_multiplicity_d_preconditions():
    with pytest.raises(ValueError):
        multiplicity_d(3)
    with pytest.raises(ValueError):
        multiplicity_d(0)
    with pytest.raises(ValueError):
        check_prop212(3)


def test_only_admissible_splits_contribute():
    for m in (1, 2):
        cls = even_negative_cycles(m)
        for top, bottom in rows(bc_splits(m)):
            if not split_admissible_bc(top, bottom, m):
                assert mn_trace_wn(BiSymbol(top, bottom), cls) == 0
        cls = odd_negative_cycles(m) if m >= 1 else None
        for top, bottom in rows(d_splits(m)):
            if not split_admissible_d(top, bottom, m):
                assert mn_trace_wn(BiSymbol(top, bottom), cls) == 0


def test_complement_symmetry_type_d():
    # swapping a bottom set with its complement leaves the signed summand
    # unchanged (m even)
    m = 2
    cls = odd_negative_cycles(m)
    universe = set(range(2 * m))
    for top, bottom in rows(d_splits(m)):
        comp_bottom = tuple(sorted(universe - set(bottom)))
        comp_top = tuple(sorted(universe - set(comp_bottom)))
        lhs = (-1) ** count_even(bottom) * mn_trace_wn(BiSymbol(top, bottom), cls)
        rhs = (-1) ** count_even(comp_bottom) * mn_trace_wn(
            BiSymbol(comp_top, comp_bottom), cls
        )
        assert lhs == rhs


def test_prop_checks_pass():
    assert check_prop211(1).ok
    assert check_prop211(2).ok
    assert check_prop212(2).ok


def test_prop_checks_pass_past_old_bounds():
    assert check_prop211(7).ok
    assert check_prop212(6).ok


def test_split_path_matches_the_symbol_route():
    # each split's admissibility and trace, read by the checks off its row
    # bitsets, against the tuple predicates and mn_trace_wn on its rows
    sweeps = [(bc_splits, even_negative_cycles, 2 * m + 1, m, split_admissible_bc) for m in range(7)]
    sweeps += [(d_splits, odd_negative_cycles, 2 * m, m, split_admissible_d) for m in range(1, 7)]
    for splits, distinguished, size, m, admissible_ref in sweeps:
        cls = distinguished(m)
        trace = verifications._split_trace(cls, size, m)
        admissible = verifications._admissible(size, m)
        for t, b in splits(m):
            top, bottom = mask_row(t), mask_row(b)
            assert admissible(b) == admissible_ref(top, bottom, m), (top, bottom)
            assert trace(t, b) == mn_trace_wn(BiSymbol(top, bottom), cls), (top, bottom)


def test_failed_split_keeps_the_counterexample_text(monkeypatch):
    original = verifications._split_trace

    def skewed(cls, size, m):  # 7 on the split whose bottom row is (1,)
        trace = original(cls, size, m)
        return lambda t, b: 7 if b == 0b10 else trace(t, b)

    monkeypatch.setattr(verifications, "_split_trace", skewed)
    record = check_lemma26(1)
    assert record.status == "fail"
    assert record.counterexamples == ("split top=(0, 2) bottom=(1,): expected 0, got 7",)
    record = check_lemma29(1)
    assert record.counterexamples == ("split top=(0,) bottom=(1,): expected -1, got 7",)


def assert_claim_fails_with(capsys, check, argv, expected):
    """``check()`` must fail with ``expected`` among its counterexamples, and
    ``weylchars verify`` with ``argv`` must print it in a failed record and
    exit 1, not as an error."""
    record = check()
    assert record.status == "fail"
    assert expected in record.counterexamples
    assert cli.main(["verify", *argv, "--no-timing"]) == 1
    out = capsys.readouterr().out
    assert "status: fail" in out and f"  - {expected}\n" in out


@pytest.mark.parametrize(
    "claim, computed, m", [("prop211", "multiplicity_bc", 1), ("prop212", "multiplicity_d", 2)]
)
def test_prop_checks_report_a_wrong_multiplicity(monkeypatch, capsys, claim, computed, m):
    monkeypatch.setattr(verifications, computed, lambda m: Fraction(2))
    check = getattr(verifications, f"check_{claim}")
    assert_claim_fails_with(
        capsys, lambda: check(m), [claim, "--m", str(m)], "multiplicity 2 != 1"
    )


def every_split_admissible(monkeypatch):
    monkeypatch.setattr(verifications, "_admissible", lambda size, m: lambda b: True)


def test_lemma27_reports_a_parity_off(monkeypatch, capsys):
    # at m = 1 the parity is odd, and the bottom row (1,) has no even entry
    every_split_admissible(monkeypatch)
    assert_claim_fails_with(
        capsys, lambda: check_lemma27(1), ["lemma27", "--m", "1"],
        "split top=(0, 2) bottom=(1,): even-count parity off",
    )


@pytest.mark.parametrize("identity", ["a", "b"])
def test_lemma210_reports_each_identity(monkeypatch, capsys, identity):
    # the bottom rows (0, 3) and (1, 2) hold a mirror pair: each breaks both
    every_split_admissible(monkeypatch)
    assert_claim_fails_with(
        capsys, lambda: check_lemma210(1), ["lemma210", "--m", "1"],
        f"split top=(1, 2) bottom=(0, 3): identity ({identity}) fails",
    )


IDENTITY_W4 = SignedCycleType((1, 1, 1, 1), ())


@pytest.mark.parametrize(
    "kinds, shift, message",
    [
        (
            ((-1, -1), (-1, -1)), 1,
            "epsilon=(-1, -1)x(-1, -1) class=SignedCycleType(pos=(1, 1, 1, 1), neg=()):"
            " odd value 7",
        ),
        # 8 is even, so only the 6/2/0 pattern fires
        (
            ((1, 1), (1, 1)), 2,
            "trivial epsilon class=SignedCycleType(pos=(1, 1, 1, 1), neg=()): expected 6, got 8",
        ),
    ],
    ids=["odd", "trivial"],
)
def test_lemma217_reports_a_wrong_induced_value(monkeypatch, capsys, kinds, shift, message):
    original = verifications.induced_linear_trace_w4

    def shifted(kind1, kind2, cls):
        return original(kind1, kind2, cls) + shift * ((kind1, kind2) == kinds and cls == IDENTITY_W4)

    monkeypatch.setattr(verifications, "induced_linear_trace_w4", shifted)
    assert_claim_fails_with(capsys, check_lemma217, ["lemma217"], message)


def test_lemma217_reports_an_odd_symbol_value(monkeypatch, capsys):
    original = verifications.mn_trace_wn
    monkeypatch.setattr(
        verifications, "mn_trace_wn", lambda sym, cls: original(sym, cls) + (cls == IDENTITY_W4)
    )
    assert_claim_fails_with(
        capsys, check_lemma217, ["lemma217"],
        "symbol (1,2);(2) class=SignedCycleType(pos=(1, 1, 1, 1), neg=()): odd value 7",
    )


def test_split_weight_and_type_d_guards(monkeypatch):
    with pytest.raises(ValueError, match="weight mismatch"):
        verifications._split_trace(even_negative_cycles(2), 5, 1)
    # the type-D class guard, at a class with one negative cycle
    monkeypatch.setattr(verifications, "odd_negative_cycles", lambda m: SignedCycleType((), (m * m,)))
    with pytest.raises(ValueError, match="odd number of negative cycles"):
        multiplicity_sum_d(2)


def test_underlying_order():
    assert underlying_order(SignedCycleType((1, 1, 1, 1), ())) == 1
    assert underlying_order(SignedCycleType((), (1, 1, 1, 1))) == 1
    assert underlying_order(SignedCycleType((2,), (1, 1))) == 2
    assert underlying_order(SignedCycleType((), (4,))) == 4


def test_induced_linear_trace_identity_value():
    identity = SignedCycleType((1, 1, 1, 1), ())
    assert induced_linear_trace_w4((1, 1), (1, 1), identity) == 6


def test_induced_linear_trace_rejects_a_class_of_the_wrong_weight():
    with pytest.raises(ValueError, match="weight mismatch"):
        induced_linear_trace_w4((1, 1), (1, 1), SignedCycleType((1,), ()))


def _induced_linear_trace_by_elements(kind1, kind2, cls):
    """Reference route: conjugate over all 384 elements of W_4 and evaluate
    each W_2 linear character on the two blocks element by element."""

    def linear(kind, w):
        on_perm_sign, on_flips = kind
        value = 1
        if on_perm_sign == -1:
            value *= perm_sign(tuple(abs(j) - 1 for j in w))
        if on_flips == -1:
            value *= chi_value(sp_cycle_type(w))
        return value

    rep = class_representative(cls)
    total = 0
    for x in wn_elements(4):
        h = sp_mul(sp_mul(x, rep), sp_inv(x))
        if any(abs(h[i]) > 2 for i in range(2)):
            continue
        h2 = tuple((abs(v) - 2) * (1 if v > 0 else -1) for v in h[2:])
        total += linear(kind1, h[:2]) * linear(kind2, h2)
    assert total % 64 == 0
    return total // 64


def test_induced_linear_trace_matches_element_route():
    kinds = [(a, b) for a in (1, -1) for b in (1, -1)]
    classes = signed_cycle_types(4)
    assert len(classes) == 20
    values = set()
    for kind1 in kinds:
        for kind2 in kinds:
            for cls in classes:
                want = _induced_linear_trace_by_elements(kind1, kind2, cls)
                assert induced_linear_trace_w4(kind1, kind2, cls) == want, (
                    kind1,
                    kind2,
                    cls,
                )
                values.add(want)
    assert len(values) > 2  # not a constant table


def test_lemma217_passes():
    record = check_lemma217()
    assert record.ok
    assert record.claim == "lemma217"


def test_report_rendering_deterministic():
    ticks = itertools.count()

    def clock():
        return next(ticks) * 0.001

    rec1 = run_check("demo", "m=1", lambda: [], seed=5, clock=clock)
    rec2 = run_check("demo", "m=2", lambda: ["bad thing"], seed=5, clock=clock)
    text = render_report([rec2, rec1])
    assert text.index("m=1") < text.index("m=2")  # sorted by params
    assert "status: fail" in text and "status: pass" in text
    assert "  - bad thing" in text
    assert "seed: 5" in text
    assert render_report([rec2, rec1]) == text  # stable
    untimed = render_report([rec1], include_timing=False)
    assert "elapsed_ms: 0" in untimed
    assert not all_passed([rec1, rec2])
    assert all_passed([rec1])


def test_check_record_fields():
    rec = CheckRecord("x", "p", "pass", (), 3, 1)
    assert rec.ok and rec.elapsed_ms == 3 and rec.seed == 1
