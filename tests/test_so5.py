import random

import numpy as np
import pytest

from weylchars.so5 import ClassCLabel, OrthogonalGeometry, is_prime, rank_mod


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_rank_mod():
    assert rank_mod(np.eye(5, dtype=int), 3) == 5
    assert rank_mod(np.zeros((5, 5), dtype=int), 3) == 0
    m = np.array([[1, 2], [2, 4]])  # second row = 2 * first mod 3... not mod 5
    assert rank_mod(m, 3) == 1
    assert rank_mod(m, 5) == 1
    m = np.array([[1, 2], [2, 1]])
    assert rank_mod(m, 3) == 1  # det = -3 = 0 mod 3
    assert rank_mod(m, 5) == 2


def test_constructor_guards():
    with pytest.raises(ValueError):
        OrthogonalGeometry(q=2)
    with pytest.raises(ValueError):
        OrthogonalGeometry(q=9)
    with pytest.raises(ValueError):
        OrthogonalGeometry(q=3, gram=np.zeros((5, 5), dtype=int))


def test_line_types():
    geo = OrthogonalGeometry(q=3)
    assert geo.line_type([1, 0, 0, 0, 0]) == 1  # norm 1, square
    assert geo.line_type([1, 1, 0, 0, 0]) == -1  # norm 2, non-square mod 3
    assert geo.line_type([1, 1, 1, 0, 0]) == 0  # norm 3 = 0


def test_line_census(geo3):
    iso, plus, minus = geo3.line_census()
    assert iso + plus + minus == (3**5 - 1) // (3 - 1) == 121
    assert iso == (3 + 1) * (3**2 + 1) == 40
    # the plus/minus split depends on the form; report-only, not asserted


def test_enumeration_order(geo3):
    elements = geo3.enumerate_group()
    assert len(elements) == 51840 == geo3.group_order_formula()
    q = geo3.q
    for g in elements[:50]:
        assert ((g.T @ geo3.gram @ g) % q == geo3.gram).all()


def test_enumeration_guard():
    geo = OrthogonalGeometry(q=5)
    with pytest.raises(ValueError):
        geo.enumerate_group()


def test_fixed_line_scalar(geo3):
    identity = np.eye(5, dtype=np.int64)
    assert geo3.fixed_line_scalar(identity, [1, 0, 0, 0, 0]) == 1
    flip = np.diag([2, 2, 1, 1, 1]) % 3
    assert geo3.fixed_line_scalar(flip, [1, 0, 0, 0, 0]) == -1
    assert geo3.fixed_line_scalar(flip, [1, 0, 1, 0, 0]) is None


def test_identity_not_in_class(geo3):
    assert geo3.in_class_c(np.eye(5, dtype=np.int64)) is None
    assert geo3.class_support_value(np.eye(5, dtype=np.int64)) == 0
    assert geo3.line_count_trace(np.eye(5, dtype=np.int64)) == 0


def test_pure_involution_not_in_class(geo3):
    # semisimple with a negated hyperplane but no unipotent part
    g = np.diag([1, 2, 2, 2, 2]) % 3
    assert geo3.in_class_c(g) is None


def test_members_exist_with_all_labels(geo3):
    elements = geo3.enumerate_group()
    labels = set()
    values = set()
    for g in elements[:2000]:
        label = geo3.in_class_c(g)
        if label is not None:
            labels.add((label.eps, label.delta))
            values.add(geo3.class_support_value(g))
            assert geo3.line_count_trace(g) == 2 * label.delta * 3
    assert labels  # the scan window contains members
    assert values <= {6, -6}


def test_member_label_matches_line_structure(geo3):
    elements = geo3.enumerate_group()
    member = next(
        g for g in elements if geo3.in_class_c(g) is not None
    )
    label = geo3.in_class_c(member)
    assert isinstance(label, ClassCLabel)
    # epsilon is the type of the unique pointwise-fixed line
    fixed = [
        geo3.line_type(vec)
        for vec in geo3.lines
        if geo3.fixed_line_scalar(member, vec) == 1
    ]
    assert fixed == [label.eps]


def test_split_type_detection(geo3):
    # with the identity form at q=3, square-norm lines have split perp
    assert geo3.split_line_type() == 1
    assert geo3.perp_is_split([1, 0, 0, 0, 0])
    assert not geo3.perp_is_split([1, 1, 0, 0, 0])


def test_stabilizer_cosets(geo3):
    split = geo3.stabilizer(split=True)
    nonsplit = geo3.stabilizer(split=False)
    assert len(split.line_indices) == 45
    assert len(nonsplit.line_indices) == 36
    assert split.order * 45 == 51840
    assert nonsplit.order * 36 == 51840
    identity = np.eye(5, dtype=np.int64)
    assert split.contains(identity)

    def one(_):
        return 1

    assert geo3.induced_char(split, one, identity) == 45
    assert geo3.induced_char(nonsplit, one, identity) == 36
    assert geo3.induced_virtual_trace(identity) == 0


def test_coset_model_matches_line_count_on_sample(geo3):
    elements = geo3.enumerate_group()
    rng = random.Random(42)
    for _ in range(12):
        g = elements[rng.randrange(len(elements))]
        assert geo3.induced_virtual_trace(g) == geo3.line_count_trace(g)


def test_conjugation_invariance_spot(geo3):
    elements = geo3.enumerate_group()
    rng = random.Random(3)
    for _ in range(6):
        g = elements[rng.randrange(len(elements))]
        h = geo3.random_element(rng)
        conj = (geo3.inverse(h) @ g @ h) % 3
        assert geo3.in_class_c(conj) == geo3.in_class_c(g)
        assert geo3.line_count_trace(conj) == geo3.line_count_trace(g)


def test_full_verification(geo3):
    record = geo3.verify(seed=0)
    assert record.ok, record.counterexamples[:5]
    assert record.claim == "so5"
    assert record.params == "q=3"


def test_q5_line_census():
    geo = OrthogonalGeometry(q=5)
    iso, plus, minus = geo.line_census()
    assert iso == (5 + 1) * (5**2 + 1) == 156
    assert iso + plus + minus == (5**5 - 1) // (5 - 1)


def test_q5_sampled_verification():
    geo = OrthogonalGeometry(q=5)
    record = geo.verify_sampled(samples=25, seed=0)
    assert record.ok, record.counterexamples[:5]
    assert record.params == "q=5 sampled"
    for samples in (0, -1):
        with pytest.raises(ValueError):
            geo.verify_sampled(samples=samples)


@pytest.mark.parametrize("q", [3, 5])
def test_line_action_matches_fixed_line_scalar(q):
    geo = OrthogonalGeometry(q=q)
    rng = random.Random(7)
    elements = [np.eye(5, dtype=np.int64)] + [geo.random_element(rng) for _ in range(6)]
    for g in elements:
        action = geo.line_action(g)
        expected = [geo.fixed_line_scalar(g, vec) for vec in geo.lines]
        assert action.tolist() == [0 if s is None else s for s in expected]


def test_closure_enumerates_the_group(geo3):
    elements = geo3.enumerate_group()
    q = geo3.q
    assert (elements[0] == np.eye(5, dtype=np.int64)).all()
    assert len(np.unique(elements.reshape(len(elements), 25), axis=0)) == 51840
    forms = np.einsum("nji,jk,nkl->nil", elements, geo3.gram, elements) % q
    assert (forms == geo3.gram).all()


def test_class_orbits_cover_the_scanned_members(geo3):
    elements, _, _, members, _ = geo3._batched_scan()
    representatives = {}
    for i in np.where(members)[0]:
        label = geo3.in_class_c(elements[i])
        representatives.setdefault(label, elements[i])
        if len(representatives) == 4:
            break
    assert len(representatives) == 4
    sizes = [geo3.conjugacy_class_size(g) for g in representatives.values()]
    assert sum(sizes) == int(members.sum()) == 5760


def test_coded_kernels_reject_what_they_cannot_code():
    geo = OrthogonalGeometry(q=7)
    with pytest.raises(ValueError):
        geo.conjugacy_class_size(np.eye(5, dtype=np.int64))
    with pytest.raises(ValueError):
        geo.line_index([0, 0, 0, 0, 0])
