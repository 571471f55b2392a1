import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import weylchars.cli
import weylchars.so5
from weylchars.so5 import CHUNK_ENTRIES, ClassCLabel, OrthogonalGeometry, is_prime


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def rank_mod(matrix, q: int):
    """Rank over F_q by Gaussian elimination on a copy: an int for one
    matrix, an array of ranks for a stack, eliminated all at once.  The
    reference the library's kernel line counts are checked against."""
    m = np.array(matrix, dtype=np.int64) % q
    stack = m.reshape(-1, *m.shape[-2:])
    count, rows, cols = stack.shape
    rank = np.zeros(count, dtype=np.int64)
    inverse = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64)
    for col in range(cols):
        # the first row at or below each matrix's rank with a nonzero entry
        free = (stack[:, :, col] != 0) & (np.arange(rows) >= rank[:, None])
        which = np.flatnonzero(free.any(axis=1))
        sub, top, each = stack[which], rank[which], np.arange(len(which))
        pivot = free[which].argmax(axis=1)
        row = (sub[each, pivot] * inverse[sub[each, pivot, col]][:, None]) % q
        sub[each, pivot] = sub[each, top]
        sub[each, top] = row
        factor = sub[:, :, col].copy()
        factor[each, top] = 0
        stack[which] = (sub - factor[:, :, None] * row[:, None]) % q
        rank[which] += 1
    return int(rank[0]) if m.ndim == 2 else rank.reshape(m.shape[:-2])


def test_rank_mod():
    assert rank_mod(np.eye(5, dtype=int), 3) == 5
    assert rank_mod(np.zeros((5, 5), dtype=int), 3) == 0
    m = np.array([[1, 2], [2, 4]])  # second row = 2 * first mod 3... not mod 5
    assert rank_mod(m, 3) == 1
    assert rank_mod(m, 5) == 1
    m = np.array([[1, 2], [2, 1]])
    assert rank_mod(m, 3) == 1  # det = -3 = 0 mod 3
    assert rank_mod(m, 5) == 2


def kernel_rank(matrix, q):
    """cols - log_q |{v in F_q^cols : M v = 0}|, the kernel counted over
    every vector."""
    cols = matrix.shape[-1]
    vectors = np.indices((q,) * cols, dtype=np.int64).reshape(cols, -1)
    size = int(((matrix @ vectors) % q == 0).all(axis=0).sum())
    dim = 0
    while q**dim < size:
        dim += 1
    assert q**dim == size
    return cols - dim


@pytest.mark.parametrize("q", [3, 5, 7])
def test_stacked_rank_mod_matches_kernel_counts(q):
    rng = np.random.default_rng(q)
    for rows, cols in ((5, 5), (3, 5)):
        low = [
            rng.integers(0, q, (rows, k)) @ rng.integers(0, q, (k, cols)) for k in (1, 1, 2, 3)
        ]
        stack = np.stack(
            [np.zeros((rows, cols), dtype=np.int64), np.eye(rows, cols, dtype=np.int64)]
            + low
            + list(rng.integers(0, q, (6, rows, cols)))
        )
        ranks = rank_mod(stack, q)
        assert ranks.tolist() == [kernel_rank(m, q) for m in stack]
        assert ranks[1] == rows and ranks[0] == 0 and min(ranks) < max(ranks[2:])
        assert np.array_equal(rank_mod(stack.reshape(3, 4, rows, cols), q), ranks.reshape(3, 4))
        single = rank_mod(stack[2], q)
        assert type(single) is int and single == ranks[2]


def test_constructor_guards():
    with pytest.raises(ValueError):
        OrthogonalGeometry(q=2)
    with pytest.raises(ValueError):
        OrthogonalGeometry(q=9)


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
        assert ((g.T @ g) % q == np.eye(5, dtype=np.int64)).all()


def test_enumeration_guard():
    geo = OrthogonalGeometry(q=5)
    with pytest.raises(ValueError):
        geo.enumerate_group()


def test_enumeration_order_check_fires_both_ways(monkeypatch):
    # too few generators leave the table buffer mostly empty; a reflection
    # (det -1) closes to O_5, and overflows the buffer of |SO_5| rows
    geo = OrthogonalGeometry(q=3)
    gens = geo.generators()
    reflection = geo.reflection([1, 0, 0, 0, 0])
    for chosen, count in ((gens[:2], "4"), (gens + [reflection], "over 51840")):
        geo = OrthogonalGeometry(q=3)
        monkeypatch.setattr(geo, "generators", lambda chosen=chosen: chosen)
        with pytest.raises(RuntimeError) as raised:
            geo.enumerate_group()
        assert str(raised.value) == f"enumeration produced {count} elements, expected 51840"


def fixed_line_scalar(geo, g, line_vec):
    """Scalar of g on a fixed line, None if the line moves, in the symmetric
    range (-q/2, q/2]: the one-line route ``line_action`` replaced."""
    q = geo.q
    v = np.array(line_vec, dtype=np.int64) % q
    image = (np.array(g) @ v) % q
    support = np.nonzero(v)[0][0]
    if image[support] == 0:
        return None
    scalar = (int(image[support]) * pow(int(v[support]), q - 2, q)) % q
    if ((scalar * v) % q != image).any():
        return None
    return scalar if scalar <= q // 2 else scalar - q


def test_fixed_line_scalar(geo3):
    identity = np.eye(5, dtype=np.int64)
    assert fixed_line_scalar(geo3, identity, [1, 0, 0, 0, 0]) == 1
    flip = np.diag([2, 2, 1, 1, 1]) % 3
    assert fixed_line_scalar(geo3, flip, [1, 0, 0, 0, 0]) == -1
    assert fixed_line_scalar(geo3, flip, [1, 0, 1, 0, 0]) is None


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
        if fixed_line_scalar(geo3, member, vec) == 1
    ]
    assert fixed == [label.eps]


def test_split_type_detection(geo3):
    # with the identity form at q=3, square-norm lines have split perp
    assert geo3.split_line_type() == 1
    assert geo3.perp_is_split([1, 0, 0, 0, 0])
    assert not geo3.perp_is_split([1, 1, 0, 0, 0])


def isotropic_vectors_in_perp(geo, line_vec):
    """Nonzero isotropic vectors of the 4-space perpendicular to a line, by
    a basis found one candidate at a time and the sub-Gram matrix on it."""
    q = geo.q
    normal = np.array(line_vec, dtype=np.int64) % q
    basis = []
    for vec in itertools.product(range(q), repeat=5):
        arr = np.array(vec, dtype=np.int64)
        if any(vec) and int(arr @ normal) % q == 0:
            basis.append(arr)
            if rank_mod(np.stack(basis), q) < len(basis):
                basis.pop()
        if len(basis) == 4:
            break
    basis = np.stack(basis)
    sub_gram = (basis @ basis.T) % q
    coeffs = np.array(list(itertools.product(range(q), repeat=4)), dtype=np.int64)
    norms = np.einsum("ci,ij,cj->c", coeffs, sub_gram, coeffs) % q
    return int((norms == 0).sum()) - 1  # drop the zero vector


@pytest.mark.parametrize("q", [3, 5, 7])
def test_split_type_by_line_count_matches_the_vector_count(q):
    geo = OrthogonalGeometry(q=q)
    for line_type in (1, -1):
        vec = geo.lines[geo.line_types == line_type][0]
        count = isotropic_vectors_in_perp(geo, vec)
        assert count in (q**3 + q**2 - q - 1, q**3 - q**2 + q - 1)
        assert geo.perp_is_split(vec) == (count == q**3 + q**2 - q - 1)


def test_stabilizer_cosets(geo3):
    split = geo3.stabilizer(split=True)
    nonsplit = geo3.stabilizer(split=False)
    assert len(split.line_indices) == 45
    assert len(nonsplit.line_indices) == 36
    assert split.order * 45 == 51840
    assert nonsplit.order * 36 == 51840
    identity = np.eye(5, dtype=np.int64)
    assert split.transporters.shape == (45, 5, 5)
    assert (split.transporters[0] == identity).all()
    assert geo3.induced_char(split, identity) == (45, 45)
    assert geo3.induced_char(nonsplit, identity) == (36, 36)
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
        expected = [fixed_line_scalar(geo, g, vec) for vec in geo.lines]
        assert action.tolist() == [0 if s is None else s for s in expected]


def test_signed_tables_widen_past_int16():
    # 16,105 lines at q = 11: entries up to 177,155 need more than int16
    geo = OrthogonalGeometry(q=11)
    g = geo.random_element(random.Random(2))
    tables = geo._signed_tables(np.stack([np.eye(5, dtype=np.int64), g]))
    assert tables.dtype == np.int32
    assert tables[0].tolist() == [11 * i + 1 for i in range(len(geo.lines))]
    action = geo.line_action(g)
    fixed = np.flatnonzero(action).tolist()
    for idx in fixed + random.Random(3).sample(range(len(geo.lines)), 200):
        expected = fixed_line_scalar(geo, g, geo.lines[idx])
        assert action[idx] == (0 if expected is None else expected)


def test_closure_enumerates_the_group(geo3):
    elements = geo3.enumerate_group()
    q = geo3.q
    assert (elements[0] == np.eye(5, dtype=np.int64)).all()
    assert len(np.unique(elements.reshape(len(elements), 25), axis=0)) == 51840
    forms = np.einsum("nji,njl->nil", elements, elements) % q
    assert (forms == np.eye(5, dtype=np.int64)).all()


def test_class_orbits_cover_the_scanned_members(geo3):
    elements = geo3.enumerate_group()
    members = geo3._batched_scan()[1]
    representatives = {}
    for i in np.where(members)[0]:
        label = geo3.in_class_c(elements[i])
        representatives.setdefault(label, elements[i])
        if len(representatives) == 4:
            break
    assert len(representatives) == 4
    sizes = [geo3.conjugacy_class_size(g) for g in representatives.values()]
    assert sum(sizes) == int(members.sum()) == 5760
    # the centralizer count against the orbit under conjugation by the
    # generators, for the representatives and for non-members
    gens = np.stack(geo3.generators())
    inverses = geo3.inverse(gens)
    non_members = [
        (np.eye(5, dtype=np.int64), 1),
        (np.diag([1, 2, 2, 2, 2]), 45),
        (gens[-1], 5184),  # the 5-cycle
        (elements[1], 270),
        (elements[777], 5760),
    ]
    for g, size in [(g, 1440) for g in representatives.values()] + non_members:
        orbit = matrix_closure(
            geo3, g, lambda batch: inverses[:, None] @ batch[None] @ gens[:, None]
        )
        assert geo3.conjugacy_class_size(g) == len(orbit) == size


# --- the matrix routes the signed line tables replaced, kept as references ---


def matrix_closure(geo, start, step):
    """Breadth-first closure over 5x5 matrices mod q, deduplicated by int64
    matrix codes with np.unique/np.isin, first occurrence kept."""
    q = geo.q
    weights = q ** np.arange(25, dtype=np.int64)
    frontier = (np.asarray(start, dtype=np.int64) % q)[None]
    seen = frontier.reshape(1, 25) @ weights
    found = [frontier]
    while len(frontier):
        images = step(frontier).reshape(-1, 5, 5) % q
        codes = images.reshape(-1, 25) @ weights
        _, first = np.unique(codes, return_index=True)
        first.sort()
        first = first[~np.isin(codes[first], seen, assume_unique=True)]
        frontier = images[first]
        seen = np.concatenate([seen, codes[first]])
        found.append(frontier)
    return np.concatenate(found)


def table_matrices(geo, tables):
    """Matrices of signed line tables: column i is the entry at basis line i."""
    basis = [geo.line_index(np.eye(5, dtype=np.int64)[i]) for i in range(5)]
    line, scalar = np.divmod(tables[:, basis].astype(np.int64), geo.q)
    return ((scalar[..., None] * geo.lines[line]) % geo.q).transpose(0, 2, 1)


def scan_by_products(geo):
    """Fixed and negated lines, membership and trace from elements x lines
    products, with the (g + 1)^2 kernel test run on every element."""
    q = geo.q
    elements = geo.enumerate_group()
    small = elements.astype(np.int8)
    x = geo.lines.T.astype(np.int8)
    gx = (small @ x) % q
    fixed = (gx == x[None]).all(axis=1)
    negated = (gx == ((-x) % q).astype(np.int8)[None]).all(axis=1)
    del gx
    plus = ((elements + np.eye(5, dtype=np.int64)) % q).astype(np.int8)
    plus_sq = ((plus.astype(np.int16) @ plus) % q).astype(np.int8)
    kernel_sq = (((plus_sq @ x) % q) == 0).all(axis=1)
    rank_tests = [fixed.sum(axis=1) == 1, negated.sum(axis=1) == q + 1]
    members = rank_tests[0] & rank_tests[1] & (kernel_sq.sum(axis=1) == q**2 + q + 1)
    trace = 2 * (negated & (geo.line_types == 1)).sum(axis=1) - 2 * (
        negated & (geo.line_types == -1)
    ).sum(axis=1)
    return elements, fixed, negated, members, trace, rank_tests


def coset_model_by_lines(geo, stab, elements):
    """ind(1) and ind(det) by finding each element's fixed coset lines and
    conjugating the fixers back by the transporter."""
    q = geo.q
    cols = geo.lines[list(stab.line_indices)].T.astype(np.int8)
    gx = (elements.astype(np.int8) @ cols) % q
    fixes_line = (gx == cols[None]).all(axis=1) | (
        gx == ((-cols) % q).astype(np.int8)[None]
    ).all(axis=1)
    base_vec = geo.lines[stab.base_index]
    ind_one = np.zeros(len(elements), dtype=np.int64)
    ind_det = np.zeros(len(elements), dtype=np.int64)
    for k in range(len(stab.line_indices)):
        fixers = np.where(fixes_line[:, k])[0]
        x = stab.transporters[k]
        conjugates = (geo.inverse(x) @ elements[fixers] @ x) % q
        images = (conjugates @ base_vec) % q
        det_plus = (images == base_vec).all(axis=1)
        assert (det_plus | (images == (-base_vec) % q).all(axis=1)).all()
        ind_one[fixers] += 1
        ind_det[fixers] += np.where(det_plus, 1, -1)
    return ind_one, ind_det


def test_signed_tables_match_the_line_products(geo3):
    elements = geo3.enumerate_group()
    assert geo3._tables.shape == (51840, 121)
    for start in range(0, len(elements), 4096):
        chunk = slice(start, start + 4096)
        line, scalar = np.divmod(geo3._tables[chunk].astype(np.int64), 3)
        assert ((scalar == 1) | (scalar == 2)).all()
        images = ((elements[chunk] @ geo3.lines.T) % 3).transpose(0, 2, 1)
        assert np.array_equal((scalar[..., None] * geo3.lines[line]) % 3, images)


def test_table_closure_matches_the_matrix_closure(geo3):
    gens = np.stack(geo3.generators())
    reference = matrix_closure(
        geo3, np.eye(5, dtype=np.int64), lambda batch: batch[None] @ gens[:, None]
    )
    elements = geo3.enumerate_group()
    assert elements.dtype == reference.dtype
    assert np.array_equal(elements, reference)
    assert np.array_equal(table_matrices(geo3, geo3._tables), reference)


def test_scan_matches_the_full_rank_scan(geo3):
    trace, members, eps, delta = geo3._batched_scan()
    _, ref_fixed, ref_negated, ref_members, ref_trace, rank_tests = scan_by_products(geo3)
    assert int((rank_tests[0] & rank_tests[1]).sum()) == 17820  # the candidates
    assert members.dtype == bool and np.array_equal(members, ref_members)
    assert int(members.sum()) == 5760
    assert trace.dtype == np.int64 and np.array_equal(trace, ref_trace)
    # the labels, read off the product masks: the fixed line's type, and the
    # one type among the negated lines' nonzero types
    types = geo3.line_types
    assert np.array_equal(eps[members], types[ref_fixed[members].argmax(axis=1)])
    plane_types = [set(types[row].tolist()) - {0} for row in ref_negated[members]]
    assert all(len(t) == 1 for t in plane_types)
    assert delta[members].tolist() == [t.pop() for t in plane_types]
    assert not eps[~members].any() and not delta[~members].any()


def test_scan_blocks_that_do_not_divide_the_group(geo3, monkeypatch):
    scan = geo3._batched_scan()
    rows = 4097  # 51,840 = 12 * 4,097 + 2,676
    monkeypatch.setattr(weylchars.so5, "CHUNK_ENTRIES", rows * len(geo3.lines) + 5)
    blocks = []
    original = geo3._twisted_class

    def spy(fixed, negated, kernel_sq_lines):
        blocks.append(len(fixed))
        return original(fixed, negated, kernel_sq_lines)

    monkeypatch.setattr(geo3, "_twisted_class", spy)
    blocked = geo3._batched_scan()
    assert blocks == [rows] * 12 + [2676]
    for got, want in zip(blocked, scan):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_scatter_coset_model_matches_the_line_route(geo3):
    elements = geo3.enumerate_group()
    for split in (True, False):
        stab = geo3.stabilizer(split)
        got = geo3._coset_model_batch(stab)
        want = coset_model_by_lines(geo3, stab, elements)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert int(got[0][0]) == len(stab.line_indices)


def test_coset_model_runs_in_blocks(geo3, monkeypatch):
    coded = []
    original = geo3._matrix_codes

    def spy(matrices):
        codes = original(matrices)
        coded.append(len(codes))
        return codes

    monkeypatch.setattr(geo3, "_matrix_codes", spy)
    for split in (True, False):
        stab = geo3.stabilizer(split)
        coded.clear()
        geo3._coset_model_batch(stab)
        # one call per block of conjugates, a quarter of CHUNK_ENTRIES
        # outputs each, since coding widens to int64
        assert len(coded) == 10 and sum(coded) == stab.order * len(stab.transporters)
        assert max(coded) * 25 * 4 <= CHUNK_ENTRIES


def test_the_enumeration_is_coded_once(monkeypatch):
    geo = OrthogonalGeometry(q=3)
    coded = []
    original = geo._matrix_codes

    def spy(matrices):
        coded.append(len(matrices))
        return original(matrices)

    monkeypatch.setattr(geo, "_matrix_codes", spy)
    for _ in range(2):
        assert geo.verify(seed=0).ok
    # the closure codes the elements itself: both checks' coset models, two
    # stabilizers each, code only their 10 blocks of conjugates
    assert len(coded) == 4 * 10 and 51840 not in coded
    # and its codes are the element codes, sorted once
    order, codes = geo._element_codes
    assert codes.dtype == np.int64
    assert np.array_equal(original(geo.enumerate_group())[order], codes)
    assert (np.diff(codes) > 0).all()


def test_verify_peak_memory():
    # a fresh geometry's whole check, enumeration included, by tracemalloc
    # (numpy reports its buffers to it); whole-group temporaries took 41.9 MiB
    tracemalloc.start()
    try:
        record = OrthogonalGeometry(q=3).verify(seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.ok
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_member_labels_match_the_membership_test(geo3):
    elements = geo3.enumerate_group()
    trace, members, eps, delta = geo3._batched_scan()
    index = np.flatnonzero(members)
    assert np.array_equal(np.flatnonzero(eps), index)
    eps, delta = eps[index], delta[index]
    labels = list(zip(eps.tolist(), delta.tolist()))
    assert sorted(set(labels)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert all(labels.count(label) == 1440 for label in set(labels))
    assert np.array_equal(trace[index], 6 * delta)
    rng = random.Random(5)
    for k in rng.sample(range(len(index)), 40):
        assert geo3.in_class_c(elements[index[k]]) == ClassCLabel(*labels[k])


def test_support_batch_matches_the_full_scan(geo3):
    elements = geo3.enumerate_group()
    scan = geo3._batched_scan()
    assert CHUNK_ENTRIES // (5 * len(geo3.lines)) < len(elements)  # chunked
    batch = geo3._support_batch(elements)
    for got, want in zip(batch, scan):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    got_trace, _, _, got_delta = batch
    assert np.array_equal(got_trace, 2 * 3 * got_delta)  # the support identity


def twisted_member(geo):
    """s E(e, a) for s = diag(1, -1, -1, -1, -1) and the Eichler transformation
    x -> x + (x.e) a - (x.a) e - (a.a)/2 (x.e) e, with e isotropic and a
    anisotropic and perpendicular to e, both in the hyperplane s negates:
    its unipotent part has Jordan blocks 3, 1, 1, so it lies in the twisted
    class at every odd q."""
    q = geo.q
    hyper = geo.lines[geo.lines[:, 0] == 0]
    norms = (hyper * hyper).sum(axis=1) % q
    e = hyper[norms == 0][0]
    a = next(v for v, n in zip(hyper, norms) if n and v @ e % q == 0)
    half = int(a @ a) * pow(2, q - 2, q)
    eichler = np.eye(5, dtype=np.int64) + np.outer(a, e) - np.outer(e, a) - half * np.outer(e, e)
    return (np.diag([1, -1, -1, -1, -1]) @ eichler) % q


def word_stack(geo):
    """Eight seeded words and ``twisted_member``, then their conjugates by
    nine more words: the twisted member sits at rows 8 and 17."""
    q = geo.q
    rng = random.Random(q)
    words = np.stack([geo.random_element(rng) for _ in range(8)] + [twisted_member(geo)])
    h = np.stack([geo.random_element(rng) for _ in words])
    return np.concatenate([words, (geo.inverse(h) @ words @ h) % q])


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_support_batch_masks_match_the_int64_products(q):
    geo = OrthogonalGeometry(q=q)
    stack = word_stack(geo)
    if q >= 11:
        assert CHUNK_ENTRIES // (5 * len(geo.lines)) < len(stack)  # chunked (3 at q = 13)
    trace, _, eps, _ = geo._support_batch(stack)
    plus = stack + np.eye(5, dtype=np.int64)
    negated = np.stack([((p @ geo.lines.T) % q == 0).all(axis=0) for p in plus])
    assert np.array_equal(trace, 2 * (negated @ geo.line_types))
    assert eps[[8, 17]].all() and trace[[8, 17]].all()


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_support_batch_members_match_the_rank_tests(q):
    geo = OrthogonalGeometry(q=q)
    stack = word_stack(geo)
    eye = np.eye(5, dtype=np.int64)
    plus = stack + eye
    ranks = [rank_mod(m, q) for m in (stack - eye, plus, plus @ plus)]
    expected = (ranks[0] == 4) & (ranks[1] == 3) & (ranks[2] == 2)
    _, members, eps, delta = geo._support_batch(stack)
    assert expected[[8, 17]].all()
    assert np.array_equal(members, expected)
    assert np.array_equal(eps != 0, expected) and np.array_equal(delta != 0, expected)


def test_coset_model_guards(geo3, monkeypatch):
    elements = geo3.enumerate_group()
    stab = geo3.stabilizer(split=True)
    wrong = dataclasses.replace(stab, order=stab.order + 1)
    with pytest.raises(RuntimeError, match="base-line stabilizer"):
        geo3._coset_model_batch(wrong)
    # drop the code of one element that fixes a coset line but not the base
    # line
    coset_lines = list(stab.line_indices)
    dropped = next(
        i
        for i, g in enumerate(elements)
        if geo3.line_action(g)[stab.base_index] == 0
        and geo3.line_action(g)[coset_lines].any()
    )
    order, codes = geo3._element_codes
    k = int(np.flatnonzero(order == dropped)[0])
    monkeypatch.setattr(geo3, "_element_codes", (np.delete(order, k), np.delete(codes, k)))
    with pytest.raises(RuntimeError, match="not a group element"):
        geo3._coset_model_batch(stab)


def test_coded_kernels_reject_what_they_cannot_code():
    geo = OrthogonalGeometry(q=7)
    with pytest.raises(ValueError, match="int64 codes need q <= 5"):
        geo._matrix_codes(np.eye(5, dtype=np.int64)[None])
    with pytest.raises(ValueError):
        geo.line_index([0, 0, 0, 0, 0])


def test_verify_reports_broken_labels(geo3, monkeypatch):
    trace, members, eps, delta = geo3._batched_scan()
    index = np.flatnonzero(members)

    def corrupted():
        bad_eps, bad_delta = eps.copy(), delta.copy()
        bad_eps[index[0]], bad_delta[index[1]], bad_delta[index[2]] = 0, 0, -delta[index[2]]
        return trace, members, bad_eps, bad_delta

    monkeypatch.setattr(geo3, "_batched_scan", corrupted)
    record = geo3.verify(seed=0)
    assert record.status == "fail"
    assert f"element {index[0]}: fixed line not anisotropic" in record.counterexamples
    assert f"element {index[1]}: mixed (-1)-plane types" in record.counterexamples
    # a broken delta also breaks the support identity there
    for i, support in ((index[1], 0), (index[2], -2 * delta[index[2]] * 3)):
        assert f"element {i}: trace {trace[i]} != support value {support}" in record.counterexamples


def scan_without_members(original):
    """A stand-in for ``_batched_scan`` that keeps the trace and reports no
    twisted-class member."""

    def scan(*args):
        trace, members, eps, delta = original(*args)
        return trace, np.zeros_like(members), np.zeros_like(eps), np.zeros_like(delta)

    return scan


def assert_verify_fails_with(geo, monkeypatch, capsys, name, wrap, expected):
    """Replace method ``name`` by ``wrap(original)``, first on geo and then
    on the class, since the CLI builds its own geometry: ``verify`` (at
    q = 3, else ``verify_sampled`` with the CLI's 200 samples) must fail
    with ``expected`` among its counterexamples, and ``weylchars verify
    so5`` at geo's q must print it in a failed record and exit 1, not as an
    error.  Returns what the CLI printed."""
    monkeypatch.setattr(geo, name, wrap(getattr(geo, name)))
    record = geo.verify(seed=0) if geo.q == 3 else geo.verify_sampled(200, seed=0)
    assert record.status == "fail"
    assert expected in record.counterexamples
    monkeypatch.setattr(OrthogonalGeometry, name, wrap(getattr(OrthogonalGeometry, name)))
    q_args = [] if geo.q == 3 else ["--q", str(geo.q)]
    assert weylchars.cli.main(["verify", "so5", "--no-timing", *q_args]) == 1
    out = capsys.readouterr().out
    assert "status: fail" in out and f"  - {expected}\n" in out
    return out


def edited(edit):
    """A wrapper for ``_batched_scan`` or ``_support_batch`` that hands
    copies of the four arrays to ``edit`` and returns its result."""

    def wrap(original):
        def scan(*args):
            return edit(*(part.copy() for part in original(*args)))

        return scan

    return wrap


def test_verify_fails_without_members(geo3, monkeypatch, capsys):
    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_batched_scan", scan_without_members, "labels realized: []"
    )


def test_verify_reports_a_nonzero_trace_off_the_class(geo3, monkeypatch, capsys):
    i = int(np.flatnonzero(~geo3._batched_scan()[1])[0])

    def edit(trace, members, eps, delta):
        trace[i] = 2
        return trace, members, eps, delta

    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_batched_scan", edited(edit),
        f"element {i}: trace 2 != support value 0",
    )


def test_verify_reports_a_trace_that_pairs_with_trivial(geo3, monkeypatch, capsys):
    # one member's label and trace flipped together: the support identity
    # still holds there, and no trace moves off the class
    trace, members = geo3._batched_scan()[:2]
    m = int(np.flatnonzero(members)[0])

    def edit(trace, members, eps, delta):
        trace[m], delta[m] = -trace[m], -delta[m]
        return trace, members, eps, delta

    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_batched_scan", edited(edit),
        f"virtual character pairs with trivial: {-2 * trace[m]}",
    )


def one_more(original):
    """A wrapper that adds 1 to what ``original`` returns."""
    return lambda *args: original(*args) + 1


def test_verify_reports_a_wrong_orbit_size(geo3, monkeypatch, capsys):
    out = assert_verify_fails_with(
        geo3, monkeypatch, capsys, "conjugacy_class_size", one_more,
        "label (-1, -1): orbit 1441 != set size 1440",
    )
    for label in ("(-1, 1)", "(1, -1)", "(1, 1)"):
        assert f"  - label {label}: orbit 1441 != set size 1440\n" in out


def first_sampled(geo3):
    """The element ``verify(seed=0)`` samples first, a class member: row 0
    of its ``_support_batch`` stack, whose conjugate is row 16."""
    members = np.flatnonzero(geo3._batched_scan()[1])
    return int(members[random.Random(0).randrange(len(members))])


@pytest.mark.parametrize(
    "part, rows, message",
    [
        (0, [0], "per-element trace disagrees"),
        # the conjugate's delta flips too, so the label stays invariant
        (3, [0, 16], "support value disagrees"),
        (2, [16], "label not conjugation invariant"),
    ],
    ids=["trace", "support", "label"],
)
def test_verify_reports_a_per_element_disagreement(geo3, monkeypatch, capsys, part, rows, message):
    # negates one of the four arrays of _support_batch at the given rows
    def edit(*parts):
        parts[part][rows] *= -1
        return parts

    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_support_batch", edited(edit),
        f"element {first_sampled(geo3)}: {message}",
    )


def test_verify_reports_a_per_element_coset_model_disagreement(geo3, monkeypatch, capsys):
    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "induced_virtual_trace", one_more,
        f"element {first_sampled(geo3)}: per-element coset model disagrees",
    )


def test_verify_reports_a_wrong_line_census(geo3, monkeypatch, capsys):
    def one_more_isotropic(original):
        def census(*args):
            iso, plus, minus = original(*args)
            return iso + 1, plus, minus

        return census

    out = assert_verify_fails_with(
        geo3, monkeypatch, capsys, "line_census", one_more_isotropic, "isotropic line count 41"
    )
    assert "  - line total 122\n" in out


def test_sampled_check_reports_a_trace_off_the_support_value(monkeypatch, capsys):
    def edit(trace, members, eps, delta):
        trace[0] = 2  # seed 0's first sample lies off the class: support value 0
        return trace, members, eps, delta

    assert_verify_fails_with(
        OrthogonalGeometry(q=5), monkeypatch, capsys, "_support_batch", edited(edit),
        "sample 0: trace 2 != support value 0",
    )


def test_sampled_check_reports_broken_labels(monkeypatch):
    geo = OrthogonalGeometry(q=5)
    original = geo._labels
    zeroed = []

    def first_eps_zeroed(fixed, negated):
        # the batch runs in chunks, one call each: zero only the first member's eps
        eps, delta = original(fixed, negated)
        if len(eps) and not zeroed:
            eps[0] = 0
            zeroed.append(True)
        return eps, delta

    rng = random.Random(0)
    words = np.stack([geo.random_element(rng) for _ in range(200)])
    first = int(np.flatnonzero(geo._support_batch(words)[1])[0])
    monkeypatch.setattr(geo, "_labels", first_eps_zeroed)
    record = geo.verify_sampled(samples=200, seed=0)
    assert record.status == "fail"
    assert record.counterexamples == (f"sample {first}: fixed line not anisotropic",)


def shift_coset_model(geo, monkeypatch, i, one, det):
    """Make the split stabilizer's coset model add ``one`` to ind(1) and
    ``det`` to ind(det) at element i."""
    original = geo._coset_model_batch
    split = geo.stabilizer(split=True)

    def shifted(stab):
        ind_one, ind_det = original(stab)
        if stab is split:
            ind_one[i] += one
            ind_det[i] += det
        return ind_one, ind_det

    monkeypatch.setattr(geo, "_coset_model_batch", shifted)


def test_verify_reports_a_coset_model_mismatch(geo3, monkeypatch):
    trace = geo3._batched_scan()[0]
    shift_coset_model(geo3, monkeypatch, 7, 0, 1)
    record = geo3.verify(seed=0)
    assert record.status == "fail"
    assert record.counterexamples == (
        f"element 7: coset model {trace[7] - 1} != line count {trace[7]}",
    )


def test_verify_reports_a_wrong_induced_dimension(geo3, monkeypatch):
    # shifting ind(1) and ind(det) together leaves the virtual trace alone
    shift_coset_model(geo3, monkeypatch, 0, 1, 1)
    record = geo3.verify(seed=0)
    assert record.status == "fail"
    assert record.counterexamples == ("induced dimension != coset count at the identity",)
