import itertools
import random
import tracemalloc

import numpy as np
import pytest

import weylchars.cli
from weylchars.so5 import (
    CHUNK_ENTRIES,
    ClassCLabel,
    OrthogonalGeometry,
    _divisible,
    _in_row_blocks,
    is_prime,
)


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


def test_numpy_integer_q_acts_as_an_int():
    geo = OrthogonalGeometry(np.int64(3))
    assert type(geo.q) is int
    assert geo.line_census() == OrthogonalGeometry(3).line_census()
    with pytest.raises(TypeError):
        OrthogonalGeometry(3.0)


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


def test_enumeration_is_a_read_only_int8_array(geo3):
    elements = geo3.enumerate_group()
    assert elements.dtype == np.int8 and not elements.flags.writeable
    assert elements.nbytes == 51840 * 25
    with pytest.raises(ValueError):
        elements[0, 0, 0] = 1


def test_int8_rows_read_as_their_int64_widening(geo3, scan3):
    # the four class representatives (the first member of each label in
    # the scan) and 8 off-class rows: every per-element entry point gives
    # the same result on an enumerated int8 row and on its int64 widening
    elements = geo3.enumerate_group()
    _, members, eps, delta = scan3
    labels = {}
    for i in np.flatnonzero(members):
        labels.setdefault((int(eps[i]), int(delta[i])), int(i))
    assert len(labels) == 4
    off_class = np.flatnonzero(~members)[::5000][:8].tolist()
    rows = sorted(labels.values()) + off_class
    assert len(rows) == 12
    narrow = elements[rows]
    wide = narrow.astype(np.int64)
    for g8, g64 in zip(narrow, wide):
        assert geo3.in_class_c(g8) == geo3.in_class_c(g64)
        assert geo3.line_count_trace(g8) == geo3.line_count_trace(g64)
        assert geo3.class_support_value(g8) == geo3.class_support_value(g64)
        assert geo3.conjugacy_class_size(g8) == geo3.conjugacy_class_size(g64)
        inverse8, inverse64 = geo3.inverse(g8), geo3.inverse(g64)
        assert inverse8.dtype == inverse64.dtype and np.array_equal(inverse8, inverse64)
    tables8, tables64 = geo3._signed_tables(narrow), geo3._signed_tables(wide)
    assert tables8.dtype == tables64.dtype and np.array_equal(tables8, tables64)


def test_enumeration_guard():
    geo = OrthogonalGeometry(q=5)
    with pytest.raises(ValueError):
        geo.enumerate_group()


def test_verify_guard():
    # raised before any stabilizer is built: at q = 5 H's tables would take
    # about 47 MB per type
    geo = OrthogonalGeometry(q=5)
    with pytest.raises(ValueError, match="full verification is guarded to q=3"):
        geo.verify(seed=0)
    assert geo._stabilizers == {} and geo._subgroups == {}


def test_enumeration_order_check_fires_both_ways(monkeypatch):
    # H is built from the frames of the base line's perpendicular: one frame
    # short, or one repeated, and its row count is not |H|
    for edit, count in ((lambda m: m[:-1], 1151), (lambda m: np.concatenate([m, m[:1]]), 1153)):
        geo = OrthogonalGeometry(q=3)
        original = geo._stabilizer_matrices
        monkeypatch.setattr(geo, "_stabilizer_matrices", lambda line, e=edit: e(original(line)))
        with pytest.raises(RuntimeError) as raised:
            geo.enumerate_group()
        assert str(raised.value) == f"frames give {count} elements, expected 1152"


def test_enumeration_distinctness_check(monkeypatch):
    # transporter 1 in slot 2 as well: the cosets x_1 H and x_2 H coincide,
    # so the count still reads |G| but the sorted codes repeat
    geo = OrthogonalGeometry(q=3)
    original = geo._witt_transporters

    def repeated(line_type):
        indices, transporters = original(line_type)
        transporters[2] = transporters[1]
        return indices, transporters

    monkeypatch.setattr(geo, "_witt_transporters", repeated)
    with pytest.raises(RuntimeError, match="^enumeration repeats an element$"):
        geo.enumerate_group()


@pytest.mark.parametrize("q", [3, 5, 7])
def test_witt_transporters(q):
    # each transporter is in SO_5 and takes the base line to its own line,
    # checked against the line representatives, with no enumeration
    geo = OrthogonalGeometry(q=q)
    for split in (True, False):
        stab = geo.stabilizer(split)
        x = stab.transporters
        assert stab.order * len(stab.line_indices) == geo.group_order_formula()
        assert ((x.transpose(0, 2, 1) @ x) % q == np.eye(5, dtype=np.int64)).all()
        assert (np.rint(np.linalg.det(x)).astype(np.int64) % q == 1).all()
        images = (x @ geo.lines[stab.base_index]) % q
        reps = geo.lines[list(stab.line_indices)]
        on_line = [((c * reps) % q == images).all(axis=1) for c in range(1, q)]
        assert np.logical_or.reduce(on_line).all()
        assert (x[0] == np.eye(5, dtype=np.int64)).all()
    assert geo._elements is None and not geo._subgroups


def witt_transporters_by_one_product(geo, line_type):
    """The Witt transporters with the perpendicular anisotropic line a of
    each w found by one (#lines of the type) x (#lines) product over all
    lines: the reference for the library's product over the first
    q^2 + q + 1 lines."""
    q = geo.q
    indices = np.flatnonzero(geo.line_types == line_type)
    u = geo.lines[indices[0]]
    root = np.zeros(q, dtype=np.int64)
    root[np.arange(q) ** 2 % q] = np.arange(q)
    ratio = geo.norms[indices[0]] * geo._inverse_mod[geo.norms[indices]] % q
    w = root[ratio][:, None] * geo.lines[indices] % q
    d = (u - w) % q
    swap = (d * d).sum(axis=1) % q == 0
    d[swap] = (u + w[swap]) % q
    perp = ((w @ geo.lines.T) % q == 0) & (geo.line_types != 0)
    transporters = (geo._reflections(geo.lines[perp.argmax(axis=1)]) @ geo._reflections(d)) % q
    transporters[0] = np.eye(5, dtype=np.int64)
    return indices, transporters


@pytest.mark.parametrize("q", [3, 5, 7])
def test_witt_transporters_match_the_one_product_choice(q):
    # the first anisotropic line perpendicular to w is always among the
    # lines of the last three coordinates
    geo = OrthogonalGeometry(q=q)
    for line_type in (1, -1):
        want_indices, want = witt_transporters_by_one_product(geo, line_type)
        indices, transporters = geo._witt_transporters(line_type)
        assert np.array_equal(indices, want_indices)
        assert transporters.dtype == want.dtype and np.array_equal(transporters, want)


def reflection_pairs(geo, line):
    """Generators of the stabilizer of the anisotropic line u in SO_5:
    r_a r_b for the anisotropic lines a of u's perpendicular other than the
    first, b, and r_u r_b, each reflection 1 - 2 x x^T / (x . x) built
    here.  The r_a generate O(u^perp) (Cartan-Dieudonne), so the pairs
    generate its SO, and r_u r_b adds the other coset."""
    q = geo.q
    u = geo.lines[line]
    norms = (geo.lines * geo.lines).sum(axis=1) % q
    perp = geo.lines[((geo.lines @ u) % q == 0) & (norms != 0)]
    mirrors = [
        (np.eye(5, dtype=np.int64) - 2 * pow(int(x @ x), q - 2, q) * np.outer(x, x)) % q
        for x in [*perp, u]
    ]
    return np.stack([(a @ mirrors[0]) % q for a in mirrors[1:]])


def test_line_stabilizer_closures_reach_their_order():
    # at q = 3, the frames give, for both base lines, the same set of
    # matrices as the closure of reflection pairs, |G| / #lines of them,
    # and H's cache holds those matrices and their signed tables, row for
    # row
    geo = OrthogonalGeometry(q=3)
    weights = 3 ** np.arange(25, dtype=np.int64)
    for split, order in ((True, 1152), (False, 1440)):
        stab = geo.stabilizer(split)
        gens = reflection_pairs(geo, stab.base_index)
        reference = matrix_closure(
            geo, np.eye(5, dtype=np.int64), lambda batch: batch[None] @ gens[:, None]
        )
        matrices = geo._stabilizer_matrices(stab.base_index)
        assert stab.order == order == len(matrices) == len(reference)
        assert (matrices[0] == np.eye(5, dtype=np.int64)).all()
        codes = matrices.reshape(-1, 25) @ weights
        assert np.array_equal(np.sort(codes), np.sort(reference.reshape(-1, 25) @ weights))
        cached, subgroup = geo._subgroup(stab)
        assert np.array_equal(cached, matrices)
        assert np.array_equal(table_matrices(geo, subgroup), matrices)
        assert (subgroup[:, stab.base_index] // 3 == stab.base_index).all()


def det_mod(matrices, q):
    """Determinant mod q of each 5 x 5 matrix in a stack, exactly, by the
    120 terms of the Leibniz formula (each product of residues stays below
    q^5)."""
    total = np.zeros(len(matrices), dtype=np.int64)
    for perm in itertools.permutations(range(5)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * matrices[:, range(5), perm].prod(axis=1)
    return total % q


def test_frames_build_the_line_stabilizers_at_q5():
    # 28,800 and 31,200 distinct elements of SO_5(F_5), the identity first,
    # each mapping the base line u to +-u: |G| / #lines of each type
    q = 5
    geo = OrthogonalGeometry(q=q)
    eye = np.eye(5, dtype=np.int64)
    assert det_mod(np.stack([eye, np.diag([1, 1, 1, 1, 4]), 2 * eye]), q).tolist() == [1, 4, 2]
    for split, order in ((True, 28800), (False, 31200)):
        stab = geo.stabilizer(split)
        matrices = geo._stabilizer_matrices(stab.base_index)
        assert matrices.shape == (order, 5, 5) == (stab.order, 5, 5)
        assert (matrices[0] == eye).all()
        assert ((matrices.swapaxes(1, 2) @ matrices) % q == eye).all()
        assert (det_mod(matrices, q) == 1).all()
        u = geo.lines[stab.base_index]
        images = (matrices @ u) % q
        plus, minus = (images == u).all(axis=1), (images == (-u) % q).all(axis=1)
        assert (plus | minus).all() and 2 * plus.sum() == order
        assert len(np.unique(matrices.reshape(-1, 25) @ q ** np.arange(25))) == order


def test_witt_transporter_landing_check(monkeypatch):
    # with every reflection replaced by the identity, transporter 1 stays on
    # the base line
    geo = OrthogonalGeometry(q=3)

    def identities(vectors):
        return np.tile(np.eye(5, dtype=np.int64), (len(vectors), 1, 1))

    monkeypatch.setattr(geo, "_reflections", identities)
    indices = np.flatnonzero(geo.line_types == geo.split_line_type())
    with pytest.raises(RuntimeError) as raised:
        geo.stabilizer(split=True)
    expected = f"transporter 1 takes the base line to line {indices[0]}, not {indices[1]}"
    assert str(raised.value) == expected


def fixed_line_scalar(geo, g, line_vec):
    """Scalar of g on a fixed line, None if the line moves, in the symmetric
    range (-q/2, q/2]: the one-line reference for the signed line tables."""
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


def table_fixed_scalars(geo, table, lines):
    """What a signed line table says of each of the lines: the scalar c of
    its entry l * q + c when the line l is fixed, in the symmetric range
    (-q/2, q/2], None when it moves."""
    q = geo.q
    out = []
    for line in lines:
        image, c = divmod(int(table[line]), q)
        out.append(None if image != line else c if c <= q // 2 else c - q)
    return out


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


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_split_signs_match_the_per_line_count(q):
    geo = OrthogonalGeometry(q=q)
    signs = geo._split_signs()
    assert signs.dtype == np.int64
    assert np.array_equal(signs, geo.split_line_type() * geo.line_types)
    # perp_is_split at every anisotropic line; at q = 11 (14,641 of them,
    # about 4 s one at a time) at every eighth
    anisotropic = np.flatnonzero(geo.line_types != 0)[:: 8 if q == 11 else 1]
    split = [geo.perp_is_split(geo.lines[line]) for line in anisotropic]
    assert np.array_equal(signs[anisotropic], np.where(split, 1, -1))


def test_split_signs_reject_an_unexpected_count(monkeypatch):
    geo = OrthogonalGeometry(q=3)
    iso = geo.lines[geo.line_types == 0]
    monkeypatch.setattr(geo, "lines", np.concatenate([geo.lines, iso[:1]]))
    monkeypatch.setattr(geo, "line_types", np.append(geo.line_types, 1))
    with pytest.raises(RuntimeError, match="unexpected isotropic line count 13 in a 4-space"):
        geo._split_signs()


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
    # transporter k maps the base line to coset line k, read off its own
    # signed table: a repeated or permuted transporter fails here
    for stab in (split, nonsplit):
        landed = geo3._signed_tables(stab.transporters)[:, stab.base_index] // geo3.q
        assert landed.tolist() == list(stab.line_indices)


def test_coset_model_matches_line_count_on_sample(geo3, coset3):
    # the coset model against the table-free per-element route
    elements = geo3.enumerate_group()
    split, nonsplit = coset3[True], coset3[False]
    rng = random.Random(42)
    for _ in range(12):
        i = rng.randrange(len(elements))
        assert split[i] - nonsplit[i] == geo3.line_count_trace(elements[i])


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
    # the seed-0 words hold 10 class members in their first 200, none in 25
    record = geo.verify_sampled(samples=200, seed=0)
    assert record.ok, record.counterexamples[:5]
    assert record.params == "q=5 sampled"
    for samples in (0, -1):
        with pytest.raises(ValueError):
            geo.verify_sampled(samples=samples)


@pytest.mark.parametrize("q", [3, 5])
def test_signed_table_matches_fixed_line_scalar(q):
    geo = OrthogonalGeometry(q=q)
    rng = random.Random(7)
    elements = [np.eye(5, dtype=np.int64)] + [geo.random_element(rng) for _ in range(6)]
    every_line = range(len(geo.lines))
    for g, table in zip(elements, geo._signed_tables(np.stack(elements))):
        expected = [fixed_line_scalar(geo, g, vec) for vec in geo.lines]
        assert table_fixed_scalars(geo, table, every_line) == expected


def test_signed_tables_widen_past_int16():
    # 16,105 lines at q = 11: entries up to 177,155 need more than int16
    geo = OrthogonalGeometry(q=11)
    g = geo.random_element(random.Random(2))
    tables = geo._signed_tables(np.stack([np.eye(5, dtype=np.int64), g]))
    assert tables.dtype == np.int32
    assert tables[0].tolist() == [11 * i + 1 for i in range(len(geo.lines))]
    fixed = np.flatnonzero(tables[1] // 11 == np.arange(len(geo.lines))).tolist()
    chosen = fixed + random.Random(3).sample(range(len(geo.lines)), 200)
    expected = [fixed_line_scalar(geo, g, geo.lines[idx]) for idx in chosen]
    assert table_fixed_scalars(geo, tables[1], chosen) == expected


def test_closure_enumerates_the_group(geo3):
    elements = geo3.enumerate_group()
    q = geo3.q
    assert (elements[0] == np.eye(5, dtype=np.int64)).all()
    assert len(np.unique(elements.reshape(len(elements), 25), axis=0)) == 51840
    forms = np.einsum("nji,njl->nil", elements, elements) % q
    assert (forms == np.eye(5, dtype=np.int64)).all()


def test_class_orbits_cover_the_scanned_members(geo3, scan3):
    elements = geo3.enumerate_group()
    members = scan3[1]
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
    # a regular unipotent element: g - 1 has ranks 4, 3, 2, 1, 0 in powers 1-5
    unipotent = np.array(
        [[0, 0, 0, 1, 0], [2, 2, 1, 0, 1], [1, 2, 1, 0, 2], [2, 1, 1, 0, 2], [2, 2, 2, 0, 2]]
    )
    nilpotent = unipotent - np.eye(5, dtype=np.int64)
    powers = [np.linalg.matrix_power(nilpotent, k) for k in range(1, 6)]
    assert [rank_mod(p, 3) for p in powers] == [4, 3, 2, 1, 0]
    non_members = [
        (np.eye(5, dtype=np.int64), 1),
        (np.diag([1, 2, 2, 2, 2]), 45),
        (gens[-1], 5184),  # the 5-cycle
        (np.diag([2, 2, 1, 1, 1]), 270),
        (unipotent, 5760),
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


@pytest.fixture(scope="session")
def tables3(geo3):
    """G's signed line tables at q = 3, 51,840 x 121 int16, built from the
    enumeration by ``_signed_tables`` in blocks of 4,096 elements: the
    library itself never holds them, only H's."""
    elements = geo3.enumerate_group()
    blocks = range(0, len(elements), 4096)
    return np.concatenate([geo3._signed_tables(elements[i : i + 4096]) for i in blocks])


def test_signed_tables_match_the_line_products(geo3, tables3):
    elements = geo3.enumerate_group()
    assert tables3.shape == (51840, 121)
    for start in range(0, len(elements), 4096):
        chunk = slice(start, start + 4096)
        line, scalar = np.divmod(tables3[chunk].astype(np.int64), 3)
        assert ((scalar == 1) | (scalar == 2)).all()
        images = ((elements[chunk] @ geo3.lines.T) % 3).transpose(0, 2, 1)
        assert np.array_equal((scalar[..., None] * geo3.lines[line]) % 3, images)


def test_table_closure_matches_the_matrix_closure(geo3):
    gens = np.stack(geo3.generators())
    reference = matrix_closure(
        geo3, np.eye(5, dtype=np.int64), lambda batch: batch[None] @ gens[:, None]
    )
    elements = geo3.enumerate_group()
    assert elements.dtype == np.int8 and reference.dtype == np.int64
    # the same set: the sorted codes of the enumeration's matrices are the
    # reference's sorted codes
    weights = 3 ** np.arange(25, dtype=np.int64)
    expected = np.sort(reference.reshape(-1, 25) @ weights)
    assert np.array_equal(np.sort(elements.reshape(-1, 25).astype(np.int64) @ weights), expected)
    # row k |H| + j is x_k h_j, coset after coset, against the int64
    # products of the transporters with H's cached matrices
    stab = geo3.stabilizer(split=True)
    subgroup = geo3._subgroup(stab)[0]
    products = (stab.transporters[:, None] @ subgroup[None]) % 3
    assert np.array_equal(elements, products.reshape(-1, 5, 5))


def test_scan_matches_the_full_rank_scan(geo3, scan3):
    trace, members, eps, delta = scan3
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


def test_scatter_coset_model_matches_the_line_route(geo3, coset3):
    elements = geo3.enumerate_group()
    for split in (True, False):
        stab = geo3.stabilizer(split)
        got = coset3[split]
        ind_one, ind_det = coset_model_by_lines(geo3, stab, elements)
        assert got.dtype == np.int64 and np.array_equal(got, ind_one - ind_det)
        # ind(1) and ind(det) both count every coset at the identity
        assert int(ind_one[0]) == int(ind_det[0]) == len(stab.line_indices)
        assert got[0] == 0


def test_the_enumeration_is_coded_once(monkeypatch):
    # verify builds no enumeration, however often it runs; the enumeration
    # is built once and cached, and the whole-group scan and the class
    # sizes read that cached array itself
    geo = OrthogonalGeometry(q=3)
    for _ in range(2):
        assert geo.verify(seed=0).ok
    assert geo._elements is None
    elements = geo.enumerate_group()
    assert geo.enumerate_group() is elements
    read = []
    for name in ("_support_batch", "_commuting"):

        def spy(*args, original=getattr(geo, name)):
            read.append(args[-1])
            return original(*args)

        monkeypatch.setattr(geo, name, spy)
    geo._batched_scan()
    geo.conjugacy_class_size(elements[1])
    assert len(read) == 2 and all(matrices is elements for matrices in read)


def commuting_by_full_products(g, matrices, q):
    """How many matrices h commute with g, by the whole products h g and
    g h mod q."""
    g = np.asarray(g, dtype=np.int64)
    h = np.asarray(matrices, dtype=np.int64)
    return int(((h @ g) % q == (g @ h) % q).all(axis=(1, 2)).sum())


def test_commuting_matches_the_full_product_count(geo3, scan3):
    # q = 3: the first member of each label against both line stabilizers
    elements = geo3.enumerate_group()
    _, members, eps, delta = scan3
    subgroups = [geo3._subgroup(geo3.stabilizer(split))[0] for split in (True, False)]
    for e, d in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
        g = elements[np.flatnonzero(members & (eps == e) & (delta == d))[0]]
        for matrices in subgroups:
            assert geo3._commuting(g, matrices) == commuting_by_full_products(g, matrices, 3)
    # on SO_5 four agreeing columns force the fifth; on arbitrary matrices
    # they do not: against the reflection in e_5, h agrees on the first four
    # columns when its last row vanishes off the diagonal (a third of the
    # stack here), and commutes when its last column does too
    rng = np.random.default_rng(0)
    arbitrary = rng.integers(0, 3, (3000, 5, 5))
    arbitrary[::3, 4, :4] = 0
    reflection = np.diag([1, 1, 1, 1, 2])
    count = geo3._commuting(reflection, arbitrary)
    assert count == commuting_by_full_products(reflection, arbitrary, 3) > 0
    # q = 5: a few rows of each line stabilizer against their own H
    geo = OrthogonalGeometry(q=5)
    for split in (True, False):
        matrices = geo._stabilizer_matrices(geo.stabilizer(split).base_index)
        for g in matrices[[0, 1, 1000, 17777, -1]]:
            assert geo._commuting(g, matrices) == commuting_by_full_products(g, matrices, 5)


def test_enumeration_peak_memory():
    # the enumeration's own peak, H built beforehand, by tracemalloc: the
    # int8 result and its int64 codes take 1.6 MiB, and the coset blocks
    # are made one float32 block of about CHUNK_ENTRIES at a time, where a
    # whole-group float32 product alone would take 4.9 MiB
    geo = OrthogonalGeometry(q=3)
    geo._subgroup(geo.stabilizer(split=True))
    tracemalloc.start()
    try:
        elements = geo.enumerate_group()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(elements) == 51840
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_each_stabilizer_is_built_once(monkeypatch):
    # stabilizer() builds nothing; the first verify builds both H, and the
    # enumeration reads the split one back, however many checks run
    geo = OrthogonalGeometry(q=3)
    built = []
    original = geo._stabilizer_matrices

    def spy(line):
        built.append(line)
        return original(line)

    monkeypatch.setattr(geo, "_stabilizer_matrices", spy)
    bases = [geo.stabilizer(split).base_index for split in (True, False)]
    assert built == []
    for _ in range(2):
        assert geo.verify(seed=0).ok
    assert built == bases
    geo.enumerate_group()
    assert built == bases

def test_scan_frees_its_blocks_as_it_joins_them():
    # a batch shaped like the whole-group scan at q = 3: 51,840 rows in
    # blocks of 866, four outputs of 1.29 MiB in all; holding every block's
    # results and the joined outputs at once would take twice that, and the
    # per-block work stays well under 1 MiB
    rows = np.arange(51840)

    def batch(block):
        return block.astype(np.int64), block % 2 == 0, 2 * block, block // 3

    tracemalloc.start()
    try:
        joined = _in_row_blocks(5 * 121, batch, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(part.nbytes for part in joined)
    assert outputs == 51840 * 25
    assert peak <= outputs + 2**20, f"peak {peak / 2**20:.2f} MiB"
    for got, want in zip(joined, batch(rows)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_verify_peak_memory():
    # a fresh geometry's whole check, both stabilizers built, by
    # tracemalloc (numpy reports its buffers to it); whole-group
    # temporaries took 41.9 MiB, G's signed line tables alone take 11.9 MiB,
    # and the whole-group verify peaked at 5.8 MiB, the route at 2.1 MiB
    geo = OrthogonalGeometry(q=3)
    tracemalloc.start()
    try:
        record = geo.verify(seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.ok
    assert peak <= 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # and verify builds no array of |G| rows: the enumeration is not made
    assert geo._elements is None
    # and the geometry keeps no array as large as G's tables
    held = [array for pair in geo._subgroups.values() for array in pair]
    for value in vars(geo).values():
        held += value if isinstance(value, tuple) else [value]
    big = [a.shape for a in held if isinstance(a, np.ndarray) and a.size >= 51840 * 121]
    assert big == []


def test_member_labels_match_the_membership_test(geo3, scan3):
    elements = geo3.enumerate_group()
    trace, members, eps, delta = scan3
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


def test_support_batch_matches_the_full_scan(geo3, scan3, tables3):
    # the kernel masks of the whole-group scan against the table kernel over
    # all 51,840 elements
    assert CHUNK_ENTRIES // (5 * len(geo3.lines)) < len(tables3)  # chunked
    for got, want in zip(scan3, geo3._eigenline_scan(tables3)[:4]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    trace, _, _, delta = scan3
    assert np.array_equal(trace, 2 * 3 * delta)  # the support identity


def test_line_stabilizer_halves_match_the_whole_group_scan(geo3, scan3):
    # verify's route: each row of H_+^- and H_-^- against the scan and the
    # coset model by lines at the same element, found by its matrix code;
    # the class sizes from the pair count and from the centralizer on
    # H_eps, against the scan's label counts and conjugacy_class_size
    q, order = geo3.q, geo3.group_order_formula()
    elements = geo3.enumerate_group()
    weights = q ** np.arange(25, dtype=np.int64)
    codes = elements.reshape(-1, 25).astype(np.int64) @ weights
    element_order = np.argsort(codes)
    codes = codes[element_order]
    stabs = [geo3.stabilizer(split) for split in (True, False)]
    sizes, halves, members = {}, {}, []
    for stab in stabs:
        matrices, tables = geo3._subgroup(stab)
        base = stab.base_index
        route = geo3._eigenline_scan(tables)
        halves[int(geo3.line_types[base])] = matrices, tables, base, route
        rows = np.flatnonzero(tables[:, base] == base * q + q - 1)
        assert 2 * len(rows) == stab.order
        wanted = matrices[rows].reshape(-1, 25) @ weights
        at = np.searchsorted(codes, wanted)
        assert np.array_equal(codes[at], wanted)
        found = element_order[at]
        for got, want in zip(route[:4], scan3):
            assert np.array_equal(got[rows], want[found])
        virtual, trace = route[4][rows], route[0][rows]
        assert np.array_equal(virtual, trace)
        # V by transporter conjugation, which reads no split sign
        (one, det), (one_n, det_n) = (
            coset_model_by_lines(geo3, other, elements[found]) for other in stabs
        )
        assert np.array_equal(virtual, (one - det) - (one_n - det_n))
        # a member of label (eps, delta) negates q lines of type delta
        d = int(geo3.line_types[base])
        eps, delta = route[2][rows], route[3][rows]
        members.append(int(route[1][rows].sum()))
        assert set(delta[route[1][rows]].tolist()) == {d}
        for e in (-1, 1):
            count = len(stab.line_indices) * int(((eps == e) & (delta == d)).sum())
            assert count % q == 0
            sizes[e, d] = count // q
    assert members == [192, 240]
    _, scan_members, scan_eps, scan_delta = scan3
    assert sorted(sizes) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert sum(sizes.values()) == int(scan_members.sum()) == 5760
    for (e, d), size in sizes.items():
        matrices, tables, base, (_, _, eps, delta, *_) = halves[e]
        fixing = np.flatnonzero((tables[:, base] == base * q + 1) & (eps == e) & (delta == d))
        centralizer = geo3._commuting(matrices[fixing[0]], matrices)
        label_rows = np.flatnonzero((scan_eps == e) & (scan_delta == d))
        assert size == order // centralizer == 1440
        assert size == len(label_rows)
        assert size == geo3.conjugacy_class_size(elements[label_rows[0]])


def random_element_by_steps(geo, rng):
    """``random_element`` as the step-by-step product, one reduced
    product per letter as it is drawn."""
    gens = geo.generators()
    g = np.eye(5, dtype=np.int64)
    for _ in range(rng.randrange(8, 24)):
        g = (g @ gens[rng.randrange(len(gens))]) % geo.q
    return g


@pytest.mark.parametrize("q", [3, 5, 7])
def test_random_element_matches_the_step_by_step_product(q):
    geo = OrthogonalGeometry(q=q)
    for seed in range(10):
        tree, steps = random.Random(seed), random.Random(seed)
        for _ in range(20):
            got, want = geo.random_element(tree), random_element_by_steps(geo, steps)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert tree.random() == steps.random()  # the same draws, in the same order


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


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_divisible_matches_the_remainder_at_every_value(q, dtype):
    values = np.arange(np.iinfo(dtype).max + 1, dtype=np.int64)
    mask = _divisible(values.astype(dtype), q)
    assert np.array_equal(mask, values % q == 0)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_support_batch_masks_match_the_int64_products(q, monkeypatch):
    geo = OrthogonalGeometry(q=q)
    stack = word_stack(geo)
    if q >= 11:
        assert CHUNK_ENTRIES // (5 * len(geo.lines)) < len(stack)  # chunked (3 at q = 13)
    counts = []
    tail = geo._twisted_class

    def spy(fixed, negated):
        counts.append((fixed, negated))
        return tail(fixed, negated)

    monkeypatch.setattr(geo, "_twisted_class", spy)
    got = geo._support_batch(stack)
    # reference: int64 products, their remainders, integer counts by type
    eye = np.eye(5, dtype=np.int64)
    by_type = (geo.line_types[:, None] == np.arange(-1, 2)).astype(np.int64)
    fixed, negated = (
        np.stack([((m @ geo.lines.T) % q == 0).all(axis=0) for m in (stack + sign * eye)]) @ by_type
        for sign in (-1, 1)
    )
    assert np.array_equal(np.concatenate([c[0] for c in counts]), fixed)
    assert np.array_equal(np.concatenate([c[1] for c in counts]), negated)
    for array, expected in zip(got, tail(fixed, negated)):
        assert array.dtype == expected.dtype and np.array_equal(array, expected)
    trace, _, eps, _ = got
    assert np.array_equal(trace, 2 * (negated[:, 2] - negated[:, 0]))
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


def test_the_isotropic_count_tells_every_candidate_kind_apart():
    # among the words that fix 1 line and negate q + 1 = 6, the (-1)-plane
    # holds 0 or 2 isotropic lines when it is the whole (-1)-eigenspace of
    # the semisimple part (rank((g + 1)^2) = 3), 6 when the unipotent part
    # has blocks 2, 2 on a 4-dimensional one (rank 1), and 1 for blocks 3, 1,
    # the twisted class (rank 2); this draw holds all four counts (on 162,
    # 88, 236 and 3 rows for 0, 1, 2 and 6)
    q = 5
    geo = OrthogonalGeometry(q=q)
    rng = random.Random(5)
    stack = np.stack([geo.random_element(rng) for _ in range(2000)])
    eye = np.eye(5, dtype=np.int64)
    lines = geo.lines.T.astype(np.int16)
    fixed, negated = (
        ((m % q).astype(np.int16) @ lines % q == 0).all(axis=1) for m in (stack - eye, stack + eye)
    )
    rows = np.flatnonzero((fixed.sum(axis=1) == 1) & (negated.sum(axis=1) == q + 1))
    isotropic = (negated[rows] & (geo.line_types == 0)).sum(axis=1)
    plus = stack[rows] + eye
    ranks = rank_mod(plus @ plus, q)
    rank_by_count = {0: 3, 1: 2, 2: 3, q + 1: 1}
    assert sorted(set(isotropic.tolist())) == sorted(rank_by_count)
    assert ranks.tolist() == [rank_by_count[c] for c in isotropic.tolist()]
    members = geo._support_batch(stack)[1]
    assert np.array_equal(members[rows], ranks == 2)
    assert not np.delete(members, rows).any()


def signed_lines_by_normalizing(geo, vectors):
    """Entry ``line * q + c`` of each nonzero row: c is the first nonzero
    coordinate, and the row over c is the line's representative, found by
    its base-q value among the representatives' sorted values."""
    q = geo.q
    vectors = np.asarray(vectors, dtype=np.int64) % q
    lead = vectors[np.arange(len(vectors)), (vectors != 0).argmax(axis=1)]
    inverse = np.array([0] + [pow(int(a), q - 2, q) for a in range(1, q)])
    normalized = (vectors * inverse[lead][:, None]) % q
    place = q ** np.arange(4, -1, -1)
    line = np.searchsorted(geo.lines @ place, normalized @ place)
    assert (geo.lines[line] == normalized).all()
    return line * q + lead


@pytest.mark.parametrize("q", [3, 5, 7])
def test_signed_lines_match_the_normalizing_reference(q):
    # every nonzero vector of F_q^5, and a few shifted by multiples of q
    geo = OrthogonalGeometry(q=q)
    vectors = np.indices((q,) * 5).reshape(5, -1).T[1:]
    got = geo._signed_lines(vectors)
    assert np.array_equal(got, signed_lines_by_normalizing(geo, vectors))
    shifted = vectors[:: q + 1] + q * np.arange(-2, 3)
    assert np.array_equal(geo._signed_lines(shifted), got[:: q + 1])
    assert geo.line_index(vectors[-1]) == got[-1] // q
    with pytest.raises(ValueError, match="the zero vector spans no line"):
        geo._signed_lines(np.concatenate([vectors[:5], [[0, 0, 0, 0, q]]]))


def test_coded_kernels_reject_what_they_cannot_code():
    # the zero vector has no entry, and the enumeration's int64 element
    # codes stop at its guard
    geo = OrthogonalGeometry(q=7)
    with pytest.raises(ValueError, match="the zero vector spans no line"):
        geo.line_index([0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="full enumeration is guarded to q=3"):
        geo.enumerate_group()


def split_half(geo):
    """H_+, the split stabilizer at q = 3, and H_+^-: its tables, its
    ``_eigenline_scan`` and the table rows that negate its base line, in
    order, so that ``verify``'s "H_+^- row i" is table row ``rows[i]``."""
    stab = geo.stabilizer(split=True)
    _, tables = geo._subgroup(stab)
    base = stab.base_index
    rows = np.flatnonzero(tables[:, base] == base * geo.q + geo.q - 1)
    return tables, geo._eigenline_scan(tables), rows


def test_verify_reports_broken_labels(geo3, monkeypatch, capsys):
    _, scan, rows = split_half(geo3)
    trace, members, _, delta = (part[rows] for part in scan[:4])
    index = np.flatnonzero(members)

    def edit(trace, members, eps, delta, *rest):
        at = rows[index]
        eps[at[0]], delta[at[1]], delta[at[2]] = 0, 0, -delta[at[2]]
        return trace, members, eps, delta, *rest

    out = assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_eigenline_scan", on_split_rows(edit),
        f"H_+^- row {index[0]}: fixed line not anisotropic",
    )
    assert f"  - H_+^- row {index[1]}: mixed (-1)-plane types\n" in out
    # a broken delta also breaks the support identity there
    for i, support in ((index[1], 0), (index[2], -2 * delta[index[2]] * 3)):
        assert f"  - H_+^- row {i}: trace {trace[i]} != support value {support}\n" in out


def scan_without_members(original):
    """A stand-in for ``_eigenline_scan`` that keeps the traces and counts
    and reports no twisted-class member."""

    def scan(*args):
        trace, members, eps, delta, *rest = original(*args)
        return trace, np.zeros_like(members), np.zeros_like(eps), np.zeros_like(delta), *rest

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
    """A wrapper for ``_eigenline_scan`` or ``_support_batch`` that hands
    copies of its arrays to ``edit`` and returns its result."""

    def wrap(original):
        def scan(*args):
            return edit(*(part.copy() for part in original(*args)))

        return scan

    return wrap


def on_split_rows(edit):
    """``edited(edit)`` for the ``_eigenline_scan`` of H_+ (1,152 rows at
    q = 3); the non-split stabilizer's scan passes unchanged."""
    return edited(lambda *parts: edit(*parts) if len(parts[0]) == 1152 else parts)


def test_verify_fails_without_members(geo3, monkeypatch, capsys):
    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_eigenline_scan", scan_without_members, "labels realized: []"
    )


def test_verify_reports_a_nonzero_trace_off_the_class(geo3, monkeypatch, capsys):
    # a row off the class that negates n = 2 anisotropic lines (a split
    # plane): its trace 2 moves the sum of T over G by 45 x 2 / 2, 45 being
    # the number of lines of H_+'s type
    _, scan, rows = split_half(geo3)
    members, anisotropic = scan[1][rows], scan[5][rows]
    i = int(np.flatnonzero(~members & (anisotropic == 2))[0])

    def edit(trace, *rest):
        trace[rows[i]] = 2
        return trace, *rest

    out = assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_eigenline_scan", on_split_rows(edit),
        f"H_+^- row {i}: trace 2 != support value 0",
    )
    assert "  - virtual character pairs with trivial: 45\n" in out


def test_verify_reports_a_trace_that_pairs_with_trivial(geo3, monkeypatch, capsys):
    # one member's label and trace flipped together: the support identity
    # still holds there, and no trace moves off the class; the sum of T over
    # G moves by 45 x (-2 T) / n for the member's n = 3 anisotropic lines
    _, scan, rows = split_half(geo3)
    trace, members = scan[0][rows], scan[1][rows]
    m = int(np.flatnonzero(members)[0])
    assert (trace[m], scan[5][rows[m]]) == (6, 3)

    def edit(trace, members, eps, delta, *rest):
        trace[rows[m]], delta[rows[m]] = -trace[rows[m]], -delta[rows[m]]
        return trace, members, eps, delta, *rest

    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_eigenline_scan", on_split_rows(edit),
        "virtual character pairs with trivial: -180",
    )


def twice(original):
    """A wrapper that doubles what ``original`` returns."""
    return lambda *args: 2 * original(*args)


def test_verify_reports_a_wrong_orbit_size(geo3, monkeypatch, capsys):
    out = assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_commuting", twice,
        "label (-1, -1): orbit 720 != class size 1440",
    )
    for label in ("(-1, 1)", "(1, -1)", "(1, 1)"):
        assert f"  - label {label}: orbit 720 != class size 1440\n" in out


def test_verify_reports_a_label_with_no_member_fixing_its_base_line(geo3, monkeypatch, capsys):
    # the labels of H_+'s rows that fix its base line are dropped: the
    # labels (1, -1) and (1, 1) are still realized in H_-^- and H_+^-, but
    # no member of H_+ is left to count a centralizer on
    tables, _, rows = split_half(geo3)
    fixing = np.setdiff1d(np.arange(len(tables)), rows)

    def edit(trace, members, eps, delta, *rest):
        eps[fixing] = delta[fixing] = 0
        return trace, members, eps, delta, *rest

    out = assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_eigenline_scan", on_split_rows(edit),
        "label (1, -1): no member of H_eps fixes u_eps",
    )
    assert "  - label (1, 1): no member of H_eps fixes u_eps\n" in out
    assert "label (-1" not in out


def test_verify_reports_a_stabilizer_that_is_not_halved(geo3, monkeypatch, capsys):
    # the last row of H_+^- replaced by the identity, which fixes the base line
    _, _, rows = split_half(geo3)

    def one_row_fixed(original):
        def subgroup(*args):
            matrices, tables = original(*args)
            if len(tables) != 1152:
                return matrices, tables
            tables = tables.copy()
            tables[rows[-1]] = tables[0]
            return matrices, tables

        return subgroup

    assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_subgroup", one_row_fixed,
        "H_+^- holds 575 elements, expected 1152 / 2",
    )


def first_sampled(geo3):
    """The H_+^- row ``verify(seed=0)`` samples first, a class member: row 0
    of the split half's ``_support_batch`` stack, whose conjugate is row 8."""
    _, scan, rows = split_half(geo3)
    members = np.flatnonzero(scan[1][rows])
    return int(members[random.Random(0).randrange(len(members))])


@pytest.mark.parametrize(
    "part, rows, message",
    [
        (0, [0], "per-element trace disagrees"),
        # the conjugate's delta flips too, so the label stays invariant
        (3, [0, 8], "support value disagrees"),
        (2, [8], "label not conjugation invariant"),
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
        f"H_+^- row {first_sampled(geo3)}: {message}",
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


def test_sampled_check_fails_without_members(capsys):
    # the first seed-0 word at q = 5 lies off the twisted class: the support
    # identity holds on it, and would be tested off the class only
    expected = "no sample in the twisted class (1 drawn)"
    record = OrthogonalGeometry(q=5).verify_sampled(samples=1, seed=0)
    assert (record.status, record.counterexamples) == ("fail", (expected,))
    argv = ["verify", "so5", "--q", "5", "--samples", "1", "--no-timing"]
    assert weylchars.cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "status: fail" in out and f"  - {expected}\n" in out


def test_sampled_check_reports_broken_labels(monkeypatch):
    geo = OrthogonalGeometry(q=5)
    original = geo._twisted_class
    zeroed = []

    def first_eps_zeroed(fixed, negated):
        # the batch runs in chunks, one call each: zero only the first member's eps
        trace, members, eps, delta = original(fixed, negated)
        if members.any() and not zeroed:
            eps[np.flatnonzero(members)[0]] = 0
            zeroed.append(True)
        return trace, members, eps, delta

    rng = random.Random(0)
    words = np.stack([geo.random_element(rng) for _ in range(200)])
    first = int(np.flatnonzero(geo._support_batch(words)[1])[0])
    monkeypatch.setattr(geo, "_twisted_class", first_eps_zeroed)
    record = geo.verify_sampled(samples=200, seed=0)
    assert record.status == "fail"
    assert record.counterexamples == (f"sample {first}: fixed line not anisotropic",)


def test_verify_reports_an_induced_character_mismatch(geo3, monkeypatch, capsys):
    # s(u) flipped at H_+'s base line u, which every row of H_+^- negates:
    # V moves by -4 on each of them, and the first five are reported
    base = geo3.stabilizer(split=True).base_index
    _, scan, rows = split_half(geo3)
    trace = scan[0][rows]

    def flipped(original):
        def signs(*args):
            signs = original(*args).copy()
            signs[base] *= -1
            return signs

        return signs

    out = assert_verify_fails_with(
        geo3, monkeypatch, capsys, "_split_signs", flipped,
        f"H_+^- row 0: induced character {trace[0] - 4} != line count {trace[0]}",
    )
    reported = [i for i in range(len(rows)) if f"  - H_+^- row {i}: induced character" in out]
    assert reported == [0, 1, 2, 3, 4]
