"""Five-dimensional special orthogonal groups over small prime fields.

Everything is exact arithmetic mod q on numpy integer arrays.  Lines in
F_q^5 are classified by whether a spanning vector has square, non-square or
zero self-pairing.  Two kernels carry the per-element work:

* ``line_action(g)`` maps every line at once with one matrix product and
  reads the scalar at each representative's leading coordinate (always 1),
  giving g's scalar on every fixed line and 0 on every moved one.  The
  line-count trace, the eigenline labels of the membership test and the
  fixed cosets of the induced characters are masks on its result.
* ``_closure(start, step)`` is a breadth-first closure over whole
  frontiers.  Each 5x5 matrix mod q is coded as one int64 (its entries as
  base-q digits; q^25 < 2^63 for q <= 5), and a frontier is deduplicated
  with ``np.unique``/``np.isin``.  The group is the closure of the identity
  under right multiplication by a small generating set (products of
  reflection pairs, so determinants stay 1, with both spinor classes
  covered); a conjugacy class is the closure of one element under
  conjugation by the same generators.

The distinguished twisted class consists of the elements whose semisimple
part negates a hyperplane (minus the semisimple part is then a reflection)
and whose unipotent part has Jordan blocks of sizes 3, 1, 1.  Concretely:

    rank(g - 1) = 4,  rank(g + 1) = 3,  rank((g + 1)^2) = 2.

For such g the fixed space is one anisotropic line (type epsilon) and the
(-1)-eigenspace is a plane whose non-degenerate lines all share one type
(delta): the plane's radical is its single isotropic line, and the norms of
the remaining lines differ by squares.  The class function assigning
2 * delta * q on this set and 0 elsewhere coincides with the trace of the
virtual representation induced, with alternating signs, from the trivial
and determinant characters of the two 4-space stabilizers; ``verify``
establishes that element by element.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .report import CheckRecord, run_check

FULL_ENUMERATION_Q = 3
MAX_CODED_Q = 5  # largest q with q^25 < 2^63: one int64 per 5x5 matrix mod q


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def rank_mod(matrix, q: int) -> int:
    """Rank over F_q by Gaussian elimination on a copy."""
    m = np.array(matrix, dtype=np.int64) % q
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col] % q:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), q - 2, q)
        m[rank] = (m[rank] * inv) % q
        for r in range(rows):
            if r != rank and m[r, col]:
                m[r] = (m[r] - m[r, col] * m[rank]) % q
        rank += 1
        if rank == rows:
            break
    return rank


@dataclass(frozen=True)
class ClassCLabel:
    """Rational label of the twisted class: fixed-line type and plane type."""

    eps: int
    delta: int


@dataclass(frozen=True)
class LineStabilizer:
    """Stabilizer of a 4-space, presented through its perpendicular line.

    Cosets correspond to the lines of ``line_type``; ``transporters[i]``
    maps the base line to line i.  ``order`` is the subgroup order and
    ``contains`` the membership predicate.
    """

    line_type: int
    base_index: int
    order: int
    line_indices: tuple[int, ...]
    transporters: dict = field(repr=False)
    contains: object = field(repr=False)


class OrthogonalGeometry:
    """SO_5 over F_q with the identity bilinear form by default."""

    def __init__(self, q: int = 3, gram=None):
        if not is_prime(q) or q == 2:
            raise ValueError("q must be an odd prime")
        self.q = q
        if gram is None:
            gram = np.eye(5, dtype=np.int64)
        self.gram = np.array(gram, dtype=np.int64) % q
        if self.gram.shape != (5, 5) or (self.gram.T != self.gram).any():
            raise ValueError("gram must be a symmetric 5x5 matrix")
        if rank_mod(self.gram, q) != 5:
            raise ValueError("gram matrix is degenerate")
        self._gram_inv = self._gram_inverse()  # the form is fixed from here on
        self.squares = {(a * a) % q for a in range(1, q)}
        self._init_lines()
        self._generators = None
        self._elements = None
        self._stabilizers = {}

    # --- lines ---

    def _init_lines(self):
        """Representatives with leading coordinate 1, in lexicographic order,
        and a table from each representative's base-q value to its index."""
        q = self.q
        vectors = np.indices((q,) * 5, dtype=np.int64).reshape(5, -1).T
        lead = (vectors != 0).argmax(axis=1)
        keep = vectors[np.arange(len(vectors)), lead] == 1  # drops zero too
        self.lines = vectors[keep]
        self._lead = lead[keep]
        self._place = q ** np.arange(4, -1, -1, dtype=np.int64)
        self._line_of_code = np.full(q**5, -1, dtype=np.int64)
        self._line_of_code[self.lines @ self._place] = np.arange(len(self.lines))
        self._inverse_mod = np.array(
            [0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64
        )
        norms = np.einsum("li,ij,lj->l", self.lines, self.gram, self.lines) % q
        self.line_types = np.where(
            norms == 0,
            0,
            np.where(np.isin(norms, sorted(self.squares)), 1, -1),
        )

    def line_index(self, vec) -> int:
        """Index of the line spanned by a nonzero vector."""
        return int(self._line_indices(np.asarray(vec)[None])[0])

    def _line_indices(self, vectors):
        """Index of the line spanned by each row of a (k, 5) array."""
        q = self.q
        vectors = np.asarray(vectors, dtype=np.int64) % q
        lead = vectors[np.arange(len(vectors)), (vectors != 0).argmax(axis=1)]
        normalized = (vectors * self._inverse_mod[lead][:, None]) % q
        indices = self._line_of_code[normalized @ self._place]
        if (indices < 0).any():
            raise ValueError("the zero vector spans no line")
        return indices

    def pairing(self, u, v) -> int:
        return int(np.array(u) @ self.gram @ np.array(v)) % self.q

    def line_type(self, vec) -> int:
        """+1 for square self-pairing, -1 for non-square, 0 for isotropic.

        Well defined on the line: rescaling the vector multiplies the
        self-pairing by a square.
        """
        norm = self.pairing(vec, vec)
        if norm == 0:
            return 0
        return 1 if norm in self.squares else -1

    def line_census(self):
        """(isotropic, square-type, non-square-type) line counts."""
        return (
            int((self.line_types == 0).sum()),
            int((self.line_types == 1).sum()),
            int((self.line_types == -1).sum()),
        )

    # --- group elements ---

    def reflection(self, vec):
        """Reflection in the hyperplane perpendicular to an anisotropic vector."""
        v = np.array(vec, dtype=np.int64) % self.q
        norm = self.pairing(v, v)
        if norm == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        coeff = (2 * pow(norm, self.q - 2, self.q)) % self.q
        return (np.eye(5, dtype=np.int64) - coeff * np.outer(v, (self.gram @ v))) % self.q

    def generators(self):
        """Reflection-pair products through a spread of anisotropic vectors,
        plus an even permutation matrix when it preserves the form.

        Pairing every reflection with a fixed one keeps determinants at 1;
        spanning both square classes of norms covers both spinor classes.
        The enumeration's order check is the net under construction here.
        """
        if self._generators is not None:
            return self._generators
        q = self.q
        candidates = []
        for vec in itertools.chain(
            np.eye(5, dtype=np.int64).tolist(),
            ([1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 2, 0, 0, 0], [1, 1, 1, 0, 0],
             [1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 2, 1, 0, 0], [0, 0, 1, 1, 1]),
        ):
            if self.line_type(vec) != 0:
                candidates.append(np.array(vec, dtype=np.int64))
        norms_seen = {self.line_type(v) for v in candidates}
        if norms_seen != {1, -1}:
            # hunt for a vector of the missing norm class
            for vec in itertools.product(range(q), repeat=5):
                if any(vec) and self.line_type(vec) not in (0, *norms_seen):
                    candidates.append(np.array(vec, dtype=np.int64))
                    break
        base = candidates[0]
        gens = []
        for v in candidates[1:]:
            gens.append((self.reflection(v) @ self.reflection(base)) % q)
        cycle = np.zeros((5, 5), dtype=np.int64)
        for i in range(5):
            cycle[(i + 1) % 5, i] = 1  # 5-cycle: even, so determinant 1
        if ((cycle.T @ self.gram @ cycle) % q == self.gram).all():
            gens.append(cycle)
        self._generators = gens
        return gens

    def group_order_formula(self) -> int:
        q = self.q
        return q**4 * (q**2 - 1) * (q**4 - 1)

    def enumerate_group(self, force: bool = False):
        """Every element of SO_5(F_q), by BFS closure of the generators.

        Guarded to q = 3 (51,840 elements) unless forced; the count is
        checked against q^4 (q^2 - 1)(q^4 - 1).
        """
        if self._elements is not None:
            return self._elements
        if self.q != FULL_ENUMERATION_Q and not force:
            raise ValueError(
                f"full enumeration is guarded to q={FULL_ENUMERATION_Q};"
                " pass force=True to override"
            )
        gens = np.stack(self.generators())
        elements = self._closure(
            np.eye(5, dtype=np.int64), lambda batch: batch[None] @ gens[:, None]
        )
        if len(elements) != self.group_order_formula():
            raise RuntimeError(
                f"enumeration produced {len(elements)} elements, expected"
                f" {self.group_order_formula()}"
            )
        self._elements = elements
        return self._elements

    def _closure(self, start, step):
        """Every matrix reachable from ``start`` by repeated ``step``: start
        first, then in breadth-first discovery order.

        ``step`` maps a (k, 5, 5) frontier to an array of its images, reduced
        mod q here.  Each matrix is coded as one int64, so a whole frontier
        is deduplicated, within itself and against everything seen, by
        ``np.unique`` and ``np.isin``; the first occurrence of each new code
        is kept, in the order ``step`` produced it.
        """
        q = self.q
        if q > MAX_CODED_Q:
            raise ValueError(f"int64 matrix codes need q <= {MAX_CODED_Q}")
        weights = q ** np.arange(25, dtype=np.int64)
        frontier = (np.asarray(start, dtype=np.int64) % q)[None]
        seen = frontier.reshape(1, 25) @ weights
        found = [frontier]
        while len(frontier):
            images = step(frontier).reshape(-1, 5, 5)
            np.remainder(images, q, out=images)
            codes = images.reshape(-1, 25) @ weights
            _, first = np.unique(codes, return_index=True)
            first.sort()
            first = first[~np.isin(codes[first], seen, assume_unique=True)]
            frontier = images[first]
            seen = np.concatenate([seen, codes[first]])
            found.append(frontier)
        return np.concatenate(found)

    def inverse(self, g):
        """Inverse via the form: g^{-1} = gram^{-1} g^T gram."""
        return (self._gram_inv @ np.array(g).T @ self.gram) % self.q

    def _gram_inverse(self):
        q = self.q
        aug = np.concatenate(
            [self.gram % q, np.eye(5, dtype=np.int64)], axis=1
        )
        for col in range(5):
            pivot = next(r for r in range(col, 5) if aug[r, col] % q)
            aug[[col, pivot]] = aug[[pivot, col]]
            aug[col] = (aug[col] * pow(int(aug[col, col]), q - 2, q)) % q
            for r in range(5):
                if r != col and aug[r, col]:
                    aug[r] = (aug[r] - aug[r, col] * aug[col]) % q
        return aug[:, 5:] % q

    def random_element(self, rng: random.Random):
        """Random word in the generators (not uniform; fine for spot checks)."""
        gens = self.generators()
        g = np.eye(5, dtype=np.int64)
        for _ in range(rng.randrange(8, 24)):
            g = (g @ gens[rng.randrange(len(gens))]) % self.q
        return g

    # --- per-element operations ---

    def line_action(self, g):
        """Scalar of g on every line at once, aligned with ``lines``.

        One product maps every representative; since each has leading
        coordinate 1, the image's entry there is the only candidate scalar.
        Fixed lines get it in the symmetric range (-q/2, q/2] (as
        ``fixed_line_scalar`` returns it), moved lines get 0.
        """
        q = self.q
        images = (self.lines @ (np.asarray(g, dtype=np.int64) % q).T) % q
        scalars = images[np.arange(len(images)), self._lead]
        fixed = (images == (scalars[:, None] * self.lines) % q).all(axis=1)
        scalars = np.where(fixed, scalars, 0)
        return np.where(scalars > q // 2, scalars - q, scalars)

    def fixed_line_scalar(self, g, line_vec):
        """Scalar of g on a fixed line, None if the line moves.

        Anisotropic lines only ever give +-1; isotropic lines may give any
        residue, returned in the symmetric range (-q/2, q/2].
        """
        q = self.q
        v = np.array(line_vec, dtype=np.int64) % q
        image = (np.array(g) @ v) % q
        support = np.nonzero(v)[0][0]
        if image[support] == 0:
            return None
        scalar = (int(image[support]) * pow(int(v[support]), q - 2, q)) % q
        if ((scalar * v) % q != image).any():
            return None
        return scalar if scalar <= q // 2 else scalar - q

    def in_class_c(self, g):
        """Twisted-class membership test; a label or None.

        Raises if a passing element has non-degenerate lines of both types
        in its (-1)-plane, which would mean this implementation (not the
        input) is broken.
        """
        q = self.q
        g = np.array(g, dtype=np.int64) % q
        eye = np.eye(5, dtype=np.int64)
        if rank_mod(g - eye, q) != 4:
            return None
        plus = (g + eye) % q
        if rank_mod(plus, q) != 3:
            return None
        if rank_mod((plus @ plus) % q, q) != 2:
            return None
        scalars = self.line_action(g)
        fixed_types = self.line_types[scalars == 1]
        minus_types = set(self.line_types[scalars == -1].tolist()) - {0}
        if len(minus_types) > 1:
            raise RuntimeError(
                "lines of both types in the (-1)-plane: bug in the"
                " membership test"
            )
        if len(fixed_types) != 1 or fixed_types[0] == 0 or not minus_types:
            raise RuntimeError("degenerate eigenline structure: bug")
        return ClassCLabel(int(fixed_types[0]), minus_types.pop())

    def class_support_value(self, g) -> int:
        """2 * delta * q on the twisted class, 0 elsewhere."""
        label = self.in_class_c(g)
        if label is None:
            return 0
        return 2 * label.delta * self.q

    def line_count_trace(self, g) -> int:
        """Twice the square-type count minus twice the non-square-type count
        of lines on which g acts by -1 (types are +1, -1 and 0)."""
        return 2 * int(self.line_types[self.line_action(g) == -1].sum())

    # --- 4-space stabilizers and the induced virtual character ---

    def perp_basis(self, line_vec):
        """Basis of the 4-space perpendicular to a line."""
        q = self.q
        normal = (self.gram @ (np.array(line_vec, dtype=np.int64) % q)) % q
        basis = []
        for vec in itertools.product(range(q), repeat=5):
            arr = np.array(vec, dtype=np.int64)
            if any(vec) and int(arr @ normal) % q == 0:
                basis.append(arr)
                if rank_mod(np.stack(basis), q) < len(basis):
                    basis.pop()
            if len(basis) == 4:
                break
        return np.stack(basis)

    def perp_is_split(self, line_vec) -> bool:
        """Whether the perpendicular 4-space of an anisotropic line is split,
        decided by counting its isotropic vectors."""
        q = self.q
        if self.line_type(line_vec) == 0:
            raise ValueError("line must be anisotropic")
        basis = self.perp_basis(line_vec)
        sub_gram = (basis @ self.gram @ basis.T) % q
        coeffs = np.array(list(itertools.product(range(q), repeat=4)), dtype=np.int64)
        norms = np.einsum("ci,ij,cj->c", coeffs, sub_gram, coeffs) % q
        count = int((norms == 0).sum()) - 1  # drop the zero vector
        split_count = q**3 + q**2 - q - 1
        nonsplit_count = q**3 - q**2 + q - 1
        if count == split_count:
            return True
        if count == nonsplit_count:
            return False
        raise RuntimeError(f"unexpected isotropic count {count} in a 4-space")

    def split_line_type(self) -> int:
        """Line type whose perpendicular 4-space is split.

        Depends on the chosen form, so it is computed and never assumed.
        """
        for vec, line_type in zip(self.lines, self.line_types):
            if line_type != 0:
                split_here = self.perp_is_split(vec)
                return int(line_type) if split_here else -int(line_type)
        raise RuntimeError("no anisotropic line")

    def stabilizer(self, split: bool) -> LineStabilizer:
        """Stabilizer of a 4-space with split (or non-split) restricted form,
        with transporters to every coset."""
        if split in self._stabilizers:
            return self._stabilizers[split]
        elements = self.enumerate_group()
        line_type = self.split_line_type() if split else -self.split_line_type()
        indices = tuple(int(i) for i in np.where(self.line_types == line_type)[0])
        base = indices[0]
        base_vec = self.lines[base]
        # the first element taking the base line to each line; element 0,
        # the identity, is the base line's own transporter
        reached, first = np.unique(
            self._line_indices(elements @ base_vec), return_index=True
        )
        if reached.tolist() != list(indices):
            raise RuntimeError("group is not transitive on lines of one type")
        transporters = {int(idx): elements[i] for idx, i in zip(reached, first)}
        order = len(elements) // len(indices)

        def contains(h) -> bool:
            return self.line_index((np.array(h) @ base_vec) % self.q) == base

        stab = LineStabilizer(line_type, base, order, indices, transporters, contains)
        self._stabilizers[split] = stab
        return stab

    def det_character(self, stab: LineStabilizer):
        """Determinant of the action on the stabilized 4-space.

        Total determinant 1 forces it to equal the scalar on the base line.
        """
        base_vec = self.lines[stab.base_index]

        def chi(h):
            scalar = self.fixed_line_scalar(h, base_vec)
            if scalar not in (1, -1):
                raise ValueError("element does not stabilize the base 4-space")
            return scalar

        return chi

    def induced_char(self, stab: LineStabilizer, chi, g) -> int:
        """Trace at g of the character induced from the 4-space stabilizer.

        Sums chi over the cosets g fixes, evaluated at the transported
        element; cosets are modeled by the lines of the matching type.
        """
        q = self.q
        moved = self.line_action(g) == 0
        total = 0
        for idx in stab.line_indices:
            if moved[idx]:
                continue
            x = stab.transporters[idx]
            conjugate = (self.inverse(x) @ g @ x) % q
            if not stab.contains(conjugate):
                raise RuntimeError("transported element escaped the subgroup")
            total += chi(conjugate)
        return total

    def induced_virtual_trace(self, g) -> int:
        """Alternating combination ind(1) - ind(det) over the split
        stabilizer, minus the same over the non-split one."""
        split_stab = self.stabilizer(split=True)
        nonsplit_stab = self.stabilizer(split=False)

        def one(_):
            return 1

        return (
            self.induced_char(split_stab, one, g)
            - self.induced_char(split_stab, self.det_character(split_stab), g)
            - self.induced_char(nonsplit_stab, one, g)
            + self.induced_char(nonsplit_stab, self.det_character(nonsplit_stab), g)
        )

    # --- batched verification ---

    def _batched_scan(self):
        """Vectorized per-element data over the full enumeration.

        Kernel dimensions are read off line counts: a d-dimensional kernel
        meets (q^d - 1)/(q - 1) lines.  int8 keeps the big intermediates
        around 30 MB; dot products stay below 127 for q <= 5.
        """
        q = self.q
        if q > 5:
            raise ValueError("batched scan would overflow int8 for q > 5")
        elements = self.enumerate_group()
        small = elements.astype(np.int8)
        x = self.lines.T.astype(np.int8)
        gx = (small @ x) % q
        fixed = (gx == x[None]).all(axis=1)
        negated = (gx == ((-x) % q).astype(np.int8)[None]).all(axis=1)
        del gx  # about 30 MB at q=3; the kernel test below needs as much again
        plus = ((elements + np.eye(5, dtype=np.int64)) % q).astype(np.int8)
        plus_sq = ((plus.astype(np.int16) @ plus) % q).astype(np.int8)
        kernel_sq = (((plus_sq @ x) % q) == 0).all(axis=1)

        def lines_of(d):
            return (q**d - 1) // (q - 1)

        members = (
            (fixed.sum(axis=1) == lines_of(1))
            & (negated.sum(axis=1) == lines_of(2))
            & (kernel_sq.sum(axis=1) == lines_of(3))
        )
        type_plus = self.line_types == 1
        type_minus = self.line_types == -1
        trace = 2 * (negated & type_plus[None]).sum(axis=1) - 2 * (
            negated & type_minus[None]
        ).sum(axis=1)
        return elements, fixed, negated, members, trace.astype(np.int64)

    def conjugacy_class_size(self, g) -> int:
        """Orbit size under conjugation by the generators."""
        gens = np.stack(self.generators())
        inverses = np.stack([self.inverse(h) for h in gens])
        orbit = self._closure(
            g, lambda batch: inverses[:, None] @ batch[None] @ gens[:, None]
        )
        return len(orbit)

    def verify(self, seed: int = 0, clock=time.monotonic) -> CheckRecord:
        """Full element-by-element verification at q = 3.

        Checks: group order; line census; the support identity (the
        line-count trace equals the class-function value everywhere, and is
        nonzero exactly on the membership test); all four labels occur and
        each label set is a single conjugacy class; the coset-model virtual
        character agrees with the line-count trace everywhere; the virtual
        character pairs to zero with the trivial one; batched and
        per-element routes agree on a seeded sample, with labels invariant
        under conjugation.
        """

        def scan():
            return self._verify_counterexamples(seed)

        return run_check("so5", f"q={self.q}", scan, seed, clock)

    def _verify_counterexamples(self, seed: int):
        q = self.q
        failures = []
        elements, fixed, negated, members, trace = self._batched_scan()
        if len(elements) != self.group_order_formula():
            failures.append(f"group order {len(elements)}")
        iso, plus_lines, minus_lines = self.line_census()
        if iso != (q + 1) * (q**2 + 1):
            failures.append(f"isotropic line count {iso}")
        if iso + plus_lines + minus_lines != (q**5 - 1) // (q - 1):
            failures.append(f"line total {iso + plus_lines + minus_lines}")

        # support identity, batched
        member_idx = np.where(members)[0]
        labels = {}
        for i in member_idx:
            fixed_types = {int(t) for t in self.line_types[np.where(fixed[i])[0]]}
            minus_types = {
                int(t) for t in self.line_types[np.where(negated[i])[0]]
            } - {0}
            if fixed_types == {0} or len(fixed_types) != 1:
                failures.append(f"element {i}: fixed line not anisotropic")
                continue
            if len(minus_types) != 1:
                failures.append(f"element {i}: mixed (-1)-plane types")
                continue
            eps, delta = fixed_types.pop(), minus_types.pop()
            labels.setdefault((eps, delta), []).append(int(i))
            if trace[i] != 2 * delta * q:
                failures.append(f"element {i}: trace {trace[i]} != {2 * delta * q}")
        if sorted(labels) != [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            failures.append(f"labels realized: {sorted(labels)}")
        nonmember_idx = np.where(~members)[0]
        bad = nonmember_idx[trace[nonmember_idx] != 0]
        for i in bad[:5]:
            failures.append(f"element {i}: nonzero trace {trace[i]} off the class")
        if int(trace.sum()) != 0:
            failures.append(f"virtual character pairs with trivial: {trace.sum()}")

        # each label set is a single conjugacy class
        for label, idx_list in sorted(labels.items()):
            size = self.conjugacy_class_size(elements[idx_list[0]])
            if size != len(idx_list):
                failures.append(
                    f"label {label}: orbit {size} != set size {len(idx_list)}"
                )

        # coset model against the line-count trace, every element
        split_stab = self.stabilizer(split=True)
        nonsplit_stab = self.stabilizer(split=False)
        sp_one, sp_det = self._coset_model_batch(split_stab, elements)
        ns_one, ns_det = self._coset_model_batch(nonsplit_stab, elements)
        coset_trace = (sp_one - sp_det) - (ns_one - ns_det)
        mismatch = np.where(coset_trace != trace)[0]
        for i in mismatch[:5]:
            failures.append(
                f"element {i}: coset model {coset_trace[i]} != line count {trace[i]}"
            )
        if int(sp_one[0]) != len(split_stab.line_indices) or int(
            ns_one[0]
        ) != len(nonsplit_stab.line_indices):
            failures.append("induced dimension != coset count at the identity")

        # per-element functions against the batch, plus conjugation invariance
        rng = random.Random(seed)
        sample = [int(member_idx[rng.randrange(len(member_idx))]) for _ in range(8)]
        sample += [rng.randrange(len(elements)) for _ in range(8)]
        for i in sample:
            g = elements[i]
            if self.line_count_trace(g) != trace[i]:
                failures.append(f"element {i}: per-element trace disagrees")
            if self.class_support_value(g) != trace[i]:
                failures.append(f"element {i}: support value disagrees")
            if self.induced_virtual_trace(g) != trace[i]:
                failures.append(f"element {i}: per-element coset model disagrees")
            h = self.random_element(rng)
            conj = (self.inverse(h) @ g @ h) % q
            if self.in_class_c(conj) != self.in_class_c(g):
                failures.append(f"element {i}: label not conjugation invariant")
        return sorted(failures)

    def _coset_model_batch(self, stab: LineStabilizer, elements):
        """ind(1) and ind(det) at every group element, via actual cosets.

        For each coset line the fixing elements are conjugated by the
        transporter and the determinant character is read off the conjugate
        at the base line, so this route shares no shortcut with the direct
        line-count trace.
        """
        q = self.q
        cols = self.lines[list(stab.line_indices)].T.astype(np.int8)
        gx = (elements.astype(np.int8) @ cols) % q
        fixed_plus = (gx == cols[None]).all(axis=1)
        fixed_minus = (gx == ((-cols) % q).astype(np.int8)[None]).all(axis=1)
        fixes_line = fixed_plus | fixed_minus
        base_vec = self.lines[stab.base_index]
        neg_base = (-base_vec) % q
        ind_one = np.zeros(len(elements), dtype=np.int64)
        ind_det = np.zeros(len(elements), dtype=np.int64)
        for k, idx in enumerate(stab.line_indices):
            fixers = np.where(fixes_line[:, k])[0]
            if len(fixers) == 0:
                continue
            x = stab.transporters[idx]
            x_inv = self.inverse(x)
            conjugates = (x_inv @ elements[fixers] @ x) % q
            images = (conjugates @ base_vec) % q
            det_plus = (images == base_vec).all(axis=1)
            det_minus = (images == neg_base).all(axis=1)
            if not (det_plus | det_minus).all():
                raise RuntimeError("transported element escaped the subgroup")
            ind_one[fixers] += 1
            ind_det[fixers] += np.where(det_plus, 1, -1)
        return ind_one, ind_det

    def verify_sampled(
        self, samples: int = 200, seed: int = 0, clock=time.monotonic
    ) -> CheckRecord:
        """Reduced check for q > 3: line census plus the support identity on
        randomly sampled elements (no full enumeration)."""
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")

        def scan():
            q = self.q
            failures = []
            iso, plus_lines, minus_lines = self.line_census()
            if iso != (q + 1) * (q**2 + 1):
                failures.append(f"isotropic line count {iso}")
            if iso + plus_lines + minus_lines != (q**5 - 1) // (q - 1):
                failures.append(f"line total {iso + plus_lines + minus_lines}")
            rng = random.Random(seed)
            for k in range(samples):
                g = self.random_element(rng)
                if self.line_count_trace(g) != self.class_support_value(g):
                    failures.append(f"sample {k}: trace != support value")
            return sorted(failures)

        return run_check("so5", f"q={self.q} sampled", scan, seed, clock)
