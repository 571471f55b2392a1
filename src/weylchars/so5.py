"""Five-dimensional special orthogonal groups over small prime fields.

Everything is exact arithmetic mod q on numpy integer arrays.  The form is
the dot product x . y (any non-degenerate form gives the same group up to
isomorphism), so a group element's inverse is its transpose.  Lines in
F_q^5 are classified by whether a spanning vector has square, non-square or
zero norm x . x; the perpendicular 4-space of an anisotropic line is split
when it holds (q + 1)^2 isotropic lines and non-split when it holds
q^2 + 1.  Two kernels carry the per-element work:

* The signed line table of g: for each line l, g maps the representative
  x_l to c * x_m for one line m and one scalar c, stored as the single
  entry ``m * q + c``.  The line-count trace, the eigenline labels of the
  membership test and the group's transitivity on lines are masks on it;
  ``line_action(g)`` is its fixed-line part.  Tables compose by gathers:
  (gh) has line ``perm_g[perm_h]`` and scalar ``c_h * c_g[perm_h]``.
* ``_closure(start, rights, lefts)`` is a breadth-first closure over whole
  frontiers of tables.  Each element is coded as one int64, its 5x5 matrix
  mod q as base-q digits (q^25 < 2^63 for q <= 5), read off the tables'
  five basis-line entries; a frontier is deduplicated by one sort of codes
  before any full table is composed.  The group is the closure of the
  identity under right multiplication by a small generating set (products
  of reflection pairs, so determinants stay 1, with both spinor classes
  covered), and its matrices are read back off the basis-line entries; a
  conjugacy class is the closure of one element under conjugation by the
  same generators.

The coset model of the induced characters uses neither kernel's line
action: it conjugates the 4-space stabilizer by every transporter and
scatters the character values onto the conjugates, found by their codes.
Its per-element partner, ``induced_char(stab, g)``, returns the same pair
(ind_one, ind_det) at one element the other way round: it conjugates g back
by the transporter of each coset line g fixes and reads the conjugate's
scalar on the base line.

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

import random
from dataclasses import dataclass, field

import numpy as np

from .report import CheckRecord, run_check

FULL_ENUMERATION_Q = 3
MAX_CODED_Q = 5  # largest q with q^25 < 2^63: one int64 per 5x5 matrix mod q


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def _first_occurrences(values):
    """Index of the first occurrence of each distinct value, ascending.

    An unstable sort groups equal values; the least index in each group is
    its first occurrence.
    """
    order = values.argsort()
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    return np.sort(np.minimum.reduceat(order, starts))


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

    Cosets correspond to the lines of the base line's type; ``transporters[k]``
    maps the base line to line ``line_indices[k]``.  ``order`` is the
    subgroup order.
    """

    base_index: int
    order: int
    line_indices: tuple[int, ...]
    transporters: np.ndarray = field(repr=False)


class OrthogonalGeometry:
    """SO_5 over F_q, for the form x . y."""

    def __init__(self, q: int = 3):
        if not is_prime(q) or q == 2:
            raise ValueError("q must be an odd prime")
        self.q = q
        self._init_lines()
        self._generators = None
        self._elements = None
        self._tables = None
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
        self._place = q ** np.arange(4, -1, -1, dtype=np.int64)
        self._line_of_code = np.full(q**5, -1, dtype=np.int64)
        self._line_of_code[self.lines @ self._place] = np.arange(len(self.lines))
        self._inverse_mod = np.array(
            [0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64
        )
        # table entries run up to len(lines) * q; int16 up to q = 7
        self._entry_dtype = np.min_scalar_type(-len(self.lines) * q)
        self._basis = self._line_of_code[np.eye(5, dtype=np.int64) @ self._place]
        self.norms = (self.lines * self.lines).sum(axis=1) % q
        squares = sorted({(a * a) % q for a in range(1, q)})
        self.line_types = np.where(
            self.norms == 0, 0, np.where(np.isin(self.norms, squares), 1, -1)
        )

    def line_index(self, vec) -> int:
        """Index of the line spanned by a nonzero vector."""
        return int(self._signed_lines(np.asarray(vec)[None])[0]) // self.q

    def _signed_lines(self, vectors):
        """Entry ``line * q + c`` of each row of a (k, 5) array, where the
        row is c times the line's representative."""
        q = self.q
        vectors = np.asarray(vectors, dtype=np.int64) % q
        lead = vectors[np.arange(len(vectors)), (vectors != 0).argmax(axis=1)]
        normalized = (vectors * self._inverse_mod[lead][:, None]) % q
        indices = self._line_of_code[normalized @ self._place]
        if (indices < 0).any():
            raise ValueError("the zero vector spans no line")
        return indices * q + lead

    def _entry_vectors(self):
        """The vector c * x_l of every table entry l * q + c, as rows."""
        q = self.q
        scaled = np.arange(q, dtype=np.int64)[None, :, None] * self.lines[:, None]
        return scaled.reshape(-1, 5) % q

    def line_type(self, vec) -> int:
        """+1 for square norm, -1 for non-square, 0 for isotropic: the type
        of the line the nonzero vector spans (rescaling multiplies the norm
        by a square)."""
        return int(self.line_types[self.line_index(vec)])

    def line_census(self):
        """(isotropic, square-type, non-square-type) line counts."""
        return (
            int((self.line_types == 0).sum()),
            int((self.line_types == 1).sum()),
            int((self.line_types == -1).sum()),
        )

    # --- group elements ---

    def reflection(self, vec):
        """Reflection in the hyperplane perpendicular to an anisotropic
        vector; it depends only on the vector's line, so it is built from the
        line's representative x as 1 - 2 x x^T / (x . x)."""
        q = self.q
        line = self.line_index(vec)
        if self.line_types[line] == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        x = self.lines[line]
        coeff = (2 * pow(int(self.norms[line]), q - 2, q)) % q
        return (np.eye(5, dtype=np.int64) - coeff * np.outer(x, x)) % q

    def generators(self):
        """Reflection-pair products through a spread of anisotropic vectors,
        plus the 5-cycle permutation matrix.

        Pairing every reflection with a fixed one keeps determinants at 1;
        spanning both square classes of norms covers both spinor classes.
        The enumeration's order check is the net under construction here.
        """
        if self._generators is not None:
            return self._generators
        q = self.q
        candidates = [
            np.array(vec, dtype=np.int64)
            for vec in np.eye(5, dtype=np.int64).tolist()
            + [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 2, 0, 0, 0], [1, 1, 1, 0, 0],
               [1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 2, 1, 0, 0], [0, 0, 1, 1, 1]]
            if self.line_type(vec) != 0
        ]
        norms_seen = {self.line_type(v) for v in candidates}
        if norms_seen != {1, -1}:
            # add the first line of the missing norm class
            missing = -norms_seen.pop()
            candidates.append(self.lines[self.line_types == missing][0])
        base = self.reflection(candidates[0])
        cycle = np.roll(np.eye(5, dtype=np.int64), 1, axis=0)  # 5-cycle: even, so det 1
        self._generators = [(self.reflection(v) @ base) % q for v in candidates[1:]] + [cycle]
        return self._generators

    def group_order_formula(self) -> int:
        q = self.q
        return q**4 * (q**2 - 1) * (q**4 - 1)

    def enumerate_group(self):
        """Every element of SO_5(F_q), by BFS closure of the generators.

        Guarded to q = 3 (51,840 elements); the count is checked against
        q^4 (q^2 - 1)(q^4 - 1).  The signed line tables of the elements are
        kept alongside, in the same order.
        """
        if self._elements is not None:
            return self._elements
        if self.q != FULL_ENUMERATION_Q:
            raise ValueError(f"full enumeration is guarded to q={FULL_ENUMERATION_Q}")
        identity = self._signed_tables(np.eye(5, dtype=np.int64)[None])[0]
        tables = self._closure(identity, self._signed_tables(np.stack(self.generators())))
        if len(tables) != self.group_order_formula():
            raise RuntimeError(
                f"enumeration produced {len(tables)} elements, expected"
                f" {self.group_order_formula()}"
            )
        columns = self._entry_vectors()[tables[:, self._basis]]
        self._elements = np.ascontiguousarray(columns.transpose(0, 2, 1))
        self._tables = tables
        return self._elements

    def _signed_tables(self, matrices):
        """Signed line table of each matrix in a (k, 5, 5) array: row i,
        column l holds ``m * q + c`` where matrix i maps x_l to c * x_m."""
        q = self.q
        matrices = np.asarray(matrices, dtype=np.int64) % q
        images = (matrices @ self.lines.T) % q  # (k, 5, lines)
        entries = self._signed_lines(images.transpose(0, 2, 1).reshape(-1, 5))
        return entries.reshape(len(matrices), -1).astype(self._entry_dtype)

    def _compose(self, g, h):
        """Table of the product gh from the tables of g and h: where h maps
        x_l to c_h x_m, gh maps it to c_h c_g(m) x_{perm_g(m)}.  Either side
        may be a stack of tables, and h may hold only some of its columns;
        the result then covers the same lines."""
        q = self.q
        line_h, scalar_h = np.divmod(h, q)
        line, scalar = np.divmod(g[..., line_h], q)
        return line * q + (scalar * scalar_h) % q

    def _code_weights(self):
        """Weight of matrix entry (r, c) in the int64 matrix code."""
        if self.q > MAX_CODED_Q:
            raise ValueError(f"int64 matrix codes need q <= {MAX_CODED_Q}")
        return self.q ** np.arange(25, dtype=np.int64).reshape(5, 5)

    def _matrix_codes(self, matrices):
        """One int64 per 5x5 matrix mod q, its entries as base-q digits."""
        weights = self._code_weights().reshape(25)
        return np.asarray(matrices, dtype=np.int64).reshape(-1, 25) @ weights

    def _closure(self, start, rights, lefts=None):
        """Tables of every element reachable from the table ``start`` by
        repeated steps g -> g r (or l g r, with ``lefts``) over the stacked
        tables ``rights`` (and ``lefts``): start first, then in
        breadth-first discovery order.

        A frontier's images are first composed only at the five basis
        lines, which fix the matrix and so its code; the codes are
        deduplicated, within the frontier and against everything seen, by
        one sort of the seen codes followed by the new ones, keeping the
        first occurrence of each new code in step-major order, and only the
        new elements get full tables.
        """
        column_codes = self._entry_vectors() @ self._code_weights()
        basis, columns = self._basis, np.arange(5)

        def image(step, tables, lines):
            product = self._compose(tables, rights[step][lines])
            return product if lefts is None else self._compose(lefts[step], product)

        def codes(basis_entries):
            return column_codes[basis_entries, columns].sum(axis=1)

        frontier = start[None]
        seen = codes(frontier[:, basis])
        found = [frontier]
        while len(frontier):
            images = np.concatenate(
                [image(step, frontier, basis) for step in range(len(rights))]
            )
            image_codes = codes(images)
            first = _first_occurrences(np.concatenate([seen, image_codes]))
            first = first[first >= len(seen)] - len(seen)
            step_of, row = np.divmod(first, len(frontier))
            frontier = np.concatenate(
                [
                    image(step, frontier[row[step_of == step]], slice(None))
                    for step in range(len(rights))
                ]
            )
            seen = np.concatenate([seen, image_codes[first]])
            found.append(frontier)
        return np.concatenate(found)

    def inverse(self, g):
        """Inverse of an element, or of each in a stack: the transpose, since
        the elements preserve x . y."""
        return np.asarray(g, dtype=np.int64).swapaxes(-1, -2) % self.q

    def random_element(self, rng: random.Random):
        """Random word in the generators (not uniform; fine for spot checks)."""
        gens = self.generators()
        g = np.eye(5, dtype=np.int64)
        for _ in range(rng.randrange(8, 24)):
            g = (g @ gens[rng.randrange(len(gens))]) % self.q
        return g

    # --- per-element operations ---

    def line_action(self, g):
        """Scalar of g on every line at once, aligned with ``lines``: the
        fixed-line part of g's signed line table.

        Fixed lines get it in the symmetric range (-q/2, q/2], moved lines
        get 0.
        """
        q = self.q
        line, scalar = np.divmod(self._signed_tables(np.asarray(g)[None])[0], q)
        scalar = np.where(line == np.arange(len(line)), scalar, 0)
        return np.where(scalar > q // 2, scalar - q, scalar)

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

    def perp_is_split(self, line_vec) -> bool:
        """Whether the perpendicular 4-space of an anisotropic line is split,
        decided by counting its isotropic lines: (q + 1)^2 when split,
        q^2 + 1 when not."""
        q = self.q
        line = self.line_index(line_vec)
        if self.line_types[line] == 0:
            raise ValueError("line must be anisotropic")
        perp = (self.lines @ self.lines[line]) % q == 0
        count = int((perp & (self.line_types == 0)).sum())
        if count == (q + 1) ** 2:
            return True
        if count == q**2 + 1:
            return False
        raise RuntimeError(f"unexpected isotropic line count {count} in a 4-space")

    def split_line_type(self) -> int:
        """Line type whose perpendicular 4-space is split, computed from the
        first anisotropic line rather than assumed."""
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
        # the first element taking the base line to each line; element 0,
        # the identity, is the base line's own transporter
        reached, first = np.unique(self._tables[:, base] // self.q, return_index=True)
        if reached.tolist() != list(indices):
            raise RuntimeError("group is not transitive on lines of one type")
        order = len(elements) // len(indices)
        stab = LineStabilizer(base, order, indices, elements[first])
        self._stabilizers[split] = stab
        return stab

    def induced_char(self, stab: LineStabilizer, g) -> tuple[int, int]:
        """(ind(1), ind(det)) at g, induced from the 4-space stabilizer.

        Cosets are modeled by the lines of the stabilizer's type.  For each
        coset line g fixes, g is conjugated back by the line's transporter x;
        x^-1 g x fixes the base line, and det on the stabilized 4-space is
        its scalar there (the total determinant is 1).
        """
        q = self.q
        fixed = self.line_action(g)[list(stab.line_indices)] != 0
        x = stab.transporters[fixed]
        conjugates = (self.inverse(x) @ np.asarray(g) @ x) % q
        entries = self._signed_lines(conjugates @ self.lines[stab.base_index])
        on_base = stab.base_index * q
        det = np.where(entries == on_base + 1, 1, np.where(entries == on_base + q - 1, -1, 0))
        if not det.all():
            raise RuntimeError("transported element escaped the subgroup")
        return len(det), int(det.sum())

    def induced_virtual_trace(self, g) -> int:
        """Alternating combination ind(1) - ind(det) over the split
        stabilizer, minus the same over the non-split one."""
        sp_one, sp_det = self.induced_char(self.stabilizer(split=True), g)
        ns_one, ns_det = self.induced_char(self.stabilizer(split=False), g)
        return (sp_one - sp_det) - (ns_one - ns_det)

    # --- batched verification ---

    def _batched_scan(self):
        """Vectorized per-element data over the full enumeration.

        Kernel dimensions are read off line counts: a d-dimensional kernel
        meets (q^d - 1)/(q - 1) lines.  The eigenlines of 1 and -1 are
        masks on the signed line tables; (g + 1)^2 is formed only for the
        elements that pass the first two rank tests (17,820 of 51,840 at
        q = 3).
        """
        q = self.q
        elements = self.enumerate_group()
        on_line = np.arange(len(self.lines), dtype=self._tables.dtype) * q
        fixed = self._tables == on_line + 1
        negated = self._tables == on_line + (q - 1)

        def lines_of(d):
            return (q**d - 1) // (q - 1)

        members = (fixed.sum(axis=1) == lines_of(1)) & (
            negated.sum(axis=1) == lines_of(2)
        )
        candidates = np.flatnonzero(members)
        # a line is in the kernel when every row of the matrix is orthogonal
        # to it; rows are looked up by code among all vectors of F_q^5
        vectors = np.indices((q,) * 5, dtype=np.int64).reshape(5, -1).T
        orthogonal = (vectors @ self.lines.T) % q == 0
        plus = (elements[candidates] + np.eye(5, dtype=np.int64)) % q
        kernel_sq = orthogonal[((plus @ plus) % q) @ self._place].all(axis=1)
        members[candidates] = kernel_sq.sum(axis=1) == lines_of(3)
        type_plus = self.line_types == 1
        type_minus = self.line_types == -1
        trace = 2 * (negated & type_plus[None]).sum(axis=1) - 2 * (
            negated & type_minus[None]
        ).sum(axis=1)
        return elements, fixed, negated, members, trace.astype(np.int64)

    def member_labels(self):
        """The full enumeration, the line-count trace of every element, and
        the index and (eps, delta) label of every twisted-class member, all
        from one batched scan.

        eps is the type of the member's one fixed line and delta the type
        its (-1)-plane's non-degenerate lines share; eps is 0 when the fixed
        line is isotropic and delta is 0 when those lines are of both types
        or absent, which would mean this implementation is broken.
        """
        elements, fixed, negated, members, trace = self._batched_scan()
        index = np.flatnonzero(members)
        eps = self.line_types[fixed[index].argmax(axis=1)]
        minus = negated[index]
        has_plus = (minus & (self.line_types == 1)).any(axis=1)
        has_minus = (minus & (self.line_types == -1)).any(axis=1)
        delta = np.where(has_plus == has_minus, 0, np.where(has_plus, 1, -1))
        return elements, trace, index, eps, delta

    def conjugacy_class_size(self, g) -> int:
        """Orbit size under conjugation by the generators."""
        gens = np.stack(self.generators())
        orbit = self._closure(
            self._signed_tables(np.asarray(g)[None])[0],
            self._signed_tables(gens),
            self._signed_tables(self.inverse(gens)),
        )
        return len(orbit)

    def verify(self, seed: int = 0) -> CheckRecord:
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

        return run_check("so5", f"q={self.q}", scan, seed)

    def _census_failures(self):
        """Failures of the isotropic line count and the line total."""
        q = self.q
        failures = []
        iso, plus_lines, minus_lines = self.line_census()
        if iso != (q + 1) * (q**2 + 1):
            failures.append(f"isotropic line count {iso}")
        if iso + plus_lines + minus_lines != (q**5 - 1) // (q - 1):
            failures.append(f"line total {iso + plus_lines + minus_lines}")
        return failures

    def _verify_counterexamples(self, seed: int):
        q = self.q
        failures = self._census_failures()
        elements, trace, member_idx, eps, delta = self.member_labels()
        if len(elements) != self.group_order_formula():
            failures.append(f"group order {len(elements)}")

        # support identity, batched
        for i in member_idx[eps == 0]:
            failures.append(f"element {i}: fixed line not anisotropic")
        for i in member_idx[(eps != 0) & (delta == 0)]:
            failures.append(f"element {i}: mixed (-1)-plane types")
        ok = (eps != 0) & (delta != 0)
        labelled, eps, delta = member_idx[ok], eps[ok], delta[ok]
        wrong = trace[labelled] != 2 * delta * q
        for i, d in zip(labelled[wrong], delta[wrong]):
            failures.append(f"element {i}: trace {trace[i]} != {2 * d * q}")
        labels = {
            (e, d): labelled[(eps == e) & (delta == d)]
            for e, d in set(zip(eps.tolist(), delta.tolist()))
        }
        if sorted(labels) != [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            failures.append(f"labels realized: {sorted(labels)}")
        off_class = trace != 0
        off_class[member_idx] = False
        bad = np.flatnonzero(off_class)
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
        """ind(1) and ind(det) at every group element, by the definition of
        induction.

        The subgroup H and det on it come from the matrices' action on the
        base line.  An element g lies in the stabilizer of the coset line of
        transporter x exactly when g = x h x^-1 with h in H, and then adds
        det(h) there; so each conjugate x h x^-1 is found among ``elements``
        by its code and gets 1 and det(h).  This route never computes an
        element's action on the lines, so it shares no shortcut with the
        line-count trace.
        """
        q = self.q
        base_vec = self.lines[stab.base_index]
        images = (elements @ base_vec) % q
        det_plus = (images == base_vec).all(axis=1)
        det_minus = (images == (-base_vec) % q).all(axis=1)
        subgroup = np.flatnonzero(det_plus | det_minus)
        if len(subgroup) != stab.order:
            raise RuntimeError(
                f"base-line stabilizer has {len(subgroup)} elements, expected {stab.order}"
            )
        det_is_plus = det_plus[subgroup]
        x = stab.transporters[:, None]
        conjugates = (x @ elements[subgroup][None] @ self.inverse(x)) % q
        codes = self._matrix_codes(elements)
        order = np.argsort(codes)
        sorted_codes = codes[order]
        wanted = self._matrix_codes(conjugates).reshape(len(x), -1)
        position = np.minimum(np.searchsorted(sorted_codes, wanted), len(codes) - 1)
        if (sorted_codes[position] != wanted).any():
            raise RuntimeError("a conjugate of the stabilizer is not a group element")
        where = order[position]
        ind_one = np.bincount(where.ravel(), minlength=len(elements))
        ind_det = np.bincount(
            where[:, det_is_plus].ravel(), minlength=len(elements)
        ) - np.bincount(where[:, ~det_is_plus].ravel(), minlength=len(elements))
        return ind_one, ind_det

    def verify_sampled(self, samples: int = 200, seed: int = 0) -> CheckRecord:
        """Reduced check for q > 3: line census plus the support identity on
        randomly sampled elements (no full enumeration)."""
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")

        def scan():
            failures = self._census_failures()
            rng = random.Random(seed)
            for k in range(samples):
                g = self.random_element(rng)
                if self.line_count_trace(g) != self.class_support_value(g):
                    failures.append(f"sample {k}: trace != support value")
            return sorted(failures)

        return run_check("so5", f"q={self.q} sampled", scan, seed)
