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
  entry ``m * q + c``.  The line-count trace and eigenline labels of the
  full scan and the group's transitivity on lines are masks on it;
  ``line_action(g)`` is its fixed-line part.  Tables compose by lookups in
  ``scaled[c, e]``, the entry of c times the vector of entry e: where h
  maps x_l to c_h x_m, (gh) holds ``scaled[c_h, g[m]]``.
* ``_closure(start, rights)`` is the enumeration's breadth-first closure
  over whole frontiers of tables.  Each element is coded as one int64, its
  25 matrix entries as base-q digits (q^25 < 2^63 for q <= 5); the
  basis-line entries are the matrix's columns, so an image is coded by five
  lookups, one per basis line, before any full table is composed, and a
  frontier is deduplicated by one sort of codes.  The group is the closure
  of the identity under right multiplication by a small generating set
  (products of reflection pairs, so determinants stay 1, with both spinor
  classes covered), and its matrices are read back off the basis-line
  entries.  Each level of new tables is written straight into one buffer of
  |G| rows, so the group is never held twice.  A conjugacy class's size is
  |G| / |C(g)|, the centralizer counted on the tables: h commutes with g
  when gh and hg have the same entries at the five basis lines.

Both kernels decide the twisted class (below) by kernel line counts in one
shared tail, ``_twisted_class``, and differ only in where the kernels come
from: ``_batched_scan`` reads them off the tables and packed orthogonal-line
bitsets, ``_support_batch`` off one narrow-integer einsum of matrix rows
against the lines (int16 up to q = 81), for sampled and single elements.
Both run over row blocks of about CHUNK_ENTRIES entries, so neither holds a
whole-group mask.

The coset model of the induced characters uses neither kernel's line
action: it conjugates the 4-space stabilizer by every transporter and
scatters the character values onto the conjugates, found by their codes.
Since x^-1 = x^T, vec(x h x^T) = (x kron x) vec(h): a float32 GEMM per
stabilizer, in row blocks of about 1 MB once coded, its entries (at most
25 (q - 1)^3) exact and reduced by lookup, and looked up among the
enumeration's codes, which ``enumerate_group`` sorts once.
Its per-element partner, ``induced_char(stab, g)``, returns the same pair
(ind_one, ind_det) at one element the other way round: it conjugates g back
by the transporter of each coset line g fixes and reads the conjugate's
scalar on the base line.

The distinguished twisted class consists of the elements whose semisimple
part negates a hyperplane (minus the semisimple part is then a reflection)
and whose unipotent part has Jordan blocks of sizes 3, 1, 1.  Concretely:

    rank(g - 1) = 4,  rank(g + 1) = 3,  rank((g + 1)^2) = 2.

A d-dimensional kernel meets (q^d - 1)/(q - 1) lines, so these read: g fixes
exactly 1 line, negates exactly q + 1, and (g + 1)^2 kills q^2 + q + 1.

For such g the fixed space is one anisotropic line (type epsilon) and the
(-1)-eigenspace is a plane whose non-degenerate lines all share one type
(delta): the plane's radical is its single isotropic line, and the norms of
the remaining lines differ by squares.  The class function assigning
2 * delta * q on this set and 0 elsewhere coincides with the trace of the
virtual representation induced, with alternating signs, from the trivial
and determinant characters of the two 4-space stabilizers; ``verify``
establishes that element by element.  Both checks compare the line-count
trace with it by one rule, ``_support_failures``: trace = 2 * delta * q on
every row, delta being 0 off the class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .report import CheckRecord, run_check

FULL_ENUMERATION_Q = 3
MAX_CODED_Q = 5  # largest q with q^25 < 2^63: int64 element codes
# entries per row block: eigenline products, scan table entries, and (a
# quarter of it) coset GEMM outputs
CHUNK_ENTRIES = 2**19


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


def _in_row_blocks(size, batch, *arrays):
    """``batch`` over blocks of ``size`` rows of the arrays, taken in step
    as views, with each column of its tuple results concatenated in order."""
    bounds = range(size, len(arrays[0]), size)
    parts = [batch(*blocks) for blocks in zip(*(np.split(a, bounds) for a in arrays))]
    return tuple(np.concatenate(column) for column in zip(*parts))


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
        self._element_codes = None
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
        q^4 (q^2 - 1)(q^4 - 1), too many by the closure and too few here.
        The signed line tables of the elements are kept alongside, in the
        same order, and their ``_matrix_codes``, from the closure, sorted
        once as (order, sorted codes) in ``_element_codes``.  The (N, 5, 5)
        int64 matrices are written in place, one column per basis line, by
        gathering the vectors of the tables' basis-line entries.
        """
        if self._elements is not None:
            return self._elements
        if self.q != FULL_ENUMERATION_Q:
            raise ValueError(f"full enumeration is guarded to q={FULL_ENUMERATION_Q}")
        identity = self._signed_tables(np.eye(5, dtype=np.int64)[None])[0]
        tables, codes = self._closure(identity, self._signed_tables(np.stack(self.generators())))
        if len(tables) != self.group_order_formula():
            raise RuntimeError(
                f"enumeration produced {len(tables)} elements, expected"
                f" {self.group_order_formula()}"
            )
        # column i of each matrix is the vector of its entry at basis line i
        vectors = self._entry_vectors()
        elements = np.empty((len(tables), 5, 5), dtype=np.int64)
        for column, line in enumerate(self._basis):
            elements[:, :, column] = vectors[tables[:, line]]
        order = np.argsort(codes)
        self._element_codes = order, codes[order]
        self._elements = elements
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

    def _scaled_entries(self):
        """``scaled[c, m * q + a] = m * q + (a * c) % q``, the entry of c
        times the vector of entry m * q + a; shape (q, q * #lines)."""
        q = self.q
        line, scalar = np.divmod(np.arange(q * len(self.lines)), q)
        return (line * q + (scalar * np.arange(q)[:, None]) % q).astype(self._entry_dtype)

    def _compose(self, g, h, scaled):
        """Table of gh by one gather: where h maps x_l to c_h x_m, gh holds
        ``scaled[c_h, g[m]]``.  g may be a stack, and h may hold only some
        of its columns; the result covers the same lines.  The flat index
        stays below q^2 * #lines, inside the entry dtype for q <= 5."""
        line_h, scalar_h = np.divmod(h, self.q)
        return scaled.take(scalar_h * scaled.shape[1] + g.take(line_h, axis=-1))

    def _code_weights(self):
        """Place values of the int64 element code: entry (i, j) of a matrix
        mod q is its base-q digit 5 i + j."""
        if self.q > MAX_CODED_Q:
            raise ValueError(f"int64 codes need q <= {MAX_CODED_Q}")
        return self.q ** np.arange(25, dtype=np.int64)

    def _matrix_codes(self, matrices):
        """One int64 per 5x5 matrix mod q, its entries as base-q digits."""
        return np.asarray(matrices, dtype=np.int64).reshape(-1, 25) @ self._code_weights()

    def _closure(self, start, rights):
        """(tables, codes) of every element reachable from the table
        ``start`` by repeated steps g -> g r over the stacked tables
        ``rights``: start first, then in breadth-first discovery order, each
        with its ``_matrix_codes`` code.

        A frontier's images are first composed only at the five basis lines,
        whose entries are the matrix's columns: ``columns[j, e]`` is the code
        of entry e's vector as column j, and an image's code is the sum of
        its five lookups, accumulated in place.  The codes are deduplicated,
        within the frontier and against everything seen, by one sort of the
        seen codes followed by the new ones, keeping the first occurrence of
        each new code in step-major order, and only the new elements get
        full tables.  The tables live in one buffer of |G| rows: each step
        writes its new elements straight after the last level, and the next
        level reads them back as a view.  A closure that would overflow it
        has left the group, and raises.
        """
        group_order = self.group_order_formula()
        columns = (self._entry_vectors() @ self._code_weights().reshape(5, 5)).T
        scaled = self._scaled_entries()
        basis = self._basis
        found = np.empty((group_order, len(start)), dtype=start.dtype)
        found[0] = start
        seen = np.array([columns[np.arange(5), start[basis]].sum()])
        level, end = 0, 1  # the frontier is found[level:end]
        while end > level:
            frontier = found[level:end]
            images = np.concatenate(
                [self._compose(frontier, right[basis], scaled) for right in rights]
            )
            image_codes = columns[0].take(images[:, 0])
            for j in range(1, 5):
                image_codes += columns[j].take(images[:, j])
            first = _first_occurrences(np.concatenate([seen, image_codes]))
            first = first[first >= len(seen)] - len(seen)
            seen = np.concatenate([seen, image_codes[first]])
            if end + len(first) > group_order:
                raise RuntimeError(
                    f"enumeration produced over {group_order} elements, expected {group_order}"
                )
            step_of, row = np.divmod(first, len(frontier))
            level = end
            for step, right in enumerate(rights):
                taken = frontier.take(row[step_of == step], axis=0)
                found[end : end + len(taken)] = self._compose(taken, right, scaled)
                end += len(taken)
        return found[:end], seen

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

    def _labels(self, fixed, negated):
        """(eps, delta) of twisted-class members from their masks of fixed
        and negated lines: the fixed line's type and the type the (-1)-plane's
        non-degenerate lines share; a 0 marks this implementation broken."""
        types = self.line_types
        eps = types[fixed.argmax(axis=1)]
        has_plus = (negated & (types == 1)).any(axis=1)
        has_minus = (negated & (types == -1)).any(axis=1)
        return eps, np.where(has_plus == has_minus, 0, np.where(has_plus, 1, -1))

    def _twisted_class(self, fixed, negated, kernel_sq_lines):
        """(trace, members, eps, delta) of a batch from its (k, #lines) masks
        of fixed and negated lines, by the one membership rule: 1 fixed line,
        q + 1 negated, and q^2 + q + 1 lines in the kernel of (g + 1)^2,
        counted by ``kernel_sq_lines(candidates)`` for those rows only.  eps
        and delta are 0 off the class; a 0 on a member marks a broken label.
        Per-row counts take the narrowest dtype holding #lines (uint8 at q = 3).
        """
        q = self.q
        narrow = np.min_scalar_type(fixed.shape[1])

        def count(mask):
            return mask.sum(axis=1, dtype=narrow)

        members = (count(fixed) == 1) & (count(negated) == q + 1)
        candidates = np.flatnonzero(members)
        members[candidates] = kernel_sq_lines(candidates) == q**2 + q + 1
        square = count(negated & (self.line_types == 1)).astype(np.int64)
        trace = 2 * (square - count(negated & (self.line_types == -1)))
        eps, delta = np.zeros((2, len(members)), dtype=np.int64)
        eps[members], delta[members] = self._labels(fixed[members], negated[members])
        return trace, members, eps, delta

    def _support_batch(self, matrices):
        """``_twisted_class`` of every matrix in a (k, 5, 5) stack.

        A line is in a matrix's kernel when every row is orthogonal to it:
        the rows of g -+ 1, then of (g + 1)^2 for the candidates, go mod q
        through an integer einsum against the transposed lines in the
        narrowest signed dtype holding 5 (q - 1)^2 (no int64, no BLAS),
        reduced in place mod q, in chunks of about CHUNK_ENTRIES per sign.
        """
        q = self.q
        eye = np.eye(5, dtype=np.int64)
        matrices = np.asarray(matrices, dtype=np.int64) % q
        # products of residues are at most 5 (q - 1)^2: int16 up to q = 81
        narrow = np.min_scalar_type(-5 * (q - 1) ** 2)
        lines_t = np.ascontiguousarray(self.lines.T, dtype=narrow)

        def kernels(stack):
            rows = (stack % q).astype(narrow).reshape(-1, 5)
            products = np.einsum("ij,jl->il", rows, lines_t)
            products %= q
            return (products == 0).reshape(len(stack), 5, len(self.lines)).all(axis=1)

        def batch(g):
            plus = g + eye
            fixed, negated = np.split(kernels(np.concatenate([g - eye, plus])), 2)
            return self._twisted_class(
                fixed, negated, lambda c: kernels(plus[c] @ plus[c]).sum(axis=1)
            )

        return _in_row_blocks(max(1, CHUNK_ENTRIES // (5 * len(self.lines))), batch, matrices)

    def in_class_c(self, g):
        """Twisted-class membership test: the label of a member (a 0 in it
        marks this implementation broken), None otherwise."""
        _, members, eps, delta = self._support_batch(np.asarray(g)[None])
        return ClassCLabel(int(eps[0]), int(delta[0])) if members[0] else None

    def class_support_value(self, g) -> int:
        """2 * delta * q on the twisted class, 0 elsewhere."""
        return 2 * int(self._support_batch(np.asarray(g)[None])[3][0]) * self.q

    def line_count_trace(self, g) -> int:
        """Twice the square-type count minus twice the non-square-type count
        of lines on which g acts by -1 (types are +1, -1 and 0)."""
        return int(self._support_batch(np.asarray(g)[None])[0][0])

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
        """Stabilizer of a 4-space on which the form is split (or
        non-split), with transporters to every coset."""
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
        """``_twisted_class`` of the full enumeration, in its order.

        The eigenlines of 1 and -1 are masks on the signed line tables.
        (g + 1)^2 is formed only for the candidates (17,820 of 51,840 at
        q = 3) and reduced by a residue table; its kernel is the AND of the
        packed orthogonal-line bitsets of its five rows (16 bytes each at
        q = 3), counted by ``np.bitwise_count``.  It runs over row blocks of
        the tables and elements of about CHUNK_ENTRIES table entries each
        (4,332 rows at q = 3), so no whole-group mask is ever held.
        """
        q = self.q
        elements = self.enumerate_group()
        on_line = np.arange(len(self.lines), dtype=self._tables.dtype) * q
        # rows are looked up by code among all vectors of F_q^5
        vectors = np.indices((q,) * 5, dtype=np.int64).reshape(5, -1).T
        orthogonal = np.packbits((vectors @ self.lines.T) % q == 0, axis=1)
        diagonal = np.arange(5)
        residue = (np.arange(5 * (q - 1) ** 2 + 1) % q).astype(np.uint8)

        def batch(tables, block):
            def kernel_sq_lines(candidates):
                plus = block[candidates]
                plus[:, diagonal, diagonal] = (plus[:, diagonal, diagonal] + 1) % q
                rows = orthogonal[residue[plus @ plus] @ self._place]
                return np.bitwise_count(np.bitwise_and.reduce(rows, axis=1)).sum(axis=1)

            return self._twisted_class(
                tables == on_line + 1, tables == on_line + (q - 1), kernel_sq_lines
            )

        size = max(1, CHUNK_ENTRIES // len(self.lines))
        return _in_row_blocks(size, batch, self._tables, elements)

    def conjugacy_class_size(self, g) -> int:
        """|G| / |C(g)|, the centralizer counted over the enumeration's
        tables (so guarded to q = 3 with it).

        h commutes with g when gh and hg agree at every basis line b: where
        h maps x_b to c_h x_m, (gh)[b] = ``scaled[c_h, g[m]]``, and where g
        maps it to c_g x_n, (hg)[b] = ``scaled[c_g, h[n]]``.  Only the rows
        that still agree go on to the next line.
        """
        self.enumerate_group()
        g = self._signed_tables(np.asarray(g)[None])[0]
        scaled = self._scaled_entries()
        rows = np.arange(len(self._tables))
        for b in self._basis:
            line_g, scalar_g = divmod(int(g[b]), self.q)
            gh = self._compose(g, self._tables[rows, b], scaled)
            hg = scaled[scalar_g].take(self._tables[rows, line_g])
            rows = rows[gh == hg]
        return len(self._tables) // len(rows)

    def verify(self, seed: int = 0) -> CheckRecord:
        """Full element-by-element verification at q = 3.

        Checks (the group order is checked by the enumeration): line
        census; the support identity, ``_support_failures`` (no broken
        label, and the line-count trace equals the class-function value
        2 * delta * q at every element, delta being 0 off the class); all
        four labels occur and each label set is a single conjugacy class;
        the coset-model virtual character agrees with the line-count trace
        everywhere; the virtual character pairs to zero with the trivial
        one; batched and per-element routes agree on a seeded sample, with
        labels invariant under conjugation.
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

    def _support_failures(self, name, trace, members, eps, delta):
        """Failures of the support identity on a batch, each named by
        ``name`` and its row: the members whose label ``_labels`` left
        broken, then every row whose trace is not 2 * delta * q (delta is 0
        off the class, so there the trace must be 0)."""
        support = 2 * self.q * delta
        no_eps = np.flatnonzero(members & (eps == 0))
        no_delta = np.flatnonzero(members & (eps != 0) & (delta == 0))
        wrong = np.flatnonzero(trace != support)
        return (
            [f"{name} {i}: fixed line not anisotropic" for i in no_eps]
            + [f"{name} {i}: mixed (-1)-plane types" for i in no_delta]
            + [f"{name} {i}: trace {trace[i]} != support value {support[i]}" for i in wrong]
        )

    def _verify_counterexamples(self, seed: int):
        q = self.q
        failures = self._census_failures()
        elements = self.enumerate_group()
        trace, members, eps, delta = self._batched_scan()

        failures += self._support_failures("element", trace, members, eps, delta)
        labelled = np.flatnonzero((eps != 0) & (delta != 0))
        eps, delta = eps[labelled], delta[labelled]
        labels = {
            (e, d): labelled[(eps == e) & (delta == d)]
            for e, d in set(zip(eps.tolist(), delta.tolist()))
        }
        if sorted(labels) != [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            failures.append(f"labels realized: {sorted(labels)}")
        if int(trace.sum()) != 0:
            failures.append(f"virtual character pairs with trivial: {trace.sum()}")

        # each label set is a single conjugacy class
        for label, idx_list in sorted(labels.items()):
            size = self.conjugacy_class_size(elements[idx_list[0]])
            if size != len(idx_list):
                failures.append(f"label {label}: orbit {size} != set size {len(idx_list)}")

        # coset model against the line-count trace, every element
        split_stab = self.stabilizer(split=True)
        nonsplit_stab = self.stabilizer(split=False)
        sp_one, sp_det = self._coset_model_batch(split_stab)
        ns_one, ns_det = self._coset_model_batch(nonsplit_stab)
        coset_trace = (sp_one - sp_det) - (ns_one - ns_det)
        for i in np.flatnonzero(coset_trace != trace)[:5]:
            failures.append(f"element {i}: coset model {coset_trace[i]} != line count {trace[i]}")
        cosets = (len(split_stab.line_indices), len(nonsplit_stab.line_indices))
        if (sp_one[0], ns_one[0]) != cosets:
            failures.append("induced dimension != coset count at the identity")

        # the table-free route and the per-element coset model against the
        # scan, plus conjugation invariance of the labels
        rng = random.Random(seed)
        member_idx = np.flatnonzero(members)
        sample = []
        if len(member_idx):
            sample = [int(member_idx[rng.randrange(len(member_idx))]) for _ in range(8)]
        sample += [rng.randrange(len(elements)) for _ in range(8)]
        h = np.stack([self.random_element(rng) for _ in sample])
        g = elements[sample]
        free_trace, _, free_eps, free_delta = (
            part.reshape(2, -1)
            for part in self._support_batch(np.concatenate([g, (self.inverse(h) @ g @ h) % q]))
        )
        for k, i in enumerate(sample):
            if free_trace[0, k] != trace[i]:
                failures.append(f"element {i}: per-element trace disagrees")
            if 2 * free_delta[0, k] * q != trace[i]:
                failures.append(f"element {i}: support value disagrees")
            if self.induced_virtual_trace(g[k]) != trace[i]:
                failures.append(f"element {i}: per-element coset model disagrees")
            if (free_eps[1, k], free_delta[1, k]) != (free_eps[0, k], free_delta[0, k]):
                failures.append(f"element {i}: label not conjugation invariant")
        return sorted(failures)

    def _coset_model_batch(self, stab: LineStabilizer):
        """ind(1) and ind(det) at every group element, by the definition of
        induction.

        The subgroup H and det on it come from the matrices' action on the
        base line.  An element g lies in the stabilizer of the coset line of
        transporter x exactly when g = x h x^-1 with h in H, and then adds
        det(h) there; so each conjugate x h x^-1 is found in the enumeration
        by its code and gets 1 and det(h).  This route never computes an
        element's action on the lines, so it shares no shortcut with the
        line-count trace.

        Since x^-1 = x^T, the row-major vec(x h x^T) is (x kron x) vec(h):
        a float32 GEMM of the (|H|, 25) stack of vec(h) against the
        transporters' Kronecker products gives every conjugate.  It runs in
        row blocks of the stack with about CHUNK_ENTRIES / 4 outputs each
        (10 per stabilizer at q = 3), a quarter because ``_matrix_codes``
        widens a block to int64, each block coded before the next, so the
        codes keep the h-major order.  The entries are sums of 25 products
        of residues, at most 25 (q - 1)^3 (1,600 at MAX_CODED_Q, the largest
        q ``_matrix_codes`` accepts): exact in float32 and int16, and
        reduced mod q by a residue table that long.  The conjugates' codes
        are sorted before the lookup among the sorted element codes, which
        the enumeration keeps in ``_element_codes``.
        """
        q = self.q
        elements = self.enumerate_group()
        order, sorted_codes = self._element_codes
        # also reduces the base-line images, at most 5 (q - 1)^2
        residue = (np.arange(25 * (q - 1) ** 3 + 1) % q).astype(np.uint8)
        base_vec = self.lines[stab.base_index]
        image_codes = residue[elements @ base_vec] @ self._place
        det_plus = image_codes == base_vec @ self._place
        det_minus = image_codes == ((-base_vec) % q) @ self._place
        subgroup = np.flatnonzero(det_plus | det_minus)
        if len(subgroup) != stab.order:
            raise RuntimeError(
                f"base-line stabilizer has {len(subgroup)} elements, expected {stab.order}"
            )
        det_is_plus = det_plus[subgroup]
        x = stab.transporters.astype(np.float32)
        # kron[(j, l), (a, i, k)] = x_a[i, j] x_a[k, l]
        kron = np.einsum("aij,akl->jlaik", x, x).reshape(25, -1)
        vec_h = elements[subgroup].reshape(-1, 25).astype(np.float32)
        block = max(1, CHUNK_ENTRIES // (4 * kron.shape[1]))
        # one code per (h, x), h-major
        wanted = np.concatenate(
            [
                self._matrix_codes(residue.take((rows @ kron).astype(np.int16)))
                for rows in np.split(vec_h, range(block, len(vec_h), block))
            ]
        )
        query = np.argsort(wanted)
        wanted = wanted[query]
        position = np.minimum(np.searchsorted(sorted_codes, wanted), len(sorted_codes) - 1)
        if (sorted_codes[position] != wanted).any():
            raise RuntimeError("a conjugate of the stabilizer is not a group element")
        where = order[position]
        plus = np.repeat(det_is_plus, len(x))[query]
        ind_one = np.bincount(where, minlength=len(elements))
        ind_det = np.bincount(where[plus], minlength=len(elements)) - np.bincount(
            where[~plus], minlength=len(elements)
        )
        return ind_one, ind_det

    def verify_sampled(self, samples: int = 200, seed: int = 0) -> CheckRecord:
        """Reduced check for q > 3: line census plus the support identity,
        the same ``_support_failures`` as ``verify``, on randomly sampled
        elements (no full enumeration)."""
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")

        def scan():
            failures = self._census_failures()
            rng = random.Random(seed)
            words = np.stack([self.random_element(rng) for _ in range(samples)])
            return sorted(failures + self._support_failures("sample", *self._support_batch(words)))

        return run_check("so5", f"q={self.q} sampled", scan, seed)
