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
  entry ``m * q + c``.  Tables compose by lookups in ``scaled[c, e]``, the
  entry of c times the vector of entry e: where h maps x_l to c_h x_m,
  (gh) holds ``scaled[c_h, g[m]]``.  A line stabilizer H (1,152 or 1,440
  elements at q = 3) is the breadth-first ``_closure`` of reflection pairs
  that keep its base line, over whole frontiers of tables.  Each element
  is coded as one int64, its 25 matrix entries as base-q digits
  (q^25 < 2^63 for q <= 5); the basis-line entries are the matrix's
  columns, so an image is coded before any full table is composed, by
  five lookups in digit tables built once per generator and basis line.
  A frontier is deduplicated by one sort of (code, index) keys packed into
  int64, and the closure must fill exactly |H| rows.  A conjugacy class's
  size is |G| / |C(g)|, the centralizer counted on tables
  (``_centralizer_order``): h commutes with g when gh and hg have the same
  entries at the five basis lines, read only for the rows still counted.
* The matrix of g: ``_support_batch`` counts the kernel masks of one
  narrow-integer einsum of matrix rows against the lines (unsigned: uint8
  up to q = 7, uint16 up to q = 113), each product's divisibility by q
  read off one multiply by q^-1 mod 2^w (``_divisible``), over row blocks
  of about CHUNK_ENTRIES entries, so no whole-batch array is held per
  line.

Both decide the twisted class (below) from each element's counts of fixed
and of negated lines by type, in one shared tail, ``_twisted_class``, and
differ only in where the counts come from: ``_eigenline_scan`` reads them
off table entries, ``_support_batch`` off kernel masks.

``verify`` runs neither kernel over G.  The line-count trace T, membership
of the twisted class (below) and its labels are class functions, and both
sides of the identity vanish at g unless g negates an anisotropic line: T
counts only those lines, and a member negates q of them.  By Witt's theorem
an element takes such a line l, of type e, to u_e, the base line of that
type, and conjugates g to an h with h u_e = -u_e: a row of H_e^-, the det
-1 half of H_e, the stabilizer of u_e.  So the identity holds on G exactly
when it holds on H_+^- and H_-^- (576 + 720 of the 1,152 + 1,440 rows of
the two ``_subgroup_tables`` at q = 3), and ``_eigenline_scan`` reads each
row's fixed and negated lines straight off its entries l q + 1 and
l q + q - 1.  There the induced character is read by the definition of
induction: ind(1) - ind(det) from the stabilizer of a line of type e is,
at h, the sum of 1 - (h's scalar on l) over the lines l of that type that h
fixes, twice the number of them h negates, so V = V_split - V_nonsplit is
2 sum of s(l) over the lines h negates, s(l) = +1 or -1 as the
perpendicular of l is split or not (``_split_signs``).  Counting the pairs
(g, l), l a negated anisotropic line of g of type e, gives the rest without
G.  A member of label (eps, delta) negates exactly q lines of type delta,
so |C_(eps,delta)| = #lines_delta x #{members of that label in H_delta^-}
/ q.  Weighting each pair by T(g) / n(g), n(g) the number of anisotropic
lines g negates, gives the sum of T over G, #lines_e x T(h) / n(h) summed
over the rows.  A member h fixes one line only, which every element that
commutes with h keeps, so for a member that fixes u_eps, C_G(h) =
C_{H_eps}(h): counted on H_eps's tables, |G| / |C_{H_eps}(h)| must be the
class size, so that each label set is a single conjugacy class.

The q = 3 whole-group reference that the tests and the demo compare with
is read with the same kernels.  ``enumerate_group`` builds G as the cosets
x H of H, the stabilizer of a base line u of the split type, one per Witt
transporter x (``_witt_transporters``, which also serves the 4-space
stabilizers).  Left multiplication by x only relabels table entries,
(x h)[l] = ``relabel[k, h[l]]``, so each element's matrix comes off the
basis-line entries ``relabel[k, H[:, basis]]``, and G's tables are never
built.  The whole-group scan ``_batched_scan`` is ``_support_batch`` of
the enumeration, and ``conjugacy_class_size`` counts ``_centralizer_order``
over it.  The coset model ``_coset_model_batch`` is induction by
definition, read on lines: the cosets of one 4-space stabilizer are the
lines of its base line's type, and g adds 1 - (g's scalar on l) to
V = ind(1) - ind(det) at each such line l it fixes, so V(g) is twice the
number of them that g negates.  ``verify`` calls none of the three; they
keep their names because the benchmark's tracer wraps them.

The distinguished twisted class consists of the elements whose semisimple
part negates a hyperplane (minus the semisimple part is then a reflection)
and whose unipotent part has Jordan blocks of sizes 3, 1, 1.  By definition:

    rank(g - 1) = 4,  rank(g + 1) = 3,  rank((g + 1)^2) = 2.

A d-dimensional kernel meets (q^d - 1)/(q - 1) lines, so the first two read:
g fixes exactly 1 line and negates exactly q + 1.  Given those, the third
holds exactly when one of the negated lines is isotropic, so
``_twisted_class`` decides membership from the two eigenline counts alone.
Write g = s u, s semisimple and u unipotent.  The (-1)-eigenspace E of s is
non-degenerate, contains ker(g + 1) and has even dimension (det g = 1), so
dimension 2 or 4:

* dim E = 2: E = ker(g + 1) is a non-degenerate plane, with 0 or 2
  isotropic lines, and ker (g + 1)^2 = ker(g + 1), so rank((g + 1)^2) = 3.
* dim E = 4: g = -u on E, so ker(u - 1) there is the plane P = ker(g + 1),
  and u has two Jordan blocks on E, of sizes 3, 1 or 2, 2.  As u is an
  isometry, im(u - 1) is the orthogonal complement of ker(u - 1) in E, so
  P's radical is P meet im(u - 1).  For 2, 2, (u - 1)^2 = 0 makes
  im(u - 1) = P: P is totally isotropic, all q + 1 of its lines are, and
  rank((g + 1)^2) = 1.  For 3, 1, the radical is one line, P's only
  isotropic line, and rank((g + 1)^2) = 2.  (Unipotent classes of the
  orthogonal groups in odd characteristic: G. E. Wall, J. Austral. Math.
  Soc. 3, 1963.)

For such g the fixed space is one anisotropic line (type epsilon) and the
(-1)-eigenspace is a plane whose non-degenerate lines all share one type
(delta): the plane's radical is its single isotropic line, and the norms of
the remaining lines differ by squares.  The class function assigning
2 * delta * q on this set and 0 elsewhere coincides with the trace of the
virtual representation induced, with alternating signs, from the trivial
and determinant characters of the two 4-space stabilizers; ``verify``
establishes that on every row of H_+^- and H_-^-.  Both checks compare
the line-count trace with it by one rule, ``_support_failures``: trace =
2 * delta * q on every row, delta being 0 off the class.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index

import numpy as np

from .report import CheckRecord, run_check

FULL_ENUMERATION_Q = 3
LABELS = [(-1, -1), (-1, 1), (1, -1), (1, 1)]  # every (eps, delta)
MAX_CODED_Q = 5  # largest q with q^25 < 2^63: int64 element codes
# entries per row block: eigenline products of matrix rows with the lines,
# line images of the coset model, and perpendicular products of the lines
CHUNK_ENTRIES = 2**19


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def _first_occurrences(values):
    """Index of the first occurrence of each distinct value, ascending.

    Each value is packed with its index into one int64 key, ``value << bits
    | index``, so one sort of the keys groups equal values with the least
    index first in each run, and each run's first key holds its first
    occurrence.  The keys fit in int64 only when every value fits in
    63 - bits bits and a sign; a wider value raises.
    """
    bits = max(len(values) - 1, 1).bit_length()
    limit = 1 << (63 - bits)
    if values.max(initial=0) >= limit or values.min(initial=0) < -limit:
        raise ValueError(f"values need more than {63 - bits} bits beside {bits} index bits")
    keys = values << bits
    keys |= np.arange(len(values))
    keys.sort()
    heads = keys >> bits
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(heads[1:], heads[:-1], out=starts[1:])
    keep = np.zeros(len(values), dtype=bool)
    keep[keys[starts] & ((1 << bits) - 1)] = True
    return np.flatnonzero(keep)


def _divisible(values, q):
    """Mask of the entries of an unsigned array that the odd q divides, by
    one multiply and one comparison, overwriting ``values``.

    With w = 8 x itemsize, x -> x q^-1 mod 2^w (numpy wraps unsigned
    products) is a bijection of the w-bit values that takes each multiple
    k q to k, so x is a multiple exactly when its image is at most
    (2^w - 1) // q (Granlund and Montgomery, PLDI 1994, Sec. 9).  No array
    but the mask is made beside the input.
    """
    bits = 8 * values.itemsize
    values *= pow(q, -1, 1 << bits)
    return values <= ((1 << bits) - 1) // q


def _in_row_blocks(row_entries, batch, *arrays):
    """``batch`` over blocks of about CHUNK_ENTRIES entries, ``row_entries``
    per row (at least one row a block), of the arrays, taken in step as
    views, with each column of its tuple results concatenated in order.
    Each column's blocks are freed once it is joined, so the blocks and the
    joined columns are never all held at once."""
    size = max(1, CHUNK_ENTRIES // row_entries)
    bounds = range(size, len(arrays[0]), size)
    parts = [batch(*blocks) for blocks in zip(*(np.split(a, bounds) for a in arrays))]
    columns = [list(column) for column in zip(*parts)][::-1]
    del parts
    return tuple(np.concatenate(columns.pop()) for _ in range(len(columns)))


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
        q = index(q)  # numpy integers act as ints; 3.0 is a TypeError
        if not is_prime(q) or q == 2:
            raise ValueError("q must be an odd prime")
        self.q = q
        self._init_lines()
        self._generators = None
        self._elements = None
        self._stabilizers = {}
        self._subgroups = {}

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
        # products of residues with lines are at most 5 (q - 1)^2: uint8 up
        # to q = 7, uint16 up to q = 113
        self._product_dtype = np.min_scalar_type(5 * (q - 1) ** 2)
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
        vector."""
        return self._reflections(np.asarray(vec)[None])[0]

    def _reflections(self, vectors):
        """Reflection 1 - 2 x x^T / (x . x) in the hyperplane perpendicular
        to each row x of a (k, 5) stack of anisotropic vectors; it depends
        only on the line x spans."""
        q = self.q
        x = np.asarray(vectors, dtype=np.int64) % q
        norms = (x * x).sum(axis=1) % q
        if not norms.all():
            raise ValueError("cannot reflect in an isotropic vector")
        coeff = 2 * self._inverse_mod[norms]
        outer = x[:, :, None] * x[:, None, :]
        return (np.eye(5, dtype=np.int64) - coeff[:, None, None] * outer) % q

    def generators(self):
        """Reflection-pair products through a spread of anisotropic vectors,
        plus the 5-cycle permutation matrix, as one (k, 5, 5) stack.

        Pairing every reflection with a fixed one keeps determinants at 1;
        spanning both square classes of norms covers both spinor classes.
        They drive ``random_element``; the enumeration does not use them.
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
        pairs = [(self.reflection(v) @ base) % q for v in candidates[1:]]
        self._generators = np.stack(pairs + [cycle])
        return self._generators

    def group_order_formula(self) -> int:
        q = self.q
        return q**4 * (q**2 - 1) * (q**4 - 1)

    def enumerate_group(self):
        """Every element of SO_5(F_q), as the cosets x H of H, the
        stabilizer of the base line u of the split type, one per Witt
        transporter x.

        Guarded to q = 3 (51,840 elements, |H| = 1,152).  The base line,
        the transporters and |H| are ``stabilizer(split=True)``'s, and H's
        tables are its ``_subgroup_tables``, closed once to exactly
        |H| = |G| / #lines rows.  Left multiplication by x only relabels
        table entries: (x h)[l] is ``relabel[k, h[l]]``, transporter k's
        entry for the vector of entry h[l].  The matrices' columns are the
        vectors of their entries at the basis lines, ``relabel[k,
        H[:, basis]]``, gathered coset after coset into one (N, 5, 5) array
        of residues.  Element 0 is the identity, the base line's
        transporter times H's first element.  Their int64 codes are summed
        from the same entries (``_code_columns``) and sorted in place; the
        sorted codes must strictly increase, so an element repeated across
        cosets raises.

        The returned array is int8 and read-only (1.3 MB at q = 3, where
        int64 would take 10.4 MB): it is the cached enumeration, and numpy
        keeps a product of int8 stacks in int8, which wraps past 127.  Cast
        a row or a stack to int64 before an unreduced product; every method
        here that takes matrices does so itself.
        """
        if self._elements is not None:
            return self._elements
        if self.q != FULL_ENUMERATION_Q:
            raise ValueError(f"full enumeration is guarded to q={FULL_ENUMERATION_Q}")
        stab = self.stabilizer(split=True)
        subgroup = self._subgroup_tables(stab)
        relabel = self._compose(
            self._signed_tables(stab.transporters),
            np.arange(self.q * len(self.lines)),
            self._scaled_entries(),
        )
        count = len(relabel) * len(subgroup)
        vectors, columns = self._entry_vectors().astype(np.int8), self._code_columns()
        elements = np.empty((count, 5, 5), dtype=vectors.dtype)
        codes = np.zeros(count, dtype=np.int64)
        for j, line in enumerate(self._basis):
            entries = relabel[:, subgroup[:, line]].ravel()  # coset-major
            vectors.take(entries, axis=0, out=elements[:, :, j])
            codes += columns[j].take(entries)
        codes.sort()
        if not (np.diff(codes) > 0).all():
            raise RuntimeError("enumeration repeats an element")
        elements.flags.writeable = False
        self._elements = elements
        return self._elements

    def _line_stabilizer_generators(self, line):
        """Generators of H, the stabilizer of an anisotropic line u in
        SO_5: r_a r_b for the anisotropic lines a of u's perpendicular
        4-space other than the first, b, and r_u r_b.

        H restricts isomorphically onto O(u^perp), since g u = det(g|u^perp)
        u.  The reflections r_a generate O(u^perp) (Cartan-Dieudonne), so
        the pairs, every even word being a product of them and their
        inverses, generate its SO, and r_u r_b adds the other coset; both
        norm classes occur among the a.
        """
        q = self.q
        u = self.lines[line]
        perp = self.lines[((self.lines @ u) % q == 0) & (self.line_types != 0)]
        mirrors = self._reflections(np.concatenate([perp, u[None]]))
        return list((mirrors[1:] @ mirrors[0]) % q)

    def _subgroup_tables(self, stab: LineStabilizer):
        """Signed line tables of H, the stabilizer of the base line of
        ``stab``: the ``_closure`` of ``_line_stabilizer_generators`` from
        the identity, to ``stab.order`` rows, closed at most once per base
        line and geometry."""
        line = stab.base_index
        if line not in self._subgroups:
            self._subgroups[line] = self._closure(
                self._signed_tables(np.eye(5, dtype=np.int64)[None])[0],
                self._signed_tables(np.stack(self._line_stabilizer_generators(line))),
                stab.order,
            )
        return self._subgroups[line]

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

    def _code_columns(self):
        """``columns[j, e]``, the int64 element code of entry e's vector as
        column j of a matrix, the code of a matrix mod q having its entry
        (i, j) as base-q digit 5 i + j: the basis-line entries of a table
        are its matrix's columns, so its code is the sum over basis lines j
        of ``columns[j, table[basis[j]]]``."""
        if self.q > MAX_CODED_Q:
            raise ValueError(f"int64 codes need q <= {MAX_CODED_Q}")
        return (self._entry_vectors() @ self.q ** np.arange(25, dtype=np.int64).reshape(5, 5)).T

    def _closure(self, start, rights, order):
        """Tables of the ``order`` elements reachable from the table
        ``start`` by repeated steps g -> g r over the stacked tables
        ``rights``: start first, then in breadth-first discovery order.

        A frontier's images are first coded without composing any table,
        by the sum of one ``_code_columns`` digit per basis line j.  Right
        r maps x_j to c x_m, so g r holds ``scaled[c, g[m]]`` at j, and its
        digit is one lookup in ``digits[r, j] = columns[j][scaled[c]]``, a
        table built once per (r, j).  Each level copies the frontier's
        entries at the few distinct lines m once, line-major (row
        ``where[r, j]`` for the m of (r, j)), and sums five lookups per
        step into an (R, k) block, step-major.  The codes are deduplicated,
        within the frontier and against everything seen, by
        ``_first_occurrences`` of the seen codes followed by the new ones,
        keeping the first occurrence of each new code in step-major order,
        and only the new elements get full tables.  The tables live in one
        buffer of ``order`` rows: each step writes its new elements
        straight after the last level, and the next level reads them back
        as a view.  A closure that would overflow the buffer, or stops
        short of filling it, raises.
        """
        columns = self._code_columns()
        scaled = self._scaled_entries()
        basis = self._basis
        line, scalar = np.divmod(rights[:, basis].astype(np.intp), self.q)
        needed = np.flatnonzero(np.bincount(line.ravel()))  # the distinct m, ascending
        where = np.searchsorted(needed, line)
        digits = columns[np.arange(5)[:, None], scaled[scalar]]  # (R, 5, q * #lines)
        found = np.empty((order, len(start)), dtype=start.dtype)
        found[0] = start
        seen = np.array([columns[np.arange(5), start[basis]].sum()])
        level, end = 0, 1  # the frontier is found[level:end]
        while end > level:
            frontier = found[level:end]
            entries = frontier.T[needed].astype(np.intp)
            block = np.empty((len(rights), len(frontier)), dtype=np.int64)
            for r, codes in enumerate(block):
                digits[r, 0].take(entries[where[r, 0]], out=codes)
                for j in range(1, 5):
                    codes += digits[r, j].take(entries[where[r, j]])
            image_codes = block.ravel()
            first = _first_occurrences(np.concatenate([seen, image_codes]))
            first = first[first >= len(seen)] - len(seen)
            seen = np.concatenate([seen, image_codes[first]])
            if end + len(first) > order:
                raise RuntimeError(f"closure produced over {order} elements, expected {order}")
            step_of, row = np.divmod(first, len(frontier))
            level = end
            for step, right in enumerate(rights):
                taken = frontier.take(row[step_of == step], axis=0)
                found[end : end + len(taken)] = self._compose(taken, right, scaled)
                end += len(taken)
        if end != order:
            raise RuntimeError(f"closure produced {end} elements, expected {order}")
        return found

    def inverse(self, g):
        """Inverse of an element, or of each in a stack: the transpose, since
        the elements preserve x . y."""
        return np.asarray(g, dtype=np.int64).swapaxes(-1, -2) % self.q

    def random_element(self, rng: random.Random):
        """Random word in the generators (not uniform; fine for spot checks).

        The whole word is drawn first, its length and then its letters.  It
        is multiplied as a balanced tree: each level multiplies adjacent
        pairs, in order, reduced mod q, and carries an odd last factor up.
        """
        gens = self.generators()
        word = [rng.randrange(len(gens)) for _ in range(rng.randrange(8, 24))]
        stack = gens[word]
        while len(stack) > 1:
            carried = stack[len(stack) & ~1 :]
            stack = np.concatenate([stack[0:-1:2] @ stack[1::2] % self.q, carried])
        return stack[0]

    # --- per-element operations ---

    def _twisted_class(self, fixed, negated):
        """(trace, members, eps, delta) of a batch from its (k, 3) counts of
        fixed and of negated lines, column t + 1 counting the lines of type
        t, by the one membership rule: 1 fixed line, q + 1 negated, and
        exactly one negated line isotropic, which stands for
        rank((g + 1)^2) = 2 (module docstring).  eps is the one fixed line's
        type, the square count minus the non-square count (0 when that line
        is isotropic); delta is the type the negated non-degenerate lines
        share (0 when both types or neither occur).  Both are 0 off the
        class; a 0 on a member marks a broken label.
        """
        minus, isotropic, plus = negated.T
        members = fixed.sum(axis=1) == 1
        members &= negated.sum(axis=1) == self.q + 1
        members &= isotropic == 1
        trace = 2 * (plus.astype(np.int64) - minus)
        eps = (fixed[:, 2].astype(np.int64) - fixed[:, 0]) * members
        delta = ((plus > 0).astype(np.int64) - (minus > 0)) * members
        return trace, members, eps, delta

    def _support_batch(self, matrices):
        """``_twisted_class`` of every matrix in a (k, 5, 5) stack.

        A line is in a matrix's kernel when every row is orthogonal to it:
        the rows of g -+ 1 go mod q through one integer einsum against the
        transposed lines in the narrowest unsigned dtype holding 5 (q - 1)^2
        (``_product_dtype``; no int64, no BLAS), and ``_divisible`` marks the products that q
        divides, in chunks of about CHUNK_ENTRIES per sign.  The kernel
        masks are counted by type in one float32 GEMM with the lines'
        one-hot types, exact since no count exceeds #lines < 2^24.
        """
        q = self.q
        eye = np.eye(5, dtype=np.int64)
        matrices = np.asarray(matrices, dtype=np.int64) % q
        narrow = self._product_dtype
        lines_t = np.ascontiguousarray(self.lines.T, dtype=narrow)
        by_type = (self.line_types[:, None] == np.arange(-1, 2)).astype(np.float32)

        def kernels(stack):
            rows = (stack % q).astype(narrow).reshape(-1, 5)
            # the products are bound to no name, so they are freed as soon
            # as ``_divisible`` returns their mask
            masks = _divisible(np.einsum("ij,jl->il", rows, lines_t), q).reshape(len(stack), 5, -1)
            return masks.all(axis=1).astype(np.float32)

        def batch(g):
            counts = (kernels(np.concatenate([g - eye, g + eye])) @ by_type).astype(np.int64)
            return self._twisted_class(*np.split(counts, 2))

        return _in_row_blocks(5 * len(self.lines), batch, matrices)

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

    # --- 4-space stabilizers ---

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
        non-split), with a Witt transporter to every coset line; its order
        is |G| / #lines of the type.  No enumeration is read and H is not
        closed: ``_subgroup_tables`` closes it when ``verify`` or the
        enumeration asks."""
        if split not in self._stabilizers:
            line_type = self.split_line_type() if split else -self.split_line_type()
            indices, transporters = self._witt_transporters(line_type)
            self._stabilizers[split] = LineStabilizer(
                int(indices[0]),
                self.group_order_formula() // len(indices),
                tuple(indices.tolist()),
                transporters,
            )
        return self._stabilizers[split]

    def _witt_transporters(self, line_type):
        """(indices, transporters): the lines of one anisotropic type, in
        order, and for each line an element of SO_5 taking the first, the
        base line u, onto it; the base line's own is the identity.

        Witt's theorem, made explicit: the line's representative is scaled
        to w with w . w = u . u (the norms differ by a square, the types
        being equal).  The reflection in d = u - w takes u to w; when d is
        isotropic (u . w = u . u) the one in d = u + w, whose norm is
        4 u . u, takes u to -w.  The reflection in a, the first anisotropic
        line perpendicular to w, then fixes w and brings the determinant
        back to 1.  Only the first q^2 + q + 1 lines are searched for a:
        they are the lines of the last three coordinates, whose form is
        nondegenerate, so w's perpendicular meets them in at least a plane
        that is not totally isotropic, with q + 1 > 2 lines of which at most
        two are isotropic.  A transporter that does not land on its line
        raises.
        """
        q = self.q
        indices = np.flatnonzero(self.line_types == line_type)
        u = self.lines[indices[0]]
        root = np.zeros(q, dtype=np.int64)  # root[c * c % q] = c
        root[np.arange(q) ** 2 % q] = np.arange(q)
        ratio = self.norms[indices[0]] * self._inverse_mod[self.norms[indices]] % q
        w = root[ratio][:, None] * self.lines[indices] % q
        d = (u - w) % q
        swap = (d * d).sum(axis=1) % q == 0
        d[swap] = (u + w[swap]) % q
        low = slice(q * q + q + 1)  # the lines of the last three coordinates
        perp = ((w @ self.lines[low].T) % q == 0) & (self.line_types[low] != 0)
        mirrors = self._reflections(self.lines[perp.argmax(axis=1)])
        transporters = (mirrors @ self._reflections(d)) % q
        transporters[0] = np.eye(5, dtype=np.int64)
        landed = self._signed_lines(transporters @ u) // q
        wrong = np.flatnonzero(landed != indices)
        if len(wrong):
            k = wrong[0]
            raise RuntimeError(
                f"transporter {k} takes the base line to line {landed[k]}, not {indices[k]}"
            )
        return indices, transporters

    # --- batched verification ---

    def _batched_scan(self):
        """``_support_batch`` of the full enumeration, in its order (so
        guarded to q = 3 with it): the whole-group reference for
        ``verify``'s rows, kept under this name for the benchmark's
        tracer."""
        return self._support_batch(self.enumerate_group())

    def conjugacy_class_size(self, g) -> int:
        """|G| / |C(g)|, ``_centralizer_order`` over the enumeration (so
        guarded to q = 3 with it), each row's entry at a line read off its
        matrix as the signed line of the matrix times the line's
        representative, only for the rows still counted."""
        elements = self.enumerate_group()

        def entries(rows, line):
            return self._signed_lines(elements[rows].astype(np.int64) @ self.lines[line])

        g = self._signed_tables(np.asarray(g)[None])[0]
        return len(elements) // self._centralizer_order(g, len(elements), entries)

    def _centralizer_order(self, g, count, entries):
        """How many of ``count`` rows commute with the table g, where
        ``entries(rows, line)`` reads the given rows' table entries at a
        line.

        h commutes with g when gh and hg agree at every basis line b: where
        h maps x_b to c_h x_m, (gh)[b] = ``scaled[c_h, g[m]]``, and where g
        maps it to c_g x_n, (hg)[b] = ``scaled[c_g, h[n]]``.  Only the rows
        that still agree go on to the next line, and only their entries are
        read.
        """
        scaled = self._scaled_entries()
        rows = np.arange(count)
        for b in self._basis:
            line_g, scalar_g = divmod(int(g[b]), self.q)
            gh = self._compose(g, entries(rows, b), scaled)
            hg = scaled[scalar_g].take(entries(rows, line_g))
            rows = rows[gh == hg]
        return len(rows)

    def _split_signs(self):
        """s(l) for every line: +1 when the perpendicular 4-space of l is
        split, -1 when it is not, 0 for an isotropic l.

        One integer einsum of the lines against the isotropic lines, in row
        blocks of about CHUNK_ENTRIES entries and ``_product_dtype`` (as in
        ``_support_batch``), counts the isotropic lines in each line's
        perpendicular: the products that q divides (``_divisible``).  An
        anisotropic line's count must be (q + 1)^2 or q^2 + 1
        (``perp_is_split``), else this raises.  An isotropic line's
        perpendicular holds q^2 + q + 1 of them.
        """
        q = self.q
        narrow = self._product_dtype
        isotropic = np.ascontiguousarray(self.lines[self.line_types == 0].T, dtype=narrow)

        def counts(lines):
            return (_divisible(np.einsum("ij,jl->il", lines, isotropic), q).sum(axis=1),)

        (count,) = _in_row_blocks(isotropic.shape[1], counts, self.lines.astype(narrow))
        signs = (count == (q + 1) ** 2).astype(np.int64) - (count == q**2 + 1)
        unexpected = np.flatnonzero((self.line_types != 0) & (signs == 0))
        if len(unexpected):
            raise RuntimeError(
                f"unexpected isotropic line count {count[unexpected[0]]} in a 4-space"
            )
        return signs * (self.line_types != 0)

    def _eigenline_scan(self, tables):
        """(trace, members, eps, delta, virtual, anisotropic) of every row
        of a (k, #lines) stack of signed line tables.

        A row fixes line l where it holds the entry l q + 1 and negates it
        where it holds l q + q - 1, so the two masks, multiplied by the
        lines' one-hot types, give the counts ``_twisted_class`` reads.  The
        negated mask also meets the split signs s(l) (``_split_signs``):
        virtual is V = 2 sum of s(l) over the negated lines, and anisotropic
        is n, the number of anisotropic lines negated.  The products are
        float32 GEMMs, exact since no count exceeds #lines < 2^24 (an integer
        product takes ten times as long).
        """
        q = self.q
        weights = np.column_stack(
            [self.line_types[:, None] == np.arange(-1, 2), self._split_signs()]
        ).astype(np.float32)
        entries = np.arange(0, q * len(self.lines), q, dtype=tables.dtype)

        def count(entry, columns):
            return ((tables == entry).astype(np.float32) @ columns).astype(np.int64)

        fixed = count(entries + 1, weights[:, :3])
        negated = count(entries + (q - 1), weights)
        return (
            *self._twisted_class(fixed, negated[:, :3]),
            2 * negated[:, 3],
            negated[:, 0] + negated[:, 2],
        )

    def verify(self, seed: int = 0) -> CheckRecord:
        """Element-by-element verification at q = 3, on the det -1 halves of
        the two line stabilizers (module docstring: the identity holds on G
        exactly when it holds there).

        Checks: the line census; each H_e^- is exactly half of H_e; on every
        row of H_+^- and H_-^-, the support identity (``_support_failures``:
        no broken label, and the line-count trace T equals 2 * delta * q,
        delta being 0 off the class) and V = T, V being the induced
        character read by the definition of induction; all four labels
        occur; each label's pair count over q, its class size, equals
        |G| / |C(h)| for a member h of H_eps that fixes u_eps, the
        centralizer counted on H_eps's tables; the weighted sum of T over
        the rows, which is the sum of T over G, is 0; and on a seeded sample
        of rows (members first), ``_support_batch`` on the matrices agrees
        with the tables, with labels invariant under conjugation.  No array
        of |G| rows is built.  Guarded to q = 3: at q = 5 ``_closure``'s
        element codes fit in int64 (``MAX_CODED_Q``), but not beside the 7
        index bits of ``_first_occurrences``'s keys, which raises, and at
        q = 7 ``_code_columns`` refuses them.
        """
        if self.q != FULL_ENUMERATION_Q:
            raise ValueError(f"full verification is guarded to q={FULL_ENUMERATION_Q}")

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
        ``name`` and its row: the members whose label ``_twisted_class``
        left broken, then every row whose trace is not 2 * delta * q (delta
        is 0 off the class, so there the trace must be 0)."""
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
        order = self.group_order_formula()
        # T != 0 only where a negated plane holds n in 1..q + 1 anisotropic
        # lines, so scale / n is exact wherever it counts
        scale = math.lcm(*range(1, q + 2))
        failures = self._census_failures()
        rng = random.Random(seed)
        halves, pairs, pairing = {}, Counter(), 0
        for split in (True, False):
            stab = self.stabilizer(split)
            tables = self._subgroup_tables(stab)
            base = stab.base_index
            line_type = int(self.line_types[base])
            scan = self._eigenline_scan(tables)
            halves[line_type] = tables, base, scan
            half = f"H_{'+' if line_type > 0 else '-'}^-"
            name = f"{half} row"
            negating = np.flatnonzero(tables[:, base] == base * q + q - 1)
            if 2 * len(negating) != stab.order:
                failures.append(f"{half} holds {len(negating)} elements, expected {stab.order} / 2")
            trace, members, eps, delta, virtual, anisotropic = (part[negating] for part in scan)
            failures += self._support_failures(name, trace, members, eps, delta)
            failures += [
                f"{name} {i}: induced character {virtual[i]} != line count {trace[i]}"
                for i in np.flatnonzero(virtual != trace)[:5]
            ]

            # each g with n(g) > 0 is conjugate to a row here once for each of
            # the n(g) anisotropic lines it negates that have this type
            lines = len(stab.line_indices)
            pairing += lines * int((scale * trace // np.maximum(anisotropic, 1)).sum())
            labelled = (eps != 0) & (delta != 0)
            for label in zip(eps[labelled].tolist(), delta[labelled].tolist()):
                pairs[label] += lines

            # the table-free route on a seeded sample, plus conjugation
            # invariance of the labels
            member_rows = np.flatnonzero(members)
            sample = []
            if len(member_rows):
                sample = [int(member_rows[rng.randrange(len(member_rows))]) for _ in range(4)]
            sample += [rng.randrange(len(negating)) for _ in range(4)]
            g = self._entry_vectors()[tables[negating[sample]][:, self._basis]].swapaxes(1, 2)
            h = np.stack([self.random_element(rng) for _ in sample])
            free_trace, _, free_eps, free_delta = (
                part.reshape(2, -1)
                for part in self._support_batch(np.concatenate([g, (self.inverse(h) @ g @ h) % q]))
            )
            for k, i in enumerate(sample):
                if free_trace[0, k] != trace[i]:
                    failures.append(f"{name} {i}: per-element trace disagrees")
                if 2 * free_delta[0, k] * q != trace[i]:
                    failures.append(f"{name} {i}: support value disagrees")
                if (free_eps[1, k], free_delta[1, k]) != (free_eps[0, k], free_delta[0, k]):
                    failures.append(f"{name} {i}: label not conjugation invariant")

        if sorted(pairs) != LABELS:
            failures.append(f"labels realized: {sorted(pairs)}")
        if pairing != 0:
            failures.append(f"virtual character pairs with trivial: {Fraction(pairing, scale)}")

        # each label set is a single conjugacy class: a member that fixes
        # u_eps has C_G(h) = C_{H_eps}(h)
        for e, d in (label for label in LABELS if label in pairs):
            tables, base, (_, _, eps, delta, *_) = halves[e]
            fixing = np.flatnonzero((tables[:, base] == base * q + 1) & (eps == e) & (delta == d))
            if not len(fixing):
                failures.append(f"label {(e, d)}: no member of H_eps fixes u_eps")
                continue
            centralizer = self._centralizer_order(
                tables[fixing[0]], len(tables), lambda rows, line: tables[rows, line]
            )
            if pairs[e, d] * centralizer != q * order:
                failures.append(
                    f"label {(e, d)}: orbit {Fraction(order, centralizer)}"
                    f" != class size {Fraction(pairs[e, d], q)}"
                )
        return sorted(failures)

    def _coset_model_batch(self, stab: LineStabilizer):
        """V = ind(1) - ind(det) of one 4-space stabilizer at every element
        of the enumeration, by the definition of induction read on lines.

        The cosets are the lines l of the base line's type, and an element
        g adds 1 to ind(1) and its scalar on l to ind(det) wherever it
        fixes l, so V(g) is twice the number of those l where g's signed
        line table holds ``l * q + q - 1``.  Only those entries are made,
        from the images of the coset lines' representatives, in row blocks
        of 5 x #coset lines image coordinates.
        """
        q = self.q
        coset_lines = np.array(stab.line_indices)
        vectors = self.lines[coset_lines].T
        negated = coset_lines * q + q - 1

        def batch(elements):
            images = (elements.astype(np.int64) @ vectors).transpose(0, 2, 1).reshape(-1, 5)
            entries = self._signed_lines(images).reshape(len(elements), -1)
            return (2 * (entries == negated).sum(axis=1),)

        (virtual,) = _in_row_blocks(vectors.size, batch, self.enumerate_group())
        return virtual

    def verify_sampled(self, samples: int = 200, seed: int = 0) -> CheckRecord:
        """Reduced check for q > 3: line census plus the support identity,
        the same ``_support_failures`` as ``verify``, on randomly sampled
        elements (no full enumeration).  Samples with no twisted-class
        member fail: the identity would then be tested off the class only."""
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")

        def scan():
            failures = self._census_failures()
            rng = random.Random(seed)
            words = np.stack([self.random_element(rng) for _ in range(samples)])
            trace, members, eps, delta = self._support_batch(words)
            if not members.any():
                failures.append(f"no sample in the twisted class ({samples} drawn)")
            return sorted(failures + self._support_failures("sample", trace, members, eps, delta))

        return run_check("so5", f"q={self.q} sampled", scan, seed)
