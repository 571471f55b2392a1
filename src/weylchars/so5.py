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
  entry ``m * q + c``.  A vector's entry is one lookup of its base-q code
  (``_entry_of_code``).  Tables are read, never composed: elements are
  multiplied only as matrices.  A line stabilizer H (1,152 or 1,440
  elements at q = 3) is built as matrices from orthogonal frames
  (``_stabilizer_matrices``): H restricts isomorphically onto O(u^perp),
  u its base line, and an isometry of u^perp is fixed by where it sends
  one orthogonal basis p_1..p_4 of it, which may be any frame of pairwise
  orthogonal vectors c_k of u^perp with the same norms.  The frames are
  extended one column at a time, and the element sends u to det(A) u, A
  the frame's coordinates in the p_k, so that its determinant is 1; there
  must be exactly |H| of them.  A conjugacy class's size is |G| / |C(g)|,
  the centralizer counted on matrices (``_commuting``): column j of h g
  and of g h are compared mod q, one column at a time, only on the rows
  whose columns have agreed so far.
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
an element takes such a line l, of type e, to u_e, the first line of that
type, and conjugates g to an h with h u_e = -u_e: a row of H_e^-, the det
-1 half of H_e, the stabilizer of u_e.  So the identity holds on G exactly
when it holds on H_+^- and H_-^- (576 + 720 rows at q = 3), and ``verify``
makes one pass per type e, each on H_e and H_e^- alone: ``_subgroup(u_e)``
keeps H_e's matrices and the signed tables of its H_e^- rows only, and
``_eigenline_scan`` reads each row's fixed and negated lines straight off
its entries l q + 1 and l q + q - 1.  No Witt transporter is built, and
which type is split is read only through s(l) below.  There the induced
character is read by the definition of induction: ind(1) - ind(det) from
the stabilizer of a line of type e is, at h, the sum of 1 - (h's scalar on
l) over the lines l of that type that h fixes, twice the number of them h
negates, so V = V_split - V_nonsplit is 2 sum of s(l) over the lines h
negates, s(l) = +1 or -1 as the perpendicular of l is split or not
(``_split_signs``).  Counting the pairs (g, l), l a negated anisotropic line
of g of type e, gives the rest without G.  A member of label (eps, delta)
negates exactly q lines of type delta, so the label set holds
pairs / q elements, pairs = #lines_delta x #{members of that label in
H_delta^-}.  Weighting each pair by T(g) / n(g), n(g) the number of
anisotropic lines g negates, gives the sum of T over G, #lines_e x
T(h) / n(h) summed over the rows.  The first member h of each label, in
H_delta^-, proves its label set one conjugacy class by a sandwich.  Every x
in C_G(h) keeps h's (-1)-plane and so sends u_delta to one of the q
anisotropic lines h negates, and the x that keep u_delta are C_{H_delta}(h):
|C_G(h)| <= q |C_{H_delta}(h)|.  So |G| / (q |C_{H_delta}(h)|) <= |class of
h| <= pairs / q, and ``verify`` requires pairs x |C_{H_delta}(h)| = |G|, the
centralizer counted on H_delta's matrices (4q of them at q = 3, 5 and 7):
then both inequalities are equalities.

The q = 3 whole-group reference that the tests and the demo compare with
is read with the same kernels.  ``enumerate_group`` builds G as the cosets
x H of H, the stabilizer of a base line u of the split type, one per Witt
transporter x (``_witt_transporters``, which also serves the 4-space
stabilizers), each element the matrix product x h, and G's tables are
never built.  The whole-group scan ``_batched_scan`` is ``_support_batch``
of the enumeration, and ``conjugacy_class_size`` counts ``_commuting``
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

import itertools
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
# entries per row block: eigenline products of matrix rows with the lines,
# line images of the coset model, and perpendicular products of the lines
CHUNK_ENTRIES = 2**19
# (permutation, sign) of each of the 24 terms of a 4 x 4 determinant
LEIBNIZ_TERMS = [
    (perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
    for perm in itertools.permutations(range(4))
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


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
        and ``_entry_of_code``, the table entry ``m * q + c`` of each nonzero
        vector c * x_m at its base-q value (-1 at the zero vector)."""
        q = self.q
        vectors = np.indices((q,) * 5, dtype=np.int64).reshape(5, -1).T
        lead = (vectors != 0).argmax(axis=1)
        keep = vectors[np.arange(len(vectors)), lead] == 1  # drops zero too
        self.lines = vectors[keep]
        self._place = q ** np.arange(4, -1, -1, dtype=np.int64)
        self._inverse_mod = np.array(
            [0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64
        )
        # table entries run up to len(lines) * q; int16 up to q = 7
        self._entry_of_code = np.full(q**5, -1, dtype=np.min_scalar_type(-len(self.lines) * q))
        for c in range(1, q):
            entries = np.arange(len(self.lines)) * q + c
            self._entry_of_code[(c * self.lines % q) @ self._place] = entries
        # products of residues with lines are at most 5 (q - 1)^2: uint8 up
        # to q = 7, uint16 up to q = 113
        self._product_dtype = np.min_scalar_type(5 * (q - 1) ** 2)
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
        row is c times the line's representative: one ``_entry_of_code``
        lookup per row."""
        entries = self._entry_of_code[(np.asarray(vectors, dtype=np.int64) % self.q) @ self._place]
        if (entries < 0).any():
            raise ValueError("the zero vector spans no line")
        return entries

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
        matrices are its ``_subgroup``, built once from exactly
        |H| = |G| / #lines frames.  Row k |H| + j is the product x_k h_j,
        coset after coset: one float32 product per block of transporters
        (``_in_row_blocks``), exact since no entry exceeds 5 (q - 1)^2,
        reduced mod q in uint8.  Element 0 is the identity, the base line's
        transporter times H's first element.  Their int64 codes, the 25
        entries as base-q digits, are sorted in place; the sorted codes
        must strictly increase, so an element repeated across cosets
        raises.

        The returned array is int8 and read-only (1.3 MB at q = 3, where
        int64 would take 10.4 MB): it is the cached enumeration, and numpy
        keeps a product of int8 stacks in int8, which wraps past 127.  Cast
        a row or a stack to a wider type before an unreduced product (int64,
        or ``_product_dtype``, which holds any sum of five products of
        reduced entries); every method here that takes matrices does so
        itself.
        """
        if self._elements is not None:
            return self._elements
        q = self.q
        if q != FULL_ENUMERATION_Q:
            raise ValueError(f"full enumeration is guarded to q={FULL_ENUMERATION_Q}")
        stab = self.stabilizer(split=True)
        subgroup = self._subgroup(stab.base_index)[0].astype(np.float32)

        def cosets(transporters):
            products = (transporters.astype(np.float32)[:, None] @ subgroup).astype(np.uint8)
            products -= products // q * q
            return (products.reshape(-1, 5, 5).view(np.int8),)

        (elements,) = _in_row_blocks(subgroup.size, cosets, stab.transporters)
        codes = np.zeros(len(elements), dtype=np.int64)
        for digit in elements.reshape(-1, 25).T:
            codes *= q
            codes += digit
        codes.sort()
        if not (np.diff(codes) > 0).all():
            raise RuntimeError("enumeration repeats an element")
        elements.flags.writeable = False
        self._elements = elements
        return self._elements

    def _stabilizer_matrices(self, line):
        """Every element of H, the stabilizer of the anisotropic line u
        (index ``line``) in SO_5, as a (k, 5, 5) stack, the identity first.

        g u = det(g|u^perp) u, so H restricts isomorphically onto O(u^perp).
        Fix B = [u | p_1..p_4], each p_k the first anisotropic line
        perpendicular to the ones before it, with norms n_0..n_4.  An
        isometry of u^perp is its frame c_k = g p_k: vectors of u^perp with
        c_k . c_k = n_k, pairwise orthogonal, found one column at a time as
        the candidates of norm n_k perpendicular to c_1..c_(k-1).  With A
        the frames' coordinates in the p_k (A[k, j] = c_k . p_j / n_j) and
        sigma = det A = +-1, counted exactly by its 24 Leibniz terms,
        g = [sigma u | c_1..c_4] diag(1/n) B^T, so g p_k = c_k, g u = sigma u
        and det g = sigma det A = 1.  The candidates run in entry order,
        where p_k comes first, so the first frame is the p_k: the identity.
        """
        q = self.q
        u = self.lines[line]
        basis = [u]
        for _ in range(4):
            perp = ((self.lines @ np.transpose(basis)) % q == 0).all(axis=1)
            basis.append(self.lines[(perp & (self.line_types != 0)).argmax()])
        basis = np.array(basis)
        norms = (basis * basis).sum(axis=1) % q
        # c x_l at row l q + c, the entry order (c = 0 is dropped below)
        vectors = (np.arange(q)[:, None] * self.lines[:, None]).reshape(-1, 5) % q
        vector_norms = (vectors * vectors).sum(axis=1) % q
        keep = ((vectors @ u) % q == 0) & (vector_norms != 0)
        vectors, vector_norms = vectors[keep], vector_norms[keep]
        orthogonal = (vectors @ vectors.T) % q == 0
        frames = np.zeros((1, 0), dtype=np.intp)
        for norm in norms[1:]:
            level = np.flatnonzero(vector_norms == norm)
            fits = np.ones((len(frames), len(level)), dtype=bool)
            for column in frames.T:
                fits &= orthogonal[column[:, None], level]
            frame, new = np.nonzero(fits)
            frames = np.column_stack([frames[frame], level[new]])
        frames = vectors[frames]  # (k, 4, 5): c_1..c_4 as rows
        coords = (frames @ basis[1:].T) * self._inverse_mod[norms[1:]] % q
        sigma = sum(sign * coords[:, range(4), perm].prod(axis=1) for perm, sign in LEIBNIZ_TERMS)
        columns = np.concatenate([(sigma[:, None] % q * u)[:, None], frames], axis=1)
        return columns.swapaxes(1, 2) @ (self._inverse_mod[norms][:, None] * basis) % q

    def _subgroup(self, line):
        """(matrices, half, tables) of H, the stabilizer of the anisotropic
        line u (index ``line``): its ``_stabilizer_matrices``, which must be
        |H| = |G| / #lines of u's type rows; H^-, the rows with g u = -u,
        read on the matrices, in order; and the ``_signed_tables`` of H^-
        alone.  Built at most once per line and geometry."""
        if line not in self._subgroups:
            u, of_type = self.lines[line], self.line_types == self.line_types[line]
            order = self.group_order_formula() // int(of_type.sum())
            matrices = self._stabilizer_matrices(line)
            if len(matrices) != order:
                raise RuntimeError(f"frames give {len(matrices)} elements, expected {order}")
            half = matrices[((matrices @ u + u) % self.q == 0).all(axis=1)]
            self._subgroups[line] = matrices, half, self._signed_tables(half)
        return self._subgroups[line]

    def _signed_tables(self, matrices):
        """Signed line table of each matrix in a (k, 5, 5) array: row i,
        column l holds ``m * q + c`` where matrix i maps x_l to c * x_m.

        The images' base-q codes are summed one coordinate at a time: row j
        of every matrix against the transposed lines, by one integer einsum
        in ``_product_dtype``, as in ``_support_batch``, reduced mod q as
        x - (x // q) q (ten times faster than ``%`` here).  Each code is
        then one ``_entry_of_code`` lookup.
        """
        q = self.q
        narrow = self._product_dtype
        lines_t = np.ascontiguousarray(self.lines.T, dtype=narrow)
        matrices = np.asarray(matrices, dtype=np.int64) % q
        codes = np.zeros((len(matrices), len(self.lines)), dtype=np.min_scalar_type(q**5 - 1))
        for rows in matrices.swapaxes(0, 1).astype(narrow):
            images = np.einsum("ij,jl->il", rows, lines_t)
            images -= images // q * q
            codes *= q
            codes += images
        return self._entry_of_code.take(codes)

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
        built: ``_subgroup`` builds it, keyed by the base line, when the
        enumeration or ``verify`` asks; ``verify`` takes its base lines from
        ``line_types`` and never calls this."""
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
        """|G| / |C(g)|, ``_commuting`` over the enumeration (so guarded to
        q = 3 with it)."""
        elements = self.enumerate_group()
        return len(elements) // self._commuting(g, elements)

    def _commuting(self, g, matrices):
        """How many matrices h of a (k, 5, 5) stack commute with g.

        Column j of h g is h (g e_j), and of g h it is g (h e_j).  They are
        compared mod q one column at a time, and only the rows whose
        columns have agreed so far are cast for the next, to
        ``_product_dtype``: the entries of h are reduced (0..q-1, as in
        every stack this class builds), so a sum of five products stays
        within 5 (q - 1)^2.
        """
        q = self.q
        narrow = self._product_dtype
        g = (np.asarray(g, dtype=np.int64) % q).astype(narrow)
        rows = np.arange(len(matrices))
        for j in range(5):
            h = matrices[rows].astype(narrow)
            hg, gh = h @ g[:, j] % q, h[:, :, j] @ g.T % q
            rows = rows[(hg == gh).all(axis=1)]
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
        of a (k, #lines) stack of signed line tables (in ``verify``, those
        of one H_e^-, 576 or 720 rows at q = 3).

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
        exactly when it holds there), one pass per line type e on
        ``_subgroup(u_e)``, u_e the first line of type e.

        Checks: the line census; each H_e^- is exactly half of H_e,
        |H_e| = |G| / #lines_e, every row of it negating u_e in its table
        (H_e^- is chosen on the matrices); on every row of H_+^- and H_-^-,
        the support identity (``_support_failures``: no broken label, and
        the line-count trace T equals 2 * delta * q, delta being 0 off the
        class) and V = T, V being the induced character read by the
        definition of induction; all four labels occur; for the first member h of each
        label, in H_delta^-, pairs x |C_{H_delta}(h)| = |G|, the pairs
        being the label's (member, negated line) pairs over G and the
        centralizer counted on H_delta's matrices, which makes the label
        set one conjugacy class; the weighted sum of T over the rows, which
        is the sum of T over G, is 0; and on a seeded sample of rows
        (members first), ``_support_batch`` on the matrices agrees with the
        tables, with labels invariant under conjugation.  No array of |G|
        rows is built.  Guarded to q = 3 by table size: H^-'s tables hold
        |H|/2 x #lines entries, about 23 MB per type at q = 5.
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
        pairs, centralizers, pairing = Counter(), {}, 0
        for line_type in (1, -1):
            of_type = np.flatnonzero(self.line_types == line_type)
            base, lines = int(of_type[0]), len(of_type)
            matrices, half, tables = self._subgroup(base)
            trace, members, eps, delta, virtual, anisotropic = self._eigenline_scan(tables)
            half_name = f"H_{'+' if line_type > 0 else '-'}^-"
            name = f"{half_name} row"
            # H^- was chosen on the matrices; its tables must negate u too
            negating = int((tables[:, base] == base * q + q - 1).sum())
            if 2 * negating * lines != order:
                failures.append(
                    f"{half_name} holds {negating} elements, expected {order // lines} / 2"
                )
            failures += self._support_failures(name, trace, members, eps, delta)
            failures += [
                f"{name} {i}: induced character {virtual[i]} != line count {trace[i]}"
                for i in np.flatnonzero(virtual != trace)[:5]
            ]

            # each g with n(g) > 0 is conjugate to a row here once for each of
            # the n(g) anisotropic lines it negates that have this type
            pairing += lines * int((scale * trace // np.maximum(anisotropic, 1)).sum())
            rows = np.flatnonzero((eps != 0) & (delta != 0))
            for i, e, d in zip(rows.tolist(), eps[rows].tolist(), delta[rows].tolist()):
                if (e, d) not in pairs:
                    # the first member h of each label, counted in its own H
                    centralizers[e, d] = self._commuting(half[i], matrices)
                pairs[e, d] += lines

            # the table-free route on a seeded sample, plus conjugation
            # invariance of the labels
            member_rows = np.flatnonzero(members)
            sample = []
            if len(member_rows):
                sample = [int(member_rows[rng.randrange(len(member_rows))]) for _ in range(4)]
            sample += [rng.randrange(len(half)) for _ in range(4)]
            g = half[sample]
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

        # each label set is a single conjugacy class: |G| / (q |C_H(h)|) is at
        # most h's class size, which is at most the label's (module docstring)
        for label, centralizer in centralizers.items():
            if pairs[label] * centralizer != order:
                failures.append(
                    f"label {label}: |G| / (q |C_H(h)|) = {Fraction(order, q * centralizer)}"
                    f" != class size {Fraction(pairs[label], q)}"
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
