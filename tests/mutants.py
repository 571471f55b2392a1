"""Mutation runner: each mutant changes one comparison or one line of the
library, and the tests named with it must then fail.

Run from anywhere:  python tests/mutants.py

Each mutant is applied to a fresh temporary copy of ``src/``, ``tests/``
and ``pyproject.toml``, and its tests run there with
``pytest -q -p no:cacheprovider``.  The named tests first run once on an
unmutated copy and must pass, so a test that fails anyway kills nothing.
A mutant is killed only when every test named with it fails (each case of
a parametrized test counts).  The run exits 1 when the unmutated run
fails, when a mutant survives (one of its tests passes), or when its old
text does not occur exactly once in its file, so that a stale entry cannot
pass vacuously.  Each verdict line ends with the mutant's elapsed time.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")

# file, the exact text replaced, its replacement, the tests expected to fail
Mutant = namedtuple("Mutant", "file old new tests")

SNCHARS = "src/weylchars/snchars.py"
SO5 = "src/weylchars/so5.py"
SYMBOLS = "src/weylchars/symbols.py"
VERIFICATIONS = "src/weylchars/verifications.py"
WNCHARS = "src/weylchars/wnchars.py"


def so5_tests(*names):
    return tuple(f"tests/test_so5.py::{name}" for name in names)


def verification_tests(*names):
    return tuple(f"tests/test_verifications.py::{name}" for name in names)


MUTANTS = (
    # --- so5.verify and so5.verify_sampled comparisons ---
    Mutant(
        SO5, "if free_trace[0, k] != trace[i]:", "if False:",
        so5_tests("test_verify_reports_a_per_element_disagreement[trace]"),
    ),
    Mutant(
        SO5, "if 2 * free_delta[0, k] * q != trace[i]:", "if False:",
        so5_tests("test_verify_reports_a_per_element_disagreement[support]"),
    ),
    Mutant(
        SO5,
        "if (free_eps[1, k], free_delta[1, k]) != (free_eps[0, k], free_delta[0, k]):",
        "if False:",
        so5_tests("test_verify_reports_a_per_element_disagreement[label]"),
    ),
    Mutant(
        SO5, "wrong = np.flatnonzero(trace != support)", "wrong = np.flatnonzero(trace != trace)",
        so5_tests(
            "test_verify_reports_a_nonzero_trace_off_the_class",
            "test_sampled_check_reports_a_trace_off_the_support_value",
        ),
    ),
    Mutant(
        SO5, "if not members.any():", "if False:",
        so5_tests("test_sampled_check_fails_without_members"),
    ),
    Mutant(
        SO5, "if sorted(pairs) != LABELS:", "if False:",
        so5_tests("test_verify_fails_without_members"),
    ),
    Mutant(
        SO5, "members & (eps == 0)", "members & (eps == 2)",
        so5_tests("test_verify_reports_broken_labels", "test_sampled_check_reports_broken_labels"),
    ),
    Mutant(
        SO5, "(eps != 0) & (delta == 0)", "(eps != 0) & (delta == 2)",
        so5_tests("test_verify_reports_broken_labels"),
    ),
    Mutant(
        SO5, "if iso != (q + 1) * (q**2 + 1):", "if False:",
        so5_tests("test_verify_reports_a_wrong_line_census"),
    ),
    Mutant(
        SO5, "if iso + plus_lines + minus_lines != (q**5 - 1) // (q - 1):", "if False:",
        so5_tests("test_verify_reports_a_wrong_line_census"),
    ),
    Mutant(
        SO5, "if pairing != 0:", "if False:",
        so5_tests("test_verify_reports_a_trace_that_pairs_with_trivial"),
    ),
    # the pairing weight 1 / n(h): without it every pair counts T(h) whole,
    # which the support identity leaves at 0 (n = q on the class), so only a
    # trace moved off the class, where n != q, tells them apart
    Mutant(
        SO5, "scale * trace // np.maximum(anisotropic, 1)", "scale * trace",
        so5_tests("test_verify_reports_a_nonzero_trace_off_the_class"),
    ),
    # the class size is the pair count over q
    Mutant(
        SO5, "!= q * order:", "!= order:",
        so5_tests("test_full_verification"),
    ),
    Mutant(
        SO5, "if pairs[e, d] * centralizer != q * order:", "if False:",
        so5_tests("test_verify_reports_a_wrong_orbit_size"),
    ),
    Mutant(
        SO5, "if not len(fixing):", "if False:",
        so5_tests("test_verify_reports_a_label_with_no_member_fixing_its_base_line"),
    ),
    Mutant(
        SO5, "if 2 * len(negating) != stab.order:", "if False:",
        so5_tests("test_verify_reports_a_stabilizer_that_is_not_halved"),
    ),
    Mutant(
        SO5, "for i in np.flatnonzero(virtual != trace)[:5]",
        "for i in np.flatnonzero(virtual != trace)[:0]",
        so5_tests("test_verify_reports_an_induced_character_mismatch"),
    ),
    # the sign s(l) in V: split and non-split perpendiculars swapped
    Mutant(
        SO5, "signs = (count == (q + 1) ** 2).astype(np.int64) - (count == q**2 + 1)",
        "signs = (count == q**2 + 1).astype(np.int64) - (count == (q + 1) ** 2)",
        so5_tests(
            "test_full_verification",
            "test_split_signs_match_the_per_line_count[3]",
            "test_split_signs_match_the_per_line_count[5]",
            "test_split_signs_match_the_per_line_count[7]",
            "test_split_signs_match_the_per_line_count[11]",
        ),
    ),
    Mutant(
        SO5, "if len(unexpected):", "if False:",
        so5_tests("test_split_signs_reject_an_unexpected_count"),
    ),
    # the divisibility bound of the inverse multiply: k q with k at the
    # bound (255 = 85 * 3 in uint8) is missed
    Mutant(
        SO5, "return values <= ((1 << bits) - 1) // q", "return values < ((1 << bits) - 1) // q",
        tuple(
            f"tests/test_so5.py::test_divisible_matches_the_remainder_at_every_value[{q}-{t}]"
            for q in (3, 5, 7, 11, 13)
            for t in ("uint8", "uint16")
        ),
    ),
    # verify's own q guard, before any stabilizer is built
    Mutant(
        SO5,
        'if self.q != FULL_ENUMERATION_Q:\n            raise ValueError(f"full verification',
        'if False:\n            raise ValueError(f"full verification',
        so5_tests("test_verify_guard"),
    ),
    # --- the coset model, read on lines, and the stabilizers, built once ---
    # the coset lines g fixes with scalar 1 counted in place of those it
    # negates
    Mutant(
        SO5, "coset_lines * q + q - 1", "coset_lines * q + 1",
        so5_tests("test_scatter_coset_model_matches_the_line_route"),
    ),
    Mutant(
        SO5, "if line not in self._subgroups:", "if True:",
        so5_tests("test_each_stabilizer_is_built_once"),
    ),
    # --- the frames, the entry lookup, the enumeration and the centralizer
    # count ---
    # sigma = -det A: every frame's element has det -1
    Mutant(
        SO5, "(sigma[:, None] % q * u)", "(-sigma[:, None] % q * u)",
        so5_tests(
            "test_frames_build_the_line_stabilizers_at_q5",
            "test_line_stabilizer_closures_reach_their_order",
            "test_full_verification",
        ),
    ),
    # B^T without diag(1/n): g p_k = n_k c_k, which at q = 3 (n_k = +-1)
    # only negates the frames of norm 2 and so gives the same set
    Mutant(
        SO5, "(self._inverse_mod[norms][:, None] * basis)", "basis",
        so5_tests("test_frames_build_the_line_stabilizers_at_q5"),
    ),
    Mutant(
        SO5, "if len(matrices) != stab.order:", "if False:",
        so5_tests("test_enumeration_order_check_fires_both_ways"),
    ),
    # the vectors (q - 1) x_l have no entry, and read as the zero vector
    Mutant(
        SO5, "for c in range(1, q):", "for c in range(1, q - 1):",
        tuple(
            f"tests/test_so5.py::test_signed_lines_match_the_normalizing_reference[{q}]"
            for q in (3, 5, 7)
        ),
    ),
    Mutant(
        SO5, "if not (np.diff(codes) > 0).all():", "if not (np.diff(codes) >= 0).all():",
        so5_tests("test_enumeration_distinctness_check"),
    ),
    # the enumerated matrices: an int8 array of residues, read-only
    Mutant(
        SO5, ".view(np.int8)", ".view(np.uint8)",
        so5_tests(
            "test_enumeration_is_a_read_only_int8_array",
            "test_table_closure_matches_the_matrix_closure",
        ),
    ),
    Mutant(
        SO5, "elements.flags.writeable = False", "elements.flags.writeable = True",
        so5_tests("test_enumeration_is_a_read_only_int8_array"),
    ),
    Mutant(
        SO5, "rows = rows[(hg == gh).all(axis=1)]", "rows = rows[(hg == hg).all(axis=1)]",
        so5_tests(
            "test_class_orbits_cover_the_scanned_members",
            "test_full_verification",
            "test_commuting_matches_the_full_product_count",
        ),
    ),
    # the fifth column unread: on SO_5 four agreeing columns force it, so
    # only the count on arbitrary matrices tells
    Mutant(
        SO5, "for j in range(5):", "for j in range(4):",
        so5_tests("test_commuting_matches_the_full_product_count"),
    ),
    # the one membership rule: a (-1)-plane with no isotropic line is the
    # whole (-1)-space of the semisimple part, and not in the class
    Mutant(
        SO5, "members &= isotropic == 1", "members &= isotropic <= 1",
        so5_tests(
            "test_full_verification",
            "test_scan_matches_the_full_rank_scan",
            "test_the_isotropic_count_tells_every_candidate_kind_apart",
        ),
    ),
    # every block's results kept alive while the joined columns are built
    Mutant(
        SO5, "del parts", "parts = parts",
        so5_tests("test_scan_frees_its_blocks_as_it_joins_them"),
    ),
    # --- the Witt transporters ---
    # transporter 1 repeated in slot 2: it lands on the wrong line
    Mutant(
        SO5, "transporters[0] = np.eye(5, dtype=np.int64)",
        "transporters[0], transporters[2] = np.eye(5, dtype=np.int64), transporters[1]",
        so5_tests(
            "test_stabilizer_cosets",
            "test_full_verification",
            "test_witt_transporters[3]",
            "test_witt_transporters[5]",
            "test_witt_transporters[7]",
        ),
    ),
    Mutant(
        SO5, "if len(wrong):", "if False:",
        so5_tests("test_witt_transporter_landing_check"),
    ),
    # --- verifications comparisons ---
    Mutant(
        VERIFICATIONS, "if got != expected:", "if False:",
        verification_tests("test_failed_split_keeps_the_counterexample_text"),
    ),
    Mutant(
        VERIFICATIONS, "if value != 1:", "if False:",
        verification_tests("test_prop_checks_report_a_wrong_multiplicity"),
    ),
    Mutant(
        VERIFICATIONS, "if admissible(b) and (b & even).bit_count() % 2 != parity:", "if False:",
        verification_tests("test_lemma27_reports_a_parity_off"),
    ),
    Mutant(
        VERIFICATIONS, "if (n_high - n_even) % 2 != m_prime % 2:", "if False:",
        verification_tests("test_lemma210_reports_each_identity[a]"),
    ),
    Mutant(
        VERIFICATIONS, "if n_even % 2 != (n_high + m * (m - 1) // 2) % 2:", "if False:",
        verification_tests("test_lemma210_reports_each_identity[b]"),
    ),
    Mutant(
        VERIFICATIONS,
        "value = induced_linear_trace_w4(kind1, kind2, cls)\n                    if value % 2:",
        "value = induced_linear_trace_w4(kind1, kind2, cls)\n                    if False:",
        verification_tests("test_lemma217_reports_a_wrong_induced_value[odd]"),
    ),
    Mutant(
        VERIFICATIONS, "if value != expected:", "if False:",
        verification_tests("test_lemma217_reports_a_wrong_induced_value[trivial]"),
    ),
    Mutant(
        VERIFICATIONS, "value = mn_trace_wn(sym, cls)\n            if value % 2:",
        "value = mn_trace_wn(sym, cls)\n            if False:",
        verification_tests("test_lemma217_reports_an_odd_symbol_value"),
    ),
    # --- the shared weight rule and table bound ---
    Mutant(
        SYMBOLS, "if symbol_weight != class_weight:", "if False:",
        tuple(
            f"tests/test_symbols.py::test_one_weight_rule[{case}]"
            for case in ("mn_trace_wn", "oracle_trace_wn", "mn_trace_sn", "oracle_trace_sn", "split")
        ),
    ),
    Mutant(
        WNCHARS, "if not 0 <= n <= limit:", "if not 0 <= n:",
        ("tests/test_snchars.py::test_table_bound", "tests/test_wnchars.py::test_table_bound"),
    ),
    # --- table orthogonality on packed rows and the S_n oracle memo ---
    # one bit short, a Gram entry at max|x|^2 sum(N // z) reads as negative
    Mutant(
        SNCHARS, "order).bit_length() + 1", "order).bit_length()",
        ("tests/test_snchars.py::test_orthogonality_defect_sees_one_perturbed_entry",),
    ),
    Mutant(
        SNCHARS, "if gram == order << (bits * j):", "if True:",
        (
            "tests/test_snchars.py::test_orthogonality_defect_sees_one_perturbed_entry",
            "tests/test_snchars.py::test_orthogonality_defect_matches_the_pairwise_loop_on_w7",
        ),
    ),
    # the memo read after the symbol is normalized and weighed, not before;
    # the values are the same, so only the spy on normalize_beta sees it
    Mutant(
        SNCHARS,
        "    val = _ORACLE_CACHE.get(key)\n    if val is not None:\n        return val\n"
        "    if normalize_beta(entries).is_zero:\n"
        "        _ORACLE_CACHE[key] = 0  # zero character; the sum below needs matching weights\n"
        "        return 0\n"
        "    check_weight(beta_weight(entries), sum(cycles))\n",
        "    if normalize_beta(entries).is_zero:\n"
        "        _ORACLE_CACHE[key] = 0\n"
        "        return 0\n"
        "    check_weight(beta_weight(entries), sum(cycles))\n"
        "    val = _ORACLE_CACHE.get(key)\n    if val is not None:\n        return val\n",
        ("tests/test_snchars.py::test_a_repeated_oracle_call_reads_the_memo_first",),
    ),
    # --- values: a wrong sign or rule, not a skipped comparison ---
    Mutant(
        WNCHARS, "neg[:-1], -1", "neg[:-1], 1",
        ("tests/test_wnchars.py::test_flip_counting_character",),
    ),
    Mutant(
        VERIFICATIONS, "== low", "!= low",
        verification_tests("test_admissible_split_count_is_power_of_two"),
    ),
    Mutant(
        SO5, "delta = ((plus > 0).astype(np.int64) - (minus > 0)) * members",
        "delta = ((minus > 0).astype(np.int64) - (plus > 0)) * members",
        so5_tests(
            "test_member_labels_match_the_membership_test", "test_scan_matches_the_full_rank_scan"
        ),
    ),
    Mutant(
        WNCHARS, "chi = -1 if len(neg2) % 2 else 1", "chi = 1",
        ("tests/test_wnchars.py::test_oracle_small_group",),
    ),
)


def run_tests(copy: Path, tests):
    """pytest's exit code for ``tests`` in the copy, its own src first, and
    whether any of them passed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return done.returncode, " passed" in summary


def in_copy(mutant=None):
    """A fresh temporary copy, with ``mutant`` applied if given, as a
    ``TemporaryDirectory`` the caller cleans up."""
    tmp = tempfile.TemporaryDirectory(prefix="mutant-")
    copy = Path(tmp.name)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, copy / name)
    if mutant is not None:
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
    return tmp


def main() -> int:
    every_test = sorted({test for m in MUTANTS for test in m.tests})
    with in_copy() as clean:
        if run_tests(Path(clean), every_test)[0] != 0:
            print("the named tests do not pass on the unmutated copy")
            return 1
    failures = []
    for number, m in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        old = " / ".join(line.strip() for line in m.old.splitlines())
        if (ROOT / m.file).read_text().count(m.old) != 1:
            verdict = "STALE (old text not found exactly once)"
        else:
            with in_copy(m) as mutated:
                code, any_passed = run_tests(Path(mutated), m.tests)
            # exit code 1 means a test failed; anything else (passed, not
            # collected, usage error) leaves the mutant alive, and so does
            # one named test that still passes
            if code != 1:
                verdict = f"SURVIVED (pytest exit {code})"
            else:
                verdict = "SURVIVED (a named test passed)" if any_passed else "killed"
        print(f"{number:2d}. {m.file}: {old!r} -> {verdict} ({time.perf_counter() - start:.1f} s)")
        if verdict != "killed":
            failures.append(number)
    print(f"{len(MUTANTS)} mutants, {len(failures)} not killed: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
