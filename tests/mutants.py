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

SO5 = "src/weylchars/so5.py"
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
        SO5, "if self.induced_virtual_trace(g[k]) != trace[i]:", "if False:",
        so5_tests("test_verify_reports_a_per_element_coset_model_disagreement"),
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
        SO5, "if iso != (q + 1) * (q**2 + 1):", "if False:",
        so5_tests("test_verify_reports_a_wrong_line_census"),
    ),
    Mutant(
        SO5, "if iso + plus_lines + minus_lines != (q**5 - 1) // (q - 1):", "if False:",
        so5_tests("test_verify_reports_a_wrong_line_census"),
    ),
    Mutant(
        SO5, "if int(trace.sum()) != 0:", "if False:",
        so5_tests("test_verify_reports_a_trace_that_pairs_with_trivial"),
    ),
    Mutant(
        SO5, "if size != len(idx_list):", "if False:",
        so5_tests("test_verify_reports_a_wrong_orbit_size"),
    ),
    Mutant(
        SO5, "for i in np.flatnonzero(coset_trace != trace)[:5]:",
        "for i in np.flatnonzero(coset_trace != trace)[:0]:",
        so5_tests("test_verify_reports_a_coset_model_mismatch"),
    ),
    Mutant(
        SO5, "if (sp_one[0], ns_one[0]) != cosets:", "if False:",
        so5_tests("test_verify_reports_a_wrong_induced_dimension"),
    ),
    # --- the one element code, the closure and the centralizer count ---
    Mutant(
        SO5, "self._code_weights().reshape(5, 5)).T", "self._code_weights().reshape(5, 5).T).T",
        so5_tests("test_the_enumeration_is_coded_once"),
    ),
    Mutant(
        SO5, "for j in range(1, 5):", "for j in range(1, 4):",
        so5_tests("test_enumeration_order", "test_the_enumeration_is_coded_once"),
    ),
    Mutant(
        SO5, "if end + len(first) > group_order:", "if False:",
        so5_tests("test_enumeration_order_check_fires_both_ways"),
    ),
    Mutant(
        SO5, "rows = rows[gh == hg]", "rows = rows[gh == gh]",
        so5_tests("test_class_orbits_cover_the_scanned_members"),
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
        SO5, "np.where(has_plus, 1, -1)", "np.where(has_plus, -1, 1)",
        so5_tests("test_member_labels_match_the_membership_test"),
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
