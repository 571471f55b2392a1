"""Exact character calculus for symmetric and hyperoctahedral groups.

The package computes virtual-character traces from integer-sequence symbols
(single rows for the symmetric groups S_n, two-row symbols for the signed
permutation groups W_n), builds exact character tables, and ships an
exhaustive verification suite for a family of trace, parity and
multiplicity identities, including an element-by-element check inside
SO_5(F_3).  See the cli module or ``weylchars --help`` for the command-line
surface.

The SO_5 names (``OrthogonalGeometry``, ``ClassCLabel``) are loaded on first
access, so ``import weylchars`` does not import numpy.
"""

from .report import CheckRecord, all_passed, render_report
from .snchars import (
    CharacterTable,
    character_table_sn,
    centralizer_order_sn,
    mn_trace_sn,
    oracle_trace_sn,
    young_perm_char,
)
from .symbols import (
    BiSymbol,
    NormalizedBeta,
    SignedCycleType,
    beta_to_partition,
    beta_weight,
    bipartitions,
    normalize_beta,
    normalize_bisymbol,
    partition_to_beta,
    partitions,
    reduce_beta,
    shift_beta,
    signed_cycle_types,
)
from .verifications import (
    check_lemma26,
    check_lemma27,
    check_lemma29,
    check_lemma210,
    check_lemma217,
    check_prop211,
    check_prop212,
    even_negative_cycles,
    multiplicity_bc,
    multiplicity_d,
    odd_negative_cycles,
)
from .wnchars import (
    centralizer_order_wn,
    character_table_wn,
    chi_value,
    mn_trace_wn,
    oracle_trace_wn,
)

__version__ = "0.1.0"

_SO5_NAMES = ("ClassCLabel", "OrthogonalGeometry")


def __getattr__(name):
    if name in _SO5_NAMES:
        from . import so5

        return getattr(so5, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
