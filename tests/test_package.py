"""The package's public surface: every exported name resolves, the export
list is sorted and unique, and names the package no longer offers stay
gone.
"""

import permrf
from permrf import errors

# Each was a second route to something the package keeps: the tower's
# frob_enc, trace_rel_enc, trace_enc, norm_enc, in_subfield_enc and
# top.inv, and the Element wrapper around the integer encodings every
# function takes; or the degree 2 twist, which no report checked.
DROPPED = ("frobenius", "trace_rel", "trace", "norm", "invert",
           "is_in_subfield", "Element", "TwistedForm", "remark2_transform",
           "eval_twisted", "is_permutation_twisted")


def test_all_names_resolve_sorted_and_unique():
    for name in permrf.__all__:
        assert hasattr(permrf, name), name
    assert permrf.__all__ == sorted(permrf.__all__)
    assert len(set(permrf.__all__)) == len(permrf.__all__)


def test_dropped_names_stay_gone():
    for name in DROPPED:
        assert not hasattr(permrf, name), name
        assert name not in permrf.__all__
    assert not hasattr(errors, "BadAlpha")
