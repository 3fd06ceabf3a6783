"""Golden draws: a few values of the sampling path, pinned to the bit.

A change to how streams are keyed, laid out or scaled re-draws every record.
These values make such a change fail here instead of passing silently; one
that is meant must restate them and say that records are no longer
comparable with earlier ones.
"""

import pytest

from blocktri.entropy import ATOM_KINDS, AtomLaw, SeedScheme, fill_block
from blocktri.model import LazyTridiagonal
from blocktri.transfer import logdet_via_transfer

# The first three entries (C order) of fill_block(3, law, SeedScheme(7).stream(2, 5, "upper")),
# as float.hex of each real part, then of each imaginary part for a complex law.
FIRST_ENTRIES = {
    "real-gaussian": ("-0x1.11bd073d5a9a1p-4", "0x1.2e6db0c1e82e3p-2", "-0x1.fd8ff50584ba3p-4"),
    "complex-gaussian": (
        "-0x1.831fe240ff755p-5",
        "0x1.abb2cdfec403ep-3",
        "-0x1.6850a293d58b6p-4",
        "0x1.61a492f538fc6p-3",
        "-0x1.0f42f768770cap-4",
        "-0x1.0a15098956dcap-2",
    ),
    "real-uniform": ("-0x1.6205c56bf0695p-5", "-0x1.3983d4b6c7460p-4", "0x1.3dff95818b880p-5"),
    "smoothed-rademacher": ("0x1.afaebf9d87dc8p-2", "-0x1.6de385771b8f0p-2", "-0x1.839a8d75bc295p-2"),
}
TRIAL_SEED = 12105037783528477566
LOGDET = "-0x1.445cbc70d8485p+2"  # logdet_via_transfer(LazyTridiagonal(5, 3, complex-gaussian, 11, 2), 0.5)


@pytest.mark.parametrize("kind", ATOM_KINDS)
def test_first_entries_of_a_block_are_pinned(kind):
    first = fill_block(3, AtomLaw(kind), SeedScheme(7).stream(2, 5, "upper")).ravel()[:3]
    parts = (first.real, first.imag) if AtomLaw(kind).is_complex else (first,)
    assert tuple(float(x).hex() for part in parts for x in part) == FIRST_ENTRIES[kind]


def test_trial_seed_is_pinned():
    assert SeedScheme(7).trial_seed(3) == TRIAL_SEED


def test_streamed_logdet_is_pinned():
    lazy = LazyTridiagonal(5, 3, AtomLaw("complex-gaussian"), 11, 2)
    assert logdet_via_transfer(lazy, 0.5).hex() == LOGDET
