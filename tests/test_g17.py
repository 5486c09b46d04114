"""The CSV number formatter `ottopair._g17` against Python's ``'%.17g' %``."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

from ottopair import _g17


def _audit_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "g17_audit.py"
    spec = importlib.util.spec_from_file_location("g17_audit", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_formatter_equals_percent_formatting_on_every_family():
    # every binade of both signs, every power of ten and its neighbours,
    # integers below 2^62, +-0, subnormals, the dyadics 1 + m/2^20 and raw
    # bit patterns: the audit tool's families, 1.3 million values
    tool = _audit_tool()
    groups = tool.families(np.random.default_rng(20), 200_000)
    assert sum(map(len, groups.values())) > 10**6
    for name, x in groups.items():
        bad, _ = tool.audit(x)
        assert bad == [], name


def test_exact_ties_and_only_they_take_the_fallback_among_the_dyadics():
    # (1 + m/2^20) 10^16 has the fraction (m 5^16 mod 16)/16, a tie exactly
    # where m = 8 mod 16, which `%` rounds half to even
    m = np.arange(2**20)
    key, _ = _g17.classify(1.0 + m / 2**20)
    np.testing.assert_array_equal(key < 0, m % 16 == 8)


def test_log10_of_a_power_of_ten_below_it_gets_the_exponent_fixed():
    # log10 rounds to exactly -280, yet the double 1e-280 lies below 10^-280
    x = np.array([1e-280, -1e-280, 1e-5, 1e22, 1e23])
    assert np.log10(1e-280) == -280 and Fraction(1e-280) < Fraction(1, 10**280)
    key, _ = _g17.classify(x)
    assert (key >= 0).all()
    cells = np.zeros((len(x), _g17.WIDTH), dtype=np.uint8)
    _g17.write_cells(x, cells, np.arange(len(x)))
    assert [bytes(c).rstrip(b"\0").decode() for c in cells] == ["%.17g" % v for v in x]


def test_power_table_sums_to_the_power_of_ten_within_2_to_the_minus_104():
    hi, lo = _g17._pow10()
    ks = range(_g17._KMIN, _g17._KMAX + 1)
    assert len(hi) == len(lo) == len(ks)
    for k, h, low in zip(ks, hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** (16 - k)
        assert abs(Fraction(h) + Fraction(low) - exact) <= exact / 2**104, k


def test_cells_land_in_their_rows_and_leave_the_rest_of_the_row():
    x = np.array([-0.0, 2.5, 1e300, 1.0 + 2.0**-17, 123456789012345678.0, -1e-100])
    rows = np.array([6, 0, 3, 2, 4, 5])
    dest = np.zeros((7, _g17.WIDTH + 2), dtype=np.uint8)
    dest[:, _g17.WIDTH :] = ord("#")
    _g17.write_cells(x, dest, rows)
    _g17.write_cells(np.array([]), dest, np.array([], dtype=np.intp))
    for v, r in zip(x.tolist(), rows.tolist()):
        assert bytes(dest[r]) == ("%.17g" % v).encode().ljust(_g17.WIDTH, b"\0") + b"##"
    assert bytes(dest[1]) == bytes(_g17.WIDTH) + b"##"
