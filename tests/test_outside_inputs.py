"""Pins of what the report bytes take from outside this package.

The goldens hold whole reports, so a change in numpy's generator, in the
platform's libm or in Python's float formatting shows there as a moved
digest that names no cause.  Each test here pins one such input at a few
values, so that the failing test names it.
"""

import json
import math

import numpy as np
import pytest

from bellcheck.models import CHUNK
from bellcheck.report import _json_numbers


def test_default_rng_standard_normal_stream():
    # Every Monte Carlo estimate reads this stream, CHUNK draws of 3 at a time.
    draws = np.random.default_rng(42).standard_normal(6).tolist()
    assert [x.hex() for x in draws] == [
        "0x1.3807c1104fc6bp-2", "-0x1.0a3c65fca9a7ep+0", "0x1.803b239e77350p-1",
        "0x1.e191b2d157f36p-1", "-0x1.f3770ac89d08fp+0", "-0x1.4d5ba2db7ebc8p+0"]
    buffer = np.empty(6)
    np.random.default_rng(42).standard_normal(out=buffer)
    assert buffer.tolist() == draws


def test_chunk_size():
    # bell-toy's means merge once per chunk, so CHUNK moves their last digits.
    assert CHUNK == 65_536


@pytest.mark.parametrize("angle, sin_hex, cos_hex", [
    (1 * (math.pi / 36), "0x1.64fd6b8c28102p-4", "0x1.fe0d3b41815a2p-1"),
    (9 * (math.pi / 36), "0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bcdp-1"),
    (18 * (math.pi / 36), "0x1.0000000000000p+0", "0x1.1a62633145c07p-54"),
    (12345 * 0.0001, "0x1.e351c8409f41ep-1", "0x1.51e9b9f0886aap-2"),
    (31415 * 0.0001, "0x1.849e08cbf6175p-14", "-0x1.ffffffdb21094p-1"),
])
def test_libm_sin_and_cos_at_grid_angles(angle, sin_hex, cos_hex):
    # xz_scan reads each direction from these two calls.
    assert (math.sin(angle).hex(), math.cos(angle).hex()) == (sin_hex, cos_hex)


@pytest.mark.parametrize("value, text, json_text", [
    (1 / 3, "0.333333333333", "0.333333333333"),
    (0.1 + 0.2, "0.3", "0.3"),
    (1.0, "1", "1.0"),
    (-0.0, "-0", "-0.0"),
    (1e-5, "1e-05", "1e-05"),
    (2.5e-7, "2.5e-07", "2.5e-07"),
    (123456789012.34567, "123456789012", "123456789012.0"),
    # 1e12 <= |x| < 1e16: %.12g writes an exponent where repr is positional.
    (1e12 + 0.5, "1e+12", "1000000000000.0"),
    (-66926478731690.96, "-6.69264787317e+13", "-66926478731700.0"),
    (1e16, "1e+16", "1e+16"),
    (math.nan, "nan", "NaN"),
    (-math.inf, "-inf", "-Infinity"),
])
def test_float_texts_the_json_writer_relies_on(value, text, json_text):
    assert "%.12g" % value == text
    assert json.dumps(float(text)) == json_text
    if math.isfinite(value):
        assert repr(float(text)) == json_text
    assert _json_numbers([value]) == [json_text]
