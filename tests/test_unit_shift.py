"""meV and ueV values in eV: the exponent of the decimal text shifted, then rounded once.

decimal.Decimal is the oracle here, and nowhere in the program: a value resolves
to float(Decimal(raw).scaleb(k)) bit for bit, k = -3 for meV and -6 for ueV, or
fails with the message that reading it as a Decimal gives.  Past 28 significant
digits scaleb rounds to 28 digits first; the program rounds the exact product
once, and Fraction is the oracle there.
"""

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmonsim.config import parse_config_text
from plasmonsim.errors import ConfigError

from conftest import fig2_with

#: unit key -> (the scenario parameter it sets, its decimal exponent in eV)
KEYS = {"g1_mev": ("g1_ev", -3), "J_uev": ("J_ev", -6)}


def _resolved(key, raw):
    """The eV value of key = raw in the builtin fig2, or the message of its ConfigError."""
    try:
        return parse_config_text(fig2_with({key: raw})).scenario[KEYS[key][0]]
    except ConfigError as exc:
        return str(exc).splitlines()[-1].strip()


def _decimal_oracle(key, raw):
    """What reading raw as a Decimal gives: its eV value, or the message for it."""
    text = raw.strip()  # as the config parser hands the value on
    try:
        number = Decimal(text)
    except InvalidOperation:
        return f"[couplings] {key} = {text!r} is not a number"
    if not (number.is_finite() and math.isfinite(float(number))):
        return f"[couplings] {key} = {text!r} is not finite"
    return float(number.scaleb(KEYS[key][1]))


def _same(value, expected):
    return value == expected if isinstance(expected, str) else (
        isinstance(value, float) and value.hex() == expected.hex())


@st.composite
def numerals(draw, max_digits):
    """Decimal text: a sign, digits before and after an optional point (leading and trailing
    zeros, "5." and ".5"), an optional e/E exponent within +/-400, underscores anywhere, at
    times a stray character, and blanks around it."""
    whole = draw(st.text("0123456789", max_size=max_digits // 2))
    point = draw(st.booleans())
    fraction = draw(st.text("0123456789", max_size=max_digits - len(whole))) if point else ""
    text = draw(st.sampled_from(["", "+", "-"])) + (whole or ("" if fraction else "0"))
    text += "." + fraction if point else ""
    if draw(st.booleans()):
        exponent = draw(st.integers(-400, 400))
        sign = "-" if exponent < 0 else draw(st.sampled_from(["", "+"]))
        text += draw(st.sampled_from("eE")) + sign + "0" * draw(st.integers(0, 2)) + str(
            abs(exponent))
    for at in draw(st.lists(st.integers(0, len(text)), max_size=3)):
        text = text[:at] + draw(st.sampled_from("__x. ")) + text[at:]
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\t"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(key=st.sampled_from(sorted(KEYS)), raw=numerals(27))
def test_unit_values_resolve_as_their_decimal_shifted(key, raw):
    value = _resolved(key, raw)
    assert _same(value, _decimal_oracle(key, raw)), (raw, value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(key=st.sampled_from(sorted(KEYS)), raw=numerals(60))
def test_long_unit_values_round_once_from_the_exact_product(key, raw):
    value, expected = _resolved(key, raw), _decimal_oracle(key, raw)
    if isinstance(expected, float):  # past 28 digits, exact where scaleb rounds first; a
        exact = Fraction(raw.strip().replace("_", "")) * Fraction(10) ** KEYS[key][1]
        expected = math.copysign(float(exact), expected)  # Fraction drops the sign of 0
    assert _same(value, expected), (raw, value)


@pytest.mark.parametrize("raw, message", [
    ("sNaN", "is not finite"),  # float() would call these "not a number"
    ("snan", "is not finite"),
    ("-sNaN12", "is not finite"),
    ("NaN", "is not finite"),
    ("nan123", "is not finite"),
    ("-inf", "is not finite"),
    ("1e309", "is not finite"),  # -> 1e306 eV, but the meV value itself overflows
    ("_ 1", "is not a number"),  # Decimal drops the underscore, then meets the blank
    ("1.2.3", "is not a number"),
    ("0x10", "is not a number"),
])
def test_unit_values_fail_as_decimal_text_fails(raw, message):
    assert _resolved("g1_mev", raw) == f"[couplings] g1_mev = {raw!r} {message}"
    assert _same(_resolved("g1_mev", raw), _decimal_oracle("g1_mev", raw))


@pytest.mark.parametrize("raw, ev", [
    ("-7.2", -7.2e-3), ("1_0.5_0", 10.5e-3), ("5.", 5e-3), (".5", 0.5e-3), ("-0", -0.0),
    ("00.0300E+0_2", 3e-3), ("1e-400", 0.0), ("1.5e308", 1.5e305),
])
def test_unit_values_are_the_shifted_text(raw, ev):
    assert _resolved("g1_mev", raw).hex() == ev.hex() == _decimal_oracle("g1_mev", raw).hex()


def test_thirty_one_digits_round_once_where_scaleb_rounded_twice():
    # the digits of the midpoint between two doubles near 7.2e-3 eV, in meV, cut at 31 digits
    # and raised by one unit in the last: just above the midpoint, so the exact product rounds
    # up; scaleb first rounded to 28 digits, below the midpoint, and so down
    raw = "-7.200000000000000236616282123237"
    exact = float(Fraction(raw) / 1000)
    assert _resolved("g1_mev", raw) == exact == math.nextafter(-7.2e-3, -1.0)
    assert float(Decimal(raw).scaleb(-3)) == -7.2e-3
