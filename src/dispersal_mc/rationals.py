"""Exact probability parsing and formatting helpers."""

from __future__ import annotations

from fractions import Fraction


def parse_probability(value) -> Fraction:
    """Parse an exact probability from ``"num/den"``, a decimal string, or a number.

    Decimal strings are read as exact decimals (``"0.1"`` becomes 1/10).
    Floats are accepted but go through their shortest decimal repr first;
    prefer strings in config files.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, float):
        q = Fraction(str(value))
    elif isinstance(value, str):
        q = Fraction(value.strip())
    else:
        raise TypeError(f"cannot parse a probability from {type(value).__name__}")
    if not 0 <= q <= 1:
        raise ValueError(f"probability {q} outside [0, 1]")
    return q


def format_decimal(q: Fraction | float) -> str:
    """Render a number as ``f"{q:.12g}"`` would, from its exact value (a
    float's binary value), rounded once to 12 significant digits, half to even."""
    q = Fraction(q)
    if not q:
        return "0"
    e = len(str(q.numerator)) - len(str(q.denominator))
    e -= q < Fraction(10) ** e  # now 10**e <= q < 10**(e + 1)
    d = round(q * Fraction(10) ** (11 - e))
    if d == 10 ** 12:
        d, e = d // 10, e + 1
    sci = not -4 <= e < 12
    digits = str(d) if sci else "0" * -e + str(d)
    point = 1 if sci else max(e, 0) + 1
    tail = digits[point:].rstrip("0")
    return digits[:point] + "." * bool(tail) + tail + (f"e{e:+03d}" if sci else "")
