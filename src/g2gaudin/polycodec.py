"""The rationals and polynomials of the JSON codec that cli owns, read and
printed as integers.  A rational is the string "p" or "p/q", an optional
"-" and digits, then optionally "/" and digits, q > 0, and nothing else;
it is printed in lowest terms.  A polynomial is the array of its
coefficients, lowest degree first, and crosses the codec as an integer
row over a denominator, so no Fraction is built per coefficient.  Only the
commands that print a polynomial, read a file or read a --point import
this module."""

import re
from math import gcd, lcm

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational(c):
    """(p, q) of the codec rational c as written, "p" or "p/q" with q > 0,
    or of a JSON integer c; ValueError on anything else, "0.5", "1e3",
    " 1" and "1/+2" among them."""
    if type(c) is int:
        return c, 1
    m = _RATIONAL.fullmatch(c) if isinstance(c, str) else None
    q = 1 if m is None or m[2] is None else int(m[2])
    if m is None or not q:
        raise ValueError(f"{c!r} is not a rational \"p\" or \"p/q\", q > 0")
    return int(m[1]), q


def read_row(cs):
    """The integer row of the coefficients cs, each read by rational: the
    coefficients in lowest terms cleared by the lcm of their denominators,
    without trailing zeros, so a zero polynomial is [].  A coefficient
    "p" is read by int() and only the others by rational's regex.  Clearing
    p_i / q_i as written by L = lcm(q_i) gives that row times
    g = gcd(L, row): no prime divides both that row and the lcm of the
    reduced denominators, so one division by g puts every coefficient in
    lowest terms."""
    ps, qs = [], []
    for c in cs:
        # a str that _RATIONAL matches without "/": an optional "-", then
        # ASCII digits (int() would also take " 1", "+1", "1_0" and "١")
        if type(c) is str and c.isascii() and c[c[:1] == "-":].isdigit():
            p, q = int(c), 1
        else:
            p, q = rational(c)
        ps.append(p)
        qs.append(q)
    den = lcm(*qs)
    out = ps if den == 1 else [p * (den // q) for p, q in zip(ps, qs)]
    while out and not out[-1]:
        out.pop()
    g = gcd(den, *out)
    return out if g == 1 else [v // g for v in out]


def row_json(row, den=1):
    """The codec strings of the coefficients of row / den, for an integer
    row and den > 0: each "p" or "p/q" in lowest terms, as str(Fraction)
    prints it."""
    out = []
    for c in row:
        g = gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


def text(cs) -> str:
    """The polynomial with codec strings cs, lowest degree first, as text,
    highest degree first: "x^2 - 1/2*x + 3"."""
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        if cs[k] == "0":
            continue
        neg = cs[k][0] == "-"
        mag, xs = cs[k][neg:], "x" if k == 1 else f"x^{k}"
        body = mag if k == 0 else xs if mag == "1" else f"{mag}*{xs}"
        sign = ("- " if neg else "+ ") if terms else "-" * neg
        terms.append(sign + body)
    return " ".join(terms) or "0"
