"""Text syntax for exact scalars and polynomials.

Scalars: rational literals `p/q`, root-of-unity atoms `E(m)^k`, the shorthand
`i` for E(4), with `+ - * /`, integer powers, and parentheses.  Polynomials
add variables `x1 .. xn`.  `format_scalar` and `format_poly` emit canonical
text that parses back to an equal value.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

from .cyclotomic import Cyclotomic, E, cyc
from .errors import ParseError
from .polynomials import Poly

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]\w*|\*|\+|-|/|\^|\(|\)|,)")

# Each parenthesis level costs five frames of the recursive descent; refuse
# deeper input with a parse error instead of meeting Python's recursion limit.
MAX_NESTING = 100

# A power whose result may exceed this many bits is refused before it is
# computed: a few characters such as `3^10000000` would otherwise take many
# seconds and, nested, any amount of memory.
MAX_POWER_BITS = 1 << 16

# A numeral of this many decimal digits has fewer than MAX_POWER_BITS bits
# (10^0.3 < 2); numerals are read through `Decimal`, which has no limit on
# the digits of an int conversion, so this is the program's only bound.
MAX_NUMERAL_DIGITS = MAX_POWER_BITS * 3 // 10


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser producing Poly values in `nvars` variables."""

    def __init__(self, text, nvars):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, at = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", at)
        return tok

    def parse(self):
        value = self.expr()
        tok, at = self.next()
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", at)
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op, at = self.next()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.degree() > 0:
                    raise ParseError("division by a non-constant polynomial", at)
                c = rhs.constant_value()
                if not c:
                    raise ParseError("division by zero", at)
                value = value * Poly.constant(self.nvars, c.inverse())
        return value

    def unary(self):
        sign = 1
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            if op == "-":
                sign = -sign
        value = self.power()
        return value if sign == 1 else -value

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            _, at = self.next()
            k = self.signed_int()
            if k < 0:
                if base.degree() > 0:
                    raise ParseError("negative power of a non-constant", at)
                c = base.constant_value()
                if not c:
                    raise ParseError("negative power of zero", at)
                base, k = Poly.constant(self.nvars, c.inverse()), -k
            # with D the product of the base's denominators and N the l1 norm
            # of its numerators, every coefficient of base^k is some n / d
            # with |n| <= N^k and d | D^k: k log2(N D) bounds the bits.  A k
            # past the bound is too big for any N D >= 2, and is refused
            # before k log2(N D) can overflow a float
            numer, denom = 0, 1
            for c in base.terms.values():
                numer += sum(map(abs, c.nums.values()))
                denom *= c.den
            size = numer * denom
            if size > 1 and (
                k > MAX_POWER_BITS or k * math.log2(size) > MAX_POWER_BITS
            ):
                raise ParseError(
                    f"power result would exceed {MAX_POWER_BITS} bits", at
                )
            return base ** k
        return base

    def numeral(self, tok, at):
        """The value of a decimal numeral token, read exactly."""
        if len(tok) > MAX_NUMERAL_DIGITS:
            raise ParseError(
                f"numeral has more than {MAX_NUMERAL_DIGITS} digits", at
            )
        return int(Decimal(tok))

    def signed_int(self):
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, at = self.next()
        if tok is None or not tok.isdigit():
            raise ParseError(f"expected integer exponent, found {tok!r}", at)
        return sign * self.numeral(tok, at)

    def atom(self):
        tok, at = self.next()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", at
                )
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if tok is None:
            raise ParseError("unexpected end of input", at)
        if tok.isdigit():
            return Poly.constant(self.nvars, cyc(self.numeral(tok, at)))
        if tok == "E":
            self.expect("(")
            mtok, mat = self.next()
            if mtok is None or not mtok.isdigit():
                raise ParseError("E(m) requires an integer order", mat)
            m = self.numeral(mtok, mat)
            if m < 1:
                raise ParseError("E(m) requires m >= 1", mat)
            self.expect(")")
            return Poly.constant(self.nvars, E(m))
        if tok == "i":
            return Poly.constant(self.nvars, E(4))
        if tok[0] == "x" and tok[1:].isdigit():
            idx = int(tok[1:])
            if not 1 <= idx <= self.nvars:
                raise ParseError(
                    f"variable {tok} out of range (have {self.nvars})", at
                )
            return Poly.variable(self.nvars, idx - 1)
        raise ParseError(f"unexpected token {tok!r}", at)


def parse_poly(text: str, nvars: int) -> Poly:
    return _Parser(text, nvars).parse()


def parse_scalar(text: str) -> Cyclotomic:
    poly = _Parser(text, 0).parse()
    return poly.constant_value()


def _format_rational(q: Fraction) -> str:
    """str(q), exact also past the interpreter's int-to-str digit limit:
    `Decimal` formats an integer of any length."""
    text = str(Decimal(q.numerator))
    if q.denominator != 1:
        text += "/" + str(Decimal(q.denominator))
    return text


def format_scalar(c: Cyclotomic) -> str:
    if c.order == 1:
        return _format_rational(c.to_fraction())
    parts = []
    for exp in sorted(c.coeffs):
        q = c.coeffs[exp]
        if exp == 0:
            body = _format_rational(abs(q))
        else:
            base = f"E({c.order})" if exp == 1 else f"E({c.order})^{exp}"
            if abs(q) == 1:
                body = base
            else:
                body = f"{_format_rational(abs(q))}*{base}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if q > 0 else f" - {body}")
    return "".join(parts)


def _format_monomial(exps) -> str:
    pieces = []
    for i, e in enumerate(exps):
        if e == 1:
            pieces.append(f"x{i + 1}")
        elif e > 1:
            pieces.append(f"x{i + 1}^{e}")
    return "*".join(pieces)


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for exps in p.ordered_monomials():
        coeff = format_scalar(p.terms[exps])
        mono = _format_monomial(exps)
        if mono:
            parts.append(f"({coeff})*{mono}")
        else:
            parts.append(f"({coeff})")
    return " + ".join(parts)
