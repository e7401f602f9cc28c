"""The text boundary: one signed-sum printer and one parse scanner.

Every printed object (polynomials, rational functions, Laurent series,
parameter-field ratios, Gaussian rationals, descendent elements,
operators) is a signed sum of coefficient-times-factor terms, and the
input languages of rational functions of q and of descendent expressions
are read by recursive descent over the same scanner.  The rational
coefficients of JSON records are read by one compiled match
(`pdc.fields.components_from_json`); the scanner reads only the ones it
refuses, to word the rejection with its position.
"""

from __future__ import annotations

from fractions import Fraction


def power(var: str, k: int) -> str:
    """var^k as printed: empty for k = 0, the bare variable for k = 1."""
    if k == 0:
        return ""
    return var if k == 1 else f"{var}^{k}"


def signed_sum(terms) -> str:
    """Join (coefficient, factor) pairs as "a*x - b*y + ...".

    A plain rational coefficient carries the sign of its term and is left
    out when it is 1 (an empty factor always keeps it); any other
    coefficient prints parenthesised.  Zero coefficients are skipped, and
    a sum without terms prints "0".
    """
    parts = []
    for c, factor in terms:
        if not c:
            continue
        text = str(c)
        body = text.lstrip("-")
        neg = False
        if body.strip("0123456789/"):
            body = f"({text})"
        else:
            neg = text.startswith("-")
        if factor:
            body = factor if body == "1" else f"{body}*{factor}"
        if parts:
            parts.append(("- " if neg else "+ ") + body)
        else:
            parts.append(("-" if neg else "") + body)
    return " ".join(parts) if parts else "0"


_ASCII_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    """Syntax error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class Scanner:
    """Cursor over input text for recursive-descent parsers.

    Subclasses set `error` to their own ParseError subclass.
    """

    error = ParseError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_space(self) -> int:
        """Move past whitespace; returns the new position."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.pos

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        self.skip_space()
        return self.text[self.pos:self.pos + 1]

    def accept(self, chars: str) -> str:
        """Consume and return the next character if it is one of chars."""
        ch = self.peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        return ""

    def expect(self, ch: str) -> None:
        if not self.accept(ch):
            self.fail(f"expected {ch!r}")

    def sum_of(self, term):
        """term (("+" | "-") term)*, after an optional leading sign."""
        value = -term() if self.accept("+-") == "-" else term()
        while op := self.accept("+-"):
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def take(self, pred) -> str:
        """Consume the run of characters satisfying pred, from here on."""
        start = self.pos
        while self.pos < len(self.text) and pred(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def digits(self) -> str:
        """Consume the run of ASCII digits 0-9 from here on.

        str.isdigit would also take digits such as "²", which int()
        rejects without a position.
        """
        return self.take(_ASCII_DIGITS.__contains__)

    def rational(self) -> int | Fraction:
        """An unsigned a or a/b: an int, or a Fraction when "/" and digits
        follow (a "/" without digits after it is left unread)."""
        self.skip_space()
        numerator = self.digits()
        if not numerator:
            self.unexpected()
        mark = self.pos
        if self.accept("/"):
            start = self.skip_space()
            denominator = self.digits()
            if denominator:
                if not int(denominator):
                    self.fail("zero denominator", start)
                return Fraction(int(numerator), int(denominator))
        self.pos = mark
        return int(numerator)

    def fail(self, message: str, pos: int | None = None):
        raise self.error(message, self.pos if pos is None else pos)

    def unexpected(self):
        ch = self.peek()
        self.fail(f"unexpected {ch!r}" if ch else "unexpected end of input")

    def finish(self, value):
        """value, provided the whole input has been read."""
        if self.peek():
            self.unexpected()
        return value
