"""Plain-text formats for moment data, atomic measures, and polynomials.

Moment file::

    momentfile v1 dim=<d> degree=<D>
    <a1> <a2> ... <ad> <value>

with one line per multi-index, covering every ``|alpha| <= D`` exactly once
in graded-lex order.  ``<value>`` is either a finite decimal float or
``log:<decimal>`` carrying the finite natural logarithm of an entry that has
a stored log or is exact and outside double range (the log is then
authoritative and the stored value is its exponential, possibly ``inf``); a
zero entry is written as its value even when its ``-inf`` log is stored.
A value that reads as ``nan`` or ``inf``, or a decimal that overflows a
double, is refused: such an entry has to be written as a ``log:`` token.

Measure file::

    atoms v1 dim=<d>
    <weight> <x1> ... <xd>

one line per atom, weights positive.

Polynomial files hold one polynomial per line (blank lines and ``#``
comments skipped) in a small infix grammar over variables ``<prefix>1 ..
<prefix>N``: integer, rational (``3/4``), and decimal constants; ``+``,
``-``, ``*``; ``^`` with a nonnegative integer exponent; parentheses.

Every reader skips blank lines, and an error names its line as counted in
the file, blank lines included.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .errors import FileFormatError
from .polynomials import (
    AtomicMeasure,
    MomentSequence,
    MultiIndex,
    Polynomial,
    _exp,
    _log,
    _monomial_table,
    _to_float,
)

MOMENT_HEADER_RE = re.compile(
    r"^momentfile v1 dim=(\d+) degree=(\d+)\s*$"
)
MEASURE_HEADER_RE = re.compile(r"^atoms v1 dim=(\d+)\s*$")


# ---------------------------------------------------------------------------
# moment files


def format_moment_file(s: MomentSequence) -> str:
    """Render moment data; an exact nonzero entry whose float is infinite
    or ``0.0`` becomes a ``log:`` token, as does any stored log except the
    ``-inf`` of a zero entry, which is written as the entry's value.

    Raises
    ------
    FileFormatError
        If such an exact entry is negative (no log token can hold it), if a
        float entry with no stored log is ``nan`` or infinite, or if any
        other stored log is not finite (the reader refuses all of these).
    """
    lines = [f"momentfile v1 dim={s.dim} degree={s.max_degree}"]
    for alpha in s.indices():
        exps = " ".join(str(a) for a in alpha)
        value = s.values[alpha]
        lv = s.log_values.get(alpha)
        if lv is not None and (value or lv != -math.inf):
            if not math.isfinite(lv):
                raise FileFormatError(
                    f"moment {alpha} has the stored log {lv!r}; a moment file "
                    f"cannot hold it"
                )
            lines.append(f"{exps} log:{lv!r}")
            continue
        fv = _to_float(value)
        if not isinstance(value, (int, Fraction)) or not value or 0 < abs(fv) < math.inf:
            if not math.isfinite(fv):
                raise FileFormatError(
                    f"moment {alpha} is {fv!r} and has no stored log; a "
                    f"moment file cannot hold it"
                )
            lines.append(f"{exps} {fv!r}")
        elif value < 0:
            raise FileFormatError(
                f"moment {alpha} is negative and outside double range; "
                f"a moment file cannot hold it"
            )
        else:
            lines.append(f"{exps} log:{_log(value)!r}")
    return "\n".join(lines) + "\n"


def write_moment_file(path: str | Path, s: MomentSequence) -> None:
    Path(path).write_text(format_moment_file(s))


def _content_lines(text: str) -> list[tuple[int, str]]:
    """The lines of ``text`` that are not blank, each with its line number
    in the file."""
    return [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]


@functools.lru_cache(maxsize=32)
def _exponent_fields(dim: int, degree: int) -> tuple[tuple[list[str], MultiIndex], ...]:
    """Every multi-index of a ``(dim, degree)`` moment file in graded-lex
    order, with its exponents as :func:`format_moment_file` writes them
    (shared through the cache, so read only)."""
    return tuple(
        ([str(a) for a in alpha], alpha) for alpha in _monomial_table(dim, degree)
    )


def parse_moment_file(text: str) -> MomentSequence:
    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty moment file")
    header = MOMENT_HEADER_RE.match(lines[0][1])
    if not header:
        raise FileFormatError(
            f"bad moment file header: {lines[0][1]!r} (expected "
            f"'momentfile v1 dim=<d> degree=<D>')"
        )
    dim, degree = int(header.group(1)), int(header.group(2))
    if dim < 1:
        raise FileFormatError(f"dimension must be >= 1, got {dim}")
    expected = _exponent_fields(dim, degree)
    if len(lines) - 1 != len(expected):
        raise FileFormatError(
            f"moment file with dim={dim} degree={degree} must have "
            f"{len(expected)} entries, found {len(lines) - 1}"
        )
    values: dict[MultiIndex, float] = {}
    logs: dict[MultiIndex, float] = {}
    for (lineno, line), (fields, alpha) in zip(lines[1:], expected):
        parts = line.split()
        if len(parts) != dim + 1:
            raise FileFormatError(
                f"line {lineno}: expected {dim} exponents and one value, "
                f"got {len(parts)} fields"
            )
        # Exponents written another way (``+1``, ``01``) are read as ints.
        if parts[:dim] != fields:
            try:
                idx = tuple(int(p) for p in parts[:dim])
            except ValueError as exc:
                raise FileFormatError(f"line {lineno}: bad exponent ({exc})") from exc
            if idx != alpha:
                raise FileFormatError(
                    f"line {lineno}: expected index {alpha} (graded-lex order), "
                    f"got {idx}"
                )
        raw = parts[dim]
        if raw.startswith("log:"):
            try:
                lv = float(raw[4:])
            except ValueError as exc:
                raise FileFormatError(
                    f"line {lineno}: bad log value {raw!r}"
                ) from exc
            if not math.isfinite(lv):
                raise FileFormatError(
                    f"line {lineno}: log value {raw!r} is not finite"
                )
            logs[alpha] = lv
            values[alpha] = _exp(lv)
        else:
            try:
                value = float(raw)
            except ValueError as exc:
                raise FileFormatError(
                    f"line {lineno}: bad value {raw!r}"
                ) from exc
            if not math.isfinite(value):
                raise FileFormatError(
                    f"line {lineno}: value {raw!r} is not a finite double; "
                    f"write an entry outside double range as 'log:<natural log>'"
                )
            values[alpha] = value
    try:
        return MomentSequence._assembled(dim, degree, values, logs)
    except Exception as exc:
        raise FileFormatError(f"inconsistent moment data: {exc}") from exc


def read_moment_file(path: str | Path) -> MomentSequence:
    return parse_moment_file(Path(path).read_text())


# ---------------------------------------------------------------------------
# measure files


def format_measure_file(measure: AtomicMeasure) -> str:
    lines = [f"atoms v1 dim={measure.dim}"]
    for point, weight in measure.atoms:
        coords = " ".join(repr(float(x)) for x in point)
        lines.append(f"{float(weight)!r} {coords}")
    return "\n".join(lines) + "\n"


def write_measure_file(path: str | Path, measure: AtomicMeasure) -> None:
    Path(path).write_text(format_measure_file(measure))


def parse_measure_file(text: str) -> AtomicMeasure:
    lines = _content_lines(text)
    if not lines:
        raise FileFormatError("empty measure file")
    header = MEASURE_HEADER_RE.match(lines[0][1])
    if not header:
        raise FileFormatError(
            f"bad measure file header: {lines[0][1]!r} (expected "
            f"'atoms v1 dim=<d>')"
        )
    dim = int(header.group(1))
    atoms = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != dim + 1:
            raise FileFormatError(
                f"line {lineno}: expected a weight and {dim} coordinates, "
                f"got {len(parts)} fields"
            )
        try:
            weight = float(parts[0])
            point = tuple(float(p) for p in parts[1:])
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: bad number ({exc})") from exc
        atoms.append((point, weight))
    try:
        return AtomicMeasure(dim, atoms)
    except Exception as exc:
        raise FileFormatError(f"inconsistent measure data: {exc}") from exc


def read_measure_file(path: str | Path) -> AtomicMeasure:
    return parse_measure_file(Path(path).read_text())


# ---------------------------------------------------------------------------
# polynomial grammar

_NUMBER_RE = re.compile(r"\d+/\d+|\d+\.\d*|\.\d+|\d+")
_VAR_RE = re.compile(r"([A-Za-z]+)(\d+)")


def _tokenize(text: str, var_prefix: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(text, i)
            if not m:
                raise FileFormatError(f"bad number at position {i}: {text[i:]!r}")
            try:
                number = Fraction(m.group(0))
            except ZeroDivisionError as exc:
                raise FileFormatError(
                    f"zero denominator at position {i}: {m.group(0)!r}"
                ) from exc
            tokens.append(("number", number))
            i = m.end()
            continue
        if ch.isalpha():
            m = _VAR_RE.match(text, i)
            if not m or m.group(1) != var_prefix:
                raise FileFormatError(
                    f"bad variable at position {i} in {text!r} "
                    f"(expected {var_prefix}1, {var_prefix}2, ...)"
                )
            tokens.append(("var", int(m.group(2))))
            i = m.end()
            continue
        raise FileFormatError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_polynomial(text: str, dim: int, var_prefix: str = "x") -> Polynomial:
    """Parse one infix polynomial over ``<var_prefix>1 .. <var_prefix>dim``."""
    tokens = _tokenize(text, var_prefix)
    pos = 0

    def peek() -> tuple[str, object] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, object]:
        nonlocal pos
        if pos >= len(tokens):
            raise FileFormatError(f"unexpected end of expression: {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr() -> Polynomial:
        node = parse_term()
        while peek() in (("op", "+"), ("op", "-")):
            _, op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> Polynomial:
        node = parse_factor()
        while peek() == ("op", "*"):
            take()
            node = node * parse_factor()
        return node

    def parse_factor() -> Polynomial:
        tok = peek()
        if tok == ("op", "-"):
            take()
            return -parse_factor()
        if tok == ("op", "+"):
            take()
            return parse_factor()
        return parse_power()

    def parse_power() -> Polynomial:
        base = parse_atom()
        if peek() == ("op", "^"):
            take()
            kind, value = take()
            if kind != "number" or value.denominator != 1 or value < 0:
                raise FileFormatError(
                    f"exponent must be a nonnegative integer in {text!r}"
                )
            return base ** int(value)
        return base

    def parse_atom() -> Polynomial:
        kind, value = take()
        if kind == "number":
            return Polynomial.constant(dim, value)
        if kind == "var":
            index = int(value)
            if not 1 <= index <= dim:
                raise FileFormatError(
                    f"variable {var_prefix}{index} out of range 1..{dim}"
                )
            return Polynomial.variable(dim, index - 1)
        if (kind, value) == ("op", "("):
            node = parse_expr()
            if take() != ("op", ")"):
                raise FileFormatError(f"missing ')' in {text!r}")
            return node
        raise FileFormatError(f"unexpected token {value!r} in {text!r}")

    result = parse_expr()
    if pos != len(tokens):
        raise FileFormatError(
            f"trailing input after position {pos} in {text!r}"
        )
    return result


def format_polynomial(poly: Polynomial, var_prefix: str = "x") -> str:
    return poly.to_string(var_prefix)


def parse_polynomials(
    text: str, dim: int, var_prefix: str = "x"
) -> list[Polynomial]:
    polys = []
    for lineno, line in _content_lines(text):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        try:
            polys.append(parse_polynomial(stripped, dim, var_prefix))
        except FileFormatError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
    if not polys:
        raise FileFormatError("no polynomials found")
    return polys


def read_polynomials_file(
    path: str | Path, dim: int, var_prefix: str = "x"
) -> list[Polynomial]:
    return parse_polynomials(Path(path).read_text(), dim, var_prefix)


def write_polynomials_file(
    path: str | Path, polys: Iterable[Polynomial], var_prefix: str = "x"
) -> None:
    Path(path).write_text(
        "\n".join(format_polynomial(p, var_prefix) for p in polys) + "\n"
    )
