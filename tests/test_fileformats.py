"""Plain-text moment, measure, and polynomial file formats."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentkit import (
    AtomicMeasure,
    FileFormatError,
    MomentSequence,
    Polynomial,
    moments_lognormal,
    moments_of_atomic,
)
from momentkit.fileformats import (
    MOMENT_HEADER_RE,
    format_measure_file,
    format_moment_file,
    format_polynomial,
    parse_measure_file,
    parse_moment_file,
    parse_polynomial,
    parse_polynomials,
    read_moment_file,
    write_moment_file,
    write_polynomials_file,
    read_polynomials_file,
)
from momentkit.polynomials import _exp, monomials_up_to


class TestMomentFiles:
    def test_roundtrip_plain_floats(self):
        mu = AtomicMeasure(2, [((1.5, 2.0), 0.5), ((3.0, 1.0), 1.25)])
        s = moments_of_atomic(mu, 4)
        assert parse_moment_file(format_moment_file(s)) == s

    def test_roundtrip_preserves_log_entries(self):
        s = moments_lognormal(50)
        back = parse_moment_file(format_moment_file(s))
        assert back.log_value((50,)) == s.log_value((50,))
        assert float(back.value((50,))) == math.inf
        assert back.finite_degree() == s.finite_degree()

    def test_exact_entries_beyond_double_range(self):
        # A positive entry beyond range becomes a log token computed from
        # the exact rational; one in range stays a plain float even when its
        # numerator and denominator are huge; a negative one cannot be held.
        far = Fraction(10**400, 3)
        near = Fraction(10**400 + 1, 10**399)
        s = MomentSequence(1, 2, {(0,): Fraction(1), (1,): near, (2,): far})
        text = format_moment_file(s)
        assert "2 log:" in text and "1 log:" not in text
        back = parse_moment_file(text)
        assert back.log_value((2,)) == pytest.approx(
            400 * math.log(10) - math.log(3), rel=1e-15
        )
        assert float(back.value((2,))) == math.inf
        assert back.value((1,)) == float(near)
        assert back.finite_degree() == 1

        negative = MomentSequence(1, 1, {(0,): Fraction(1), (1,): -far})
        with pytest.raises(FileFormatError, match=r"\(1,\)"):
            format_moment_file(negative)

    def test_exact_entries_below_double_range(self):
        # A nonzero entry whose float is 0.0 becomes a log token, as one
        # above range does; exact zero and float entries stay plain floats.
        tiny = Fraction(1, 3 * 10**400)
        s = MomentSequence(
            1, 3, {(0,): Fraction(1), (1,): tiny, (2,): 0, (3,): 2.0**-1074}
        )
        text = format_moment_file(s)
        assert text.splitlines()[1:] == [
            "0 1.0",
            f"1 log:{-math.log(3 * 10**400)!r}",
            "2 0.0",
            "3 5e-324",
        ]
        back = parse_moment_file(text)
        assert back.log_value((1,)) == s.log_value((1,))
        assert back.value((1,)) == 0.0

        negative = MomentSequence(1, 1, {(0,): Fraction(1), (1,): -tiny})
        with pytest.raises(FileFormatError, match=r"\(1,\)"):
            format_moment_file(negative)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_without_log_refused(self, tmp_path, value):
        # The reader refuses such a value, so the writer does not write it;
        # a stored log still carries an infinite value (roundtrip above).
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 1e200, (2,): value})
        with pytest.raises(
            FileFormatError,
            match=rf"^moment \(2,\) is {value!r} and has no stored log",
        ):
            format_moment_file(s)
        path = tmp_path / "bad.mom"
        with pytest.raises(FileFormatError):
            write_moment_file(path, s)
        assert not path.exists()

    def test_zero_entry_with_a_minus_inf_log_is_written_as_its_value(self):
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): 0.0}, {(2,): -math.inf})
        text = format_moment_file(s)
        assert text.splitlines()[-1] == "2 0.0"
        back = parse_moment_file(text)
        assert back.values == s.values
        assert back.log_value((2,)) == -math.inf

    @pytest.mark.parametrize(
        "value, log", [(0.0, math.nan), (0.0, math.inf), (1.0, -math.inf), (math.inf, math.inf)]
    )
    def test_non_finite_stored_log_refused(self, tmp_path, value, log):
        # The reader refuses every non-finite log token, so only a zero
        # entry's -inf log, written as the value 0.0, gets through.
        s = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): value}, {(2,): log})
        with pytest.raises(
            FileFormatError, match=rf"^moment \(2,\) has the stored log {log!r}"
        ):
            format_moment_file(s)
        path = tmp_path / "bad.mom"
        with pytest.raises(FileFormatError):
            write_moment_file(path, s)
        assert not path.exists()

    def test_file_roundtrip(self, tmp_path):
        s = moments_of_atomic(AtomicMeasure(1, [((2.0,), 1.0)]), 3)
        path = tmp_path / "data.mom"
        write_moment_file(path, s)
        assert read_moment_file(path) == s

    def test_header_line_checked(self):
        with pytest.raises(FileFormatError):
            parse_moment_file("momentdata v1 dim=1 degree=2\n0 1.0\n")

    def test_empty_file_rejected(self):
        with pytest.raises(FileFormatError):
            parse_moment_file("")

    def test_entry_count_checked(self):
        text = "momentfile v1 dim=1 degree=2\n0 1.0\n1 1.0\n"
        with pytest.raises(FileFormatError):
            parse_moment_file(text)

    def test_index_order_enforced(self):
        # Lines must follow graded-lex order exactly.
        good = "momentfile v1 dim=2 degree=1\n0 0 1.0\n1 0 2.0\n0 1 3.0\n"
        s = parse_moment_file(good)
        assert s.value((1, 0)) == 2.0
        swapped = "momentfile v1 dim=2 degree=1\n0 0 1.0\n0 1 3.0\n1 0 2.0\n"
        with pytest.raises(FileFormatError):
            parse_moment_file(swapped)

    def test_bad_value_token(self):
        with pytest.raises(FileFormatError):
            parse_moment_file("momentfile v1 dim=1 degree=0\n0 abc\n")

    def test_log_token_parsed(self):
        text = "momentfile v1 dim=1 degree=1\n0 1.0\n1 log:800.0\n"
        s = parse_moment_file(text)
        assert s.log_value((1,)) == 800.0
        assert float(s.value((1,))) == math.inf


class TestNonFiniteMomentValues:
    """A value or log that is not a finite double names its line; an entry
    past double range has to be a ``log:`` token."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "1e400", "-1e400"])
    def test_value_rejected(self, token):
        text = f"momentfile v1 dim=1 degree=2\n0 1.0\n1 2.0\n2 {token}\n"
        with pytest.raises(FileFormatError, match=r"^line 4: .*'log:"):
            parse_moment_file(text)

    @pytest.mark.parametrize("token", ["log:nan", "log:inf", "log:-inf", "log:1e400"])
    def test_log_rejected(self, token):
        text = f"momentfile v1 dim=1 degree=1\n0 1.0\n1 {token}\n"
        with pytest.raises(FileFormatError, match=r"^line 3: log value .* is not finite"):
            parse_moment_file(text)

    def test_largest_finite_values_still_read(self):
        text = (
            "momentfile v1 dim=1 degree=2\n"
            "0 1.0\n1 1.7976931348623157e308\n2 log:1e300\n"
        )
        s = parse_moment_file(text)
        assert s.value((1,)) == 1.7976931348623157e308
        assert s.value((2,)) == math.inf and s.log_value((2,)) == 1e300


def _reference_parse(text: str) -> MomentSequence:
    """The moment-file reader as it was before it compared exponent strings:
    every exponent is read with ``int``, and lines are counted without the
    blank ones (so inputs with blank lines are not compared with it)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FileFormatError("empty moment file")
    header = MOMENT_HEADER_RE.match(lines[0])
    if not header:
        raise FileFormatError(
            f"bad moment file header: {lines[0]!r} (expected "
            f"'momentfile v1 dim=<d> degree=<D>')"
        )
    dim, degree = int(header.group(1)), int(header.group(2))
    if dim < 1:
        raise FileFormatError(f"dimension must be >= 1, got {dim}")
    expected = monomials_up_to(dim, degree)
    if len(lines) - 1 != len(expected):
        raise FileFormatError(
            f"moment file with dim={dim} degree={degree} must have "
            f"{len(expected)} entries, found {len(lines) - 1}"
        )
    values, logs = {}, {}
    for lineno, (line, alpha) in enumerate(zip(lines[1:], expected), start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise FileFormatError(
                f"line {lineno}: expected {dim} exponents and one value, "
                f"got {len(parts)} fields"
            )
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
                raise FileFormatError(f"line {lineno}: bad log value {raw!r}") from exc
            if not math.isfinite(lv):
                raise FileFormatError(f"line {lineno}: log value {raw!r} is not finite")
            logs[idx] = lv
            values[idx] = _exp(lv)
        else:
            try:
                value = float(raw)
            except ValueError as exc:
                raise FileFormatError(f"line {lineno}: bad value {raw!r}") from exc
            if not math.isfinite(value):
                raise FileFormatError(
                    f"line {lineno}: value {raw!r} is not a finite double; "
                    f"write an entry outside double range as 'log:<natural log>'"
                )
            values[idx] = value
    try:
        return MomentSequence(dim, degree, values, logs)
    except Exception as exc:
        raise FileFormatError(f"inconsistent moment data: {exc}") from exc


def _bits(parse, text: str):
    """What ``parse(text)`` gives: every value and stored log as
    ``float.hex``, or the message of the ``FileFormatError`` it raises."""
    try:
        s = parse(text)
    except FileFormatError as exc:
        return str(exc)
    return (
        s.dim,
        s.max_degree,
        [(alpha, v.hex()) for alpha, v in s.values.items()],
        sorted((alpha, lv.hex()) for alpha, lv in s.log_values.items()),
    )


#: A dim-2 degree-1 moment file, one line at a time.
_LINES = ["momentfile v1 dim=2 degree=1", "0 0 1.0", "1 0 2.0", "0 1 3.0"]


def _edited(line: int, replacement: str) -> str:
    return "\n".join(_LINES[:line] + [replacement] + _LINES[line + 1:]) + "\n"


class TestMomentReader:
    """The reader compares exponent fields as strings and parses them only
    when they differ; every file reads as before, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 4),
        degree=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_files_read_back_bit_for_bit(self, dim, degree, seed):
        rng = np.random.default_rng(seed)
        special = (-0.0, 5e-324, 1.7976931348623157e308)
        lines = [f"momentfile v1 dim={dim} degree={degree}"]
        values, logs = {}, {}
        for alpha in monomials_up_to(dim, degree):
            pick = rng.random()
            if pick < 0.1:
                lv = float(rng.normal(0.0, 400.0))
                logs[alpha], values[alpha] = lv, _exp(lv)
                token = f"log:{lv!r}"
            else:
                if pick < 0.4:
                    value = special[int(rng.integers(len(special)))]
                else:
                    value = float(rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)))
                values[alpha] = value
                token = repr(value)
            lines.append(" ".join([*map(str, alpha), token]))
        text = "\n".join(lines) + "\n"
        assert _bits(parse_moment_file, text) == _bits(_reference_parse, text)
        if values[(0,) * dim] == math.inf:
            # A mass marker beyond double range has no finite mass to read.
            with pytest.raises(FileFormatError, match="inconsistent moment data"):
                parse_moment_file(text)
            return
        back = parse_moment_file(text)
        assert [(a, v.hex()) for a, v in back.values.items()] == [
            (a, v.hex()) for a, v in values.items()
        ]
        assert {a: lv.hex() for a, lv in back.log_values.items()} == {
            a: lv.hex() for a, lv in logs.items()
        }

    @pytest.mark.parametrize(
        "text",
        [
            # Exponents written another way read as the same index.
            _edited(2, "+1 0 2.0"),
            _edited(2, "01 00 2.0"),
            _edited(3, "-0 +01 3.0"),
            _edited(2, "1_0 0 2.0"),
            _edited(2, "x 0 2.0"),
            _edited(2, "0 1 2.0"),
            # A moved line break keeps the token stream but not the fields.
            "\n".join([_LINES[0], "0 0 1.0 1", "0 2.0", _LINES[3]]) + "\n",
            "\n".join([_LINES[0], "0 0", "1.0 1 0 2.0", _LINES[3]]) + "\n",
            # Log tokens.
            _edited(3, "0 1 log:800.0"),
            _edited(3, "0 1 log:-5e-324"),
            _edited(3, "0 1 log:nan"),
            _edited(3, "0 1 log:1e400"),
            _edited(3, "0 1 log:"),
            _edited(3, "0 1 LOG:1.0"),
            # Values.
            _edited(3, "0 1 nan"),
            _edited(3, "0 1 1e400"),
            _edited(3, "0 1 1_0.5"),
            _edited(3, "0 1 1e-400"),
            _edited(3, "0 1 0x1p3"),
            _edited(3, "0 1\t-0.0"),
            # Counts and headers.
            "\n".join(_LINES + ["1 1 4.0"]) + "\n",
            "momentfile v1 dim=0 degree=1\n0 1.0\n",
            "momentfile v2 dim=1 degree=0\n0 1.0\n",
            _edited(1, "0 0 -inf"),
        ],
    )
    def test_same_sequence_or_message_as_before(self, text):
        assert _bits(parse_moment_file, text) == _bits(_reference_parse, text)


class TestErrorsNameTheFileLine:
    """Blank lines count: every reader names the line of the file."""

    def test_moment_file_value(self):
        text = "momentfile v1 dim=1 degree=2\n\n\n0 1.0\n1 2.0\n2 nan\n"
        with pytest.raises(FileFormatError) as err:
            parse_moment_file(text)
        assert str(err.value) == (
            "line 6: value 'nan' is not a finite double; write an entry "
            "outside double range as 'log:<natural log>'"
        )

    def test_moment_file_fields_after_a_blank_header_line(self):
        text = "\n  \nmomentfile v1 dim=2 degree=1\n0 0 1.0\n\n1 0\n0 1 3.0\n"
        with pytest.raises(FileFormatError) as err:
            parse_moment_file(text)
        assert str(err.value) == "line 6: expected 2 exponents and one value, got 2 fields"

    def test_blank_lines_do_not_change_what_is_read(self):
        text = "\n".join(_LINES) + "\n"
        spaced = "\n\n" + "\n \t\n".join(_LINES) + "\n\n"
        assert parse_moment_file(spaced) == parse_moment_file(text)

    def test_measure_file(self):
        text = "\natoms v1 dim=1\n\n2.0 1.0\n\n1.0 x\n"
        with pytest.raises(FileFormatError) as err:
            parse_measure_file(text)
        assert str(err.value) == (
            "line 6: bad number (could not convert string to float: 'x')"
        )

    def test_polynomial_file(self):
        with pytest.raises(FileFormatError) as err:
            parse_polynomials("x1\n\n# c\n\nx1 x2\n", 2)
        assert str(err.value).startswith("line 5: ")

    @pytest.mark.parametrize(
        "read, text, message",
        [
            pytest.param(
                parse_polynomials,
                "x1\nx1 + .\n",
                "line 2: bad number at position 5: '.'",
                id="lone-point",
            ),
            pytest.param(
                parse_polynomials,
                "x1\nx1 / 2\n",
                "line 2: unexpected character '/' at position 3",
                id="slash",
            ),
            pytest.param(
                parse_polynomials,
                "x1\nx1 +\n",
                "line 2: unexpected end of expression: 'x1 +'",
                id="dangling-plus",
            ),
            pytest.param(
                parse_polynomials,
                "x1\n(x1 + 1 x1\n",
                "line 2: missing ')' in '(x1 + 1 x1'",
                id="unclosed-paren",
            ),
            pytest.param(
                parse_polynomials,
                "x1\nx1 * )\n",
                "line 2: unexpected token ')' in 'x1 * )'",
                id="stray-paren",
            ),
            pytest.param(
                parse_polynomials, "# a\n# b\n", "no polynomials found", id="comments-only"
            ),
            pytest.param(parse_measure_file, "", "empty measure file", id="empty-measure"),
            pytest.param(
                parse_moment_file,
                "momentfile v1 dim=1 degree=1\n0 log:800\n1 1.0\n",
                "inconsistent moment data: mass s_0 must be finite",
                id="log-mass",
            ),
        ],
    )
    def test_reader_error(self, read, text, message):
        with pytest.raises(FileFormatError) as err:
            read(text, 1) if read is parse_polynomials else read(text)
        assert str(err.value) == message


class TestMeasureFiles:
    def test_roundtrip(self):
        mu = AtomicMeasure(2, [((1.0, 2.0), 0.5), ((0.0, 4.0), 1.5)])
        back = parse_measure_file(format_measure_file(mu))
        assert back.sorted_atoms() == mu.sorted_atoms()

    def test_header_checked(self):
        with pytest.raises(FileFormatError):
            parse_measure_file("points v1 dim=1\n1.0 2.0\n")

    def test_weight_positivity_enforced(self):
        with pytest.raises(FileFormatError):
            parse_measure_file("atoms v1 dim=1\n0.0 1.0\n")

    def test_column_count_checked(self):
        with pytest.raises(FileFormatError):
            parse_measure_file("atoms v1 dim=2\n1.0 2.0\n")


class TestPolynomialGrammar:
    def test_terms_with_rational_coefficient(self):
        p = parse_polynomial("x1^2 - 3/2*x1*x2 + 4", 2)
        assert p.terms == {
            (2, 0): Fraction(1),
            (1, 1): Fraction(-3, 2),
            (0, 0): Fraction(4),
        }

    def test_parentheses_and_powers(self):
        p = parse_polynomial("(x1 + x2)^2", 2)
        assert p.terms == {
            (2, 0): Fraction(1),
            (1, 1): Fraction(2),
            (0, 2): Fraction(1),
        }

    def test_decimal_coefficient_is_exact_rational(self):
        p = parse_polynomial("2.5*x1", 2)
        assert p.terms == {(1, 0): Fraction(5, 2)}

    def test_leading_minus(self):
        p = parse_polynomial("-x1^2 + x2", 2)
        assert p.terms == {(2, 0): Fraction(-1), (0, 1): Fraction(1)}

    def test_leading_plus(self):
        assert parse_polynomial("+x1", 2) == parse_polynomial("x1", 2)

    def test_variable_prefix(self):
        p = parse_polynomial("y1 + y2^2", 2, var_prefix="y")
        assert p.terms == {(1, 0): Fraction(1), (0, 2): Fraction(1)}

    def test_variable_index_out_of_range(self):
        with pytest.raises(FileFormatError):
            parse_polynomial("x3 + 1", 2)

    def test_missing_operator_rejected(self):
        with pytest.raises(FileFormatError):
            parse_polynomial("x1 x2", 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(FileFormatError):
            parse_polynomial("x1^-2", 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1 + 3/0", "zero denominator at position 5: '3/0'"),
            ("0/0*x1", "zero denominator at position 0: '0/0'"),
        ],
    )
    def test_zero_denominator_rejected(self, text, message):
        with pytest.raises(FileFormatError) as err:
            parse_polynomial(text, 1)
        assert str(err.value) == message
        with pytest.raises(FileFormatError) as err:
            parse_polynomials(f"# constraint\n\n{text}\n", 1)
        assert str(err.value) == f"line 3: {message}"

    def test_format_parse_roundtrip(self):
        p = Polynomial(
            2,
            {
                (2, 1): Fraction(3, 4),
                (0, 1): Fraction(-2),
                (0, 0): Fraction(5),
            },
        )
        assert parse_polynomial(format_polynomial(p), 2) == p

    def test_multiline_file(self, tmp_path):
        polys = [
            parse_polynomial("-x1^2 + x2", 2),
            parse_polynomial("x1", 2),
        ]
        path = tmp_path / "gens.txt"
        write_polynomials_file(path, polys)
        assert read_polynomials_file(path, 2) == polys

    def test_comments_and_blank_lines_skipped(self):
        text = "# constraints\n\n-x1^2 + x2\nx1\n"
        polys = parse_polynomials(text, 2)
        assert len(polys) == 2
        assert polys[1] == Polynomial.variable(2, 0)
