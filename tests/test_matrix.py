"""Tests for the matrix core: parsing, grouping, frequencies."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sephash.matrix import (
    Matrix,
    MatrixFormatError,
    SeparationType,
    group_rows,
    parse_matrix,
    symbol_frequencies,
    write_matrix,
)

from helpers import (
    reference_check_entries,
    reference_group_rows,
    reference_parse_matrix,
    reference_write_matrix,
)


def small_matrices(max_rows=4, max_cols=5, max_q=4):
    def build(draw):
        q = draw(st.integers(1, max_q))
        n_rows = draw(st.integers(1, max_rows))
        n_cols = draw(st.integers(0, max_cols))
        rows = [
            tuple(draw(st.integers(0, q - 1)) for _ in range(n_cols))
            for _ in range(n_rows)
        ]
        return Matrix(tuple(rows), q)

    return st.composite(build)()


class TestParse:
    def test_smallest_nontrivial(self):
        m = parse_matrix("1 2 2\n0 1")
        assert (m.rows, m.cols, m.q) == (1, 2, 2)
        assert m.entries == ((0, 1),)

    def test_direct_echo(self):
        m = parse_matrix("2 2 3\n0 1\n2 2")
        assert m.entries == ((0, 1), (2, 2))

    def test_entry_out_of_range(self):
        with pytest.raises(MatrixFormatError, match="out of range"):
            parse_matrix("1 1 2\n5")

    def test_error_carries_line_number(self):
        with pytest.raises(MatrixFormatError) as err:
            parse_matrix("# comment\n2 2 2\n0 1\n0 7")
        assert err.value.line == 4

    def test_row_length_mismatch(self):
        with pytest.raises(MatrixFormatError, match="expected 3"):
            parse_matrix("1 3 2\n0 1")

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="header"):
            parse_matrix("2 2\n0 1\n1 0")

    def test_missing_rows(self):
        with pytest.raises(MatrixFormatError, match="found 1"):
            parse_matrix("2 2 2\n0 1")

    def test_trailing_garbage(self):
        with pytest.raises(MatrixFormatError, match="after last row"):
            parse_matrix("1 1 2\n0\n1")

    def test_comments_and_blanks_ignored(self):
        m = parse_matrix("# header next\n\n2 1 2\n0\n# mid\n1\n")
        assert m.entries == ((0,), (1,))

    def test_zero_columns(self):
        m = parse_matrix("3 0 2")
        assert (m.rows, m.cols) == (3, 0)

    # One case per MatrixFormatError raise, with comments and blank lines
    # shifting the reported line; line None means no line is attached.
    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("", "empty input: missing header", None),
            ("# only a comment\n\n   \n", "empty input: missing header", None),
            ("# c\n\n2 2\n0 1\n1 0", "header must be 'N n q'", 3),
            ("\n2 x 2\n0 1", "header must contain integers", 2),
            ("# c\n0 2 2\n", "header requires N >= 1, n >= 0, q >= 1", 2),
            ("1 -1 2", "header requires N >= 1, n >= 0, q >= 1", 1),
            ("\n\n1 1 0\n", "header requires N >= 1, n >= 0, q >= 1", 3),
            ("1 1 2\n\n0\n# c\n1", "unexpected content after last row", 5),
            ("# c\n1 3 2\n\n0 1", "row has 2 entries, expected 3", 4),
            ("1 2 2\nx y z", "row has 3 entries, expected 2", 2),
            ("2 2 2\n0 1\n# c\n0 x", "row entries must be integers", 4),
            ("1 2 2\n5 x", "row entries must be integers", 2),
            ("# c\n2 2 2\n0 1\n\n0 7", "entry 7 out of range [0, 2)", 5),
            ("2 2 2\n0 1 1\n0 x", "row has 3 entries, expected 2", 2),
            ("# c\n\n2 2 2\n0 1\n# end\n", "expected 2 rows, found 1", 3),
        ],
    )
    def test_format_errors(self, text, message, line):
        with pytest.raises(MatrixFormatError) as err:
            parse_matrix(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    def test_tokens_read_as_int_literals(self):
        m = parse_matrix("1 6 12\n+1 01 -0 1_0 \u0663 1")
        assert m.entries == ((1, 1, 0, 10, 3, 1),)
        assert write_matrix(m) == "1 6 12\n1 1 0 10 3 1\n"

    @given(small_matrices())
    def test_round_trip(self, m):
        assert parse_matrix(write_matrix(m)) == m

    def test_writer_bit_exact(self):
        text = write_matrix(Matrix(((0, 1), (1, 0)), 2))
        assert text == "2 2 2\n0 1\n1 0\n"
        assert not any(line != line.rstrip() for line in text.splitlines())


# Tokens int() accepts in odd spellings, tokens it rejects, and values just
# outside small alphabets; the header is usually valid so rows get read.
# Single-character digits that are not ASCII reach the digit path's gate:
# int() reads the fullwidth "\uff13" as 3 and rejects "\u00b2", though
# both pass str.isdigit().
SOUP_TOKENS = [
    "0", "1", "2", "3", "6", "9", "+1", "01", "-0", "1_0", "\u0663", "\uff13", "\u00b2",
    "-1", "7", "12", "x", "1.0", "_1",
]


@st.composite
def token_soups(draw):
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(0, 4))
    # q = 10 and 11 sit on either side of the digit path's alphabet limit.
    q = draw(st.one_of(st.integers(1, 12), st.sampled_from([10, 11])))
    header = draw(
        st.sampled_from(
            [f"{n_rows} {n_cols} {q}"] * 6 + [f"{n_rows} {n_cols}", f"{n_rows} x {q}", f"0 {n_cols} {q}"]
        )
    )
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    lines = [header]
    for _ in range(n_rows + draw(st.sampled_from([0, 0, 0, 1, -1]))):
        width = max(0, n_cols + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
        tokens = [draw(st.sampled_from(SOUP_TOKENS)) for _ in range(width)]
        lines.append(draw(sep).join(tokens))
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "\t", "# c", "#", "# 1 2 x"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def entry_grids(draw):
    """(rows, q): q is often at most 12, where the digit writer runs, and
    entries lie in or just outside [0, q), or anywhere in half the grids."""
    q = draw(st.integers(1, 2**70) | st.integers(1, 12))
    entry = st.integers(-1, min(q, 12))
    if draw(st.booleans()):
        entry |= st.integers(-3, 2**70)
    return draw(st.lists(st.lists(entry, max_size=5), min_size=1, max_size=4)), q


class TestTextPathMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(token_soups())
    @example("1 3 12\n+1 01 \u0663\n")
    @example("2 3 2\n0 1 1\n1 7 x\n")
    # An entry out of range comes before any error on a later line.
    @example("2 2 2\n0 7\n0 1 1\n")
    @example("1 1 2\n5\n1\n")
    @example("2 2 2\n0 7\n")
    @example("2 2 2\n1 0\n3 -1\n")
    @example("1 3 10\n9 0 9\n")
    @example("1 3 11\n9 10 0\n")
    @example("2 2 4\n0 9\n+1 x\n")
    def test_parse_and_write(self, text):
        try:
            want = reference_parse_matrix(text)
        except MatrixFormatError as exc:
            with pytest.raises(MatrixFormatError) as err:
                parse_matrix(text)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
            return
        got = parse_matrix(text)
        assert got == want
        assert all(type(e) is int for row in got.entries for e in row)
        assert write_matrix(got) == reference_write_matrix(got)

    @given(entry_grids())
    @example(([[0, 1], [2, 9]], 5))
    @example(([[0, 1], [2]], 5))
    def test_matrix_checks_and_write(self, grid):
        rows, q = grid
        entries = tuple(map(tuple, rows))
        try:
            reference_check_entries(entries, q)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                Matrix(entries, q)
            assert str(err.value) == str(exc)
            return
        m = Matrix(entries, q)
        assert write_matrix(m) == reference_write_matrix(m)


class TestMatrixInvariants:
    @pytest.mark.parametrize("entry", [True, False, 1.0, Fraction(1), "1", None])
    def test_rejects_non_int_entries(self, entry):
        with pytest.raises(ValueError, match=r"^entry .+ in row 1 is not an int$"):
            Matrix(((0, 1, 0), (0, entry, 1)), 2)

    @pytest.mark.parametrize(
        "entries, q, message",
        [
            ([(0, 1)], 2, "entries must be a tuple of row tuples"),
            (((0, 1), [1, 0]), 2, "row 1 is not a tuple"),
            (((0, 1),), 2.0, "alphabet size 2.0 is not an int"),
            (((0, 1),), True, "alphabet size True is not an int"),
        ],
    )
    def test_rejects_mutable_rows_and_non_int_alphabet(self, entries, q, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Matrix(entries, q)

    def test_from_rows_casts(self):
        m = Matrix.from_rows([[True, 0.0, 1]], 2)
        assert m.entries == ((1, 0, 1),)
        assert write_matrix(m) == "1 3 2\n1 0 1\n"

    @pytest.mark.parametrize("entry", [1.7, "1", float("inf"), float("nan")])
    def test_from_rows_refuses_lossy_casts(self, entry):
        with pytest.raises(ValueError, match="^entry .* is not an integer$"):
            Matrix.from_rows([[entry, 0]], 2)

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            Matrix(((0, 3),), 2)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Matrix(((0, 1), (0,)), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Matrix((), 2)

    def test_column_access(self):
        m = Matrix(((0, 1), (2, 2)), 3)
        assert m.column(0) == (0, 2)
        assert m.columns() == [(0, 2), (1, 2)]

    def test_submatrix(self):
        m = Matrix(((0, 1, 2), (2, 1, 0)), 3)
        assert m.submatrix([2, 0]).entries == ((2, 0), (0, 2))


class TestSeparationType:
    def test_sorted_and_sums(self):
        w = SeparationType.of([3, 1])
        assert w.weights == (1, 3)
        assert (w.t, w.u) == (2, 4)

    def test_parse(self):
        assert SeparationType.parse("2,2").weights == (2, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SeparationType.of([0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SeparationType.parse("")

    def test_of_casts_lossless_weights(self):
        w = SeparationType.of([2.0, True])
        assert w.weights == (1, 2)
        assert all(type(x) is int for x in w.weights)


class TestGroupRows:
    def test_binary_pairs(self):
        m = Matrix(((0, 1), (1, 0)), 2)
        g = group_rows(m, 2)
        assert g.q == 4
        assert g.entries == ((1, 2),)

    def test_identity_group(self):
        m = Matrix(((0, 1), (1, 0)), 2)
        assert group_rows(m, 1) == m

    def test_base_q_encoding(self):
        m = Matrix(((0,), (1,), (2,)), 3)
        g = group_rows(m, 3)
        assert g.q == 27
        assert g.entries == ((5,),)

    def test_requires_divisibility(self):
        with pytest.raises(ValueError, match="does not divide"):
            group_rows(Matrix(((0,), (1,), (0,)), 2), 2)

    def test_overflow_guard(self):
        m = Matrix.from_rows([[0]] * 64, 5)
        with pytest.raises(OverflowError):
            group_rows(m, 64)

    @given(small_matrices(max_rows=4), st.sampled_from([1, 2]), st.sampled_from([1, 2]))
    def test_composition(self, m, a, b):
        if m.rows % (a * b) != 0:
            return
        assert group_rows(group_rows(m, a), b) == group_rows(m, a * b)

    @settings(max_examples=200)
    @given(small_matrices(max_rows=6, max_cols=6, max_q=5), st.integers(1, 6))
    def test_matches_digit_loop_reference(self, m, a):
        if m.rows % a != 0:
            return
        assert group_rows(m, a) == reference_group_rows(m, a)


class TestFrequencies:
    def test_symmetric(self):
        assert symbol_frequencies(Matrix(((0, 1),), 2)) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_constant(self):
        m = Matrix(((0, 0), (0, 0)), 2)
        assert symbol_frequencies(m) == (Fraction(1), Fraction(0))

    def test_direct_count(self):
        m = Matrix(((0, 1), (2, 0)), 3)
        assert symbol_frequencies(m) == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            symbol_frequencies(Matrix(((),), 2))

    @given(small_matrices())
    def test_sums_to_one(self, m):
        if m.cols == 0:
            return
        assert sum(symbol_frequencies(m)) == Fraction(1)
