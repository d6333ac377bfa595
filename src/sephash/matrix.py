"""Core matrix model for separating hash families.

A family of N functions from an n-set to a q-set is stored as an N x n
matrix over the alphabet {0, ..., q-1}.  Matrices are immutable after
construction and every operation here is pure, so values can be shared
freely across threads.

The text file format is:

    N n q          <- header, space-separated decimals
    <row 0>        <- n space-separated symbols in 0..q-1
    ...
    <row N-1>

Lines starting with '#' are comments and are ignored (blank lines too).
Writers are bit-exact: no trailing whitespace, single trailing newline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# group_rows builds symbols up to q**a; keep them a sane machine size so
# downstream arithmetic and file output stay practical.
_MAX_GROUPED_ALPHABET = 2**62


class CertificationError(RuntimeError):
    """A result failed the re-check it must pass before being returned."""


def _certify(holds: bool, claim: str) -> None:
    # An explicit raise, unlike assert, still runs under python -O.
    if not holds:
        raise CertificationError(f"self-check failed: {claim}")


class MatrixFormatError(ValueError):
    """Malformed matrix file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Matrix:
    """Immutable N x n matrix over the alphabet {0, ..., q-1}.

    entries is a tuple of row tuples.  N >= 1 and q >= 1 always; n may be
    zero (a family with no columns).
    """

    entries: tuple[tuple[int, ...], ...]
    q: int

    def __post_init__(self):
        if not self.entries:
            raise ValueError("matrix needs at least one row")
        if self.q < 1:
            raise ValueError("alphabet size must be >= 1")
        width = len(self.entries[0])
        for i, row in enumerate(self.entries):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
            for e in row:
                if not 0 <= e < self.q:
                    raise ValueError(f"entry {e} in row {i} outside [0, {self.q})")

    @classmethod
    def from_rows(cls, rows, q: int) -> "Matrix":
        return cls(tuple(tuple(int(e) for e in row) for row in rows), q)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries))

    def submatrix(self, column_indices) -> "Matrix":
        """Matrix restricted to the given columns, in the given order."""
        idx = list(column_indices)
        for j in idx:
            if not 0 <= j < self.cols:
                raise IndexError(f"column index {j} out of range")
        return Matrix(tuple(tuple(row[j] for j in idx) for row in self.entries), self.q)


@dataclass(frozen=True)
class SeparationType:
    """A sorted multiset {w1 <= ... <= wt} of positive part sizes."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("separation type needs at least one weight")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if list(self.weights) != sorted(self.weights):
            raise ValueError("weights must be sorted ascending")

    @classmethod
    def of(cls, weights) -> "SeparationType":
        return cls(tuple(sorted(int(w) for w in weights)))

    @classmethod
    def parse(cls, spec: str) -> "SeparationType":
        """Parse a comma-separated weight list such as "2,2" or "1,3"."""
        try:
            parts = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ValueError(f"bad type spec {spec!r}: {exc}") from None
        if not parts:
            raise ValueError(f"bad type spec {spec!r}: no weights")
        return cls.of(parts)

    @property
    def t(self) -> int:
        return len(self.weights)

    @property
    def u(self) -> int:
        return sum(self.weights)

    def __str__(self) -> str:
        return "{" + ",".join(str(w) for w in self.weights) + "}"


def normalize_weights(weights) -> SeparationType:
    """Accept a SeparationType or any iterable of positive ints."""
    if isinstance(weights, SeparationType):
        return weights
    return SeparationType.of(weights)


def parse_matrix(text: str) -> Matrix:
    """Parse the matrix file format; errors report 1-based line numbers."""
    content = [
        (lineno, fields)
        for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1)
        if fields and not fields[0].startswith("#")
    ]
    if not content:
        raise MatrixFormatError("empty input: missing header")
    (header_line, header), *body = content
    if len(header) != 3:
        raise MatrixFormatError("header must be 'N n q'", header_line)
    try:
        n_rows, n_cols, q = map(int, header)
    except ValueError:
        raise MatrixFormatError("header must contain integers", header_line) from None
    if n_rows < 1 or n_cols < 0 or q < 1:
        raise MatrixFormatError("header requires N >= 1, n >= 0, q >= 1", header_line)
    rows: list[tuple[int, ...]] = []
    for lineno, fields in body:
        if len(rows) >= n_rows:
            raise MatrixFormatError("unexpected content after last row", lineno)
        if len(fields) != n_cols:
            raise MatrixFormatError(
                f"row has {len(fields)} entries, expected {n_cols}", lineno
            )
        try:
            row = tuple(map(int, fields))
        except ValueError:
            raise MatrixFormatError("row entries must be integers", lineno) from None
        for e in row:
            if not 0 <= e < q:
                raise MatrixFormatError(f"entry {e} out of range [0, {q})", lineno)
        rows.append(row)
    if n_cols == 0:
        # Zero-width rows carry no text; synthesize them.
        rows = [()] * n_rows
    if len(rows) != n_rows:
        raise MatrixFormatError(
            f"expected {n_rows} rows, found {len(rows)}", header_line
        )
    return Matrix(tuple(rows), q)


def write_matrix(m: Matrix) -> str:
    """Render a matrix in the text format (bit-exact, trailing newline)."""
    lines = [f"{m.rows} {m.cols} {m.q}"]
    if m.cols > 0:
        lines.extend(" ".join(str(e) for e in row) for row in m.entries)
    return "\n".join(lines) + "\n"


def group_rows(m: Matrix, a: int) -> Matrix:
    """Stack groups of a consecutive rows into single rows over q**a symbols.

    New entry = base-q encoding of the a stacked entries, topmost digit most
    significant.  Requires a to divide N exactly; no padding is performed.
    """
    if a < 1:
        raise ValueError("group size must be >= 1")
    if m.rows % a != 0:
        raise ValueError(f"group size {a} does not divide row count {m.rows}")
    new_q = m.q**a
    if new_q > _MAX_GROUPED_ALPHABET:
        raise OverflowError(f"grouped alphabet {m.q}**{a} exceeds symbol limit")
    if a == 1:
        return m
    new_rows = []
    for g in range(m.rows // a):
        block = m.entries[g * a : (g + 1) * a]
        row = []
        for j in range(m.cols):
            sym = 0
            for r in range(a):
                sym = sym * m.q + block[r][j]
            row.append(sym)
        new_rows.append(tuple(row))
    return Matrix(tuple(new_rows), new_q)


def symbol_frequencies(m: Matrix) -> tuple[Fraction, ...]:
    """Exact fraction of each symbol among the N*n entries; sums to 1."""
    if m.cols == 0:
        raise ValueError("frequencies undefined for a matrix with no columns")
    counts = [0] * m.q
    for row in m.entries:
        for e in row:
            counts[e] += 1
    total = m.rows * m.cols
    return tuple(Fraction(c, total) for c in counts)
