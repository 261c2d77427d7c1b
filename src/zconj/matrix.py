"""Exact integer matrices with arbitrary-precision entries.

Entries are Python ints, so nothing here ever overflows or rounds.  The
class is deliberately small: algorithms that need to mutate rows work on
plain lists of lists and wrap the result at the end.

Serialization formats:

* text: first line "rows cols", then one whitespace-separated row per line
* JSON: an object with "rows", "cols", "entries", every integer written
  as a decimal string so readers with fixed-width integers cannot be
  tricked by large entries
"""

from __future__ import annotations

from math import gcd

import numpy as np


class MatrixFormatError(ValueError):
    """Raised when matrix text or JSON input is malformed."""


class CertificateError(AssertionError):
    """A computed certificate, basis or identity failed its exact re-check.

    Raised explicitly, so every check still runs under python -O.
    """


_INT64_LIMIT = 1 << 62


def int_dtype(*bounds):
    """numpy dtype for exact integer work whose magnitudes stay within bounds.

    Each bound must cover every intermediate magnitude of the computation
    it stands for.  int64 when all are below 2^62, otherwise object,
    which runs the same numpy code on Python ints.
    """
    return np.int64 if max(bounds) < _INT64_LIMIT else object


class IntMatrix:
    __slots__ = ("_rows",)

    def __init__(self, rows):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise MatrixFormatError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise MatrixFormatError("ragged rows in matrix")
        self._rows = data

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- shape and access ---------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def rows(self):
        return self._rows

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def row(self, i):
        return self._rows[i]

    def to_lists(self):
        return [list(r) for r in self._rows]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self._rows])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[a * other for a in row] for row in self._rows])
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ma = max(max(map(max, self._rows)), -min(map(min, self._rows)))
        mb = max(max(map(max, other._rows)), -min(map(min, other._rows)))
        dtype = int_dtype(ma, mb, ma * mb * self.ncols)
        prod = np.array(self._rows, dtype=dtype) @ np.array(other._rows, dtype=dtype)
        return IntMatrix(prod.tolist())

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self._rows)))

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return sum(self._rows[i][i] for i in range(self.nrows))

    def content(self) -> int:
        """gcd of all entries (0 for the zero matrix)."""
        g = 0
        for row in self._rows:
            for a in row:
                g = gcd(g, a)
        return g

    def is_zero(self) -> bool:
        return all(a == 0 for row in self._rows for a in row)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return "IntMatrix(%r)" % (self.to_lists(),)

    def _check_same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = ["%d %d" % (self.nrows, self.ncols)]
        lines.extend(" ".join(str(a) for a in row) for row in self._rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        tokens = text.split()
        if len(tokens) < 2:
            raise MatrixFormatError("missing matrix header")
        try:
            nrows, ncols = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise MatrixFormatError("header must be two integers") from exc
        if nrows <= 0 or ncols <= 0:
            raise MatrixFormatError("matrix dimensions must be positive")
        body = tokens[2:]
        if len(body) != nrows * ncols:
            raise MatrixFormatError(
                "expected %d entries, found %d" % (nrows * ncols, len(body))
            )
        try:
            entries = [int(t) for t in body]
        except ValueError as exc:
            raise MatrixFormatError("non-integer matrix entry") from exc
        return cls(
            [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        )

    def to_json_obj(self):
        return {
            "rows": str(self.nrows),
            "cols": str(self.ncols),
            "entries": [[str(a) for a in row] for row in self._rows],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "IntMatrix":
        if not isinstance(obj, dict):
            raise MatrixFormatError("matrix JSON must be an object")
        try:
            nrows = int(obj["rows"])
            ncols = int(obj["cols"])
            entries = obj["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MatrixFormatError("bad matrix JSON header") from exc
        if not isinstance(entries, list) or len(entries) != nrows:
            raise MatrixFormatError("bad matrix JSON entry table")
        rows = []
        for row in entries:
            if not isinstance(row, list) or len(row) != ncols:
                raise MatrixFormatError("bad matrix JSON row")
            try:
                rows.append([int(x) for x in row])
            except (TypeError, ValueError) as exc:
                raise MatrixFormatError("non-integer matrix JSON entry") from exc
        return cls(rows)


def int_from_json(value) -> int:
    """Parse one integer serialized as a decimal string."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise MatrixFormatError("expected a decimal-string integer")
    try:
        return int(value)
    except ValueError as exc:
        raise MatrixFormatError("expected a decimal-string integer") from exc
