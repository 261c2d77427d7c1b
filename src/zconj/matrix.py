"""Exact integer matrices at the package boundary, and the product kernel.

The boundary rule: the names in zconj.__all__, and the objects they
return (Verdict, LocalVerdict, SplitSpectrum, PaleyPeisertData, the
intertwiner lattice's aligned, closed_form and basis, the corpus), take
and hold IntMatrix; every other function takes and returns integer
arrays.  An IntMatrix holds one read-only 2-D numpy array, of dtype
int_dtype of its largest entry magnitude (int64 below 2^62, object from
there on), so equal matrices hold equal arrays.  It has no elementwise
arithmetic; its one product is verify_conjugator's re-check of TX = YT.
Callers pass .array on; algorithms that mutate entries work on a copy.

Every exact integer product in the package is matmul(a, b, bound), with
bound covering the operands' entries and every partial sum of a @ b:
float32 through BLAS (sgemm) while bound < 2^24 and float64 (dgemm)
while bound < 2^53, where every partial sum and fused multiply-add is an
integer held exactly in the float's significand, so either is exact in
any summation order (FFLAS-FFPACK chooses its float type by the same
rule); int64 while bound < 2^62; object (Python ints) from there on.
Its residue twin is modular.reduce_mod(x, q): every whole-array
reduction mod q is x - q (x // q), in place on an int64 x the caller
gives up, and on Python ints for an object x or q past int64; scalars
and per-pivot rows and vectors keep %.

Serialization formats:

* text: first line "rows cols", then one whitespace-separated row per line
* JSON: an object with "rows", "cols", "entries", every integer written
  as a decimal string so readers with fixed-width integers cannot be
  tricked by large entries
"""

from __future__ import annotations

import numpy as np


class MatrixFormatError(ValueError):
    """Raised when matrix text or JSON input is malformed."""


class CertificateError(AssertionError):
    """A computed certificate, basis or identity failed its exact re-check.

    Raised explicitly, so every check still runs under python -O.
    """


_INT64_LIMIT = 1 << 62
_FLOAT64_EXACT = 1 << 53
_FLOAT32_EXACT = 1 << 24


def int_dtype(*bounds):
    """numpy dtype for exact integer work whose magnitudes stay within bounds.

    Each bound must cover every intermediate magnitude of the computation
    it stands for.  int64 when all are below 2^62, otherwise object,
    which runs the same numpy code on Python ints.
    """
    return np.int64 if max(bounds) < _INT64_LIMIT else object


def max_abs(a) -> int:
    """Largest magnitude of the entries of the integer array a (0 if empty)."""
    return int(np.abs(a).max()) if a.size else 0


def product_dtype(bound):
    """dtype matmul multiplies in under bound: float32 below 2^24, float64
    below 2^53, else int_dtype(bound)."""
    if bound < _FLOAT32_EXACT:
        return np.float32
    return np.float64 if bound < _FLOAT64_EXACT else int_dtype(bound)


def matmul(a, b, bound):
    """a @ b of integer arrays, stacked as numpy's @ allows, exactly and
    with dtype int_dtype(bound) (rule above); bound >= every |entry| of a
    and b and max |a| * max |b| * inner dimension.  The operands are
    multiplied in product_dtype(bound): one already held in it, a float
    array of integers included, is not copied, and a shared operand (a
    is b) is cast once.  On Python ints a float operand goes through
    int64, so no entry becomes a float."""
    dtype = product_dtype(bound)
    if dtype is object:
        a, b = (v.astype(np.int64) if v.dtype.kind == "f" else v for v in (a, b))
    fa = a.astype(dtype, copy=False)
    r = fa @ (fa if b is a else b.astype(dtype, copy=False))
    return r.astype(np.int64) if r.dtype.kind == "f" else r


def _entries(rows):
    """rows (nested sequences or an array) as a 2-D array of integers:
    a copy of an integer or boolean array, else an object array of ints."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "biu":
        a = rows.copy()
    else:
        a = np.array(rows, dtype=object)  # ragged rows: a 1-D array of rows
    if a.ndim != 2 or not a.size:
        raise MatrixFormatError("matrix needs at least one row and column and rows of equal length")
    if a.dtype == object:
        kinds = set(map(type, a.flat))
        if not all(issubclass(k, (int, np.integer)) for k in kinds):
            raise MatrixFormatError("non-integer matrix entry")
        if not kinds <= {int}:
            a = np.frompyfunc(int, 1, 1)(a)
    return a


class IntMatrix:
    __slots__ = ("_a", "_bound")

    def __init__(self, rows):
        self._set(_entries(rows))

    def _set(self, a):
        bound = max(int(a.max()), -int(a.min()))
        a = a.astype(int_dtype(bound), copy=False)
        a.flags.writeable = False
        self._a, self._bound = a, bound

    @classmethod
    def _of(cls, a):
        """IntMatrix on the integer array a, int64 or object holding
        Python ints, that no other code writes to."""
        m = cls.__new__(cls)
        m._set(a)
        return m

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(np.eye(n, dtype=np.int64))

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        return cls(np.diag(np.array(list(entries), dtype=object)))

    # -- shape and access ---------------------------------------------

    @property
    def nrows(self) -> int:
        return self._a.shape[0]

    @property
    def ncols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self):
        """The entries as a read-only 2-D array of dtype int_dtype(max |entry|)."""
        return self._a

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return int(self._a[i, j])

    def to_lists(self):
        return self._a.tolist()

    # -- products -------------------------------------------------------

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ma, mb = self._bound, other._bound
        return IntMatrix._of(matmul(self._a, other._a, max(ma, mb, ma * mb * self.ncols)))

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self._bound == other._bound
            and self._a.shape == other._a.shape
            and bool((self._a == other._a).all())
        )

    def __hash__(self):
        return hash(tuple(map(tuple, self._a.tolist())))

    def __repr__(self):
        return "IntMatrix(%r)" % (self.to_lists(),)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = ["%d %d" % (self.nrows, self.ncols)]
        lines.extend(" ".join(map(str, row)) for row in self.to_lists())
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
        return cls(np.array(entries, dtype=object).reshape(nrows, ncols))

    def to_json_obj(self):
        return {
            "rows": str(self.nrows),
            "cols": str(self.ncols),
            "entries": [[str(a) for a in row] for row in self.to_lists()],
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
