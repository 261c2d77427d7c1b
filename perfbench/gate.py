"""Ground-truth gate: check every result against its construction.

Certificates are re-checked here with plain integer arithmetic (exact
products, a fraction-free determinant, elimination mod p), so a defect
in zconj's own verification cannot let a wrong certificate through.
Each check returns a list of problems; an empty list means the result
is correct.
"""

from __future__ import annotations

from gen import Pair, matmul


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for c in range(n - 1):
        if a[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if a[i][c]), None)
            if piv is None:
                return 0
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def det_mod(rows, p: int) -> int:
    a = [[v % p for v in r] for r in rows]
    n = len(a)
    out = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out = out * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(u - f * v) % p for u, v in zip(a[i], a[c])]
    return out % p


def intertwines(t, x, y) -> bool:
    """T X = Y T for square matrices of one size."""
    n = len(x)
    if len(t) != n or any(len(r) != n for r in t):
        return False
    return matmul(t, x) == matmul(y, t)


def is_conjugator(t, x, y, prime=None) -> bool:
    """T X = Y T with det T = +-1, or with det T a unit mod the prime."""
    if not intertwines(t, x, y):
        return False
    if prime is None:
        return abs(det(t)) == 1
    return det_mod(t, prime) != 0


def check_verdict(pair: Pair, verdict) -> list:
    """Problems with a decide verdict; UNKNOWN is allowed, not a problem."""
    problems = []
    x = [list(r) for r in pair.x]
    y = [list(r) for r in pair.y]
    if verdict.status in ("CONJUGATE", "NOT_CONJUGATE") and verdict.status != pair.expected:
        problems.append("verdict %s contradicts construction %s" % (verdict.status, pair.expected))
    if verdict.conjugator is not None and not is_conjugator(verdict.conjugator.to_lists(), x, y):
        problems.append("global conjugator fails re-verification")
    passed = set()
    for local in verdict.local:
        if local.certificate is None:
            continue
        if not is_conjugator(local.certificate.to_lists(), x, y, prime=local.prime):
            problems.append("local certificate at p=%d fails re-verification" % local.prime)
        elif local.status == "PASS":
            passed.add(local.prime)
    if verdict.reason == "theorem+local-passes":
        if any(local.status != "PASS" for local in verdict.local):
            problems.append("theorem verdict without a PASS at every prime")
        if pair.primes is not None and passed != set(pair.primes):
            problems.append("PASS certificates at %s, expected %s" % (sorted(passed), list(pair.primes)))
    proof = verdict.bqf_proof
    if proof is not None and verdict.status == "NOT_CONJUGATE" and proof.represents:
        problems.append("form certificate represents a unit")
    return problems


def _digit_sum(j: int, p: int) -> int:
    a, b = divmod(j % (p * p), p)
    return a + b


def check_smith_lemma(p: int, report) -> list:
    """Each projector has invariant factors 1, p, p^2 in the closed-form counts."""
    want = (1, (p + 1) ** 2 // 4 - 2, (p - 1) ** 2 // 4)
    problems = []
    if report.p != p or len(report.entries) != 4:
        problems.append("report for p=%s with %d entries" % (report.p, len(report.entries)))
    for entry in report.entries:
        inv = list(entry.invariants)
        got = (inv.count(1), inv.count(p), inv.count(p * p))
        if got != want or len(inv) != sum(want):
            problems.append("%s: invariant counts %s, expected %s" % (entry.name, got, want))
    return problems


def check_jacobi(p: int, records) -> list:
    """Valuation of alpha_j equals the digit formula c(j) for 1 <= j < k."""
    k = (p * p - 1) // 2
    if [r.j for r in records] != list(range(1, k)):
        return ["table for p=%d does not cover 1..%d" % (p, k - 1)]
    problems = []
    for r in records:
        c = (_digit_sum(r.j, p) + _digit_sum(k, p) - _digit_sum(r.j + k, p)) // (p - 1)
        if r.valuation != c:
            problems.append("p=%d j=%d: valuation %d, digit formula %d" % (p, r.j, r.valuation, c))
    return problems

