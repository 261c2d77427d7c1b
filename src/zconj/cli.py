"""Command-line front end for the conjugacy toolkit.

One subcommand per library entry point: Smith invariants, split-spectrum
reports, the exponent assumption, the conjugacy decision procedure,
graph generators, the Smith-invariant lemma check, Jacobi sum
valuations, determinant-one lifts and the bundled fixture corpus.

Output is deterministic for fixed inputs and seeds.  Integers inside
JSON are decimal strings throughout.  Exit codes: 0 success, 1
malformed input, 2 unsupported input class, 3 negative verdict
(NOT_CONJUGATE, assumption fails, lemma or valuation mismatch,
fixture failure), 4 undecided, 5 internal error (a computed
certificate or identity failed its exact re-check, reported as
"error: internal: ..."; a bug, never a verdict).
"""

import argparse
import json
import sys
from pathlib import Path

from .conjugacy import DetNotOne, decide, sl_lift
from .corpus import FixtureError, load_corpus
from .graphs import NotThreeModFour, field_build, paley_adjacency, peisert_adjacency, verify_smith_lemma
from .linalg import snf_invariants
from .matrix import CertificateError, IntMatrix, MatrixFormatError
from .padic import TruncatedUnramifiedRing, digit_sum, jacobi_sum
from .spectral import NotSplit, check_assumption, split_spectrum

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_UNSUPPORTED = 2
EXIT_NEGATIVE = 3
EXIT_UNKNOWN = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for
    unsupported inputs, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, "%s: error: %s\n" % (self.prog, message))


def _print(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _print_json(obj):
    _print(json.dumps(obj, indent=2, sort_keys=True))


def _read_matrix(path: str) -> IntMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixFormatError("cannot read %s: %s" % (path, exc)) from exc
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError("%s: invalid JSON: %s" % (path, exc)) from exc
        return IntMatrix.from_json_obj(obj)
    return IntMatrix.from_text(text)


def _write_matrix(matrix: IntMatrix, path):
    Path(path).write_text(matrix.to_text())


def _cmd_snf(args) -> int:
    invariants = snf_invariants(_read_matrix(args.matrix))
    _print(" ".join(str(d) for d in invariants))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    m = _read_matrix(args.matrix)
    spectrum = split_spectrum(m)
    if args.emit_idempotents:
        out = Path(args.emit_idempotents)
        out.mkdir(parents=True, exist_ok=True)
        for i, e in enumerate(spectrum.idempotents, start=1):
            _write_matrix(e, out / ("E%d.txt" % i))
    _print_json(
        {
            "n": str(spectrum.n),
            "eigenvalues": [str(a) for a in spectrum.eigenvalues],
            "multiplicities": [str(a) for a in spectrum.multiplicities],
            "scales": [str(a) for a in spectrum.scales],
        }
    )
    return EXIT_OK


def _cmd_assume(args) -> int:
    m = _read_matrix(args.matrix)
    report = check_assumption(m)
    _print_json(report.to_json_obj())
    return EXIT_OK if report.holds else EXIT_NEGATIVE


def _cmd_decide(args) -> int:
    x = _read_matrix(args.x)
    y = _read_matrix(args.y)
    verdict = decide(x, y, budget=args.budget, search_budget=args.search_budget, seed=args.seed)
    _print_json(verdict.to_json_obj())
    if verdict.status == "CONJUGATE":
        return EXIT_OK
    if verdict.status == "NOT_CONJUGATE":
        return EXIT_NEGATIVE
    return EXIT_UNKNOWN


def _graph_command(args, build) -> int:
    field = field_build(args.p, 2 * args.t)
    adjacency = build(field)
    if args.out:
        _write_matrix(adjacency, args.out)
    else:
        sys.stdout.write(adjacency.to_text())
    return EXIT_OK


def _cmd_paley(args) -> int:
    return _graph_command(args, paley_adjacency)


def _cmd_peisert(args) -> int:
    return _graph_command(args, peisert_adjacency)


def _cmd_verify_lemma(args) -> int:
    report = verify_smith_lemma(args.p)
    _print_json(report.to_json_obj())
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_jacobi(args) -> int:
    ring = TruncatedUnramifiedRing(args.p, precision=args.precision)
    k = (ring.q - 1) // 2
    rows = []
    for j in range(1, k):
        record = jacobi_sum(j, ring)
        rows.append(
            {
                "j": str(j),
                "s": str(digit_sum(j, args.p)),
                "c": str(record.c_j),
                "valuation": str(record.valuation),
                "match": record.matches,
            }
        )
    all_match = all(row["match"] for row in rows)
    if args.json:
        _print_json(
            {
                "p": str(args.p),
                "precision": str(args.precision),
                "rows": rows,
                "all_match": all_match,
            }
        )
    else:
        _print("j s(j) c(j) valuation match")
        for row in rows:
            _print(
                "%s %s %s %s %s"
                % (row["j"], row["s"], row["c"], row["valuation"], "yes" if row["match"] else "no")
            )
    return EXIT_OK if all_match else EXIT_NEGATIVE


def _cmd_lift_sl(args) -> int:
    m = _read_matrix(args.matrix)
    lifted = sl_lift(m, args.q)
    sys.stdout.write(lifted.to_text())
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    corpus = load_corpus()
    failures = 0
    for fixture in corpus.fixtures:
        verdict = decide(fixture.x, fixture.y)
        ok = verdict.status == fixture.status
        if not ok:
            failures += 1
        _print(
            "%s: expected %s, got %s: %s"
            % (fixture.name, fixture.status, verdict.status, "pass" if ok else "FAIL")
        )
    total = len(corpus.fixtures)
    _print("%d/%d fixtures pass" % (total - failures, total))
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def _build_parser() -> _Parser:
    parser = _Parser(prog="zconj", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_snf = sub.add_parser("snf", help="Smith invariant factors of a matrix")
    p_snf.add_argument("matrix", help="matrix file, text or JSON")
    p_snf.set_defaults(func=_cmd_snf)

    p_spec = sub.add_parser("spectrum", help="split spectrum of a square matrix")
    p_spec.add_argument("matrix", help="matrix file, text or JSON")
    p_spec.add_argument(
        "--emit-idempotents",
        metavar="DIR",
        help="write the scaled idempotents as E1.txt, E2.txt, ...",
    )
    p_spec.set_defaults(func=_cmd_spectrum)

    p_assume = sub.add_parser(
        "assume", help="check the Smith exponent assumption on a split matrix"
    )
    p_assume.add_argument("matrix", help="matrix file, text or JSON")
    p_assume.set_defaults(func=_cmd_assume)

    p_decide = sub.add_parser("decide", help="decide GL_n(Z)-conjugacy of two matrices")
    p_decide.add_argument("x", help="first matrix file")
    p_decide.add_argument("y", help="second matrix file")
    p_decide.add_argument(
        "--budget",
        type=int,
        default=100000,
        help="random samples per local test (default 100000)",
    )
    p_decide.add_argument(
        "--search-budget",
        type=int,
        default=1000000,
        help="combination trials for conjugator search (default 1000000)",
    )
    p_decide.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_decide.set_defaults(func=_cmd_decide)

    for name, helptext, func in (
        ("paley", "Paley graph adjacency matrix over F_{p^{2t}}", _cmd_paley),
        ("peisert", "Peisert graph adjacency matrix over F_{p^{2t}}", _cmd_peisert),
    ):
        p_graph = sub.add_parser(name, help=helptext)
        p_graph.add_argument("p", type=int, help="prime congruent to 3 mod 4")
        p_graph.add_argument("--t", type=int, default=1, help="field degree is 2t (default 1)")
        p_graph.add_argument("--out", metavar="FILE", help="write here instead of stdout")
        p_graph.set_defaults(func=func)

    p_lemma = sub.add_parser(
        "verify-lemma",
        help="compare Smith invariants of the graph idempotents with the predicted multisets",
    )
    p_lemma.add_argument("p", type=int, help="prime congruent to 3 mod 4")
    p_lemma.set_defaults(func=_cmd_verify_lemma)

    p_jacobi = sub.add_parser("jacobi", help="Jacobi sum valuations versus the carry formula")
    p_jacobi.add_argument("p", type=int, help="prime congruent to 3 mod 4")
    p_jacobi.add_argument("--precision", type=int, default=4, help="p-adic precision (default 4)")
    p_jacobi.add_argument("--json", action="store_true", help="emit JSON instead of the text table")
    p_jacobi.set_defaults(func=_cmd_jacobi)

    p_lift = sub.add_parser(
        "lift-sl", help="lift a matrix with det = 1 mod q to an integral det-1 matrix"
    )
    p_lift.add_argument("matrix", help="matrix file, text or JSON")
    p_lift.add_argument("q", type=int, help="modulus")
    p_lift.set_defaults(func=_cmd_lift_sl)

    p_fix = sub.add_parser("fixtures", help="re-run the decision procedure on the bundled corpus")
    p_fix.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MALFORMED
    except FixtureError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MALFORMED
    except (NotSplit, NotThreeModFour, DetNotOne) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        # remaining precondition failures: non-square input, composite p
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CertificateError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
