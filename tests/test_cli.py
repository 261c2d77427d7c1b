"""Command-line surface: output formats, exit codes, determinism."""

import json
import random
import subprocess
import sys
from math import prod

import pytest
from helpers import hidden, subprocess_env

import zconj.cli as cli
import zconj.graphs as graphs
from zconj.graphs import field_build, paley_adjacency, peisert_adjacency
from zconj.linalg import det, snf_invariants
from zconj.matrix import IntMatrix


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "zconj.cli", *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )


@pytest.fixture
def matfile(tmp_path):
    def write(name, rows):
        path = tmp_path / name
        path.write_text(IntMatrix(rows).to_text())
        return str(path)

    return write


def test_snf_identity(matfile):
    r = run("snf", matfile("i3.txt", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert r.returncode == 0
    assert r.stdout == "1 1 1\n"


def test_snf_has_no_transforms_flag(matfile, tmp_path):
    rect = matfile("rect.txt", [[2, 4, 4], [-6, 6, 12]])
    assert run("snf", rect).stdout == "2 6\n"
    r = run("snf", rect, "--transforms", str(tmp_path / "tr"))
    assert r.returncode == 1
    assert not (tmp_path / "tr").exists()


def test_snf_without_transforms_is_fast(matfile):
    # a 40 x 40 matrix a gcd elimination with transforms did not finish in 300 s
    rng = random.Random(7)
    rows = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    r = subprocess.run(
        [sys.executable, "-m", "zconj.cli", "snf", matfile("big.txt", rows)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert r.returncode == 0
    inv = tuple(int(v) for v in r.stdout.split())
    assert inv == snf_invariants(IntMatrix(rows))
    assert prod(inv) == abs(det(IntMatrix(rows).array))


def test_graph_generation(tmp_path):
    f9 = field_build(3, 2)
    r = run("paley", "3")
    assert r.returncode == 0
    assert r.stdout == paley_adjacency(f9).to_text()
    out = tmp_path / "xs9.txt"
    r = run("peisert", "3", "--out", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert IntMatrix.from_text(out.read_text()) == peisert_adjacency(f9)


def test_spectrum_with_idempotents(matfile, tmp_path):
    f9 = field_build(3, 2)
    a9 = matfile("a9.txt", paley_adjacency(f9).to_lists())
    r = run("spectrum", a9, "--emit-idempotents", str(tmp_path / "idem"))
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["eigenvalues"] == ["-2", "1", "4"]
    assert obj["multiplicities"] == ["4", "4", "1"]
    assert obj["n"] == "9"
    for i, q in enumerate(int(s) for s in obj["scales"]):
        e = IntMatrix.from_text((tmp_path / ("idem/E%d.txt" % (i + 1))).read_text()).array.astype(object)
        assert (e @ e == e * q).all()


def test_assume_exit_codes(matfile):
    f9 = field_build(3, 2)
    a9 = matfile("a9.txt", paley_adjacency(f9).to_lists())
    r = run("assume", a9)
    assert r.returncode == 0
    assert json.loads(r.stdout)["clause_b"] is True
    r = run("assume", matfile("x2.txt", [[1, 2], [0, 6]]))
    assert r.returncode == 3
    obj = json.loads(r.stdout)
    assert obj["clause_a"] is False and obj["clause_b"] is False


def test_decide_exit_codes_and_determinism(matfile):
    x2 = matfile("x2.txt", [[1, 2], [0, 6]])
    y2 = matfile("y2.txt", [[1, 1], [0, 6]])
    r = run("decide", x2, y2)
    assert r.returncode == 3
    obj = json.loads(r.stdout)
    assert (obj["status"], obj["reason"], list(obj["certificates"])) == ("NOT_CONJUGATE", "glue-invariant", ["glue"])
    # byte-identical on repeat
    again = run("decide", x2, y2)
    assert again.stdout == r.stdout and again.returncode == r.returncode
    r = run("decide", x2, x2)
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "CONJUGATE"


def test_decide_glue_pair_certificates(matfile):
    # README's d = 5 pair: the glue invariants alone decide it, and a
    # hidden copy gets only its built conjugator
    glue_x = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 5, 0], [0, 0, 0, 5]]
    glue_y = [[0, 0, 2, 0], [0, 0, 0, 1], [0, 0, 5, 0], [0, 0, 0, 5]]
    x = matfile("glue_X.txt", glue_x)
    r = run("decide", x, matfile("glue_Y.txt", glue_y))
    assert r.returncode == 3
    obj = json.loads(r.stdout)
    assert (obj["status"], obj["reason"], list(obj["certificates"])) == ("NOT_CONJUGATE", "glue-invariant", ["glue"])
    copy = hidden(IntMatrix(glue_x), random.Random(5)).to_lists()
    r = run("decide", x, matfile("copy.txt", copy))
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert (obj["status"], list(obj["certificates"])) == ("CONJUGATE", ["conjugator"])


def test_decide_past_int64_gap_exits_zero(matfile):
    # eigenvalue gap 2^63 + 5: the glue route once crashed here with an
    # OverflowError, printed a traceback and exited 1
    big = 2**63 + 5
    x, y = [[big, 0], [0, 0]], [[0, 0], [0, big]]
    r = run("decide", matfile("x.txt", x), matfile("y.txt", y))
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert (obj["status"], obj["reason"]) == ("CONJUGATE", "explicit-conjugator")
    t = IntMatrix.from_json_obj(obj["certificates"]["conjugator"])
    assert t * IntMatrix(x) == IntMatrix(y) * t and abs(det(t.array)) == 1


def test_decide_reads_json_matrices(matfile, tmp_path):
    jx = tmp_path / "x.json"
    jx.write_text(json.dumps(IntMatrix([[1, 2], [0, 6]]).to_json_obj()))
    r = run("decide", str(jx), matfile("y2.txt", [[1, 1], [0, 6]]))
    assert r.returncode == 3


def test_verify_lemma(matfile):
    r = run("verify-lemma", "7")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["ok"] is True
    assert len(obj["matrices"]) == 4
    assert run("verify-lemma", "5").returncode == 2


def test_jacobi_table():
    r = run("jacobi", "7")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "j s(j) c(j) valuation match"
    assert len(lines) == 24  # header + j = 1..23
    assert all(line.endswith(" yes") for line in lines[1:])
    r = run("jacobi", "3", "--json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["all_match"] is True
    assert len(obj["rows"]) == 3
    assert obj["rows"][0] == {
        "c": "0",
        "j": "1",
        "match": True,
        "s": "1",
        "valuation": "0",
    }


def test_jacobi_unusable_precision_exits_two():
    # below 1 the ring is refused; at 1 some Jacobi sum vanishes mod p, so
    # its valuation is unreadable.  Either is an error line, no traceback
    for precision in ("0", "-2", "1"):
        r = run("jacobi", "7", "--precision", precision)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "internal" not in r.stderr
        assert "Traceback" not in r.stderr


def test_lift_sl(matfile):
    r = run("lift-sl", matfile("m7.txt", [[7, 0], [0, 1]]), "6")
    assert r.returncode == 0
    lifted = IntMatrix.from_text(r.stdout)
    assert det(lifted.array) == 1
    base = [[7, 0], [0, 1]]
    assert all((lifted[i, j] - base[i][j]) % 6 == 0 for i in range(2) for j in range(2))
    r = run("lift-sl", matfile("m2.txt", [[2, 0], [0, 1]]), "6")
    assert r.returncode == 2


def test_fixtures_command():
    r = run("fixtures")
    assert r.returncode == 0
    assert r.stdout.splitlines()[-1] == "3/3 fixtures pass"
    assert "paley-peisert-9: expected CONJUGATE, got CONJUGATE: pass" in r.stdout


def test_malformed_input_exits_one(matfile, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2 3\n")
    assert run("snf", str(bad)).returncode == 1
    assert run("snf", str(tmp_path / "missing.txt")).returncode == 1
    assert run().returncode == 1  # no subcommand
    assert run("snf").returncode == 1  # missing operand
    assert run("nope").returncode == 1  # unknown subcommand


def test_unsupported_input_exits_two(matfile):
    rect = matfile("rect.txt", [[2, 4, 4], [-6, 6, 12]])
    assert run("decide", rect, rect).returncode == 2  # non-square
    assert run("paley", "5").returncode == 2  # 1 mod 4
    assert run("paley", "9").returncode == 2  # composite
    rot = matfile("rot.txt", [[0, -1], [1, 0]])
    assert run("spectrum", rot).returncode == 2  # irrational spectrum
    assert run("assume", rot).returncode == 2


def test_help_exits_zero():
    r = run("--help")
    assert r.returncode == 0
    assert "decide" in r.stdout


def test_internal_error_exits_five(matfile, monkeypatch, capsys):
    # a failed certificate re-check is a bug, not malformed input
    x = matfile("x.txt", [[1, 2], [0, 3]])
    y = matfile("y.txt", [[1, 0], [0, 3]])
    code = (
        "import sys\n"
        "import zconj.cli as cli\n"
        "import zconj.conjugacy as c\n"
        "c.verify_conjugator = lambda *args, **kwargs: False\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, "decide", x, y],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert r.returncode == 5
    assert r.stderr.startswith("error: internal: ")
    assert r.stdout == ""
    # so is a field with no primitive polynomial
    monkeypatch.setattr(graphs, "_root_is_primitive", lambda *args: False)
    assert cli.main(["paley", "3"]) == 5
    assert capsys.readouterr().err.startswith("error: internal: ")
