"""Command-line surface: output formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest
from helpers import subprocess_env

from zconj.graphs import field_build, paley_adjacency, peisert_adjacency
from zconj.linalg import det
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


def test_snf_transforms(matfile, tmp_path):
    rect = matfile("rect.txt", [[2, 4, 4], [-6, 6, 12]])
    r = run("snf", rect, "--transforms", str(tmp_path / "tr"))
    assert r.returncode == 0
    assert r.stdout == "2 6\n"
    u = IntMatrix.from_text((tmp_path / "tr/U.txt").read_text())
    d = IntMatrix.from_text((tmp_path / "tr/D.txt").read_text())
    v = IntMatrix.from_text((tmp_path / "tr/V.txt").read_text())
    x = IntMatrix([[2, 4, 4], [-6, 6, 12]])
    assert u * x * v == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1


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
        e = IntMatrix.from_text((tmp_path / ("idem/E%d.txt" % (i + 1))).read_text())
        assert e * e == e * q


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
    assert obj["status"] == "NOT_CONJUGATE"
    assert "bqf" in obj["certificates"]
    # byte-identical on repeat
    again = run("decide", x2, y2)
    assert again.stdout == r.stdout and again.returncode == r.returncode
    r = run("decide", x2, x2)
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "CONJUGATE"


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


def test_lift_sl(matfile):
    r = run("lift-sl", matfile("m7.txt", [[7, 0], [0, 1]]), "6")
    assert r.returncode == 0
    lifted = IntMatrix.from_text(r.stdout)
    assert det(lifted) == 1
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
