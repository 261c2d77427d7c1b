"""Bundled example pairs and their certificates.

Each fixture ships a matrix pair, its expected verdict, and the
witnesses backing it: local conjugators, a global conjugator, or the
binary quadratic form carrying the obstruction.  Everything is
re-verified at load time, so a corpus object in hand is already
checked evidence, not trusted data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .conjugacy import bqf_from_lattice, intertwiner_lattice, verify_conjugator
from .matrix import IntMatrix


class FixtureError(ValueError):
    """A bundled fixture failed its load-time verification."""


@dataclass(frozen=True)
class LocalCertificate:
    prime: int
    t: IntMatrix


@dataclass(frozen=True)
class Fixture:
    name: str
    about: str
    x: IntMatrix
    y: IntMatrix
    status: str
    local_certificates: tuple = ()
    conjugator: IntMatrix | None = None
    bqf: tuple | None = None


@dataclass(frozen=True)
class FixtureCorpus:
    fixtures: tuple = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.fixtures)

    def __len__(self) -> int:
        return len(self.fixtures)

    def get(self, name: str) -> Fixture:
        for fx in self.fixtures:
            if fx.name == name:
                return fx
        raise KeyError(name)


def _verify(fx: Fixture):
    if fx.status not in ("CONJUGATE", "NOT_CONJUGATE"):
        raise FixtureError("%s: unknown status %r" % (fx.name, fx.status))
    for cert in fx.local_certificates:
        if not verify_conjugator(cert.t, fx.x, fx.y, prime=cert.prime):
            raise FixtureError("%s: local certificate at p=%d failed" % (fx.name, cert.prime))
    if fx.conjugator is not None:
        if not verify_conjugator(fx.conjugator, fx.x, fx.y):
            raise FixtureError("%s: global conjugator failed" % fx.name)
    if fx.status == "CONJUGATE" and fx.conjugator is None:
        raise FixtureError("%s: conjugate fixture without witness" % fx.name)
    if fx.bqf is not None:
        form = bqf_from_lattice(intertwiner_lattice(fx.x, fx.y))
        if (form.a, form.b, form.c) != fx.bqf:
            raise FixtureError(
                "%s: stored form %s does not match computed %s"
                % (fx.name, fx.bqf, (form.a, form.b, form.c))
            )


def _parse(obj) -> Fixture:
    certs = []
    for cert in obj.get("local_certificates", ()):
        certs.append(LocalCertificate(prime=int(cert["p"]), t=IntMatrix.from_json_obj(cert["t"])))
    conj = obj.get("conjugator")
    bqf = obj.get("bqf")
    return Fixture(
        name=obj["name"],
        about=obj.get("about", ""),
        x=IntMatrix.from_json_obj(obj["x"]),
        y=IntMatrix.from_json_obj(obj["y"]),
        status=obj["status"],
        local_certificates=tuple(certs),
        conjugator=IntMatrix.from_json_obj(conj) if conj is not None else None,
        bqf=(int(bqf["a"]), int(bqf["b"]), int(bqf["c"])) if bqf is not None else None,
    )


def load_corpus() -> FixtureCorpus:
    """Load and re-verify every bundled fixture, sorted by file name."""
    root = resources.files("zconj") / "fixtures"
    fixtures = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        fx = _parse(json.loads(entry.read_text()))
        _verify(fx)
        fixtures.append(fx)
    if not fixtures:
        raise FixtureError("no fixtures bundled")
    return FixtureCorpus(fixtures=tuple(fixtures))
