"""Correctness checks, run outside the timed region.

Every structured output is re-parsed and its character echo, invariants and
verdict fields are re-derived with the benchmark's own arithmetic
(``lattice``).  A seeded sample also goes through the test suite's
brute-force oracles (``tests/oracles.py``): the bad-curve set against a
scan of the ``naive_family_cutoff`` box, and ``n_min`` against a direct
search.  ``corrupt`` names pool indices whose expected answers are
deliberately falsified, so the self-check can see that a wrong answer is
counted.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracles
from amplecheck import parse_character, parse_surface

import lattice

# Above this box side the full square scan is too slow for a run; the scan
# then covers the strip min(a, b) <= 2, which holds every class of the
# shape list (the full scan also checks the shape list itself).
FULL_BOX_LIMIT = 90


def _rat(node: dict) -> Fraction:
    return Fraction(node["num"], node["den"])


def _bad_classes(report: dict) -> list[dict] | None:
    if "bad_curves" in report:
        return report["bad_curves"]["classes"]
    ample = report.get("ample_gg")
    if ample is not None and ample["verdict"] == "ample-general":
        return ample["bad_curves"]["classes"]
    return None


def oracle_bad_curves(v) -> set[tuple]:
    box = oracles.naive_family_cutoff(v) + 5
    if box <= FULL_BOX_LIMIT:
        return oracles.brute_force_bad_curves(v, box)
    surface = v.surface
    out = set()
    for a in range(box + 1):
        for b in range(box + 1) if a <= 2 else range(3):
            d = surface.divisor(a, b)
            if oracles.is_irreducible_curve_class(d) and oracles.chi_of_twist(v, d) < 0:
                out.add(d.coords)
    return out


class Checker:
    def __init__(self, deep: frozenset[int], corrupt: frozenset[int] = frozenset(), *, deep_ample: bool = False):
        self.deep = deep
        self.corrupt = corrupt
        self.deep_ample = deep_ample  # also check every ample-general verdict

    def check(self, k: int, req, code: int | None, out: bytes, expected: bytes | None = None) -> list[str]:
        """Problems with the answer to pool item ``k``; empty when correct.

        ``code`` is the exit status (0 for in-process calls, None when the
        deadline passed); ``expected`` the in-process bytes a CLI child must
        reproduce.
        """
        off = 1 if k in self.corrupt else 0
        if code is None:
            return ["missed its deadline"]
        if code != req.expected_exit + (off if req.kind == "cli" else 0):
            return [f"exit {code}, expected {req.expected_exit}"]
        if expected is not None and out != expected:
            return ["output differs from the in-process answer"]
        if code != 0 or not out.startswith(b"{"):
            return []
        try:
            report = json.loads(out.decode("ascii"))
        except ValueError as exc:
            return [f"structured output does not parse: {exc}"]
        try:
            problems = self._shallow(req, report, 0 if req.kind == "cli" else off)
            ample = self.deep_ample and report.get("verdict") == "ample-general"
            if k in self.deep or k in self.corrupt or ample:
                problems += self._deep(req, report, off)
        except (KeyError, TypeError) as exc:
            return [f"report lacks an expected field: {exc!r}"]
        return problems

    def _shallow(self, req, report: dict, off: int) -> list[str]:
        problems = []
        command = req.command or req.kind
        if report.get("command") != command:
            problems.append(f"command {report.get('command')!r}, expected {command!r}")
        rank, coords, ch2 = lattice.parse_ch(req.ch)
        ch = report["character"]
        if (ch["rank"], tuple(_rat(c) for c in ch["c1"]["coords"]), _rat(ch["ch2"])) != (rank, coords, ch2):
            problems.append(f"character echo {ch['text']} differs from input {req.ch}")
        inv = report.get("invariants")
        if inv is not None:
            chi = lattice.euler_characteristic(req.surface, rank, coords, ch2) + off
            if inv["euler_characteristic"] != chi:
                problems.append(f"chi {inv['euler_characteristic']}, Riemann-Roch gives {chi}")
            if _rat(inv["delta"]) != lattice.delta_of(req.surface, rank, coords, ch2):
                problems.append("delta differs from c1^2/(2r^2) - ch2/r")
        if command == "report" and report["verdict"] != report["ample_gg"]["verdict"]:
            problems.append("report verdict differs from the ample_gg verdict")
        classes = _bad_classes(report)
        if classes is not None and report.get("command") != "bad-curves":
            if not all(c["passes"] for c in classes):
                problems.append("ample-general with a failing dimension count")
        if command == "bad-curves" and not report["verdict"].startswith(f"{len(classes)} bad curve class(es)"):
            problems.append("bad-curves verdict does not count its classes")
        if command == "gieseker":
            d = req.d
            bound = 2 * Fraction((d - 1) ** 2, (d - 3) ** 2) - 1
            asym = report["asymptotic"]
            if _rat(asym["bound"]) != bound or asym["n_min"] != max(1, -((-bound.numerator) // bound.denominator)):
                problems.append("gieseker bound or n_min differs from 2(d-1)^2/(d-3)^2 - 1")
        return problems

    def _deep(self, req, report: dict, off: int) -> list[str]:
        problems = []
        surface = parse_surface(req.surface)
        v = parse_character(req.ch, surface)
        classes = _bad_classes(report)
        if classes is not None:
            got = {tuple(_rat(c) for c in cls["curve"]["coords"]) for cls in classes}
            expected = oracle_bad_curves(v)
            if off:
                expected.add(("corrupted",))
            if got != expected:
                problems.append(f"bad curves differ from brute force: {len(got)} vs {len(expected)} classes")
        asym = report.get("asymptotic")
        if asym is not None and "skipped" not in asym:
            base = parse_character(asym["base_character"]["text"], surface)
            n_min = oracles.brute_min_multiplier(base, asym["s"]) + off
            if asym["n_min"] != n_min:
                problems.append(f"n_min {asym['n_min']}, brute force gives {n_min}")
        return problems
