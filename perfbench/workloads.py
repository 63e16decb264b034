"""Seeded request pools for the four workloads, and the calls that serve them.

Every input is generated here from the workload seed, as the ``r:c1:ch2``
text (or ``--log-ch`` text) a user would type; the program only ever sees
that text.  The same seed gives the same pool on every commit, so the
per-workload output digest compares answers across commits.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction

from amplecheck import classify_global_generation, parse_character, parse_surface
from amplecheck.cli import main as cli_main
from amplecheck.report import bad_curves_report, gieseker_report, render_structured, run_report

import lattice

SURFACES = ("P2", "F0", "F1", "F2", "F3")

# The 20-case acceptance corpus of the test suite: (command, surface, ch).
CORPUS = (
    ("invariants", "P2", "2:3:3/2"),
    ("invariants", "F3", "3:4,13:3"),
    ("obstructions", "P2", "2:3:1/2"),
    ("obstructions", "F1", "2:2,4:3"),
    ("gg", "P2", "3:0:0"),
    ("gg", "P2", "2:3:3/2"),
    ("gg", "F2", "2:0,3:0"),
    ("gg", "F1", "2:2,2:-2"),
    ("ample-gg", "P2", "2:4:0"),
    ("ample-gg", "P2", "2:3:1/2"),
    ("ample-gg", "F1", "2:3,5:5/2"),
    ("ample-gg", "F2", "2:3,8:2"),
    ("asymptotic", "P2", "2:3:1/2"),
    ("asymptotic", "P2", "2:20:-142"),
    ("asymptotic", "F1", "2:3,5:5/2"),
    ("asymptotic", "F0", "2:3,3:1"),
    ("bad-curves", "P2", "2:4:0"),
    ("bad-curves", "F1", "2:3,5:5/2"),
    ("report", "P2", "2:3:1/2"),
    ("report", "F2", "2:3,8:2"),
)

# Inputs the CLI must reject as malformed (exit 2) ...
MALFORMED = (
    ("invariants", "--surface", "F2", "--ch", "2:3,5:1/3"),
    ("invariants", "--surface", "Q7", "--ch", "2:3:0"),
    ("invariants", "--surface", "P2", "--ch", "nope"),
    ("invariants", "--surface", "P2", "--ch", "2:3:1.5"),
    ("invariants", "--surface", "P2", "--log-ch", "2:1/3:0"),
    ("report", "--surface", "P2", "--ch", "2:3"),
    ("frobnicate",),
)
# ... and inputs whose procedure hypotheses fail (exit 3).
PRECONDITION = (
    ("asymptotic", "--surface", "P2", "--ch", "2:2:0"),
    ("gg", "--surface", "P2", "--ch", "2:0:1"),
    ("bad-curves", "--surface", "P2", "--ch", "2:3:3/2"),
    ("gieseker", "--d", "3"),
)

# ROADMAP's non-terminating input; probed in a child process with a deadline.
HANG_ARGV = ("bad-curves", "--surface", "F0", "--ch", "2:400000,3:-200009", "--format", "structured")


@dataclass(frozen=True)
class Request:
    """One request. ``kind`` is report, gieseker, bad-curves or cli.

    ``surface`` and ``ch`` give the character the request is about in
    ``r:c1:ch2`` form, also when a ``cli`` request passes it in log form;
    both are empty for ``cli`` requests that must fail.
    """

    kind: str
    surface: str = ""
    ch: str = ""
    d: int = 0
    argv: tuple[str, ...] = ()
    expected_exit: int = 0
    command: str = ""


def _gg_slope_text(rng: random.Random, surface: str) -> str:
    """A character satisfying the slope hypotheses and global generation.

    Same shape as the test suite's ``random_gg_slope_character``: ranks 2-5,
    slopes pushed past every threshold, ``delta`` within a few units of the
    Bogomolov-type lower bound, rejected until globally generated.
    """
    parsed = parse_surface(surface)
    e = lattice.hirzebruch_e(surface)
    while True:
        rank = rng.randint(2, 5)
        if e is None:
            coords = (rank + rng.randint(2, 10),)
        else:
            p = rank + rng.randint(1, 8)
            q = rank + rng.randint(1, 8) if e == 0 else e * p + rank + rng.randint(0, 8)
            coords = (p, q)
        c1sq = lattice.self_intersection(surface, coords)
        c2 = -((-c1sq * (rank - 1)) // (2 * rank)) + rng.randint(0, 4)
        text = lattice.character_text(rank, coords, Fraction(c1sq, 2) - c2)
        if classify_global_generation(parse_character(text, parsed)).globally_generated:
            return text


def gieseker_text(d: int) -> str:
    """The rank-two cokernel character ``(2, (2d-4)H, 2-d^2)`` on the plane."""
    return lattice.character_text(2, (2 * d - 4,), Fraction(2 - d * d))


def certify_pool(rng: random.Random, size: int) -> list[Request]:
    """Globally generated slope characters on all five surfaces; every fifth
    request is ``gieseker_report(d)`` with d in 4..200."""
    pool = []
    for i in range(size):
        if i % 5 == 4:
            d = rng.randint(4, 200)
            pool.append(Request("gieseker", "P2", gieseker_text(d), d=d))
        else:
            surface = SURFACES[(i - i // 5) % len(SURFACES)]
            pool.append(Request("report", surface, _gg_slope_text(rng, surface)))
    rng.shuffle(pool)
    return pool


def screen_pool(rng: random.Random, size: int) -> list[Request]:
    """Valid characters uniform in the box rank 1-5, coordinates -8..8, c2 -15..15.

    Surface and rank take each of their values equally often; the rest is
    drawn at random.
    """
    pool = []
    for i in range(size):
        surface = SURFACES[i % len(SURFACES)]
        rank = 1 + i // len(SURFACES) % 5
        coords = tuple(rng.randint(-8, 8) for _ in range(1 if surface == "P2" else 2))
        c2 = rng.randint(-15, 15)
        ch2 = Fraction(lattice.self_intersection(surface, coords), 2) - c2
        pool.append(Request("report", surface, lattice.character_text(rank, coords, ch2)))
    rng.shuffle(pool)
    return pool


def families_pool(rng: random.Random, size: int, high: int = 4000) -> list[Request]:
    """The F0 series ``2:2x,3:-(x+9)``, x stratified log-uniformly over [200, high]."""
    pool = []
    for k in range(size):
        x = round(200 * (high / 200) ** ((k + rng.random()) / size))
        pool.append(Request("bad-curves", "F0", f"2:{2 * x},3:{-(x + 9)}"))
    rng.shuffle(pool)
    return pool


def _log_text(surface: str, ch: str) -> str:
    """``r:nu:delta`` for the character ``r:c1:ch2`` on ``surface``."""
    rank, coords, ch2 = lattice.parse_ch(ch)
    nu = ",".join(lattice.fmt(c / rank) for c in coords)
    return f"{rank}:{nu}:{lattice.fmt(lattice.delta_of(surface, rank, coords, ch2))}"


def cli_pool(rng: random.Random, size: int) -> list[Request]:
    """Half the pool cycles through the corpus, in seeded formats; then 15%
    each gieseker and log-form inputs, and 10% each malformed (exit 2) and
    precondition-failing (exit 3) inputs."""
    fmt = lambda: rng.choice(("text", "structured"))  # noqa: E731
    pool = []
    for i in range(size // 2):
        command, surface, ch = CORPUS[i % len(CORPUS)]
        argv = (command, "--surface", surface, "--ch", ch, "--format", fmt())
        pool.append(Request("cli", surface, ch, argv=argv, command=command))
    for _ in range(max(1, size * 3 // 20)):
        d = rng.randint(4, 200)
        argv = ("gieseker", "--d", str(d), "--format", fmt())
        pool.append(Request("cli", "P2", gieseker_text(d), d=d, argv=argv, command="gieseker"))
        command, surface, ch = rng.choice(CORPUS)
        argv = (command, "--surface", surface, "--log-ch", _log_text(surface, ch), "--format", fmt())
        pool.append(Request("cli", surface, ch, argv=argv, command=command))
    for i in range(max(2, size - len(pool))):
        code, choices = (2, MALFORMED) if i % 2 == 0 else (3, PRECONDITION)
        argv = rng.choice(choices)
        pool.append(Request("cli", argv=argv, expected_exit=code, command=argv[0]))
    rng.shuffle(pool)
    return pool


POOLS = {
    "certify": certify_pool,
    "screen": screen_pool,
    "families": families_pool,
    "cli": cli_pool,
}


def serve(req: Request) -> bytes:
    """The in-process call chain a request goes through: parse, build, render."""
    if req.kind == "gieseker":
        return render_structured(gieseker_report(req.d))
    surface = parse_surface(req.surface)
    v = parse_character(req.ch, surface)
    if req.kind == "report":
        return render_structured(run_report(surface, v))
    return render_structured(bad_curves_report(surface, v))


def cli_in_process(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """``amplecheck.cli.main`` in this process, with stdout captured as bytes."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="ascii", newline="\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    out.flush()
    return code, buf.getvalue()
