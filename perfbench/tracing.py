"""The traced run: every public layer function, called in pipeline order.

For each request the benchmark calls, one after another, the public entry
points of each layer (parse, characters, cohomology, positivity, ampleness,
report, cli) on the request's character, and records one span per call:
name, request id, parent span, start and end.  Spans stay in memory and are
written out as JSON lines when the run ends.  Hypothesis failures
(``AmplecheckError``) are outcomes, not errors: the span is kept and the
sweep goes on.  Nothing inside ``amplecheck`` is patched; a layer's time is
the time of the calls into it.
"""

from __future__ import annotations

import json
import math
from time import perf_counter_ns

from amplecheck import (
    AmplecheckError,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    classify_global_generation,
    enumerate_bad_curves,
    h0_line_bundle,
    make_character,
    necessary_obstructions,
    nonspecial_all_twists,
    parse_character,
    parse_surface,
    wbn_applicable,
    wbn_cohomology,
)
from amplecheck.report import (
    bad_curves_report,
    gieseker_report,
    render_structured,
    render_text,
    run_report,
)

from workloads import cli_in_process

# Layer calls a report builder makes that the sweep also times on their
# own; the builder's self time is derived by subtracting them.
BUILDER_SECTIONS = {
    "report.run_report": (
        "cohomology.wbn",
        "positivity.necessary_obstructions",
        "positivity.classify_global_generation",
        "ampleness.ample_gg_verdict",
        "ampleness.asymptotic_ample_certificate",
    ),
    "report.bad_curves_report": ("ampleness.enumerate_bad_curves",),
    "report.gieseker_report": ("ampleness.asymptotic_ample_certificate",),
}

# The F0 family member at x = 200, where h0_line_bundle is timed when a
# workload's requests yield no bad-curve class at all.
H0_REFERENCE = ("F0", "2:400,3:-209")


class Tracer:
    """In-memory spans ``(request, name, parent index, start_ns, end_ns)``."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = ""
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = (self.request, name, parent, start, end)

    def outcome(self, name: str, fn, *args, **kwargs):
        """Like ``call``, but a hypothesis failure returns None."""
        try:
            return self.call(name, fn, *args, **kwargs)
        except AmplecheckError:
            return None

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its child spans."""
        child = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, _, start, end) in enumerate(self.spans)]

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for request, name, parent, start, end in self.spans:
                fh.write(json.dumps({"request": request, "name": name, "parent": parent, "start_ns": start, "end_ns": end}) + "\n")


def _wbn(v):
    if wbn_applicable(v):
        return wbn_cohomology(v)
    return None


def cli_argv(req) -> tuple[str, ...]:
    """The CLI call equivalent to an in-process request."""
    if req.kind == "cli":
        return req.argv
    if req.kind == "gieseker":
        return ("gieseker", "--d", str(req.d), "--format", "structured")
    return (req.kind, "--surface", req.surface, "--ch", req.ch, "--format", "structured")


def sweep(t: Tracer, req) -> dict:
    """Call every layer once on the request's character; return what it found."""
    facts: dict = {"classes": (), "reached": False, "bytes": 0, "structured": None}
    if req.ch:
        surface = t.call("surfaces.parse_surface", parse_surface, req.surface)
        v = t.call("characters.parse_character", parse_character, req.ch, surface)
        t.call("characters.make_character", make_character, v.rank, v.c1, v.ch2)
        twisted = t.call("characters.twist", v.twist, surface.canonical + surface.fiber_class)
        t.call("characters.euler_characteristic", twisted.euler_characteristic)
        t.call("cohomology.wbn", _wbn, v)
        t.outcome("cohomology.nonspecial_all_twists", nonspecial_all_twists, v)
        t.outcome("positivity.necessary_obstructions", necessary_obstructions, v)
        t.outcome("positivity.classify_global_generation", classify_global_generation, v)
        t.outcome("ampleness.ample_gg_verdict", ample_gg_verdict, v)
        bad = t.outcome("ampleness.enumerate_bad_curves", enumerate_bad_curves, v)
        if bad is not None:
            facts["reached"] = True
            facts["classes"] = tuple(b.curve.coords for b in bad)
            for b in bad:
                t.call("surfaces.h0_line_bundle", h0_line_bundle, b.curve)
        direct = (req.command or req.kind) == "gieseker"
        t.outcome("ampleness.asymptotic_ample_certificate", asymptotic_ample_certificate, v, 2, direct=direct)
        command = req.command or req.kind
        report = None
        if command == "report":
            report = t.call("report.run_report", run_report, surface, v)
        elif command == "bad-curves" and bad is not None:
            report = t.call("report.bad_curves_report", bad_curves_report, surface, v)
        elif command == "gieseker":
            report = t.call("report.gieseker_report", gieseker_report, req.d)
        if report is not None:
            facts["structured"] = t.call("report.render_structured", render_structured, report)
            facts["bytes"] = len(facts["structured"])
            t.call("report.render_text", render_text, report)
    facts["exit"], facts["cli_out"] = t.call("cli.main", cli_in_process, cli_argv(req))
    if req.kind == "cli":
        facts["bytes"] = len(facts["cli_out"])
    return facts


def h0_reference(t: Tracer) -> None:
    surface = parse_surface(H0_REFERENCE[0])
    for b in enumerate_bad_curves(parse_character(H0_REFERENCE[1], surface)):
        t.call("surfaces.h0_line_bundle", h0_line_bundle, b.curve)


def growth_exponent(pairs: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(members).

    0.0 when the member counts span less than a factor of 4, where a slope
    would say nothing.
    """
    pairs = [(m, ns) for m, ns in pairs if m > 0 and ns > 0]
    if not pairs or max(m for m, _ in pairs) < 4 * min(m for m, _ in pairs):
        return 0.0
    xs = [math.log(m) for m, _ in pairs]
    ys = [math.log(ns) for _, ns in pairs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_summary(t: Tracer, factors: dict[str, float]) -> dict:
    """Per span name: calls and total self time; per request: span durations.

    Times are nanoseconds scaled by the request's speed factor.
    """
    by_name: dict[str, list] = {}
    per_request: dict[str, dict[str, float]] = {}
    for (request, name, _, start, end), own in zip(t.spans, t.self_ns()):
        f = factors[request]
        entry = by_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own * f
        durations = per_request.setdefault(request, {})
        durations[name] = durations.get(name, 0.0) + (end - start) * f
    return {"by_name": by_name, "per_request": per_request}


def builder_self_ns(per_request: dict[str, dict[str, float]]) -> list[float]:
    """Derived: each builder call minus the section calls timed on their own."""
    out = []
    for durations in per_request.values():
        for builder, sections in BUILDER_SECTIONS.items():
            if builder in durations:
                out.append(durations[builder] - sum(durations.get(s, 0.0) for s in sections))
    return out
