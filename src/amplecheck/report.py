"""Report assembly: one deterministic, exactly-rational view of all verdicts.

Reports are plain dicts of JSON-native values built in a fixed key order, so
the structured rendering is byte-identical across runs and round-trips
through ``json.loads``.  The exception is ``classes``: it holds ``BadCurve``
records until rendering writes each as ``bad_curve_to_json`` lays it out.
Every rational is rendered as ``{"num", "den"}``; no floating point value
ever appears.  Each section carries a ``tag`` naming the criterion that
backs its verdict, drawn from ``VERDICT_TAGS``.

Every report, of the full pipeline or of one command, is wrapped by
``build_report``: ``schema_version``, ``command``, ``surface`` and
``character`` first, then the sections, then ``verdict`` last, which
``render_text`` writes as its final ``verdict:`` line.  A section whose
preconditions fail is not omitted: ``_section``, the one place this rule is
written, gives it a ``skipped`` entry naming the failing precondition.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .ampleness import (
    AmpleGGCertificate,
    AsymptoticCertificate,
    BadCurve,
    ample_gg_verdict,
    asymptotic_ample_certificate,
    enumerate_bad_curves,
    gieseker_character,
)
from .characters import ChernCharacter
from .cohomology import NonspecialTrace, WbnApplicability, wbn_applicable, wbn_cohomology
from .errors import PreconditionError
from .positivity import (
    Condition,
    GGClassification,
    ObstructionReport,
    classify_global_generation,
    gg_quick_criterion,
    necessary_obstructions,
)
from .rationals import rational_to_json
from .surfaces import DivisorClass, Surface

SCHEMA_VERSION = "1"

VERDICT_TAGS = frozenset(
    {
        "riemann-roch",
        "weak-brill-noether",
        "ampleness-obstructions",
        "gg-classification",
        "gg-quick-criterion",
        "nonspecial-twists",
        "bad-curves",
        "dimension-count",
        "ample-globally-generated",
        "asymptotic-ampleness",
        "kernel-discriminant",
    }
)


def divisor_to_json(d: DivisorClass) -> dict:
    return {
        "basis": list(d.surface.basis),
        "coords": [rational_to_json(c) for c in d.coords],
        "text": str(d),
    }


def character_to_json(v: ChernCharacter) -> dict:
    return {
        "rank": v.rank,
        "c1": divisor_to_json(v.c1),
        "ch2": rational_to_json(v.ch2),
        "c2": v.c2,
        "text": str(v),
    }


def condition_to_json(c: Condition) -> dict:
    return {
        "id": c.id,
        "text": c.text,
        "holds": c.holds,
        "margin": rational_to_json(c.margin),
    }


def _wbn_to_json(w: WbnApplicability) -> dict:
    """Only the applicability: the certificate that renders it requires it."""
    return {"applicable": w.applicable, "failures": list(w.failures)}


def invariants_section(v: ChernCharacter) -> dict:
    return {
        "tag": "riemann-roch",
        "mu": rational_to_json(v.mu),
        "nu": divisor_to_json(v.nu),
        "delta": rational_to_json(v.delta),
        "euler_characteristic": v.euler_characteristic(),
    }


def cohomology_section(v: ChernCharacter) -> dict:
    applicability = wbn_applicable(v)
    if not applicability:
        return {
            "tag": "weak-brill-noether",
            "skipped": "hypotheses fail: " + ", ".join(applicability.failures),
        }
    triple = wbn_cohomology(v)
    return {
        "tag": "weak-brill-noether",
        "general_bundle": "cohomology of the general prioritary bundle",
        "h0": triple.h0,
        "h1": triple.h1,
        "h2": triple.h2,
    }


def obstructions_section(report: ObstructionReport) -> dict:
    out = {
        "tag": "ampleness-obstructions",
        "stability_assumed": report.stability_assumed,
        "conditions": [condition_to_json(c) for c in report.conditions],
        "verdict": report.verdict.value,
    }
    if report.note:
        out["note"] = report.note
    return out


def _section(tag: str, build) -> dict:
    """``build()``, or the ``tag`` section's ``skipped`` entry if a precondition fails."""
    try:
        return build()
    except PreconditionError as exc:
        return {"tag": tag, "skipped": str(exc)}


def classified_gg_section(v: ChernCharacter, gg: GGClassification) -> dict:
    """The ``global_generation`` section of ``v`` from its classification ``gg``."""
    out = gg_to_json(gg)
    out["quick_criterion"] = _section(
        "gg-quick-criterion",
        lambda: {"tag": "gg-quick-criterion", "sufficient": gg_quick_criterion(v)},
    )
    return out


def gg_to_json(gg: GGClassification) -> dict:
    out: dict = {"tag": "gg-classification", "globally_generated": gg.globally_generated}
    if gg.globally_generated:
        out["case"] = gg.case
        out["case_description"] = gg.description
    else:
        out["failed_condition"] = gg.failed_condition
    if gg.chi is not None:
        out["chi"] = gg.chi
    if gg.chi_twist is not None:
        out["chi_twist"] = gg.chi_twist
    if gg.chi_twist_second is not None:
        out["chi_twist_second"] = gg.chi_twist_second
    if gg.balanced_split is not None:
        out["balanced_split"] = {"a": gg.balanced_split[0], "m": gg.balanced_split[1]}
    return out


def nonspecial_to_json(trace: NonspecialTrace) -> dict:
    out: dict = {"tag": "nonspecial-twists", "delta": rational_to_json(trace.delta)}
    if trace.fiber_margin is not None:
        out["fiber_margin"] = rational_to_json(trace.fiber_margin)
    if trace.section_margin is not None:
        out["section_margin"] = rational_to_json(trace.section_margin)
    out["note"] = trace.note
    out["holds"] = trace.holds
    return out


def bad_curve_to_json(bad: BadCurve) -> dict:
    return {
        "tag": "dimension-count",
        "curve": divisor_to_json(bad.curve),
        "chi_twist": bad.chi_twist,
        "d": bad.d,
        "c": rational_to_json(bad.c),
        "passes": bad.passes,
    }


def ample_gg_to_json(cert: AmpleGGCertificate) -> dict:
    out: dict = {
        "tag": "ample-globally-generated",
        "slope_conditions": [condition_to_json(c) for c in cert.slope_conditions],
    }
    if cert.gg is not None:
        out["global_generation"] = gg_to_json(cert.gg)
    if cert.nonspecial is not None:
        out["nonspecial_twists"] = nonspecial_to_json(cert.nonspecial)
    out["bad_curves"] = {"tag": "bad-curves", "classes": cert.bad_curves}
    out["verdict"] = cert.verdict
    if cert.failure_reason:
        out["failure_reason"] = cert.failure_reason
    out["notes"] = list(cert.notes)
    return out


def asymptotic_to_json(cert: AsymptoticCertificate) -> dict:
    out = {
        "tag": "asymptotic-ampleness",
        "mode": cert.mode,
        "slope_conditions": [condition_to_json(c) for c in cert.slope_conditions],
        "base_character": character_to_json(cert.base),
        "twist_used": divisor_to_json(cert.twist_used),
        "s": cert.s,
        "B": divisor_to_json(cert.b),
        "B_squared": rational_to_json(cert.b.self_intersection),
        "bound": rational_to_json(cert.bound),
        "n_min": cert.n_min,
        "kernel": {
            "tag": "kernel-discriminant",
            "character": character_to_json(cert.kernel),
            "delta": rational_to_json(cert.delta_kernel),
            "delta_at_previous_n": (
                rational_to_json(cert.delta_kernel_prev)
                if cert.delta_kernel_prev is not None
                else None
            ),
        },
        "chi_dual_twist": cert.chi_dual_twist,
        "chi_kernel_dual_twist": cert.chi_kernel_dual_twist,
        "kernel_twist_nu": divisor_to_json(cert.kernel_twist_nu),
        "kernel_twist_globally_generated": cert.kernel_twist_gg,
        "wbn_kernel_dual_twist": _wbn_to_json(cert.wbn_kernel),
        "notes": list(cert.notes),
        "verdict": f"asymptotically-ample(n_min={cert.n_min})",
    }
    return out


def build_report(
    command: str,
    surface: Surface,
    v: ChernCharacter,
    sections: dict,
    verdict: str,
    *,
    d: int | None = None,
) -> dict:
    """The envelope every command's report shares, with the verdict last."""
    report: dict = {"schema_version": SCHEMA_VERSION, "command": command}
    if d is not None:
        report["d"] = d
    report["surface"] = surface.name
    report["character"] = character_to_json(v)
    report.update(sections)
    report["verdict"] = verdict
    return report


def run_report(surface: Surface, v: ChernCharacter, *, s: int = 2, direct: bool = False) -> dict:
    """The full pipeline: invariants, obstructions, gg, ampleness, asymptotics.

    The ampleness certificate carries the global-generation classification
    whenever it got that far, and the ``global_generation`` section reuses it.
    """
    ample = ample_gg_verdict(v)
    sections = {
        "invariants": invariants_section(v),
        "general_cohomology": cohomology_section(v),
        "obstructions": obstructions_section(necessary_obstructions(v)),
        "global_generation": _section(
            "gg-classification",
            lambda: classified_gg_section(v, ample.gg or classify_global_generation(v)),
        ),
        "ample_gg": ample_gg_to_json(ample),
        "asymptotic": _section(
            "asymptotic-ampleness",
            lambda: asymptotic_to_json(asymptotic_ample_certificate(v, s, direct=direct)),
        ),
        "warnings": ["stability of the input character is assumed, not verified"],
    }
    return build_report("report", surface, v, sections, sections["ample_gg"]["verdict"])


def bad_curves_report(surface: Surface, v: ChernCharacter) -> dict:
    bad = enumerate_bad_curves(v)
    section = {"tag": "bad-curves", "classes": bad}
    verdict = f"{len(bad)} bad curve class(es); " + (
        "all dimension counts pass" if all(b.passes for b in bad) else "some dimension count fails"
    )
    return build_report("bad-curves", surface, v, {"bad_curves": section}, verdict)


def gieseker_report(d: int) -> dict:
    v = gieseker_character(d)
    cert = asymptotic_ample_certificate(v, 2, direct=True)
    sections = {"invariants": invariants_section(v), "asymptotic": asymptotic_to_json(cert)}
    verdict = sections["asymptotic"]["verdict"]
    return build_report("gieseker", v.surface, v, sections, verdict, d=d)


def _write_json(node, pad: str, out: list[str]) -> None:
    """Append the pieces of ``json.dumps(node, indent=2, ensure_ascii=True)``.

    ``pad`` is the indentation of the line ``node`` starts on.  Only the
    values reports are built from are accepted: dicts with string keys,
    lists (and tuples, written as lists), strings, ints, bools, None, and
    tuples of ``BadCurve`` records of one surface (``_bad_curve_entries``).
    """
    if isinstance(node, str):
        out.append(encode_basestring_ascii(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in node.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        if type(node) is tuple and type(node[0]) is BadCurve:
            out += (sep, (",\n" + inner).join(_bad_curve_entries(node, inner)))
        else:
            for item in node:
                out.append(sep)
                _write_json(item, inner, out)
                sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


_BAD_CURVE_TEMPLATES: dict[tuple[tuple[str, ...], str], str] = {}  # (basis, pad) -> template


def _slots(node):
    if isinstance(node, dict):
        return {k: "\x00" if k == "text" else _slots(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_slots(item) for item in node]
    return "\x00" if isinstance(node, int) else node


def _bad_curve_entries(records: tuple[BadCurve, ...], pad: str) -> list[str]:
    """Each record's ``bad_curve_to_json`` entry written at ``pad``, through one
    template: the first entry with a ``%s`` slot for each int, bool and ``text``."""
    key = (records[0].curve.surface.basis, pad)
    template = _BAD_CURVE_TEMPLATES.get(key)
    if template is None:
        out: list[str] = []
        _write_json(_slots(bad_curve_to_json(records[0])), pad, out)
        template = _BAD_CURVE_TEMPLATES[key] = (
            "".join(out).replace("%", "%%").replace('"\\u0000"', "%s")
        )
    # slots in document order; ``%s`` writes ints through int.__repr__, as _write_json
    return [
        template % (*[q for x in b.curve.coords for q in (x.numerator, x.denominator)],
                    encode_basestring_ascii(str(b.curve)), b.chi_twist, b.d,
                    b.c.numerator, b.c.denominator, "true" if b.passes else "false")
        for b in records
    ]


def render_structured(report: dict) -> bytes:
    """Stable machine-readable rendering; deterministic field order.

    The bytes are those of ``json.dumps(report, indent=2, ensure_ascii=True)``
    plus a newline, written in one pass: ``indent`` turns off the C encoder
    of ``json.dumps``.
    """
    out: list[str] = []
    _write_json(report, "", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def parse_structured(payload: bytes) -> dict:
    return json.loads(payload.decode("ascii"))


def _fmt_rat(value: dict) -> str:
    if value["den"] == 1:
        return str(value["num"])
    return f"{value['num']}/{value['den']}"


def _render_lines(node, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "verdict" and indent:
                key = "outcome"  # the envelope's verdict, its last key, is the one "verdict:" line
            if isinstance(value, dict) and set(value) == {"num", "den"}:
                lines.append(f"{pad}{key}: {_fmt_rat(value)}")
            elif isinstance(value, (dict, list, tuple)):
                lines.append(f"{pad}{key}:")
                _render_lines(value, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {value}")
    else:  # a list, or a tuple of BadCurve records; rationals and scalars are inline
        for item in node if isinstance(node, list) else map(bad_curve_to_json, node):
            if isinstance(item, dict) and set(item) == {"num", "den"}:
                lines.append(f"{pad}- {_fmt_rat(item)}")
            elif isinstance(item, (dict, list, tuple)):
                lines.append(pad + "-")
                _render_lines(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {item}")


def render_text(report: dict) -> str:
    """Human-readable rendering with exactly one final verdict line."""
    lines: list[str] = []
    _render_lines(report, 0, lines)
    return "\n".join(lines) + "\n"
