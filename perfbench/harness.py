"""Runs one workload, untraced or traced, and assembles its result.

``run.py`` is the entry point; it checks the checkout and puts ``src`` and
``tests`` on the import path before this module is imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import lattice
from checks import Checker
from measure import Blocks, Speed, measure_setup, median, percentile, spawn_cli
from tracing import Tracer, builder_self_ns, growth_exponent, h0_reference, layer_summary, sweep
from workloads import HANG_ARGV, POOLS, cli_in_process, families_pool, serve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# metric -> (unit, span whose mean self time it is, or None)
PER_LAYER = {
    "characters.parse_us": ("us", "characters.parse_character"),
    "characters.construct_us": ("us", "characters.make_character"),
    "characters.twist_us": ("us", "characters.twist"),
    "characters.chi_us": ("us", "characters.euler_characteristic"),
    "surfaces.h0_line_bundle_us": ("us", "surfaces.h0_line_bundle"),
    "cohomology.wbn_us": ("us", "cohomology.wbn"),
    "cohomology.nonspecial_us": ("us", "cohomology.nonspecial_all_twists"),
    "positivity.obstructions_us": ("us", "positivity.necessary_obstructions"),
    "positivity.gg_us": ("us", "positivity.classify_global_generation"),
    "ampleness.ample_gg_ms": ("ms", "ampleness.ample_gg_verdict"),
    "ampleness.asymptotic_ms": ("ms", "ampleness.asymptotic_ample_certificate"),
    "ampleness.bad_curves_ms": ("ms", "ampleness.enumerate_bad_curves"),
    "ampleness.bad_curves_growth_exponent": ("1", None),
    "ampleness.hang_probe_ms": ("ms", "ampleness.hang_probe"),
    "ampleness.deadline_misses": ("count", None),
    "ampleness.bad_curve_classes": ("count", None),
    "ampleness.family_members_max": ("count", None),
    "report.run_report_self_ms": ("ms", None),
    "report.render_structured_ms": ("ms", "report.render_structured"),
    "report.render_text_ms": ("ms", "report.render_text"),
    "report.bytes_out": ("B", None),
    "positivity.reached_certificate_share": ("%", None),
    "cli.import_ms": ("ms", None),
    "cli.interpreter_floor_ms": ("ms", None),
    "cli.main_ms": ("ms", "cli.main"),
    "cli.exit_0": ("count", None),
    "cli.exit_2": ("count", None),
    "cli.exit_3": ("count", None),
    "trace.overhead_pct": ("%", None),
}

SCALE = {"us": 1e3, "ms": 1e6}  # nanoseconds per unit
TAIL_LADDER = (99.9, 99.5, 99.0, 90.0)


@dataclass(frozen=True)
class Config:
    pool: int        # distinct inputs, cycled through by the closed loop
    deep: int        # pool items also checked against the brute-force oracles
    warmup: int      # pool items served once, untimed, before measuring
    deadline: float  # seconds a single request may take


CONFIGS = {
    "certify": Config(pool=400, deep=16, warmup=400, deadline=5.0),
    "screen": Config(pool=5000, deep=16, warmup=5000, deadline=5.0),
    "families": Config(pool=100, deep=1, warmup=1, deadline=10.0),
    "cli": Config(pool=120, deep=120, warmup=1, deadline=10.0),
}
SMOKE_POOL = {"certify": 10, "screen": 50, "families": 3, "cli": 8}
SETUP_REPEATS = 21
HANG_DEADLINE = 2.0


def child_env() -> dict:
    """Children import the checkout's ``src`` and keep a bytecode cache, as an
    installed package would; the cache lives under ``perfbench/out``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(HERE / "out" / "pycache")
    return env


def make_pool(name: str, seed: int, size: int):
    rng = random.Random(f"{name}:{seed}")
    if name == "families" and size < CONFIGS[name].pool:
        return families_pool(rng, size, high=400)  # smoke: the cheap end
    return POOLS[name](rng, size)


def deep_sample(name: str, seed: int, pool) -> frozenset[int]:
    """Seeded oracle sample; on ``families`` always with the smallest x,
    the one member whose full-box brute force fits in a run."""
    n = len(pool)
    rng = random.Random(f"{name}:{seed}:deep")
    deep = set(rng.sample(range(n), min(CONFIGS[name].deep, n)))
    if name == "families":
        deep.add(min(range(n), key=lambda k: lattice.parse_ch(pool[k].ch)[1][0]))
    return frozenset(deep)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least 10 samples beyond it."""
    pct = next((p for p in TAIL_LADDER if len(samples) * (100 - p) / 100 >= 10), 50.0)
    return pct, percentile(samples, pct)


def speed_note(blocks: Blocks) -> str:
    cal = blocks.speed.samples
    return (f"  {'speed':<40} calibration loop {median(cal) * 1e3:.3f} ms median "
            f"({min(cal) * 1e3:.3f}-{max(cal) * 1e3:.3f}), reference {Speed.REFERENCE_S * 1e3:g} ms, "
            f"{len(blocks.factors)} blocks")


def run_untraced(name: str, pool, cfg: Config, seconds: float, corrupt: frozenset[int], seed: int):
    """The closed loop: every input at least once, until ``seconds`` of
    request time have passed."""
    env = child_env()
    checker = Checker(deep_sample(name, seed, pool), corrupt, deep_ample=name == "screen")
    expected = [cli_in_process(req.argv)[1] for req in pool] if name == "cli" else None
    n = len(pool)
    latencies: list[list[float]] = [[] for _ in range(n)]
    raw: list[float] = []
    first: list = [None] * n
    bad = [False] * n
    requests, misses, mismatched = [0] * n, [0] * n, [0] * n
    pending: list = []
    problems: list[str] = []

    def serve_one(k: int):
        req = pool[k]
        if req.kind == "cli":
            return spawn_cli(req.argv, env, cfg.deadline)
        start = perf_counter()
        try:
            out, code = serve(req), 0
        except Exception as exc:  # a raise is a failed request, counted below
            out, code = repr(exc).encode(), -1
        wall = perf_counter() - start
        return (None if wall > cfg.deadline else code), out, wall

    def record(k: int, code, out: bytes) -> None:
        requests[k] += 1
        if code is None:
            misses[k] += 1
            problems.append(f"item {k}: missed its {cfg.deadline} s deadline")
            return
        answer = (code, hashlib.sha256(out).digest())
        if first[k] is None:
            first[k] = answer
            pending.append((k, code, out))
        elif first[k] != answer:
            mismatched[k] += 1
            problems.append(f"item {k}: answer differs from its first answer")

    def check_pending() -> None:
        for k, code, out in pending:
            found = checker.check(k, pool[k], code, out, expected[k] if expected else None)
            bad[k] = bool(found)
            problems.extend(f"item {k} ({pool[k].ch or ' '.join(pool[k].argv)}): {p}" for p in found)
        pending.clear()

    for k in range(min(cfg.warmup, n)):
        serve_one(k)
    blocks = Blocks()
    busy, i = 0.0, 0
    while (i < n or busy < seconds) and busy < 4 * seconds:
        k = i % n
        i += 1
        code, out, wall = serve_one(k)
        busy += wall
        raw.append(wall)
        record(k, code, out)
        if blocks.add((k, wall), wall):
            for (k_, wall_), f in blocks.close():
                latencies[k_].append(wall_ * f)
            if pending:
                check_pending()
                blocks.speed.restart()
    for (k_, wall_), f in blocks.close():
        latencies[k_].append(wall_ * f)
    for k in range(n):  # only when the safety cap cut the first pass short
        if first[k] is None:
            code, out, _ = serve_one(k)
            record(k, code, out)
    check_pending()

    attempted = sum(requests)
    failed = sum(m + (r - m if b else x) for r, m, x, b in zip(requests, misses, mismatched, bad))
    digest = hashlib.sha256()
    for k, answer in enumerate(first):
        if answer is not None:
            digest.update(f"{k} {answer[0]} {answer[1].hex()}\n".encode())
    medians = [median(lat) for lat in latencies if lat]
    samples = [x for lat in latencies for x in lat]
    pct, tail_s = tail(medians)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "verdicts_per_s": len(medians) / sum(medians),
        "latency_p50_ms": median(medians) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in medians if x > tail_s)
    notes = {
        "verdicts_per_s": f"from each input's median latency; {len(medians)} inputs, {i / n:.1f} passes",
        "latency_p50_ms": f"median of per-input medians, {len(samples)} samples; unscaled {median(raw) * 1e3:.4g} ms",
        "latency_tail_ms": f"p{pct:g} of per-input medians, {beyond} inputs beyond, {len(medians)} inputs",
        "peak_rss_mb": "child processes" if name == "cli" else "this process",
    }
    extra = [
        f"  {'failed_share':<40} {failed / attempted:.6g} ({failed}/{attempted})",
        f"  {'outputs_sha256':<40} {digest.hexdigest()}",
        f"  {'busy_s':<40} {busy:.3f} (unscaled time inside requests)",
        speed_note(blocks),
    ]
    return metrics, notes, {"attempted": attempted, "failed": failed}, problems, extra


def run_traced(name: str, pool, seconds: float, probe_deadline: float):
    """The layer sweep over the pool for ``seconds``, then the hang probe."""
    t = Tracer()
    n = len(pool)
    visited: dict[int, dict] = {}
    members: dict[str, int] = {}
    problems: list[str] = []
    counts = {"attempted": 0, "failed": 0}
    factors: dict[str, float] = {}
    ref_ns = chain_ns = 0.0
    blocks = Blocks()
    busy, i = 0.0, 0
    while busy < seconds or i == 0:
        k = i % n
        req = pool[k]
        rid = t.request = f"{k}.{i // n}"
        i += 1
        counts["attempted"] += 1
        start = perf_counter()
        try:
            ref_start = perf_counter_ns()
            ref = cli_in_process(req.argv) if req.kind == "cli" else serve(req)
            ref_end = perf_counter_ns()
            first = len(t.spans)
            facts = t.call("request", sweep, t, req)
        except Exception as exc:  # a raise is a failed request
            counts["failed"] += 1
            problems.append(f"item {k}: {exc!r}")
            facts = None
        wall = perf_counter() - start
        busy += wall
        if facts is not None:
            if req.kind == "cli":
                chain = {"cli.main"}
                answer = (facts["exit"], facts["cli_out"])
            else:
                chain = {"report.run_report", "report.bad_curves_report", "report.gieseker_report", "report.render_structured"}
                if req.kind != "gieseker":
                    chain |= {"surfaces.parse_surface", "characters.parse_character"}
                answer = facts["structured"]
            if answer != ref:
                counts["failed"] += 1
                problems.append(f"item {k}: traced answer differs from the untraced one")
            chain_ns += sum(end - s for _, nm, _, s, end in t.spans[first:] if nm in chain)
            ref_ns += ref_end - ref_start
            members[rid] = len(facts["classes"])
            visited.setdefault(k, facts)
        if blocks.add(rid, wall):
            factors.update(blocks.close())
    factors.update(blocks.close())

    h0_note = "per bad-curve class of the workload's requests"
    if not any(span[1] == "surfaces.h0_line_bundle" for span in t.spans):
        t.request = "h0-reference"
        blocks.speed.restart()
        h0_reference(t)
        factors["h0-reference"] = blocks.speed.factor()
        h0_note = "no bad-curve class in this workload: timed on the classes of F0 2:400,3:-209"
    t.request = "hang-probe"
    factors["hang-probe"] = 1.0
    code, _, _ = t.call("ampleness.hang_probe", spawn_cli, HANG_ARGV, child_env(), probe_deadline)

    summary = layer_summary(t, factors)
    metrics, notes = {}, {}
    for metric, (unit, span) in PER_LAYER.items():
        if span is not None:
            calls, total = summary["by_name"].get(span, (0, 0.0))
            metrics[metric] = total / calls / SCALE[unit] if calls else 0.0
            notes[metric] = f"mean self time, {calls} calls"
    derived = builder_self_ns(summary["per_request"])
    metrics["report.run_report_self_ms"] = sum(derived) / len(derived) / 1e6 if derived else 0.0
    notes["report.run_report_self_ms"] = f"derived: report builder minus its separately timed sections, {len(derived)} calls"
    notes["surfaces.h0_line_bundle_us"] += f"; {h0_note}"
    pairs = [(members[rid], d["ampleness.enumerate_bad_curves"]) for rid, d in summary["per_request"].items()
             if members.get(rid) and "ampleness.enumerate_bad_curves" in d]
    total_members = sum(m for m, _ in pairs)
    metrics["ampleness.bad_curves_growth_exponent"] = growth_exponent(pairs)
    notes["ampleness.bad_curves_growth_exponent"] = (
        f"log-log slope of enumeration time on bad-curve count, {len(pairs)} calls; "
        + (f"{sum(ns for _, ns in pairs) / total_members / 1e3:.3f} us per bad curve" if total_members else "no bad curves")
    )
    metrics["ampleness.deadline_misses"] = 0 if code == 0 else 1
    notes["ampleness.hang_probe_ms"] = f"unscaled wall time; bad-curves F0 2:400000,3:-200009 in a child, deadline {probe_deadline} s, exit {code}"
    facts = list(visited.values())
    metrics["ampleness.bad_curve_classes"] = sum(len(f["classes"]) for f in facts) / len(facts)
    notes["ampleness.bad_curve_classes"] = f"mean per input, {len(facts)} inputs"
    metrics["ampleness.family_members_max"] = max(family_members(f["classes"]) for f in facts)
    metrics["report.bytes_out"] = sum(f["bytes"] for f in facts) / len(facts)
    notes["report.bytes_out"] = "mean per input"
    metrics["positivity.reached_certificate_share"] = 100 * sum(f["reached"] for f in facts) / len(facts)
    for exit_code in (0, 2, 3):
        metrics[f"cli.exit_{exit_code}"] = sum(f["exit"] == exit_code for f in facts)
    metrics["trace.overhead_pct"] = 100 * (chain_ns - ref_ns) / ref_ns
    notes["trace.overhead_pct"] = "traced minus untraced time of the same call chain, same inputs"

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    t.write(out_dir / f"{name}.trace.jsonl")
    extra = [
        f"  {'spans':<40} {len(t.spans)} written to {(out_dir / f'{name}.trace.jsonl').relative_to(ROOT)}",
        speed_note(blocks),
    ]
    return metrics, notes, counts, problems, extra


def family_members(classes) -> int:
    """Members of the largest one-parameter family among the bad classes."""
    if not classes or len(classes[0]) == 1:
        return len(classes)
    return max(sum(c[0] == 1 for c in classes), sum(c[1] == 1 for c in classes))


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
                 corrupt: frozenset[int] = frozenset()) -> tuple[list[str], dict]:
    """One run: the human-readable lines and the result object."""
    size = SMOKE_POOL[name] if smoke else CONFIGS[name].pool
    setup = measure_setup(child_env(), 3 if smoke else SETUP_REPEATS)
    pool = make_pool(name, seed, size)
    if trace:
        metrics, notes, counts, problems, extra = run_traced(name, pool, seconds, 0.5 if smoke else HANG_DEADLINE)
        metrics["cli.import_ms"] = setup["import_ms"]
        metrics["cli.interpreter_floor_ms"] = setup["floor_ms"]
        notes["cli.import_ms"] = "import amplecheck.cli, timed inside fresh interpreters (median)"
        units = {m: unit for m, (unit, _) in PER_LAYER.items()}
    else:
        metrics, notes, counts, problems, extra = run_untraced(name, pool, CONFIGS[name], seconds, corrupt, seed)
        metrics["setup_s"] = setup["setup_s"]
        notes["setup_s"] = (f"median of {3 if smoke else SETUP_REPEATS} fresh interpreters importing amplecheck.cli; "
                            f"bare interpreter {setup['floor_ms']:.1f} ms, import {setup['import_ms']:.1f} ms; "
                            f"unscaled {setup['raw_setup_s']:.4g} s")
        units = END_TO_END
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  pool {len(pool)} inputs  seconds {seconds:g}"]
    for metric, unit in units.items():
        lines.append(f"  {metric:<40} {metrics[metric]:<14.6g} {unit:<6} {notes.get(metric, '')}".rstrip())
    lines += extra
    lines += [f"  problem: {p}" for p in problems[:10]]
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    return lines, result


def smoke() -> int:
    """Every workload at a tiny size, both modes, plus one corrupted answer each."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in CONFIGS:
        before = len(failures)
        for trace in (0, 1):
            lines, result = run_workload(name, 1, 0.2, bool(trace), smoke=True)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            text = "\n".join(lines)
            if got != wanted[trace]:
                failures.append(f"{name} trace {trace}: metrics {sorted(got)} differ from BENCHMARK.json")
            missing = [m for m in wanted[trace] if f" {m} " not in text]
            if missing or (not trace and "failed_share" not in text):
                failures.append(f"{name} trace {trace}: not printed: {missing or ['failed_share']}")
            if not result["correct"]:
                failures.append(f"{name} trace {trace}: {result['failed']} failed\n" + text)
        _, result = run_workload(name, 1, 0.2, False, smoke=True, corrupt=frozenset({0}))
        if result["correct"] or result["failed"] < 1:
            failures.append(f"{name}: a corrupted expected answer was not counted as a failure")
        print(f"smoke {name}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(failure)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0




def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced; prints each block as it ends."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in CONFIGS:
        for trace in (False, True):
            lines, result = run_workload(name, seed, seconds, trace)
            print("\n".join(lines), flush=True)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    return total
