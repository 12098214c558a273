#!/usr/bin/env python3
"""Benchmark of the summitwx pipeline: one command, four seeded workloads.

    python3 perfbench/run.py --workload stimulus-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run measures set-up in fresh interpreters, then starts one worker
process (``worker.py``) that runs the workload's closed loop and checks
every output; study reports are also checked against scipy here, outside
the timed process. The run prints one line per metric, with its unit, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. Metric definitions and the layer
map are in ``perfbench/README.md``; everything a run measured, including
the spans of a traced run, stays in ``.bench_work/`` for inspection.

``--write-reference`` re-records ``reference_digests.json``: the SHA-256
digest of every output for the reference seed, which later runs with that
seed must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 1
WORKLOADS = ("stimulus-batch", "long-bulletin", "study-stats", "cli-oneshot")

# Each run waits at most this long for its worker, so it ends within 180 s.
WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 25
PROBE_SAMPLES = 7
# Set-up in a fresh interpreter.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import summitwx
t1 = time.perf_counter()
summitwx.load_tables()
t2 = time.perf_counter()
print(t2 - t0, (t2 - t1) * 1e3)
"""
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# What "an operation" is on each workload, and the names the metrics go by
# in the workload's own terms.
ALIASES = {
    "stimulus-batch": {"ops_per_s": "docs_per_s", "p50_ms": "doc_p50_ms",
                       "tail_ms": "doc_tail_ms", "heavy_p50_ms": "stimulus_set_p50_ms"},
    "long-bulletin": {"ops_per_s": "bulletins_per_s", "p50_ms": "bulletin_p50_ms",
                      "tail_ms": "bulletin_tail_ms", "heavy_p50_ms": "bulletin_64k_p50_ms"},
    "study-stats": {"ops_per_s": "reports_per_s", "p50_ms": "paper_report_p50_ms",
                    "tail_ms": "paper_report_tail_ms", "heavy_p50_ms": "large_report_p50_ms"},
    "cli-oneshot": {"ops_per_s": "invocations_per_s", "p50_ms": "invocation_p50_ms",
                    "tail_ms": "invocation_tail_ms", "heavy_p50_ms": "stats_invocation_p50_ms"},
}
# The layer each workload exists to exercise.
DOMINANT = {"stimulus-batch": "layout", "long-bulletin": "textparse",
            "study-stats": "stats", "cli-oneshot": "cli"}
STUDY_ROWS = {"paper": 32 * 4 * 5, "mid": 500 * 4 * 5, "large": 2000 * 4 * 5}
COUNTED_CALLS = (
    "textparse.parse_forecast", "canonical.emit_canonical", "canonical.parse_canonical",
    "model.validate", "hazards.derive_document_icons", "hazards.triad_advisory",
    "layout.render", "layout.render_stimulus_set", "stats.load_study", "stats.build_report",
    "cli.main",
)
EMIT_FNS = {"stats.format_report", "stats.emit_report", "stats.emit_plot_spec"}
# ``layout.render`` span details: condition value and format.
RENDER_COMBOS = tuple(f"{c}.{f}" for c in ("baseline", "summary_last", "icons", "per_day_icons")
                      for f in ("plain", "svg", "html"))
DISTRIBUTIONS = ("t_ppf", "f_sf", "t_two_sided_p")
# The subcommand slots of cli-oneshot's rotation (``worker.cli_oneshot``).
CLI_SUBCOMMANDS = ("parse", "classify", "classify-overall", "render", "stimuli", "stats",
                   "validate-tables")
SHARE_LAYERS = ("textparse", "canonical", "model", "hazards", "layout", "stats", "cli", "harness")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def python(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=env(), capture_output=True,
                          timeout=timeout, check=True, text=True)


def median(values) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile
    with at least ten samples beyond it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return (median(ordered) if ordered else 0.0), 50.0, n // 2


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else float("nan")


def setup_samples() -> tuple[list[tuple[float, float]], list[float]]:
    """Fresh-interpreter set-up, ``import summitwx`` plus the first
    ``load_tables()``, as (seconds, host slowdown) pairs, and the
    ``load_tables()`` share in ms. One unmeasured warm-up comes first, so
    that compiling the package's bytecode is not counted as set-up.

    The host slowdown of each sample is that of a bare interpreter start
    just before and just after it: the work of an import follows the host's
    speed the way an interpreter start does, where the in-process kernel
    would over-correct it."""
    python("-c", SETUP_PROBE)
    setup, tables = [], []
    before = calib.interpreter_seconds()
    for _ in range(SETUP_SAMPLES):
        total, tables_ms = map(float, python("-c", SETUP_PROBE).stdout.split())
        after = calib.interpreter_seconds()
        setup.append((total, median([before, after]) / calib.INTERPRETER_REF_S))
        tables.append(tables_ms)
        before = after
    return setup, tables


def startup_probes() -> dict[str, list[float]]:
    """Wall time of a bare interpreter and of one that imports the CLI."""
    out: dict[str, list[float]] = {"pass": [], "import": []}
    for _ in range(PROBE_SAMPLES):
        for key, code in (("pass", "pass"), ("import", "import summitwx.cli")):
            start = time.perf_counter()
            python("-c", code)
            out[key].append(time.perf_counter() - start)
    return out


def run_worker(workload: str, seed: int, seconds: float, trace: int, work: Path,
               reference: Path | None, deadline: float) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
    if reference is not None:
        argv += ["--reference", str(reference)]
    try:
        python(*argv, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"worker failed (exit {exc.returncode}):\n{exc.stderr[-2000:]}") from None
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def declared() -> dict:
    """``BENCHMARK.json``: the workloads, metrics and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def stats_oracle(work: Path) -> dict[str, list[str]]:
    """Per report size, how the report the worker wrote disagrees with scipy."""
    sys.path.insert(0, str(HERE))
    import oracle

    try:
        return {
            size: oracle.check_report((work / f"{size}-report.txt").read_text(encoding="utf-8"),
                                      work / size / "responses.csv",
                                      work / size / "participants.csv")
            for size in STUDY_ROWS
        }
    except ImportError:
        raise BenchError("scipy is needed to check study reports") from None


def end_to_end(workload: str, result: dict, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """End-to-end metrics in reference-host time (see ``calib.py``)."""
    timeline = result["timeline"]
    scaled = calib.scale(timeline, result["host"])
    measured = [seconds for _, seconds in timeline]

    # A class none of whose operations completed (each raised) reads 0;
    # its failures make the run incorrect.
    def of(cls: str, times: list[float]) -> list[float]:
        return [times[i] for i in result["latencies"].get(cls, [])]

    def p50(times: list[float]) -> float:
        return median(times) if times else 0.0

    def per_busy(amount: float, times: list[float]) -> float:
        return amount / sum(times) if times else 0.0

    rss_kb = result["children_peak_rss_kb" if workload == "cli-oneshot" else "peak_rss_kb"]
    ops, kb = result["counts"].get("ops", 0), result["bytes_in"] / 1024
    n = len(of("op", measured))
    tail_s, tail_p, beyond = tail(of("op", scaled))
    # name -> (value in reference-host time, measured value, unit, note)
    values = {
        "setup_s": (median(s / f for s, f in setup), median(s for s, _ in setup), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (rss_kb / 1024, rss_kb / 1024, "MB",
                        "largest CLI child" if workload == "cli-oneshot" else "worker process"),
        "ops_per_s": (per_busy(ops, scaled), per_busy(ops, measured), "1/s",
                      f"{ops} ops in {sum(measured):.3f} s busy"),
        "kb_per_s": (per_busy(kb, scaled), per_busy(kb, measured), "KB/s",
                     f"{kb:.0f} KB of input"),
        "p50_ms": (p50(of("op", scaled)) * 1e3, p50(of("op", measured)) * 1e3, "ms",
                   f"{n} samples"),
        "tail_ms": (tail_s * 1e3, tail(of("op", measured))[0] * 1e3, "ms",
                    f"p{tail_p:g} of {n} samples, {beyond} beyond"),
        "heavy_p50_ms": (p50(of("heavy", scaled)) * 1e3, p50(of("heavy", measured)) * 1e3,
                         "ms", f"{len(of('heavy', measured))} samples"),
    }
    aliases = ALIASES[workload]
    slow = median(s for _, s in result["host"])
    lines = [f"  host slowdown {slow:.3f} (median of {len(result['host'])} probe samples); "
             f"values in reference-host time, measured values in brackets"]
    for name, (value, measured, unit, note) in values.items():
        alias = f" = {aliases[name]}" if name in aliases else ""
        lines.append(f"  {name + alias:<38} {value:>12.4f} {unit:<5} [{measured:.4f}] ({note})")
    metrics = {name: {"value": value, "unit": unit} for name, (value, _, unit, _) in values.items()}
    return metrics, lines


def per_layer(workload: str, result: dict, tables_ms: list[float],
              probes: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """Every per-layer metric of ``BENCHMARK.json``, each on every workload;
    one whose layer does not run on the workload reads 0."""
    spans = result["spans"]
    roots = [s for s in spans if s[2] == -1]
    traced_total = sum(s[3] for s in roots)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
    layer_self: dict[str, float] = {"harness": sum(s[4] for s in roots)}
    for s in spans:
        if s[2] != -1:
            layer = s[0].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s[4]

    def p50(samples, scale: float) -> float:
        return median(samples) * scale if samples else 0.0

    lat = {cls: [result["timeline"][i][1] for i in idx] for cls, idx in result["latencies"].items()}
    interpreter = median(lat.get("probe:interpreter") or probes["pass"])
    imported = median(lat.get("probe:import") or probes["import"])
    dist = result["distributions"]
    counts = result["counts"]
    values: dict[str, tuple[float, str]] = {}
    for name in COUNTED_CALLS:
        group = by_name.get(name, [])
        values[f"{name}.calls"] = (len(group), "count")
        values[f"{name}.self_s"] = (sum(s[4] for s in group), "s")
    for layer in SHARE_LAYERS:
        share = 100 * layer_self.get(layer, 0.0) / traced_total if traced_total else 0.0
        values[f"{layer}.self_share"] = (share, "%")

    parses = by_name.get("textparse.parse_forecast", [])
    parsed_bytes = sum(int(s[1]) for s in parses)
    values["textparse.bytes_in"] = (parsed_bytes, "bytes")
    values["textparse.parse_forecast.us_per_kb"] = (
        sum(s[4] for s in parses) * 1e6 / (parsed_bytes / 1024) if parses else 0.0, "us/KB")
    sizes: dict[int, list[float]] = {}
    for s in parses:
        sizes.setdefault(int(s[1]), []).append(s[3])
    values["textparse.size_exponent"] = (
        slope([(size, median(d)) for size, d in sizes.items()]) if len(sizes) > 1 else 0.0, "slope")
    values["textparse.rejected_ratio"] = (
        counts["rejected"] / counts["malformed"] if counts.get("malformed") else 0.0, "ratio")
    values["hazards.load_tables.first_ms"] = (median(tables_ms), "ms")

    renders: dict[str, list[float]] = {}
    for s in by_name.get("layout.render", []):
        renders.setdefault(s[1], []).append(s[3])
    for combo in RENDER_COMBOS:
        values[f"layout.render.{combo}.us_per_call"] = (p50(renders.get(combo), 1e6), "us")
    values["layout.bytes_out"] = (counts.get("layout.bytes_out", 0), "bytes")

    # Study spans by function and report size (the detail of their parent).
    per_size: dict[tuple[str, str], list[float]] = {}
    emit: dict[int, float] = {}
    for s in spans:
        if s[0].startswith("stats."):
            per_size.setdefault((s[0], spans[s[2]][1]), []).append(s[3])
            if s[0] in EMIT_FNS:
                emit[s[2]] = emit.get(s[2], 0.0) + s[3]
    for fn in ("load_study", "build_report"):
        points = []
        for size, rows in STUDY_ROWS.items():
            d = per_size.get((f"stats.{fn}", size))
            values[f"stats.{fn}.{size}_ms"] = (p50(d, 1e3), "ms")
            if d:
                points.append((rows, median(d)))
        values[f"stats.{fn}.size_exponent"] = (slope(points) if len(points) > 1 else 0.0, "slope")
    values["stats.emit_ms"] = (p50(list(emit.values()), 1e3), "ms")

    for fn in DISTRIBUTIONS:
        values[f"distributions.{fn}.us_per_call"] = (median(dist[fn]) * 1e6, "us")
    # A paper-size report calls t_ppf once per group (4), f_sf once and
    # t_two_sided_p once per pair (6) and for the regression (1).
    paper_build = per_size.get(("stats.build_report", "paper"))
    est = 4 * median(dist["t_ppf"]) + median(dist["f_sf"]) + 7 * median(dist["t_two_sided_p"])
    values["distributions.share_of_paper_build_report"] = (
        100 * est / median(paper_build) if paper_build else 0.0, "%")

    values["cli.interpreter_ms"] = (interpreter * 1e3, "ms")
    values["cli.import_ms"] = ((imported - interpreter) * 1e3, "ms")
    for name in CLI_SUBCOMMANDS:
        d = lat.get(f"cli:{name}")
        values[f"cli.{name}.work_ms"] = ((median(d) - imported) * 1e3 if d else 0.0, "ms")
    values["cli.startup_share"] = (
        100 * imported / median(lat["op"]) if workload == "cli-oneshot" else 0.0, "%")

    paired = result["paired"]
    values["trace.overhead_ratio"] = (sum(t for _, t in paired) / sum(p for p, _ in paired), "ratio")
    values["trace.spans"] = (len(spans), "count")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    lines = [f"  {name:<48} {v:>14.4f} {u}" for name, (v, u) in values.items()]
    top = max(SHARE_LAYERS, key=lambda layer: values[f"{layer}.self_share"][0])
    lines.append(f"  dominant layer: {top} ({values[f'{top}.self_share'][0]:.1f}% of traced time); "
                 f"this workload exists for {DOMINANT[workload]}")
    return metrics, lines


def run_one(workload: str, seed: int, seconds: float, trace: int,
            reference: Path | None) -> tuple[dict, int, int, list[str]]:
    """Metrics, attempted, failed and report lines for one workload run."""
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    work = WORK / f"{workload}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup, tables_ms = setup_samples()
    # cli-oneshot measures the start-up floors inside its own rotation.
    probes = startup_probes() if trace and workload != "cli-oneshot" else {}
    result = run_worker(workload, seed, seconds, trace, work, reference, deadline)
    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    if workload == "study-stats":
        for size, problems in stats_oracle(work).items():
            attempted += 1
            failed += bool(problems)
            failures += [f"{size} report vs scipy: {p}" for p in problems[:5]]
    if trace:
        metrics, lines = per_layer(workload, result, tables_ms, probes)
    else:
        metrics, lines = end_to_end(workload, result, setup)
    lines.append(f"  {'failed_ratio':<42} {failed / attempted:>14.4f} ratio "
                 f"({failed} of {attempted} operations failed)")
    lines += [f"  FAILED {f}" for f in failures]
    (work / "metrics.json").write_text(json.dumps(metrics, indent=1), encoding="utf-8")
    return metrics, attempted, failed, lines


def write_reference() -> None:
    digests: dict = {"seed": REFERENCE_SEED}
    for workload in WORKLOADS:
        work = WORK / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result = run_worker(workload, REFERENCE_SEED, 0, 0, work, None,
                            time.perf_counter() + WORKER_TIMEOUT_S)
        if result["failed"]:
            raise BenchError(f"{workload}: outputs failed their checks: {result['failures'][:3]}")
        digests[workload] = dict(sorted(result["digests"].items()))
    REFERENCE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "summitwx" / "__init__.py").is_file():
        print(f"error: no summitwx package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.seconds is None:
            args.seconds = declared()["run_seconds"]
        if args.write_reference:
            write_reference()
            return 0
        reference = REFERENCE if args.seed == REFERENCE_SEED else None
        if reference is not None and not reference.is_file():
            raise BenchError(f"reference digests {reference} not found")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        for workload in workloads:
            m, a, f, lines = run_one(workload, args.seed, args.seconds, args.trace, reference)
            print(f"{workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
            print("\n".join(lines), flush=True)
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, subprocess.CalledProcessError):
            print(exc.stderr[-2000:], file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
