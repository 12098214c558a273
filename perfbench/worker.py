"""The timed process: one workload, one closed loop with a single client.

Started by ``run.py`` in a fresh interpreter. It builds its inputs from the
seed, then calls the program in a loop until ``--seconds`` have passed and
every input has been processed at least once. Each operation is timed
around the program calls only; its outputs are checked afterwards, outside
the timed region. Results go to ``result.json`` in the work directory.

With ``--trace 1`` every operation runs twice, once untraced and once
through the traced namespace, in alternating order, so the trace overhead
is measured on the same inputs; spans go to ``trace.json`` when the run
ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gen  # noqa: E402  (needs ``src`` on the path)
import layers  # noqa: E402
import calib  # noqa: E402
import oracle  # noqa: E402
from summitwx import (  # noqa: E402
    LayoutCondition,
    TriadThresholds,
    build_report,
    condition_from_token,
    emit_canonical,
    emit_report,
    load_study,
    parse_forecast,
    render,
    render_icon,
)
from summitwx.layout import CONDITION_TOKENS, FORMATS  # noqa: E402

# Pool shapes. Valid stimulus documents split evenly into batches, so every
# batch has the same members on every pass over the pool.
STIMULUS_POOL = {"short": 192, "canonical": 32, "malformed": 24}
STIMULUS_BATCH = 8
# Bulletin size in KB -> copies per hazard regime. Smaller bulletins are
# more common, so the median falls inside the 16 KB class, p95 inside the
# 64 KB class, and a run holds 200-1000 bulletins, where p95 is the tail.
LONG_MIX_KB = {8: 4, 16: 3, 32: 2, 64: 1}
STUDY_SIZES = {"paper": 32, "mid": 500, "large": 2000}
SIMULATE_STUDY = ROOT / "scripts" / "simulate_study.py"
STUDY_PAPER_PER_CYCLE = 32
CLI_DOCS = 5
GOLDEN_EXTENSIONS = {"plain": "txt", "svg": "svg", "html": "html"}


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class Run:
    """Latencies, counts, failures and digests of one workload run."""

    def __init__(self, reference: dict | None, tracer: layers.Tracer | None):
        # Every timed operation as (end time, seconds), untraced calls only;
        # latency classes hold indexes into it.
        self.timeline: list[tuple[float, float]] = []
        self.latencies: dict[str, list[int]] = {}
        self.host = calib.HostSpeed()
        self.paired: list[tuple[float, float]] = []  # (untraced, traced) seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bytes_in = 0
        self.counts: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.reference = reference
        self.tracer = tracer

    def record(self, cls: str) -> None:
        """File the last timed operation under latency class ``cls``."""
        self.latencies.setdefault(cls, []).append(len(self.timeline) - 1)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def check(self, item: str, problems: list[str]) -> None:
        """Count one attempted operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{item}: {'; '.join(problems)[:300]}")

    def digest(self, item: str, value: str) -> list[str]:
        """Problems if ``value`` differs from the first run of the same item
        or from the recorded reference digest."""
        problems = []
        if self.digests.setdefault(item, value) != value:
            problems.append("output differs from the first run of the same input")
        if self.reference is not None:
            expected = self.reference.get(item)
            if expected is None:
                problems.append("no reference digest recorded")
            elif expected != value:
                problems.append("output differs from the reference digest")
        return problems

    def timed(self, op, plain, traced, op_id: int, name: str, detail: str = ""):
        """Run ``op(namespace)`` untraced and, in a traced run, traced too,
        alternating which goes first; kernel samples bracket the pair.

        Returns the outputs of the untraced call, whose time goes on the
        timeline.
        """
        def once(ns, trace):
            if trace:
                self.tracer.begin(name, op_id, detail)
            try:
                start = time.perf_counter()
                out = op(ns)
                return time.perf_counter() - start, out
            finally:
                if trace:
                    self.tracer.end()

        self.host.sample()
        traced_first = traced is not None and op_id % 2 == 1
        if traced_first:
            t_traced, _ = once(traced, True)
        t_plain, out = once(plain, False)
        self.timeline.append((time.perf_counter(), t_plain))
        if traced is not None and not traced_first:
            t_traced, _ = once(traced, True)
        if traced is not None:
            self.paired.append((t_plain, t_traced))
        self.host.sample()
        return out


def closed_loop(run: Run, seconds: float, items: list, step) -> None:
    """Call ``step(item, op_id)`` over ``items`` in order, cycling, until the
    time is up and every item has run at least once. An operation that
    raises counts as a failed one, and the loop goes on."""
    deadline = time.perf_counter() + seconds
    op_id = 0
    while op_id < len(items) or time.perf_counter() < deadline:
        try:
            step(items[op_id % len(items)], op_id)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            run.check(f"operation {op_id}", [f"raised {exc!r}"])
        op_id += 1


def classify_lines(per_period, overall) -> str:
    return "\n".join(" ".join(render_icon(i, "plain") for i in icons) for icons in per_period + overall)


def check_icons(expected_doc, per_period, overall) -> list[str]:
    problems = []
    got = [tuple((i.kind.value, i.level, i.gust_annotation) for i in icons) for icons in per_period]
    if got != [oracle.period_icons(p) for p in expected_doc.periods]:
        problems.append("per-period icons differ from the published rules")
    if {i.kind.value: i.level for i in overall[0]} != oracle.overall_levels(expected_doc):
        problems.append("overall icons differ from the per-period maximum")
    return problems


# --- stimulus-batch ---------------------------------------------------------

def stimulus_pool(seed: int) -> list[gen.Bulletin]:
    rng = random.Random(seed)
    pool = [gen.short_bulletin(rng, f"sb-{i:02d}") for i in range(STIMULUS_POOL["short"])]
    pool += [gen.canonical_bulletin(rng, f"sc-{i:02d}") for i in range(STIMULUS_POOL["canonical"])]
    kinds = gen.MALFORMED_KINDS
    pool += [gen.malformed_bulletin(rng, f"sm-{i:02d}", kinds[i % len(kinds)])
             for i in range(STIMULUS_POOL["malformed"])]
    rng.shuffle(pool)
    return pool


def check_goldens(run: Run) -> None:
    """Byte-compare the renders of the test fixtures with the goldens."""
    fixtures = sorted((ROOT / "tests" / "fixtures").glob("*.txt"))
    if not fixtures:
        run.check("goldens", ["no fixtures found under tests/fixtures"])
    for path in fixtures:
        doc = parse_forecast(path.read_text(encoding="utf-8"), source_id=path.stem).document
        for token in CONDITION_TOKENS:
            for fmt in FORMATS:
                golden = ROOT / "tests" / "golden" / f"{path.stem}__{token}.{GOLDEN_EXTENSIONS[fmt]}"
                ok = doc is not None and golden.is_file() and (
                    golden.read_bytes() == render(doc, condition_from_token(token), format=fmt).payload
                )
                run.check(f"golden {golden.name}", [] if ok else ["render differs from the golden"])


def stimulus_batch(run: Run, args, plain, traced) -> None:
    check_goldens(run)
    thresholds = TriadThresholds(**oracle.TRIAD_THRESHOLDS)
    combos = [(c, f) for c in LayoutCondition for f in FORMATS]
    pool = stimulus_pool(args.seed)
    valid = [b for b in pool if b.expected is not None]
    batches = [valid[k:k + STIMULUS_BATCH] for k in range(0, len(valid), STIMULUS_BATCH)]
    batch_of = {b.name: k // STIMULUS_BATCH for k, b in enumerate(valid)}
    render_digests: dict[tuple, str] = {}
    seen_in_batch = [0] * len(batches)

    def process(b, L):
        if b.text.startswith("schema: "):
            result = L.parse_canonical(b.text)
        else:
            result = L.parse_forecast(b.text, source_id=b.name)
        doc = result.document
        if doc is None:
            return result, None
        violations = L.validate(doc)
        canon = L.emit_canonical(doc)
        round_trip = L.parse_canonical(canon).document
        per_period = L.derive_document_icons(doc, "per_period")
        overall = L.derive_document_icons(doc, "overall")
        triads = [L.triad_advisory(p, thresholds) for p in doc.periods]
        renders = [L.render(doc, c, format=f) for c, f in combos]
        return result, (doc, violations, canon, round_trip, per_period, overall, triads, renders)

    def check_doc(b, result, out) -> list[str]:
        if b.expected is None:
            return [] if result.document is None and result.errors else ["malformed input accepted"]
        if out is None:
            return [f"valid input rejected: {[d.message for d in result.errors][:2]}"]
        doc, violations, canon, round_trip, per_period, overall, triads, renders = out
        problems = check_icons(b.expected, per_period, overall)
        if doc != b.expected:
            problems.append("parsed document differs from the generated one")
        if violations:
            problems.append(f"boundary validation failed: {violations[:2]}")
        if round_trip != doc:
            problems.append("canonical round trip changed the document")
        if b.shape == "canonical" and canon != b.text:
            problems.append("re-emitted canonical text differs from the input")
        verdicts = [t.verdict.value for t in triads]
        if verdicts != [oracle.triad_verdict(p) for p in b.expected.periods]:
            problems.append("triad verdicts differ from the rule")
        parts = [canon, classify_lines(per_period, overall), " ".join(verdicts)]
        for (c, f), r in zip(combos, renders):
            render_digests[(b.name, c, f)] = sha(r.payload)
            parts += [render_digests[(b.name, c, f)], sha(*(f"{e}\t{s}" for e, s in r.manifest))]
        return problems + run.digest(b.name, sha(*parts))

    def check_batch(k, members, out) -> list[str]:
        problems = []
        for (c, f), (renders, index) in zip(combos, out):
            lines = [
                f"{i + 1:02d}\t{b.name}\t{c.value}\t{f}\t{hashlib.sha256(r.payload).hexdigest()}\n"
                for i, (b, r) in enumerate(zip(members, renders))
            ]
            if index != "".join(lines):
                problems.append(f"stimulus index wrong for {c.value}/{f}")
            if any(sha(r.payload) != render_digests[(b.name, c, f)] for b, r in zip(members, renders)):
                problems.append(f"set render differs from the single render for {c.value}/{f}")
        return problems + run.digest(f"batch-{k}", sha(*(index for _, index in out)))

    def step(b, op_id):
        result, out = run.timed(lambda L: process(b, L), plain, traced, op_id, "doc")
        run.bytes_in += len(b.text.encode("utf-8"))
        run.check(b.name, check_doc(b, result, out))
        if b.expected is None:
            run.record("rejected")
            run.count("malformed")
            run.count("rejected", int(result.document is None and bool(result.errors)))
            return
        run.record("op")
        run.count("ops")
        run.count("layout.bytes_out", sum(len(r.payload) for r in out[7]) if out else 0)
        k = batch_of[b.name]
        seen_in_batch[k] += 1
        if seen_in_batch[k] % len(batches[k]):
            return
        members = batches[k]
        docs = [m.expected for m in members]
        out = run.timed(
            lambda L: [L.render_stimulus_set(docs, c, format=f) for c, f in combos],
            plain, traced, op_id, "batch")
        run.record("heavy")
        run.count("layout.bytes_out", sum(len(r.payload) for renders, _ in out for r in renders))
        run.check(f"batch-{k}", check_batch(k, members, out))

    closed_loop(run, args.seconds, pool, step)


# --- long-bulletin ----------------------------------------------------------

def long_pool(seed: int) -> list[tuple[int, gen.Bulletin]]:
    """The same mix of sizes and hazard regimes for every seed."""
    rng = random.Random(seed)
    pool = [(kb, gen.long_bulletin(rng, f"lb-{kb:02d}k-{regime}-{i}", kb * 1024, regime))
            for kb, copies in LONG_MIX_KB.items() for regime in range(len(gen.REGIMES))
            for i in range(copies)]
    rng.shuffle(pool)
    return pool


def long_bulletin(run: Run, args, plain, traced) -> None:
    def process(b, L):
        result = L.parse_forecast(b.text, source_id=b.name)
        doc = result.document
        if doc is None:
            return result, None
        return result, (L.validate(doc), L.derive_document_icons(doc, "per_period"),
                        L.derive_document_icons(doc, "overall"))

    def step(item, op_id):
        kb, b = item
        result, out = run.timed(lambda L: process(b, L), plain, traced, op_id, "bulletin", f"{kb}k")
        size = len(b.text.encode("utf-8"))
        run.bytes_in += size
        run.record("op")
        if kb == max(LONG_MIX_KB):
            run.record("heavy")
        run.count("ops")
        if out is None:
            run.check(b.name, [f"valid input rejected: {[d.message for d in result.errors][:2]}"])
            return
        violations, per_period, overall = out
        problems = check_icons(b.expected, per_period, overall)
        if result.document != b.expected:
            problems.append("parsed document differs from the generated one")
        if violations:
            problems.append(f"boundary validation failed: {violations[:2]}")
        run.check(b.name, problems + run.digest(b.name, sha(classify_lines(per_period, overall))))

    closed_loop(run, args.seconds, long_pool(args.seed), step)


# --- study-stats ------------------------------------------------------------

def write_study(work: Path, seed: int, sizes: dict[str, int]) -> dict[str, tuple[Path, Path]]:
    """Study CSVs written by ``scripts/simulate_study.py`` into
    ``work/<size>/``, one seed per size derived from ``seed``; the paths of
    each size's (responses, participants) files."""
    paths = {}
    for k, (size, per_group) in enumerate(sizes.items()):
        out = work / size
        subprocess.run([sys.executable, str(SIMULATE_STUDY), "--seed", str(seed * 1000 + k),
                        "--per-group", str(per_group), "--out-dir", str(out)],
                       check=True, capture_output=True, timeout=60)
        paths[size] = (out / "responses.csv", out / "participants.csv")
    return paths


def study_stats(run: Run, args, plain, traced) -> None:
    paths = write_study(args.work, args.seed, STUDY_SIZES)
    sizes = {size: sum(p.stat().st_size for p in pair) for size, pair in paths.items()}

    def process(size, L):
        report = L.build_report(L.load_study(*paths[size]))
        return L.format_report(report), L.emit_report(report), L.emit_plot_spec(report)

    def step(size, op_id):
        text, machine, plot = run.timed(
            lambda L: process(size, L), plain, traced, op_id, "report", size)
        run.bytes_in += sizes[size]
        run.record({"paper": "op", "large": "heavy"}.get(size, size))
        run.count("ops")
        report_file = args.work / f"{size}-report.txt"
        if not report_file.exists():
            report_file.write_text(machine, encoding="utf-8")
        run.check(f"report-{size}", run.digest(f"report-{size}", sha(text, machine, plot)))

    closed_loop(run, args.seconds, ["paper"] * STUDY_PAPER_PER_CYCLE + ["mid", "large"], step)


# --- cli-oneshot ------------------------------------------------------------

def cli_oneshot(run: Run, args, plain, traced) -> None:
    rng = random.Random(args.seed)
    docs = [gen.short_bulletin(rng, f"cli-{i}") for i in range(CLI_DOCS)]
    work, out = args.work, args.work / "out"
    out.mkdir(exist_ok=True)
    inputs = []
    for b in docs:
        (work / f"{b.name}.txt").write_text(b.text, encoding="utf-8")
        inputs.append(work / f"{b.name}.txt")
    resp, part = write_study(work, args.seed, {"paper": STUDY_SIZES["paper"]})["paper"]
    # (name, arguments, input files, output files). Seven slots, an odd
    # number, so the median invocation falls inside one slot's times.
    slots = [
        ("parse", ["parse", inputs[0], "--out", out / "parse.canon"], inputs[:1], [out / "parse.canon"]),
        ("classify", ["classify", inputs[1]], inputs[1:2], []),
        ("classify-overall", ["classify", inputs[3], "--mode", "overall"], inputs[3:4], []),
        ("render", ["render", inputs[2], "--condition", "per-day-icons", "--format", "svg",
                    "--out", out / "render.svg"], inputs[2:3],
         [out / "render.svg", out / "render.svg.manifest"]),
        ("stimuli", ["stimuli", *inputs, "--condition", "icons", "--format", "html",
                     "--out", out / "stimuli"], inputs, [out / "stimuli"]),
        ("stats", ["stats", "--responses", resp, "--participants", part,
                   "--out", out / "report.txt", "--plot-spec", out / "plot.tsv"],
         [resp, part], [out / "report.txt", out / "plot.tsv"]),
        ("validate-tables", ["validate-tables"], [], []),
    ]
    if traced is not None:
        # Start-up floors, measured in the same rotation as the invocations
        # they are subtracted from.
        slots += [("probe:interpreter", ["-c", "pass"], [], []),
                  ("probe:import", ["-c", "import summitwx.cli"], [], [])]
    # The in-process answer for the first output file of these subcommands.
    expected = {
        "parse": emit_canonical(docs[0].expected).encode("utf-8"),
        "render": render(docs[2].expected, LayoutCondition.PER_DAY_ICONS, format="svg").payload,
        "stats": emit_report(build_report(load_study(resp, part))).encode("utf-8"),
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # An interpreter-start probe just before and just after each invocation.
    # Besides tracking the host, the probes hold a 20-second run to about
    # 60 invocations, well inside the 40-99 where the tail is p75.
    run.host = calib.HostSpeed(calib.interpreter_seconds, calib.INTERPRETER_REF_S, every=0)

    def cli_main(name, argv):
        program = [] if name.startswith("probe:") else ["-m", "summitwx.cli"]
        return subprocess.run([sys.executable, *program, *map(str, argv)],
                              env=env, capture_output=True, timeout=60)

    plain = SimpleNamespace(main=cli_main)
    if traced is not None:
        traced = SimpleNamespace(main=run.tracer.wrap("cli.main", cli_main))

    def outputs(paths):
        blobs = []
        for path in paths:
            files = sorted(path.iterdir()) if path.is_dir() else [path]
            blobs += [f.name.encode() + b"\0" + f.read_bytes() for f in files]
        return blobs

    def step(slot, op_id):
        name, argv, ins, outs = slot
        if name.startswith("probe:"):
            proc = run.timed(lambda L: L.main(name, argv), plain, None, op_id, name)
            run.record(name)
            run.check(name, [] if proc.returncode == 0 else [proc.stderr.decode()[-200:]])
            return
        proc = run.timed(lambda L: L.main(name, argv), plain, traced, op_id, "invocation", name)
        run.bytes_in += sum(p.stat().st_size for p in ins)
        run.record("op")
        run.record(f"cli:{name}")
        if name == "stats":
            run.record("heavy")
        run.count("ops")
        if proc.returncode != 0:
            run.check(name, [f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}"])
            return
        problems = []
        if name in expected and outs[0].read_bytes() != expected[name]:
            problems.append("output differs from the in-process result")
        run.check(name, problems + run.digest(f"cli-{name}", sha(proc.stdout, *outputs(outs))))

    closed_loop(run, args.seconds, slots, step)


def distributions_probe(calls: int = 30) -> dict[str, list[float]]:
    """Seconds per direct call, with the degrees of freedom of a paper-size
    report (4 groups of 32: CI df 31, ANOVA df 3 and 124, pairwise df 62)."""
    from summitwx.distributions import f_sf, t_ppf, t_two_sided_p

    probes = {
        "t_ppf": lambda: t_ppf(0.975, 31),
        "f_sf": lambda: f_sf(3.5, 3, 124),
        "t_two_sided_p": lambda: t_two_sided_p(2.1, 62),
    }
    out: dict[str, list[float]] = {}
    for name, call in probes.items():
        for _ in range(calls):
            start = time.perf_counter()
            call()
            out.setdefault(name, []).append(time.perf_counter() - start)
    return out


WORKLOADS = {
    "stimulus-batch": stimulus_batch,
    "long-bulletin": long_bulletin,
    "study-stats": study_stats,
    "cli-oneshot": cli_oneshot,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--reference", type=Path, help="reference digests to compare against")
    args = parser.parse_args()

    reference = None
    if args.reference is not None:
        reference = json.loads(args.reference.read_text(encoding="utf-8")).get(args.workload, {})
    tracer = layers.Tracer() if args.trace else None
    run = Run(reference, tracer)
    start = time.perf_counter()
    WORKLOADS[args.workload](run, args, layers.bind(), layers.bind(tracer) if tracer else None)
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "timeline": run.timeline,
        "latencies": run.latencies,
        "host": run.host.samples,
        "paired": run.paired,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "bytes_in": run.bytes_in,
        "counts": run.counts,
        "digests": run.digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        result["distributions"] = distributions_probe()
        result["spans"] = [[name, detail, parent, end - start, own]
                           for (name, detail, _, parent, start, end), own
                           in zip(tracer.spans, tracer.self_times())]
        with open(args.work / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "detail", "op_id", "parent", "start", "end"],
                       "spans": [list(span) for span in tracer.spans]}, fh)
    with open(args.work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
