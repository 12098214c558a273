#!/usr/bin/env python3
"""Self-test of the benchmark; it checks no timing.

    python3 perfbench/selftest.py

* the generators, and the study CSVs written for a workload, give
  byte-identical inputs for the same seed and different inputs for
  another seed;
* every workload runs at its smallest size (one pass over its inputs), in
  both modes, and reports exactly the metrics ``BENCHMARK.json`` names,
  each with its unit, with no failed operation;
* a deliberately wrong reference digest is counted as a failed operation.

Exits 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def inputs(seed: int) -> list[str | bytes]:
    out: list[str | bytes] = [b.text for b in worker.stimulus_pool(seed)]
    out += [b.text for _, b in worker.long_pool(seed)]
    with tempfile.TemporaryDirectory(dir=run.WORK) as work:
        for pair in worker.write_study(Path(work), seed, {"paper": 32, "mid": 40}).values():
            out += [path.read_bytes() for path in pair]
    return out


def check_generators() -> None:
    expect(inputs(7) == inputs(7), "the same seed gave different inputs")
    expect(inputs(7) != inputs(8), "two seeds gave the same inputs")


def bench(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seconds", "0", *argv],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        problems.append(f"run.py {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    benchmark = run.declared()
    declared = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace, names in declared.items():
            result = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
            if not result:
                continue
            where = f"{workload} trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == names, f"{where}: metrics {sorted(set(got) ^ set(names))} "
                                 f"or their units differ from BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: {result['failed']} of {result['attempted']} operations failed")


def check_wrong_digest() -> None:
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    name = next(iter(reference["long-bulletin"]))
    reference["long-bulletin"][name] = "0" * 64
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run.WORK, delete=False) as fh:
        json.dump(reference, fh)
    try:
        _, attempted, failed, _ = run.run_one("long-bulletin", run.REFERENCE_SEED, 0, 0,
                                              Path(fh.name))
    finally:
        Path(fh.name).unlink()
    expect(attempted >= 1 and failed >= 1,
           "a wrong reference digest was not counted as a failure")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    check_generators()
    check_metrics()
    check_wrong_digest()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
