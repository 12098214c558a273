"""The benchmark's outputs, held to their recorded digests.

Each case runs one pass of one ``perfbench`` workload at the reference seed,
with every check the workload makes (the goldens, the published icon rules,
the in-process CLI outputs), and compares each output's digest with
``perfbench/reference_digests.json``. The harness is imported from its files
and nothing in it changes. A deliberate output change re-records the digests
with ``python3 perfbench/run.py --write-reference``.
"""

import importlib.util
import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def worker():
    """``perfbench/worker.py``, imported with its sibling modules; the import
    path is restored afterwards."""
    saved = sys.path[:]
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", [name for name in REFERENCE if name != "seed"])
def test_one_pass_matches_the_reference_digests(worker, workload, tmp_path):
    reference = REFERENCE[workload]
    run = worker.Run(reference, None)
    args = Namespace(seed=REFERENCE["seed"], seconds=0.0, trace=0, work=tmp_path)
    worker.WORKLOADS[workload](run, args, worker.layers.bind(), None)
    assert run.failed == 0, run.failures
    differ = sorted(item for item in reference.keys() | run.digests.keys()
                    if run.digests.get(item) != reference.get(item))
    assert run.digests == reference, f"digests differ from the reference: {differ}"
