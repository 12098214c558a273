#!/usr/bin/env python3
"""Regenerate the golden render outputs under tests/golden/.

Every fixture forecast is rendered in every layout condition and output
format, and the payload bytes are written verbatim. Run this only after a
deliberate layout change, then review the diff; the golden tests pin these
bytes exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from summitwx.cli import _load_document
from summitwx.layout import CONDITION_TOKENS, FORMATS, condition_from_token, render

REPO = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO / "tests" / "fixtures"
GOLDEN_DIR = REPO / "tests" / "golden"

EXTENSIONS = {"plain": "txt", "svg": "svg", "html": "html"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", type=Path, default=FIXTURE_DIR)
    parser.add_argument("--golden", type=Path, default=GOLDEN_DIR)
    args = parser.parse_args(argv)

    paths = sorted(args.fixtures.glob("*.txt"))
    if not paths:
        print(f"no fixtures found in {args.fixtures}", file=sys.stderr)
        return 1

    args.golden.mkdir(parents=True, exist_ok=True)
    stale = set(p.name for p in args.golden.iterdir())
    written = 0
    for path in paths:
        try:  # as `summitwx render` loads it: diagnostics on stderr, named by its stem
            doc = _load_document(str(path))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for token in sorted(CONDITION_TOKENS):
            condition = condition_from_token(token)
            for fmt in FORMATS:
                name = f"{path.stem}__{token}.{EXTENSIONS[fmt]}"
                out = args.golden / name
                out.write_bytes(render(doc, condition, format=fmt).payload)
                stale.discard(name)
                written += 1
    for name in sorted(stale):
        (args.golden / name).unlink()
        print(f"removed stale golden {name}")
    print(f"wrote {written} golden files to {args.golden}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
