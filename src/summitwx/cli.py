"""Command-line pipeline: parse, classify, render, stimuli, stats, tables.

Exit codes: 0 success, 1 input error (bad flags, unreadable or invalid
input data), 2 internal invariant violation. Every failure path prints a
single-line diagnostic to stderr before exiting. All behavior is driven by
flags and input files; no environment variables, clock, or network.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .model import (
    CONDITION_TOKENS,
    FORMATS,
    WORST_CASE_LABEL,
    ForecastDocument,
    _fmt_num,
    _key_values,
    _read_input,
    _read_number,
    condition_from_token,
)

# Each subcommand imports the layers it runs, so that a one-shot call loads
# neither the scale tables, the canonical reader, the renderer nor the
# statistics lane unless it uses them.


class _CliError(ValueError):
    """Input-level failure; maps to exit code 1."""


class _SingleLineParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    try:
        return _read_input(Path(path), path, _CliError)
    except OSError as exc:
        raise _cannot_read(path, exc) from None


def _cannot_read(path, exc: OSError) -> _CliError:
    """The one form of every reader's error for an input it could not read."""
    return _CliError(f"cannot read {path}: {exc.strerror or exc}")


def _load_document(path: str, source_id: str | None = None) -> ForecastDocument:
    """Read a forecast file, raw or canonical, into a valid document. A raw
    file is named ``source_id``, or else its file stem; a canonical file
    keeps its own ``source_id:`` line."""
    from .textparse import format_diagnostic, parse_forecast

    text = _read_text(path)
    result = None
    if text.startswith("schema: "):  # only a file that may be canonical loads its reader
        from .canonical import SCHEMA, parse_canonical

        if text.startswith("schema: " + SCHEMA):
            result = parse_canonical(text)
    if result is None:
        result = parse_forecast(text, source_id=source_id or Path(path).stem)
    for diag in result.diagnostics:
        print(f"{path}: {format_diagnostic(diag, text)}", file=sys.stderr)
    if result.document is None:
        raise _CliError(f"{path}: {len(result.errors)} error diagnostic(s); no document")
    return result.document


def _load_tables_arg(args):
    from .hazards import load_tables

    if not args.tables:
        return load_tables()
    try:
        return load_tables(Path(args.tables))
    except OSError as exc:
        raise _cannot_read(exc.filename, exc) from None


def _write_or_print(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload, encoding="utf-8")


def _cmd_parse(args) -> int:
    from .canonical import emit_canonical

    _write_or_print(emit_canonical(_load_document(args.input, args.source_id)), args.out)
    return 0


def _icon_line(icons) -> str:
    return " ".join(icon.plain_text for icon in icons) if icons else "(none)"


_THRESHOLD_KEYS = ("wind_high_mph", "temperature_low_f")


def _load_thresholds(path: str):
    from .hazards import TriadThresholds

    values: dict[str, float] = {}
    for lineno, key, value in _key_values(_read_text(path)):
        if value is None or key not in _THRESHOLD_KEYS:
            raise _CliError(f"{path}:{lineno}: expected one of {', '.join(_THRESHOLD_KEYS)}")
        if key in values:
            raise _CliError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _read_number(value)
        except ValueError as exc:
            raise _CliError(f"{path}:{lineno}: {key} {exc}") from None
    missing = [k for k in _THRESHOLD_KEYS if k not in values]
    if missing:
        raise _CliError(f"{path}: missing threshold key(s): {', '.join(missing)}")
    return TriadThresholds(**values)


def _cmd_classify(args) -> int:
    from .hazards import derive_document_icons, derive_icons, triad_advisory

    doc = _load_document(args.input)
    tables = _load_tables_arg(args)
    lines: list[str] = []
    mode = args.mode or "both"
    if mode in ("per-period", "both"):
        lines.append("per-period:")
        for i, period in enumerate(doc.periods):
            icons = derive_icons(period, tables)
            lines.append(f"  {i + 1}. {period.label}: {_icon_line(icons)}")
    if mode in ("overall", "both"):
        (icons,) = derive_document_icons(doc, "overall", tables)
        lines.append("overall:")
        lines.append(f"  {WORST_CASE_LABEL}: {_icon_line(icons)}")
    if args.triad_thresholds:
        thresholds = _load_thresholds(args.triad_thresholds)
        lines.append("triad advisory:")
        for i, period in enumerate(doc.periods):
            advisory = triad_advisory(period, thresholds)
            factors = ", ".join(sorted(advisory.factors_dangerous)) or "none"
            lines.append(f"  {i + 1}. {period.label}: {advisory.verdict.value} ({factors})")
    _write_or_print("".join(f"{line}\n" for line in lines), args.out)
    return 0


def _cmd_render(args) -> int:
    from .layout import render

    doc = _load_document(args.input)
    tables = _load_tables_arg(args)
    condition = condition_from_token(args.condition)
    rendered = render(doc, condition, args.format, tables)
    if args.out is None:
        sys.stdout.write(rendered.payload.decode("utf-8"))
    else:
        Path(args.out).write_bytes(rendered.payload)
        manifest_path = Path(args.out).with_name(Path(args.out).name + ".manifest")
        manifest_text = "".join(f"{eid}\t{source}\n" for eid, source in rendered.manifest)
        manifest_path.write_text(manifest_text, encoding="utf-8")
    return 0


_SLUG_RE = re.compile(r"[^a-z0-9]+")
_EXTENSIONS = {"svg": "svg", "html": "html", "plain": "txt"}


def _cmd_stimuli(args) -> int:
    from .layout import render_stimulus_set

    docs = [_load_document(path) for path in args.inputs]
    tables = _load_tables_arg(args)
    condition = condition_from_token(args.condition)
    renders, index = render_stimulus_set(docs, condition, format=args.format, tables=tables)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = _EXTENSIONS[args.format]
    for i, (doc, rendered) in enumerate(zip(docs, renders)):
        slug = _SLUG_RE.sub("-", doc.source_id.lower()).strip("-") or f"doc-{i + 1}"
        (out_dir / f"{i + 1:02d}-{slug}.{ext}").write_bytes(rendered.payload)
    (out_dir / "index.tsv").write_text(index, encoding="utf-8")
    return 0


def _cmd_stats(args) -> int:
    from .stats import build_report, emit_plot_spec, emit_report, format_report, load_study

    try:
        participants = load_study(Path(args.responses), Path(args.participants))
    except OSError as exc:
        raise _cannot_read(exc.filename, exc) from None
    report = build_report(participants, correction_count=args.correction)
    sys.stdout.write(format_report(report))
    if args.out:
        Path(args.out).write_text(emit_report(report), encoding="utf-8")
    if args.plot_spec:
        Path(args.plot_spec).write_text(emit_plot_spec(report), encoding="utf-8")
    return 0


def _cmd_validate_tables(args) -> int:
    tables = _load_tables_arg(args)
    for kind in sorted(tables, key=lambda k: k.value):
        table = tables[kind]
        print(
            f"ok: {kind.value} ({table.scale_name}) bands={len(table.bands)} "
            f"domain=[{_fmt_num(table.domain_low)}, {_fmt_num(table.domain_high)}] {table.unit}"
        )
    print("all scale tables pass integrity checks")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _SingleLineParser(prog="summitwx", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse", help="raw forecast text to canonical format")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--source-id", default=None)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("classify", help="hazard icon listing per period and overall")
    p.add_argument("input")
    p.add_argument("--mode", choices=("overall", "per-period"), default=None)
    p.add_argument("--tables", default=None)
    p.add_argument("--triad-thresholds", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("render", help="render one document under one condition")
    p.add_argument("input")
    p.add_argument("--condition", required=True, choices=tuple(CONDITION_TOKENS))
    p.add_argument("--format", default="plain", choices=FORMATS)
    p.add_argument("--tables", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("stimuli", help="render a stimulus set into a directory")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--condition", required=True, choices=tuple(CONDITION_TOKENS))
    p.add_argument("--format", default="plain", choices=FORMATS)
    p.add_argument("--tables", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stimuli)

    p = sub.add_parser("stats", help="run the study statistics pipeline")
    p.add_argument("--responses", required=True)
    p.add_argument("--participants", required=True)
    p.add_argument("--correction", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--plot-spec")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("validate-tables", help="integrity-check the scale tables")
    p.add_argument("--tables", default=None)
    p.set_defaults(func=_cmd_validate_tables)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        message = str(exc).replace("\n", " | ")
        print(f"error: {message}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - exercised via fault injection
        message = str(exc).replace("\n", " | ")
        print(f"internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
