"""Canonical line-oriented interchange format, schema ``hsf-canonical/1``.

One fact per line as ``key: value``. Top-level keys appear at column 0;
period keys are indented exactly two spaces under a ``period:`` marker.
Summary narrative lines carry a ``|`` sentinel after the key so leading and
trailing whitespace survive unchanged. Lines that are blank or start with
``#`` are skipped.

Emission is deterministic: fixed key order, numbers printed as integers
when integral and in shortest round-trip form otherwise. Parsing is strict:
unknown keys, duplicate scalar keys, malformed numbers, tokens outside the
closed enum sets, and a period count other than four are all errors, never
silently ignored. ``parse_canonical(emit_canonical(doc)) == doc`` for every
valid document.
"""

from __future__ import annotations

from datetime import datetime

from .model import (
    Certainty,
    ForecastDocument,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
    _document,
    _fmt_num,
    _period,
    _read_number,
    require_valid,
)
from .textparse import Diagnostic, ParseResult, Severity

SCHEMA = "hsf-canonical/1"

_TOP_SCALARS = {"schema", "issued_at", "source_id"}
_PERIOD_SCALARS = {
    "label", "temp_low_f", "temp_high_f", "wind_dir",
    "wind_low_mph", "wind_high_mph", "gust_high_mph",
    "chill_low_f", "chill_high_f",
}
_PERIOD_REQUIRED = ("label", "temp_low_f", "temp_high_f", "wind_low_mph", "wind_high_mph")
#: Each valid ``precip:`` value, as the emitter spells it, and its event.
_PRECIP_EVENTS = {f"{kind.value} | {certainty.value}": PrecipEvent(kind, certainty)
                  for kind in PrecipKind for certainty in Certainty}


def emit_canonical(doc: ForecastDocument) -> str:
    """Serialize a document. Raises InvalidDocument when it breaks a document
    rule; its periods are valid by construction."""
    require_valid(doc)
    lines = [f"schema: {SCHEMA}", f"issued_at: {doc.issued_at.isoformat()}"]
    if doc.source_id:
        lines.append(f"source_id: {doc.source_id}")
    for raw in doc.summary_text.split("\n"):
        lines.append(f"summary: | {raw}" if raw else "summary: |")
    for p in doc.periods:
        lines.append("period:")
        lines.append(f"  label: {p.label}")
        lines.append(f"  temp_low_f: {_fmt_num(p.temperature.low)}")
        lines.append(f"  temp_high_f: {_fmt_num(p.temperature.high)}")
        lines.append(f"  wind_low_mph: {_fmt_num(p.wind.sustained.low)}")
        lines.append(f"  wind_high_mph: {_fmt_num(p.wind.sustained.high)}")
        if p.wind.direction is not None:
            lines.append(f"  wind_dir: {p.wind.direction}")
        if p.wind.gust_high is not None:
            lines.append(f"  gust_high_mph: {_fmt_num(p.wind.gust_high)}")
        if p.wind_chill is not None:
            lines.append(f"  chill_low_f: {_fmt_num(p.wind_chill.low)}")
            lines.append(f"  chill_high_f: {_fmt_num(p.wind_chill.high)}")
        for ev in p.precip_events:
            lines.append(f"  precip: {ev.kind.value} | {ev.certainty.value}")
        for note in p.extra_hazard_notes:
            lines.append(f"  hazard_note: {note}")
    return "\n".join(lines) + "\n"


class _PeriodDraft:
    def __init__(self, span: tuple[int, int]) -> None:
        self.span = span  # of its 'period:' marker line
        self.scalars: dict[str, str] = {}
        self.spans: dict[str, tuple[int, int]] = {}
        self.precip: list[PrecipEvent] = []
        self.notes: list[str] = []


def parse_canonical(text: str) -> ParseResult:
    """Parse canonical text. Document present iff no error diagnostics."""
    diags: list[Diagnostic] = []
    top: dict[str, str] = {}
    top_spans: dict[str, tuple[int, int]] = {}
    summary_lines: list[str] = []
    drafts: list[_PeriodDraft] = []
    meaningful = 0

    def err(span: tuple[int, int], message: str) -> None:
        diags.append(Diagnostic(Severity.ERROR, span, message))

    has_cr = "\r" in text
    offset = 0
    for raw_line in text.split("\n"):
        start = offset
        offset += len(raw_line) + 1
        stripped = raw_line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        meaningful += 1
        problem = None
        in_period = raw_line.startswith("  ") and raw_line[2] != " "
        content = raw_line[2:] if in_period else raw_line
        key, colon, rest = content.partition(":")
        value = rest[1:]
        if has_cr and "\r" in raw_line:
            problem = "carriage return in input; expected bare newlines"
        elif not (key and colon) or rest[:1] not in ("", " "):
            problem = f"expected 'key: value', found {content!r}"
        elif not top and (in_period or key != "schema"):
            problem = "first entry must be the schema declaration"
        elif in_period:
            if not drafts:
                problem = f"period key {key!r} before any 'period:' marker"
            elif key in _PERIOD_SCALARS:
                draft = drafts[-1]
                if key in draft.scalars:
                    problem = f"duplicate key {key!r} in period {len(drafts)}"
                else:
                    draft.scalars[key] = value
                    draft.spans[key] = (start, offset - 1)
            elif key == "precip":
                event = _PRECIP_EVENTS.get(value)
                if event is not None:
                    drafts[-1].precip.append(event)
                elif len(value.split(" | ")) != 2:
                    problem = f"expected 'kind | certainty', found {value!r}"
                else:
                    problem = f"unknown precipitation token in {value!r}"
            elif key == "hazard_note":
                drafts[-1].notes.append(value)
            else:
                problem = f"unknown key {key!r}"
        elif key == "schema":
            if top:
                problem = "duplicate schema declaration"
            elif value != SCHEMA:
                problem = f"unsupported schema {value!r}; expected {SCHEMA!r}"
            else:
                top["schema"] = value
        elif key in _TOP_SCALARS:
            if key in top:
                problem = f"duplicate key {key!r}"
            else:
                top[key] = value
                top_spans[key] = (start, offset - 1)
        elif key == "summary" and value[:2] not in ("|", "| "):
            problem = (f"summary value must start with '|' and a space, or be '|' alone, "
                       f"found {value!r}")
        elif key == "summary":
            if not summary_lines:
                top_spans["summary_text"] = (start, offset - 1)
            # '|' alone is an empty line, and "|"[2:] == "".
            summary_lines.append(value[2:])
        elif key == "period" and value != "":
            problem = f"'period:' takes no value, found {value!r}"
        elif key == "period":
            drafts.append(_PeriodDraft((start, offset - 1)))
        else:
            problem = f"unknown key {key!r}"
        if problem is not None:
            err((start, offset - 1), problem)
    recognized = meaningful - len(diags)  # each line problem is one diagnostic

    whole = (0, len(text))
    if "schema" not in top:
        err(whole, "missing schema declaration")
    if "issued_at" not in top:
        err(whole, "missing issued_at")
    if len(drafts) != 4:
        err(whole, f"expected 4 periods, found {len(drafts)}")

    issued_at = None
    if "issued_at" in top:
        try:
            issued_at = datetime.fromisoformat(top["issued_at"])
        except ValueError:
            err(top_spans["issued_at"], f"unreadable issued_at {top['issued_at']!r}")

    periods = []
    for i, draft in enumerate(drafts):
        reported = len(diags)
        for key in _PERIOD_REQUIRED:
            if key not in draft.scalars:
                err(draft.span, f"period {i + 1}: missing required key {key!r}")
        nums: dict[str, float] = {}
        for key, value in draft.scalars.items():
            if key in ("label", "wind_dir"):
                continue
            try:
                nums[key] = _read_number(value)
            except ValueError as exc:
                err(draft.spans[key], f"period {i + 1}: {key} {exc}")
        if ("chill_low_f" in draft.scalars) != ("chill_high_f" in draft.scalars):
            err(draft.span, f"period {i + 1}: chill_low_f and chill_high_f must appear together")
        if len(diags) > reported:
            continue
        wind_chill = None
        if "chill_low_f" in nums:
            wind_chill = ValueRange(nums["chill_low_f"], nums["chill_high_f"], "F")
        period = _period(
            err, draft.span, f"period {i + 1}: ",
            label=draft.scalars["label"],
            temperature=ValueRange(nums["temp_low_f"], nums["temp_high_f"], "F"),
            wind=WindPrediction(
                sustained=ValueRange(nums["wind_low_mph"], nums["wind_high_mph"], "mph"),
                direction=draft.scalars.get("wind_dir"),
                gust_high=nums.get("gust_high_mph"),
            ),
            wind_chill=wind_chill,
            precip_events=tuple(draft.precip),
            extra_hazard_notes=tuple(draft.notes),
        )
        if period is not None:
            periods.append(period)

    doc = None
    # Every diagnostic this parser makes is an error, so any diagnostic means no document.
    if not diags:
        doc = _document(
            err, lambda field_name: top_spans.get(field_name, whole),
            issued_at=issued_at, summary_text="\n".join(summary_lines), periods=tuple(periods),
            source_id=top.get("source_id", ""),
        )
    return ParseResult(doc, tuple(diags), recognized / meaningful if meaningful else 0.0)
