"""Raw higher-summits forecast text to structured document.

The grammar targets the two-day / two-night layout: a narrative summary,
then exactly four period blocks opened by a header line. Everything is
extracted with closed, documented keyword sets; nothing is inferred and no
magnitude is ever invented. Anything unrecognized is reported through
diagnostics and counted against coverage instead of being guessed at.

Grammar token sets (all keyword matching case-insensitive):

* period headers, at line start, ending with a colon: ``Today``,
  ``Tonight``, ``This afternoon``, ``Overnight``, ``Tomorrow``, weekday
  names, each optionally followed by `` night``
* field labels: ``Temperature(s):``, ``Wind(s):``, ``Wind chill(s):``
* issue timestamp line: ``Issued: <ISO-8601>`` before the first header
* precipitation keywords: ``snow``, ``snow showers``, ``snowfall``,
  ``flurries``, ``sleet``, ``freezing rain``, ``rain``, ``rain showers``,
  ``wintry mix``, ``mixed precipitation``; certainty qualifiers ``likely``
  and ``chance`` bind within the same sentence
* hazard keywords for free-text notes: ``flood``, ``fog``, ``visibility``,
  ``whiteout``; a note wrapped across lines is joined with single spaces
* numbers: optional sign, optional decimals; a hyphen between two numbers
  (optional whitespace) binds as a range separator, not a sign; a trailing
  ``below [zero]`` negates; temperatures default to F and winds to mph
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

from .model import (
    Certainty,
    ForecastDocument,
    ForecastPeriod,
    InvalidDocument,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
    validate,
)

EPOCH = datetime(1970, 1, 1)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    span: tuple[int, int]
    message: str


@dataclass(frozen=True)
class ParseResult:
    """Outcome of a parse: a document iff no error diagnostics.

    ``coverage`` is the fraction of the input's non-whitespace characters
    consumed by recognized constructs.
    """

    document: ForecastDocument | None
    diagnostics: tuple[Diagnostic, ...]
    coverage: float

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)


def format_diagnostic(diag: Diagnostic, text: str) -> str:
    """Render one diagnostic as ``severity:line:col message``."""
    start = diag.span[0]
    line = text.count("\n", 0, start) + 1
    col = start - (text.rfind("\n", 0, start) + 1) + 1
    return f"{diag.severity.value}:{line}:{col} {diag.message}"


_WEEKDAYS = "monday|tuesday|wednesday|thursday|friday|saturday|sunday"
_HEADER_RE = re.compile(
    rf"^[ \t]*(today|tonight|this afternoon|overnight|tomorrow(?: night)?"
    rf"|(?:{_WEEKDAYS})(?: night)?)[ \t]*:",
    re.IGNORECASE | re.MULTILINE,
)
_LABEL_RE = re.compile(r"\b(wind chills?|winds?|temperatures?)[ \t]*:", re.IGNORECASE)
_ISSUED_RE = re.compile(r"^[ \t]*issued[ \t]*:[ \t]*(.+?)[ \t]*$", re.IGNORECASE | re.MULTILINE)
_RAW_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")
_BELOW_RE = re.compile(r"[ \t]*(?:degrees[ \t]+)?below(?:[ \t]+zero)?\b", re.IGNORECASE)
_RANGE_GAP_RE = re.compile(r"^[ \t]*(?:-|to|or|through)?[ \t]*$", re.IGNORECASE)
_GUST_RE = re.compile(r"\bgust(?:s|ing)?\b", re.IGNORECASE)
_COMPASS_RE = re.compile(
    r"\b(NNE|ENE|ESE|SSE|SSW|WSW|WNW|NNW|NE|SE|SW|NW|N|E|S|W)\b(?!/)",
    re.IGNORECASE,
)
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")

_PRECIP_RE = re.compile(
    r"\b(freezing rain|wintry mix|mixed precipitation|snow showers|rain showers"
    r"|snowfall|flurries|snow|sleet|rain)\b",
    re.IGNORECASE,
)
_PRECIP_KINDS = {
    "freezing rain": PrecipKind.FREEZING_RAIN,
    "wintry mix": PrecipKind.MIXED,
    "mixed precipitation": PrecipKind.MIXED,
    "snow showers": PrecipKind.SNOW,
    "snowfall": PrecipKind.SNOW,
    "flurries": PrecipKind.SNOW,
    "snow": PrecipKind.SNOW,
    "sleet": PrecipKind.SLEET,
    "rain showers": PrecipKind.RAIN,
    "rain": PrecipKind.RAIN,
}
_LIKELY_RE = re.compile(r"\blikely\b", re.IGNORECASE)
_CHANCE_RE = re.compile(r"\bchance\b", re.IGNORECASE)
_HAZARD_NOTE_RE = re.compile(r"\b(flood\w*|fog\w*|visibility|whiteout)\b", re.IGNORECASE)
_SPACE_RUN_RE = re.compile(r"\s+")


@dataclass
class _Scan:
    text: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    recognized: list[tuple[int, int]] = field(default_factory=list)

    def diag(self, severity: Severity, span: tuple[int, int], message: str) -> None:
        self.diagnostics.append(Diagnostic(severity, span, message))

    def mark(self, start: int, end: int) -> None:
        if end > start:
            self.recognized.append((start, end))


def _numbers(scan: _Scan, start: int, end: int) -> list[tuple[float, tuple[int, int]]]:
    """Numbers in ``text[start:end]`` with range-hyphen and below-zero rules."""
    text = scan.text
    values: list[float] = []
    spans: list[tuple[int, int]] = []
    negate: list[bool] = []
    for m in _RAW_NUMBER_RE.finditer(text, start, end):
        token = m.group(0)
        value = float(token)
        if token.startswith("-"):
            # Hyphen between two complete numbers separates a range.
            k = m.start() - 1
            while k >= start and text[k] in " \t":
                k -= 1
            if k >= start and text[k].isdigit():
                value = float(token[1:])
        values.append(value)
        spans.append((m.start(), m.end()))
        negate.append(bool(_BELOW_RE.match(text, m.end(), end)))
    # "35-50 below zero" puts the whole range below zero, so a trailing
    # negation spreads left across pure range separators.
    for i in range(len(values)):
        if not negate[i]:
            continue
        values[i] = -abs(values[i])
        j = i - 1
        while j >= 0 and not negate[j] and _RANGE_GAP_RE.match(text[spans[j][1]:spans[j + 1][0]]):
            values[j] = -abs(values[j])
            j -= 1
    return list(zip(values, spans))


def _envelope(values: list[float], unit: str) -> ValueRange:
    return ValueRange(low=min(values), high=max(values), unit=unit)


def _sentences(text: str, offset: int) -> list[tuple[int, int]]:
    spans = []
    pos = 0
    for m in _SENTENCE_SPLIT_RE.finditer(text):
        spans.append((offset + pos, offset + m.start()))
        pos = m.end()
    if pos < len(text):
        spans.append((offset + pos, offset + len(text)))
    return [(a, b) for a, b in spans if text[a - offset:b - offset].strip()]


def _unwrap(note: str) -> str:
    """``note`` with each whitespace run that breaks a line folded to one
    space, so a sentence wrapped at a fixed width reads as one line."""
    if "\n" not in note and "\r" not in note:
        return note
    return _SPACE_RUN_RE.sub(lambda m: " " if "\n" in m[0] or "\r" in m[0] else m[0], note)


def _parse_period(scan: _Scan, header: re.Match, block: tuple[int, int], index: int):
    text = scan.text
    start, end = block
    label = header.group(1)

    segments: list[tuple[str, int, int]] = []  # (field kind, seg start, seg end)
    block_sentences = _sentences(text[start:end], start)
    sentence_starts = [a for a, _ in block_sentences]
    labels = list(_LABEL_RE.finditer(text, start, end))
    for i, lm in enumerate(labels):
        seg_start = lm.end()
        # A labeled statement never outlives its own sentence; anything after
        # the sentence is narrative, not part of the value. Sentences are
        # sorted and disjoint, so only the last one starting at or before the
        # label can contain it.
        j = bisect_right(sentence_starts, lm.start()) - 1
        sentence_end = end
        if j >= 0 and lm.start() < block_sentences[j][1]:
            sentence_end = block_sentences[j][1]
        seg_end = min(
            labels[i + 1].start() if i + 1 < len(labels) else end,
            sentence_end,
        )
        word = lm.group(1).lower()
        kind = "chill" if word.startswith("wind chill") else "wind" if word.startswith("wind") else "temp"
        segments.append((kind, seg_start, seg_end))
        scan.mark(lm.start(), seg_end)
    # Labeled intervals are sorted and disjoint: each ends at or before the
    # next label's start.
    label_starts = [lm.start() for lm in labels]
    label_ends = [seg_end for _, _, seg_end in segments]

    temp_values: list[float] = []
    chill_values: list[float] = []
    sustained_values: list[float] = []
    gust_values: list[float] = []
    direction: str | None = None

    for kind, seg_start, seg_end in segments:
        if kind == "temp":
            temp_values.extend(v for v, _ in _numbers(scan, seg_start, seg_end))
        elif kind == "chill":
            chill_values.extend(v for v, _ in _numbers(scan, seg_start, seg_end))
        else:
            gust_match = _GUST_RE.search(text, seg_start, seg_end)
            split = gust_match.start() if gust_match else seg_end
            pre_numbers = _numbers(scan, seg_start, split)
            sustained_values.extend(v for v, _ in pre_numbers)
            if direction is None:
                zone_end = pre_numbers[0][1][0] if pre_numbers else split
                dm = _COMPASS_RE.search(text, seg_start, zone_end)
                if dm:
                    direction = dm.group(1).upper()
            if gust_match:
                post = [v for v, _ in _numbers(scan, gust_match.end(), seg_end)]
                if post:
                    gust_values.extend(post)
                else:
                    scan.diag(
                        Severity.WARNING,
                        (gust_match.start(), gust_match.end()),
                        f"period {index + 1} ({label!r}): gusts mentioned without a "
                        "numeric value; gust magnitude left unset",
                    )

    # Block-wide sentence scan: precipitation everywhere, hazard notes and
    # coverage accounting over the narrative (unlabeled) sentences only.
    precip_events: list[tuple[PrecipKind, Certainty]] = []
    notes: list[str] = []
    for s_start, s_end in block_sentences:
        sentence = text[s_start:s_end]
        kinds = []
        for pm in _PRECIP_RE.finditer(sentence):
            kind = _PRECIP_KINDS[" ".join(pm.group(1).lower().split())]
            if kind not in kinds:
                kinds.append(kind)
        certainty = (
            Certainty.LIKELY if _LIKELY_RE.search(sentence)
            else Certainty.CHANCE if _CHANCE_RE.search(sentence)
            else Certainty.MENTIONED
        )
        for kind in kinds:
            if (kind, certainty) not in precip_events:
                precip_events.append((kind, certainty))

        k = bisect_right(label_starts, s_start)
        if k > 0 and s_start < label_ends[k - 1]:
            continue
        note_end = min(s_end, label_starts[k]) if k < len(label_starts) else s_end
        note_text = text[s_start:note_end].strip()
        if _HAZARD_NOTE_RE.search(note_text):
            notes.append(_unwrap(note_text))
            scan.mark(s_start, note_end)
        elif kinds:
            scan.mark(s_start, note_end)

    temperature = _envelope(temp_values, "F") if temp_values else None
    if temperature is None:
        scan.diag(
            Severity.ERROR, (header.start(), header.end()),
            f"period {index + 1} ({label!r}): no temperature found",
        )
    sustained = _envelope(sustained_values, "mph") if sustained_values else None
    if sustained is None:
        scan.diag(
            Severity.ERROR, (header.start(), header.end()),
            f"period {index + 1} ({label!r}): no wind prediction found",
        )
    gust_high = max(gust_values) if gust_values else None
    if gust_high is not None and sustained is not None and gust_high < sustained.high:
        scan.diag(
            Severity.WARNING, (header.start(), header.end()),
            f"period {index + 1} ({label!r}): stated gust {gust_high:g} mph is below "
            f"the sustained high {sustained.high:g} mph; gust ignored",
        )
        gust_high = None
    wind_chill = _envelope(chill_values, "F") if chill_values else None

    if temperature is None or sustained is None:
        return None
    try:
        return ForecastPeriod(
            label=label,
            temperature=temperature,
            wind=WindPrediction(sustained=sustained, direction=direction, gust_high=gust_high),
            wind_chill=wind_chill,
            precip_events=tuple(PrecipEvent(k, c) for k, c in precip_events),
            extra_hazard_notes=tuple(notes),
        )
    except InvalidDocument as exc:
        for v in exc.violations:
            field_name = v.field_name.removeprefix("period.")
            scan.diag(Severity.ERROR, header.span(), f"period {index + 1} ({label!r}): "
                      f"{field_name}: {v.rule}")
        return None


def _coverage(scan: _Scan) -> float:
    # str.split() and str.isspace() share one whitespace table, so joining
    # the split pieces counts the non-whitespace characters.
    text = scan.text
    total = len("".join(text.split()))
    if total == 0:
        return 0.0
    merged: list[list[int]] = []
    for a, b in sorted(scan.recognized):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    covered = sum(len("".join(text[a:b].split())) for a, b in merged)
    return covered / total


def parse_forecast(text: str, source_id: str = "") -> ParseResult:
    """Parse raw forecast text. Pure: same input, same result."""
    if not text:
        return ParseResult(None, (Diagnostic(Severity.ERROR, (0, 0), "empty input"),), 0.0)
    scan = _Scan(text=text)

    headers = list(_HEADER_RE.finditer(text))
    if len(headers) != 4:
        scan.diag(
            Severity.ERROR, (0, min(len(text), 1)),
            f"expected 4 periods, found {len(headers)}",
        )
        return ParseResult(None, tuple(scan.diagnostics), _coverage(scan))

    preamble_end = headers[0].start()
    issued_at = EPOCH
    issued_match = _ISSUED_RE.search(text, 0, preamble_end)
    summary_text = text[:preamble_end]
    if issued_match:
        try:
            issued_at = datetime.fromisoformat(issued_match.group(1))
        except ValueError:
            scan.diag(
                Severity.WARNING, issued_match.span(1),
                f"unreadable issue timestamp {issued_match.group(1)!r}; "
                "defaulting to the epoch",
            )
        summary_text = (
            text[:issued_match.start()] + text[issued_match.end():preamble_end]
        )
    else:
        scan.diag(
            Severity.INFO, (0, min(len(text), 1)),
            "no 'Issued:' line found; issue time defaults to the epoch",
        )
    summary_text = summary_text.strip()
    if not summary_text:
        scan.diag(
            Severity.ERROR, (0, preamble_end),
            "no summary narrative before the first period header",
        )
    scan.mark(0, preamble_end)

    periods = []
    for i, header in enumerate(headers):
        block_start = header.end()
        block_end = headers[i + 1].start() if i + 1 < len(headers) else len(text)
        scan.mark(header.start(), header.end())
        period = _parse_period(scan, header, (block_start, block_end), i)
        if period is not None:
            periods.append(period)

    if any(d.severity is Severity.ERROR for d in scan.diagnostics):
        return ParseResult(None, tuple(scan.diagnostics), _coverage(scan))

    doc = ForecastDocument(
        issued_at=issued_at,
        summary_text=summary_text,
        periods=tuple(periods),
        source_id=source_id,
    )
    violations = validate(doc)
    for v in violations:
        scan.diag(Severity.ERROR, (0, min(len(text), 1)), f"{v.field_name}: {v.rule}")
    if violations:
        return ParseResult(None, tuple(scan.diagnostics), _coverage(scan))
    return ParseResult(doc, tuple(scan.diagnostics), _coverage(scan))
