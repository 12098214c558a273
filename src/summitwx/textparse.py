"""Raw higher-summits forecast text to structured document.

The grammar targets the two-day / two-night layout: a narrative summary,
then exactly four period blocks opened by a header line. Everything is
extracted with closed, documented keyword sets; nothing is inferred and no
magnitude is ever invented. Unrecognized text is never guessed at: it gets
no diagnostic of its own and shows only as a lower ``coverage``.

Each period block is read in one left-to-right pass over its tokens:
sentence breaks, field labels, numbers, gust words, precipitation and
certainty keywords, and hazard keywords.

Grammar token sets. Keywords are ASCII letters in any case: the text is
folded once, ``A-Z`` to ``a-z``, and matched case-sensitively, so a
look-alike such as ``ſ`` (long s) or ``K`` (Kelvin sign) is not a keyword
letter. Digits are ASCII ``0-9``, and a carriage return anywhere is an
error at the first one.

* period headers, at line start, ending with a colon: ``Today``,
  ``Tonight``, ``This afternoon``, ``Overnight``, ``Tomorrow``, weekday
  names, each optionally followed by `` night``
* field labels: ``Temperature(s):``, ``Wind(s):``, ``Wind chill(s):``
* issue timestamp line: ``Issued: <ISO-8601>`` before the first header
* precipitation keywords: ``snow``, ``snow showers``, ``snowfall``,
  ``flurries``, ``sleet``, ``freezing rain``, ``rain``, ``rain showers``,
  ``wintry mix``, ``mixed precipitation``; certainty qualifiers ``likely``
  and ``chance`` bind within the same sentence
* hazard keywords for free-text notes: words starting ``flood`` or
  ``fog``, ``visibility``, ``whiteout``; a note wrapped across lines is
  joined with single spaces
* numbers: optional sign, optional decimals; a hyphen between two numbers
  (optional whitespace) binds as a range separator, not a sign; a trailing
  ``below [zero]`` negates; temperatures default to F and winds to mph
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

from .model import (
    COMPASS_POINTS,
    Certainty,
    ForecastDocument,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
    _document,
    _fmt_num,
    _period,
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

    ``coverage`` is the share of the input that was recognized. From
    :func:`parse_forecast` it is the fraction of the non-whitespace
    characters consumed by recognized constructs; from
    ``parse_canonical`` it is the fraction of the meaningful lines (not
    blank, not a ``#`` comment) that were recognized.
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
# Every pattern below is matched against the folded text (see _fold), so its
# keywords are spelled in lower case and match ASCII letters in any case.
_HEADER_RE = re.compile(
    rf"^[ \t]*(today|tonight|this afternoon|overnight|tomorrow(?: night)?"
    rf"|(?:{_WEEKDAYS})(?: night)?)[ \t]*:",
    re.MULTILINE,
)
_ISSUED_RE = re.compile(r"^[ \t]*issued[ \t]*:[ \t]*(.+?)[ \t]*$", re.MULTILINE)
_BELOW_RE = re.compile(r"\s*(?:degrees\s+)?below(?:\s+zero)?\b")
_RANGE_GAP_RE = re.compile(r"\s*(?:(?:-|to|or|through)\s*)?")
_COMPASS_RE = re.compile(  # the 16 points, longest first
    rf"\b({'|'.join(sorted(map(str.lower, COMPASS_POINTS), key=len, reverse=True))})\b(?!/)"
)
# The tokens of a period block. No two can overlap, so one left-to-right
# pass finds every token the grammar knows. A sentence stops at whitespace
# after ``.``, ``!`` or ``?`` and at the end of the block. Each pattern is
# followed by an empty group named for its token, so that an alternative
# still begins with its first character and is rejected on it. A
# precipitation token is named for its PrecipKind, each phrase before any
# phrase it starts with. A hazard keyword is matched as a word prefix, so
# digits glued to it still read as a number.
_WORD_TOKENS = (
    ("temp", r"temperatures?\s*:"),
    ("chill", r"wind\s+chills?\s*:"),
    ("wind", r"winds?\s*:"),
    ("gust", r"gust(?:s|ing)?\b"),
    ("likely", r"likely\b"),
    ("chance", r"chance\b"),
    ("hazard", r"(?:flood|fog|visibility\b|whiteout\b)"),
    ("FREEZING_RAIN", r"freezing\s+rain\b"),
    ("MIXED", r"(?:wintry\s+mix|mixed\s+precipitation)\b"),
    ("SNOW", r"(?:snow\s+showers|snowfall|flurries|snow)\b"),
    ("SLEET", r"sleet\b"),
    ("RAIN", r"(?:rain\s+showers|rain)\b"),
)
_TOKEN_RE = re.compile(
    r"-?[0-9]+(?:\.[0-9]+)?(?P<number>)|(?:(?<=[.!?])\s+|\Z)(?P<stop>)|\b(?:"
    + "|".join(f"{pattern}(?P<{name}>)" for name, pattern in _WORD_TOKENS) + ")"
)
_LABELS = frozenset(("temp", "chill", "wind"))
_FOLD = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", b"abcdefghijklmnopqrstuvwxyz")
_SPACE_RUN_RE = re.compile(r"\s+")


def _fold(text: str) -> str:
    """``text`` with ASCII ``A-Z`` mapped to ``a-z`` and every other
    character kept, so the fold has the same length and every span indexes
    both strings. UTF-8 keeps ASCII bytes for ASCII characters only, and
    ``str.translate`` would take a per-character path on non-ASCII text."""
    raw = text.encode("utf-8", "surrogatepass").translate(_FOLD)
    return raw.decode("utf-8", "surrogatepass")


@dataclass
class _Scan:
    text: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    recognized: list[tuple[int, int]] = field(default_factory=list)

    def diag(self, severity: Severity, span: tuple[int, int], message: str) -> None:
        self.diagnostics.append(Diagnostic(severity, span, message))

    def error(self, span: tuple[int, int], message: str) -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, span, message))

    def mark(self, start: int, end: int) -> None:
        if end > start:
            self.recognized.append((start, end))


def _numbers(folded: str, numbers: list[re.Match], start: int, end: int) -> list[float]:
    """Values of the number tokens ``numbers``, all inside
    ``folded[start:end]``, with the range-hyphen and below-zero rules."""
    values: list[float] = []
    negate: list[bool] = []
    for m in numbers:
        token = m[0]
        value = float(token)
        if token.startswith("-"):
            # Hyphen between two complete numbers separates a range.
            k = m.start() - 1
            while k >= start and folded[k].isspace():
                k -= 1
            if k >= start and "0" <= folded[k] <= "9":
                value = float(token[1:])
        values.append(value)
        negate.append(bool(_BELOW_RE.match(folded, m.end(), end)))
    # "35-50 below zero" puts the whole range below zero, so a trailing
    # negation spreads left across pure range separators.
    for i in range(len(values)):
        if not negate[i]:
            continue
        values[i] = -abs(values[i])
        j = i - 1
        while (j >= 0 and not negate[j]
               and _RANGE_GAP_RE.fullmatch(folded, numbers[j].end(), numbers[j + 1].start())):
            values[j] = -abs(values[j])
            j -= 1
    return values


def _envelope(values: list[float], unit: str) -> ValueRange:
    return ValueRange(low=min(values), high=max(values), unit=unit)


def _unwrap(note: str) -> str:
    """``note`` with each whitespace run that breaks a line folded to one
    space, so a sentence wrapped at a fixed width reads as one line."""
    if "\n" not in note:
        return note
    return _SPACE_RUN_RE.sub(lambda m: " " if "\n" in m[0] else m[0], note)


def _parse_period(scan: _Scan, folded: str, header: re.Match, block: tuple[int, int], index: int):
    text = scan.text
    start, end = block
    label = text[header.start(1):header.end(1)]
    heading = f"period {index + 1} ({label!r}): "

    # One pass over the block's tokens. A labelled statement runs from its
    # label to the next label or the end of its sentence, whichever comes
    # first; anything after the sentence is narrative, not part of the
    # value. Precipitation counts anywhere in a sentence, with the certainty
    # the sentence states; hazard notes and coverage come from the
    # sentence's narrative part, the text before its first label.
    statements: list[tuple[re.Match, int, list[re.Match], re.Match | None, int]] = []
    statement: re.Match | None = None  # the open statement's label token
    numbers: list[re.Match] = []
    gust: re.Match | None = None  # its first gust word, and how many numbers precede it
    gust_at = 0
    precip_events: list[tuple[PrecipKind, Certainty]] = []
    notes: list[str] = []
    s_start, narrative_end, kinds = start, None, []
    likely = chance = hazard = False
    for m in _TOKEN_RE.finditer(folded, start, end):
        token = m.lastgroup
        if token == "number":
            if statement is not None:
                numbers.append(m)
        elif token == "stop" or token in _LABELS:
            if statement is not None:
                statements.append((statement, m.start(), numbers, gust, gust_at))
                statement = None
            if token != "stop":
                statement, numbers, gust = m, [], None
                if narrative_end is None:
                    narrative_end = m.start()
                continue
            if kinds or hazard:
                certainty = (Certainty.LIKELY if likely else Certainty.CHANCE if chance
                             else Certainty.MENTIONED)
                for kind in kinds:
                    if (kind, certainty) not in precip_events:
                        precip_events.append((kind, certainty))
                note_end = m.start() if narrative_end is None else narrative_end
                if hazard:
                    notes.append(_unwrap(text[s_start:note_end].strip()))
                scan.mark(s_start, note_end)
            s_start, narrative_end, kinds = m.end(), None, []
            likely = chance = hazard = False
        elif token == "gust":
            if gust is None and statement is not None and statement.lastgroup == "wind":
                gust, gust_at = m, len(numbers)
        elif token == "likely":
            likely = True
        elif token == "chance":
            chance = True
        elif token == "hazard":
            hazard = hazard or narrative_end is None
        elif PrecipKind[token] not in kinds:
            kinds.append(PrecipKind[token])

    temp_values: list[float] = []
    chill_values: list[float] = []
    sustained_values: list[float] = []
    gust_values: list[float] = []
    direction: str | None = None
    for lm, seg_end, numbers, gust, gust_at in statements:
        scan.mark(lm.start(), seg_end)
        if lm.lastgroup == "temp":
            temp_values.extend(_numbers(folded, numbers, lm.end(), seg_end))
        elif lm.lastgroup == "chill":
            chill_values.extend(_numbers(folded, numbers, lm.end(), seg_end))
        else:
            # Numbers before the first gust word are sustained speeds, after it gusts.
            split = gust.start() if gust else seg_end
            pre = numbers[:gust_at] if gust else numbers
            sustained_values.extend(_numbers(folded, pre, lm.end(), split))
            if direction is None:
                dm = _COMPASS_RE.search(folded, lm.end(), pre[0].start() if pre else split)
                if dm:
                    direction = dm[1].upper()
            if gust:
                post = _numbers(folded, numbers[gust_at:], gust.end(), seg_end)
                if post:
                    gust_values.extend(post)
                else:
                    scan.diag(
                        Severity.WARNING, gust.span(),
                        f"{heading}gusts mentioned without a numeric value; "
                        "gust magnitude left unset",
                    )

    temperature = _envelope(temp_values, "F") if temp_values else None
    if temperature is None:
        scan.error(header.span(), heading + "no temperature found")
    sustained = _envelope(sustained_values, "mph") if sustained_values else None
    if sustained is None:
        scan.error(header.span(), heading + "no wind prediction found")
    gust_high = max(gust_values) if gust_values else None
    if gust_high is not None and sustained is not None and gust_high < sustained.high:
        scan.diag(
            Severity.WARNING, header.span(),
            f"{heading}stated gust {_fmt_num(gust_high)} mph is below "
            f"the sustained high {_fmt_num(sustained.high)} mph; gust ignored",
        )
        gust_high = None
    wind_chill = _envelope(chill_values, "F") if chill_values else None

    if temperature is None or sustained is None:
        return None
    return _period(
        scan.error, header.span(), heading,
        label=label,
        temperature=temperature,
        wind=WindPrediction(sustained=sustained, direction=direction, gust_high=gust_high),
        wind_chill=wind_chill,
        precip_events=tuple(PrecipEvent(k, c) for k, c in precip_events),
        extra_hazard_notes=tuple(notes),
    )


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
    cr = text.find("\r")
    if cr >= 0:
        message = "carriage return in input; expected bare newlines"
        return ParseResult(None, (Diagnostic(Severity.ERROR, (cr, cr + 1), message),), 0.0)
    scan = _Scan(text=text)
    folded = _fold(text)

    headers = list(_HEADER_RE.finditer(folded))
    if len(headers) != 4:
        scan.error((0, min(len(text), 1)), f"expected 4 periods, found {len(headers)}")
        return ParseResult(None, tuple(scan.diagnostics), _coverage(scan))

    preamble_end = headers[0].start()
    issued_at = EPOCH
    issued_match = _ISSUED_RE.search(folded, 0, preamble_end)
    summary_text = text[:preamble_end]
    if issued_match:
        stamp = text[issued_match.start(1):issued_match.end(1)]
        try:
            issued_at = datetime.fromisoformat(stamp)
        except ValueError:
            scan.diag(
                Severity.WARNING, issued_match.span(1),
                f"unreadable issue timestamp {stamp!r}; defaulting to the epoch",
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
        scan.error((0, preamble_end), "no summary narrative before the first period header")
    scan.mark(0, preamble_end)

    periods = []
    for i, header in enumerate(headers):
        block_start = header.end()
        block_end = headers[i + 1].start() if i + 1 < len(headers) else len(text)
        scan.mark(header.start(), header.end())
        period = _parse_period(scan, folded, header, (block_start, block_end), i)
        if period is not None:
            periods.append(period)

    doc = None
    if not any(d.severity is Severity.ERROR for d in scan.diagnostics):
        doc = _document(
            scan.error, lambda _: (0, min(len(text), 1)),
            issued_at=issued_at, summary_text=summary_text, periods=tuple(periods),
            source_id=source_id,
        )
    return ParseResult(doc, tuple(scan.diagnostics), _coverage(scan))
