"""Structured representation of a 48-hour higher-summits forecast.

A :class:`ForecastDocument` holds a narrative summary plus exactly four
12-hour periods (day 1, night 1, day 2, night 2). All values are plain
frozen dataclasses: immutable after construction and safe to share across
threads. Internal units are fixed to degrees Fahrenheit and statute mph;
unit conversion, if any, belongs at parse/render boundaries.

A :class:`ForecastPeriod` checks itself when constructed and raises
:class:`InvalidDocument` listing every violation, so every period that
exists is valid. A document's own rules are checked by :func:`require_valid`
at each entry point that takes a document. Both parsers build periods and
documents through :func:`_period` and :func:`_document`, which report each
broken rule as a diagnostic instead of raising.

The study layout conditions, their command-line tokens, the render formats
and the canonical number grammar and formatter live here too, so that the
statistics lane can name a condition without importing the renderer, and
the renderer can print a number without importing a parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from datetime import datetime
from enum import Enum


class PrecipKind(Enum):
    SNOW = "snow"
    SLEET = "sleet"
    FREEZING_RAIN = "freezing_rain"
    RAIN = "rain"
    MIXED = "mixed"


class Certainty(Enum):
    """Qualitative certainty token preserved from the forecast wording."""

    MENTIONED = "mentioned"
    LIKELY = "likely"
    CHANCE = "chance"


#: Precipitation kinds that count as winter precipitation. Plain rain and
#: unspecified mixes do not qualify.
WINTER_PRECIP_KINDS = frozenset(
    {PrecipKind.SNOW, PrecipKind.SLEET, PrecipKind.FREEZING_RAIN}
)

COMPASS_POINTS = (
    "N", "NNE", "NE", "ENE", "E", "ESE", "SE", "SSE",
    "S", "SSW", "SW", "WSW", "W", "WNW", "NW", "NNW",
)

WORST_CASE_LABEL = "Worst case (48 hours)"

FORMATS = ("svg", "html", "plain")


class LayoutCondition(Enum):
    BASELINE = "baseline"
    SUMMARY_LAST = "summary_last"
    ICONS = "icons"
    PER_DAY_ICONS = "per_day_icons"


#: Command-line spelling of each condition.
CONDITION_TOKENS = {
    "baseline": LayoutCondition.BASELINE,
    "summary-last": LayoutCondition.SUMMARY_LAST,
    "icons": LayoutCondition.ICONS,
    "per-day-icons": LayoutCondition.PER_DAY_ICONS,
}


# The forms _fmt_num emits (integers, repr floats such as 1.5e-07). float()
# alone would also take spaces, underscores, a leading '+', a bare '.', an
# upper-case exponent, non-ASCII digits, nan and inf.
_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?")


def _read_number(text: str) -> float:
    """The finite number ``text`` spells in the canonical grammar. Raises
    ValueError reading ``is not a number: '<text>'`` or ``is not finite:
    '<text>'``, for the caller to prefix with where ``text`` came from."""
    if not _NUMBER_RE.fullmatch(text):
        raise ValueError(f"is not a number: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"is not finite: {text!r}")
    return value


def _not_utf8(source, origin: str) -> str:
    """``<origin>:<line>: ...`` naming the first byte of the file ``source`` that is not UTF-8."""
    data = source.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1  # no UTF-8 sequence spans a newline
        return f"{origin}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
    return f"{origin}: not UTF-8"  # the file changed after the failed read


def _fmt_num(x: float) -> str:
    if math.isfinite(x) and x == int(x):
        return str(int(x))
    return repr(x)


def condition_from_token(token: str) -> LayoutCondition:
    try:
        return CONDITION_TOKENS[token]
    except KeyError:
        valid = "|".join(CONDITION_TOKENS)
        raise ValueError(f"unknown condition {token!r}; expected one of {valid}") from None


@dataclass(frozen=True)
class ValueRange:
    """Closed numeric range with a unit tag (``F`` or ``mph``).

    Point values are expressed as low == high.
    """

    low: float
    high: float
    unit: str = "F"


@dataclass(frozen=True)
class PrecipEvent:
    kind: PrecipKind
    certainty: Certainty = Certainty.MENTIONED


@dataclass(frozen=True)
class WindPrediction:
    sustained: ValueRange
    direction: str | None = None
    gust_high: float | None = None


@dataclass(frozen=True)
class ForecastPeriod:
    label: str
    temperature: ValueRange
    wind: WindPrediction
    wind_chill: ValueRange | None = None
    precip_events: tuple[PrecipEvent, ...] = ()
    extra_hazard_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        violations = validate_period(self)
        if violations:
            raise InvalidDocument(violations)


@dataclass(frozen=True)
class ForecastDocument:
    issued_at: datetime
    summary_text: str
    periods: tuple[ForecastPeriod, ...]
    source_id: str = ""


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which field, and which rule."""

    field_name: str
    rule: str


class InvalidDocument(ValueError):
    """Raised on constructing an invalid period, or by an operation on an invalid document."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        detail = "; ".join(f"{v.field_name}: {v.rule}" for v in violations)
        super().__init__(f"invalid forecast data: {detail}")


def _check_range(prefix: str, rng: ValueRange, unit: str, out: list[Violation]) -> None:
    if not (math.isfinite(rng.low) and math.isfinite(rng.high)):
        out.append(Violation(prefix, "values must be finite"))
    elif not (rng.low <= rng.high):
        out.append(Violation(prefix, f"low {_fmt_num(rng.low)} must be <= high {_fmt_num(rng.high)}"))
    if rng.unit != unit:
        out.append(Violation(prefix, f"unit must be {unit!r}, found {rng.unit!r}"))


def _check_single_line(prefix: str, value: str, out: list[Violation]) -> None:
    if "\n" in value or "\r" in value:
        out.append(Violation(prefix, "must not contain line breaks"))


def validate_period(period: ForecastPeriod, prefix: str = "period") -> list[Violation]:
    """Collect invariant violations for one period. Empty list means valid."""
    out: list[Violation] = []
    _check_single_line(f"{prefix}.label", period.label, out)
    _check_range(f"{prefix}.temperature", period.temperature, "F", out)
    if period.wind_chill is not None:
        _check_range(f"{prefix}.wind_chill", period.wind_chill, "F", out)
    _check_range(f"{prefix}.wind.sustained", period.wind.sustained, "mph", out)
    if period.wind.sustained.low < 0:
        out.append(Violation(f"{prefix}.wind.sustained", "wind speeds must be >= 0"))
    if period.wind.gust_high is not None and not math.isfinite(period.wind.gust_high):
        out.append(Violation(f"{prefix}.wind.gust_high", "values must be finite"))
    elif period.wind.gust_high is not None and period.wind.gust_high < period.wind.sustained.high:
        out.append(
            Violation(
                f"{prefix}.wind.gust_high",
                f"gust {_fmt_num(period.wind.gust_high)} must be >= sustained high "
                f"{_fmt_num(period.wind.sustained.high)}",
            )
        )
    if period.wind.direction is not None and period.wind.direction not in COMPASS_POINTS:
        out.append(
            Violation(f"{prefix}.wind.direction", f"unknown compass point {period.wind.direction!r}")
        )
    for i, ev in enumerate(period.precip_events):
        if not isinstance(ev.kind, PrecipKind):
            out.append(Violation(f"{prefix}.precip_events[{i}]", "kind outside the closed set"))
        if not isinstance(ev.certainty, Certainty):
            out.append(Violation(f"{prefix}.precip_events[{i}]", "certainty outside the closed set"))
    for i, note in enumerate(period.extra_hazard_notes):
        _check_single_line(f"{prefix}.extra_hazard_notes[{i}]", note, out)
    return out


def validate(doc: ForecastDocument) -> list[Violation]:
    """Collect the document's own invariant violations (its periods checked
    themselves when constructed). Violations are data, not failures."""
    out: list[Violation] = []
    if len(doc.periods) != 4:
        out.append(Violation("periods", f"expected exactly 4 periods, found {len(doc.periods)}"))
    if not doc.summary_text.strip():
        out.append(Violation("summary_text", "summary must be non-empty"))
    if "\r" in doc.summary_text:
        out.append(Violation("summary_text", "must use bare newlines, not carriage returns"))
    _check_single_line("source_id", doc.source_id, out)
    if "\t" in doc.source_id:  # the stimulus index is tab-separated
        out.append(Violation("source_id", "must not contain tabs"))
    return out


def require_valid(doc: ForecastDocument) -> ForecastDocument:
    violations = validate(doc)
    if violations:
        raise InvalidDocument(violations)
    return doc


def _period(report, span, heading: str, **fields) -> ForecastPeriod | None:
    """The period of ``fields``, or None once ``report(span, heading +
    "<field>: <rule>")`` has named each rule it breaks."""
    try:
        return ForecastPeriod(**fields)
    except InvalidDocument as exc:
        for v in exc.violations:
            report(span, f"{heading}{v.field_name.removeprefix('period.')}: {v.rule}")
        return None


def _document(report, span_of, **fields) -> ForecastDocument | None:
    """The document of ``fields``, or None once ``report(span_of(field),
    "<field>: <rule>")`` has named each rule it breaks."""
    doc = ForecastDocument(**fields)
    violations = validate(doc)
    for v in violations:
        report(span_of(v.field_name), f"{v.field_name}: {v.rule}")
    return None if violations else doc


def with_periods(doc: ForecastDocument, periods) -> ForecastDocument:
    return replace(doc, periods=tuple(periods))
