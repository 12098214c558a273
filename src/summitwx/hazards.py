"""Cold-weather hazard classification driven by shipped scale tables.

Derives at most one icon per hazard kind (wind, wind chill, freezing
temperature, winter precipitation) from a forecast period, in a fixed
order, using only the period's own fields plus the packaged scale tables.
Nothing else -- no clock, network, or ambient configuration -- can affect
the result.

The scale tables ship as data files under ``summitwx/scales`` so the band
edges and colors can be audited or re-transcribed against the published
standards they come from; each file carries a provenance note. Tables are
integrity-checked at load time and immutable afterwards.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path, PurePath, PurePosixPath
from types import MappingProxyType
from typing import Mapping

from .model import (
    WINTER_PRECIP_KINDS,
    ForecastDocument,
    ForecastPeriod,
    _not_utf8,
    _read_number,
    require_valid,
)


class HazardKind(Enum):
    WIND = "wind"
    WIND_CHILL = "wind_chill"
    FREEZING_TEMP = "freezing_temp"
    WINTER_PRECIP = "winter_precip"


#: Icon emission order within a set. Fixed; never reordered by content.
KIND_ORDER = tuple(HazardKind)

GLYPH_IDS = {
    HazardKind.WIND: "wind",
    HazardKind.WIND_CHILL: "wind-chill",
    HazardKind.FREEZING_TEMP: "freezing-temp",
    HazardKind.WINTER_PRECIP: "winter-precip",
}

_TABLE_FILES = {
    HazardKind.WIND: "beaufort.table",
    HazardKind.WIND_CHILL: "wind_chill.table",
    HazardKind.FREEZING_TEMP: "freezing.table",
    HazardKind.WINTER_PRECIP: "winter_precip.table",
}

_COLOR_RE = re.compile(r"^#[0-9A-F]{6}$")
#: The header keys a scale table states once each.
_HEADER_KEYS = frozenset(("schema", "kind", "scale_name", "unit", "domain", "closed_edge"))


class ScaleTableError(ValueError):
    """A scale-table file is malformed or fails its integrity checks."""


@dataclass(frozen=True)
class ScaleBand:
    level: int
    low: float
    high: float
    color: str
    label: str


@dataclass(frozen=True)
class ScaleTable:
    kind: HazardKind
    scale_name: str
    unit: str
    domain_low: float
    domain_high: float
    closed_edge: str  # "low": bands are [low, high); "high": bands are (low, high]
    provenance: str
    bands: tuple[ScaleBand, ...]

    def band_for(self, value: float) -> ScaleBand:
        """Band containing ``value``; values beyond the domain take the end band."""
        x = min(max(value, self.domain_low), self.domain_high)
        if self.closed_edge == "low":
            for band in self.bands[:-1]:
                if band.low <= x < band.high:
                    return band
            return self.bands[-1]
        for band in self.bands[1:][::-1]:
            if band.low < x <= band.high:
                return band
        return self.bands[0]

    def level_for(self, value: float) -> int:
        return self.band_for(value).level


def _number(text: str, name: str, where: str) -> float:
    try:
        return _read_number(text)
    except ValueError as exc:
        raise ScaleTableError(f"{where}: {name} {exc}") from None


def _read_scale_table(source, origin: str) -> ScaleTable:
    """The scale table in the file or package resource ``source``. A line's
    error names ``origin:line``, an error of the whole table ``origin``."""
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ScaleTableError(_not_utf8(source, origin)) from None
    fields: dict[str, str] = {}
    at: dict[str, str] = {}  # where each key sits, as origin:line
    provenance: list[str] = []
    bands: list[ScaleBand] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ScaleTableError(f"{origin}:{lineno}: expected 'key: value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key == "provenance":
            provenance.append(value)
        elif key == "band":
            parts = [p.strip() for p in value.split("|")]
            if len(parts) != 5:
                raise ScaleTableError(f"{origin}:{lineno}: band needs 5 fields, got {len(parts)}")
            where = f"{origin}:{lineno}"
            level = _number(parts[0], "level", where)
            if not level.is_integer():
                raise ScaleTableError(f"{where}: level is not a whole number: {parts[0]!r}")
            bands.append(ScaleBand(
                level=round(level), low=_number(parts[1], "low", where),
                high=_number(parts[2], "high", where), color=parts[3], label=parts[4],
            ))
        elif key in _HEADER_KEYS:
            if key in fields:
                raise ScaleTableError(f"{origin}:{lineno}: duplicate key {key!r}")
            fields[key] = value
            at[key] = f"{origin}:{lineno}"
        else:
            raise ScaleTableError(f"{origin}:{lineno}: unknown key {key!r}")

    missing = _HEADER_KEYS - fields.keys()
    if missing:
        raise ScaleTableError(f"{origin}: missing keys: {', '.join(sorted(missing))}")
    if fields["schema"] != "hazard-scale/1":
        raise ScaleTableError(f"{at['schema']}: unsupported schema {fields['schema']!r}")
    try:
        kind = HazardKind(fields["kind"])
    except ValueError:
        raise ScaleTableError(f"{at['kind']}: unknown hazard kind {fields['kind']!r}") from None
    if fields["closed_edge"] not in {"low", "high"}:
        raise ScaleTableError(f"{at['closed_edge']}: closed_edge must be 'low' or 'high'")
    where = at["domain"]
    domain_parts = [p.strip() for p in fields["domain"].split("|")]
    if len(domain_parts) != 2:
        raise ScaleTableError(f"{where}: domain needs 'low | high'")
    domain_low, domain_high = (_number(part, "domain", where) for part in domain_parts)
    if not provenance:
        raise ScaleTableError(f"{origin}: provenance note is mandatory")

    table = ScaleTable(
        kind=kind,
        scale_name=fields["scale_name"],
        unit=fields["unit"],
        domain_low=domain_low,
        domain_high=domain_high,
        closed_edge=fields["closed_edge"],
        provenance=" ".join(provenance),
        bands=tuple(bands),
    )
    _check_integrity(table, origin)
    return table


def _check_integrity(table: ScaleTable, origin: str) -> None:
    if not table.bands:
        raise ScaleTableError(f"{origin}: no bands")
    if not table.domain_low < table.domain_high:
        raise ScaleTableError(f"{origin}: empty domain")
    if table.bands[0].low != table.domain_low or table.bands[-1].high != table.domain_high:
        raise ScaleTableError(f"{origin}: bands do not cover the declared domain")
    for band in table.bands:
        if not band.low < band.high:
            raise ScaleTableError(f"{origin}: level {band.level} band is empty or inverted")
        if not _COLOR_RE.match(band.color):
            raise ScaleTableError(f"{origin}: level {band.level} color {band.color!r} is not #RRGGBB")
    for a, b in zip(table.bands, table.bands[1:]):
        if a.high != b.low:
            raise ScaleTableError(
                f"{origin}: gap or overlap between levels {a.level} and {b.level}"
            )
    levels = [band.level for band in table.bands]
    if len(set(levels)) != len(levels):
        raise ScaleTableError(f"{origin}: duplicate levels")
    ascending = all(a < b for a, b in zip(levels, levels[1:]))
    descending = all(a > b for a, b in zip(levels, levels[1:]))
    if not (ascending or descending):
        raise ScaleTableError(f"{origin}: levels must be strictly monotone across the domain")


def load_scale_table(path: Path) -> ScaleTable:
    return _read_scale_table(path, str(path))


def load_tables(directory: Path | None = None) -> Mapping[HazardKind, ScaleTable]:
    """Load and integrity-check all four scale tables.

    With no argument, loads the packaged tables (cached, immutable). A
    directory argument loads re-transcribed tables from disk instead; the
    same integrity checks apply.
    """
    if directory is None:
        return _packaged_tables()
    return _read_tables(directory, directory)


@lru_cache(maxsize=1)
def _packaged_tables() -> Mapping[HazardKind, ScaleTable]:
    scales = resources.files("summitwx") / "scales"
    return _read_tables(scales, PurePosixPath("summitwx/scales"))


def _read_tables(root, origin_root: PurePath) -> Mapping[HazardKind, ScaleTable]:
    """The four tables under ``root`` (a directory or package resource), each
    named ``origin_root / filename`` in diagnostics."""
    tables = {}
    for kind, filename in _TABLE_FILES.items():
        origin = str(origin_root / filename)
        table = _read_scale_table(root / filename, origin)
        if table.kind is not kind:
            raise ScaleTableError(f"{origin}: declares kind {table.kind.value!r}")
        tables[kind] = table
    return MappingProxyType(tables)


def round_half_away(x: float) -> int:
    """Round to the nearest integer, ties away from zero (chart granularity)."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def wind_chill(temperature_f: float, wind_mph: float) -> float:
    """Wind chill in degrees F per the national weather service model.

    Valid for temperatures at or below 50 F with wind above 3 mph; outside
    that envelope the model is undefined and the air temperature is
    returned unchanged. Coefficients are the published 2001 model constants.
    """
    if temperature_f > 50.0 or wind_mph <= 3.0:
        return temperature_f
    v16 = wind_mph ** 0.16
    return 35.74 + 0.6215 * temperature_f - 35.75 * v16 + 0.4275 * temperature_f * v16


def beaufort_force(sustained_high_mph: float, tables=None) -> int:
    """Beaufort force 0-12 for a sustained wind speed in mph."""
    if not sustained_high_mph >= 0:  # NaN too
        raise ValueError(f"wind speed must be >= 0, got {sustained_high_mph}")
    tables = tables or load_tables()
    return tables[HazardKind.WIND].level_for(sustained_high_mph)


def wind_chill_category(wc_f: float, tables=None) -> int:
    """Frostbite-time category 0-3 for a wind chill in degrees F.

    0: no frostbite hazard; 1: frostbite within 30 minutes; 2: within 10;
    3: within 5. The wind chill is rounded half-away-from-zero to a whole
    degree first, matching the hazard chart's granularity. A value exactly
    at a band threshold takes the more severe category; an infinite one takes
    the end band.
    """
    if math.isnan(wc_f):
        raise ValueError(f"wind chill must be a number, got {wc_f}")
    tables = tables or load_tables()
    degrees = round_half_away(wc_f) if math.isfinite(wc_f) else wc_f
    return tables[HazardKind.WIND_CHILL].level_for(degrees)


@dataclass(frozen=True)
class HazardIcon:
    """One derived hazard icon: kind, severity level, and standard color.

    ``color`` is a pure function of (kind, level) through the scale tables.
    ``gust_annotation`` rides along on wind icons when gusts reach a higher
    Beaufort band than the sustained wind; it never changes the level.
    """

    kind: HazardKind
    level: int
    color: str
    scale_name: str
    glyph_id: str
    label: str
    gust_annotation: float | None = None


#: Lowest Beaufort force that shows a wind icon. Every force has an icon, but
#: forces below 6 (strong breeze) are not hazards.
WIND_DISPLAY_FLOOR = 6


def _icon(table: ScaleTable, band: ScaleBand, gust: float | None = None) -> HazardIcon:
    return HazardIcon(
        kind=table.kind,
        level=band.level,
        color=band.color,
        scale_name=table.scale_name,
        glyph_id=GLYPH_IDS[table.kind],
        label=band.label,
        gust_annotation=gust,
    )


def period_wind_chill(period: ForecastPeriod) -> float:
    """Worst (lowest) wind chill for a period.

    Uses the forecaster's stated wind-chill range when present; otherwise
    computes from the period's coldest temperature and highest sustained
    wind. Forecast content is never second-guessed when stated.
    """
    if period.wind_chill is not None:
        return period.wind_chill.low
    return wind_chill(period.temperature.low, period.wind.sustained.high)


def derive_icons(
    period: ForecastPeriod,
    tables=None,
) -> tuple[HazardIcon, ...]:
    """Derive the icon set for one period, in fixed kind order.

    Consumes only the period's fields and the scale tables: wind icon at or
    above Beaufort force :data:`WIND_DISPLAY_FLOOR`; wind-chill icon for any
    frostbite-time category; freezing icon for a low strictly below 32 F;
    winter-precipitation icon for any snow, sleet, or freezing-rain event.
    At most one icon per kind. A period is valid by construction.
    """
    tables = tables or load_tables()
    return _icons(_bands(period, tables), period.wind.gust_high, tables)


def _bands(period: ForecastPeriod, tables) -> tuple[ScaleBand, ...]:
    """The period's band on each scale, in :data:`KIND_ORDER`."""
    winter_kinds = {ev.kind for ev in period.precip_events if ev.kind in WINTER_PRECIP_KINDS}
    return (
        tables[HazardKind.WIND].band_for(period.wind.sustained.high),
        tables[HazardKind.WIND_CHILL].band_for(round_half_away(period_wind_chill(period))),
        tables[HazardKind.FREEZING_TEMP].band_for(period.temperature.low),
        tables[HazardKind.WINTER_PRECIP].band_for(len(winter_kinds)),
    )


def _icons(bands, gust: float | None, tables) -> tuple[HazardIcon, ...]:
    """Icons for one band per kind: wind at or above the display floor, badged
    with ``gust`` when that reaches a higher force; other kinds at level >= 1."""
    force, *others = bands
    icons: list[HazardIcon] = []
    wind_table = tables[HazardKind.WIND]
    if force.level >= WIND_DISPLAY_FLOOR:
        badge = gust if gust is not None and wind_table.level_for(gust) > force.level else None
        icons.append(_icon(wind_table, force, gust=badge))
    for kind, band in zip(KIND_ORDER[1:], others):
        if band.level >= 1:
            icons.append(_icon(tables[kind], band))
    return tuple(icons)


def derive_document_icons(
    doc: ForecastDocument,
    mode: str = "overall",
    tables=None,
) -> tuple[tuple[HazardIcon, ...], ...]:
    """Icon sets for a whole document.

    ``per_period`` yields one set per period, in order; ``overall`` yields
    one set that carries, per hazard kind, the highest level any single
    period reaches, with the wind icon badged by the highest stated gust
    when that gust reaches a higher force.
    """
    periods = require_valid(doc).periods
    tables = tables or load_tables()
    if mode == "overall":
        worst = [max(column, key=lambda band: band.level)
                 for column in zip(*(_bands(p, tables) for p in periods))]
        gust = max((p.wind.gust_high for p in periods if p.wind.gust_high is not None),
                   default=None)
        return (_icons(worst, gust, tables),)
    if mode == "per_period":
        return tuple(derive_icons(p, tables) for p in periods)
    raise ValueError(f"mode must be 'overall' or 'per_period', got {mode!r}")


class TriadVerdict(Enum):
    GO = "go"
    CAUTION = "caution"
    NO_GO = "no_go"


@dataclass(frozen=True)
class TriadThresholds:
    """Danger cutoffs for the wind/visibility/temperature advisory.

    No defaults ship anywhere: the advisory encodes one workshop
    participant's rule of thumb, and the cutoffs are an explicit judgment
    call the caller must own.
    """

    wind_high_mph: float
    temperature_low_f: float


@dataclass(frozen=True)
class TriadAdvisory:
    factors_dangerous: frozenset[str]
    verdict: TriadVerdict


_VISIBILITY_NOTE_RE = re.compile(r"\b(fog|visibility|whiteout)\b", re.IGNORECASE)


def triad_advisory(period: ForecastPeriod, thresholds: TriadThresholds) -> TriadAdvisory:
    """Go / caution / no-go verdict from the wind-visibility-temperature triad.

    One factor at a dangerous level means caution; two or more mean no-go.
    Visibility counts as dangerous when a fog/visibility hazard note was
    parsed out of the forecast text.
    """
    if thresholds is None:
        raise ValueError("triad thresholds must be supplied explicitly")
    dangerous = set()
    if period.wind.sustained.high >= thresholds.wind_high_mph:
        dangerous.add("wind")
    if period.temperature.low <= thresholds.temperature_low_f:
        dangerous.add("temperature")
    if any(_VISIBILITY_NOTE_RE.search(note) for note in period.extra_hazard_notes):
        dangerous.add("visibility")
    verdict = (
        TriadVerdict.GO if not dangerous
        else TriadVerdict.CAUTION if len(dangerous) == 1
        else TriadVerdict.NO_GO
    )
    return TriadAdvisory(factors_dangerous=frozenset(dangerous), verdict=verdict)
