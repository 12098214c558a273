"""Independent reference answers that the benchmark checks outputs against.

Icon levels and triad verdicts are recomputed here from the published rules
the README states (Beaufort edges in mph, the NWS wind-chill model with its
frostbite thresholds, freezing below 32 F, winter precipitation kinds), not
from the package's scale tables. Study statistics are recomputed with scipy
from the CSV files, in the parent process, so scipy never enters the timed
worker.
"""

from __future__ import annotations

import csv
import math

BEAUFORT_EDGES_MPH = (0, 1, 4, 8, 13, 19, 25, 32, 39, 47, 55, 64, 73)
WIND_DISPLAY_FLOOR = 6
WINTER_KINDS = {"snow", "sleet", "freezing_rain"}
TRIAD_THRESHOLDS = {"wind_high_mph": 50.0, "temperature_low_f": 0.0}
STATS_TOL = 1e-9


def beaufort(mph: float) -> int:
    return max(force for force, edge in enumerate(BEAUFORT_EDGES_MPH) if mph >= edge)


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _chill_category(chill_f: float) -> int:
    c = _round_half_away(chill_f)
    return 3 if c <= -60 else 2 if c <= -36 else 1 if c <= -16 else 0


def _period_chill(period) -> float:
    if period.wind_chill is not None:
        return period.wind_chill.low
    t, v = period.temperature.low, period.wind.sustained.high
    if t > 50.0 or v <= 3.0:
        return t
    v16 = v ** 0.16
    return 35.74 + 0.6215 * t - 35.75 * v16 + 0.4275 * t * v16


def period_icons(period) -> tuple[tuple[str, int, float | None], ...]:
    """Expected ``(kind, level, gust badge)`` per icon, in fixed kind order."""
    out = []
    force = beaufort(period.wind.sustained.high)
    if force >= WIND_DISPLAY_FLOOR:
        gust = period.wind.gust_high
        badge = gust if gust is not None and beaufort(gust) > force else None
        out.append(("wind", force, badge))
    category = _chill_category(_period_chill(period))
    if category:
        out.append(("wind_chill", category, None))
    if period.temperature.low < 32:
        out.append(("freezing_temp", 1, None))
    if any(ev.kind.value in WINTER_KINDS for ev in period.precip_events):
        out.append(("winter_precip", 1, None))
    return tuple(out)


def overall_levels(doc) -> dict[str, int]:
    """Per hazard kind, the highest level of any single period."""
    levels: dict[str, int] = {}
    for period in doc.periods:
        for kind, level, _ in period_icons(period):
            levels[kind] = max(levels.get(kind, 0), level)
    return levels


def triad_verdict(period) -> str:
    dangerous = 0
    dangerous += period.wind.sustained.high >= TRIAD_THRESHOLDS["wind_high_mph"]
    dangerous += period.temperature.low <= TRIAD_THRESHOLDS["temperature_low_f"]
    dangerous += any(
        word in note.lower() for note in period.extra_hazard_notes
        for word in ("fog", "visibility", "whiteout")
    )
    return "go" if dangerous == 0 else "caution" if dangerous == 1 else "no_go"


# --- study statistics against scipy -----------------------------------------

CONDITION_ORDER = ("baseline", "summary_last", "icons", "per_day_icons")


def _group_values(responses_path, participants_path) -> dict[str, list[float]]:
    with open(participants_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    condition = {row[0]: row[1].replace("-", "_") for row in rows}
    totals: dict[str, list[float]] = {pid: [] for pid in condition}
    with open(responses_path, newline="", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:
            totals[row[0]].append(sum(float(x) for x in row[2:]))
    groups: dict[str, list[float]] = {c: [] for c in CONDITION_ORDER}
    for pid, values in totals.items():
        groups[condition[pid]].append(sum(values) / len(values))
    return {c: v for c, v in groups.items() if v}


def _fields(line: str) -> dict[str, str]:
    out = {}
    for part in line.split(" | "):
        key, sep, value = part.partition("=")
        if sep:
            out[key.split(": ")[-1]] = value
    return out


def _close(ours: float, ref: float) -> bool:
    return math.isclose(ours, ref, rel_tol=STATS_TOL, abs_tol=STATS_TOL)


def check_report(report_text: str, responses_path, participants_path) -> list[str]:
    """Mismatches between an ``hsf-stats/1`` report and scipy's answers."""
    from scipy import stats as sp

    groups = _group_values(responses_path, participants_path)
    names = list(groups)
    lines = report_text.splitlines()
    problems = []

    def expect(what: str, ours: str, ref: float) -> None:
        if not _close(float(ours), float(ref)):
            problems.append(f"{what}: report {ours}, scipy {ref!r}")

    group_lines = [_fields(line) for line in lines if line.startswith("group: ")]
    for name, fields in zip(names, group_lines):
        values = groups[name]
        mean = sum(values) / len(values)
        low, high = sp.t.interval(0.95, len(values) - 1, loc=mean, scale=sp.sem(values))
        expect(f"{name} mean", fields["mean"], mean)
        expect(f"{name} ci_low", fields["ci_low"], low)
        expect(f"{name} ci_high", fields["ci_high"], high)
    if len(group_lines) != len(names):
        problems.append(f"report has {len(group_lines)} groups, data has {len(names)}")

    anova = _fields(next(line for line in lines if line.startswith("anova: ")))
    ref = sp.f_oneway(*groups.values())
    expect("anova F", anova["F"], ref.statistic)
    expect("anova p", anova["p"], ref.pvalue)

    pairs = [line for line in lines if line.startswith("pairwise: ")]
    expected_pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    if len(pairs) != len(expected_pairs):
        problems.append(f"report has {len(pairs)} pairs, expected {len(expected_pairs)}")
    for line, (a, b) in zip(pairs, expected_pairs):
        fields = _fields(line)
        ref = sp.ttest_ind(groups[a], groups[b], equal_var=True)
        expect(f"t {a}/{b}", fields["t"], ref.statistic)
        expect(f"p {a}/{b}", fields["p_raw"], ref.pvalue)
    return problems
