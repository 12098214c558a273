"""Perceived-risk study pipeline: aggregation, ANOVA, post-hoc, regression.

Input is one response row per (participant, forecast) with six activity
ratings on a 0-100 scale, joined against a participant table carrying the
layout condition, a risk-propensity (GRIPS) score, and two free-text coding
flags. :func:`load_study` reads both files once and returns one
:class:`Participant` per responding participant, in order of first
response, whose ``mean_risk`` is the mean over forecasts of the six
ratings' sum. Analysis follows the between-subjects shape: inference runs
on those per-participant means, so ANOVA degrees of freedom are
(groups - 1, participants - groups). A hand-built :class:`Participant` is
checked on construction.

All statistics are computed from explicit sums of squares here, with tail
probabilities from :mod:`.distributions`; nothing defers to an external
statistics library. Missing or out-of-range data is a hard error, never
imputed.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Collection, Iterator, Sequence

from .distributions import f_sf, t_ppf, t_two_sided_p
from .model import (_NUMBER_RE, LayoutCondition, _fmt_num, _read_input, _read_number,
                    condition_from_token)

#: Rated activities, in the fixed column order of the response file.
ACTIVITIES = (
    "car_trip",
    "day_hike",
    "mountaineering",
    "backcountry_skiing",
    "single_night_camping",
    "multi_night_camping",
)

RATING_MIN = 0.0
RATING_MAX = 100.0
_RISK_MAX = RATING_MAX * len(ACTIVITIES)


class StudyDataError(ValueError):
    """Response or participant data violates the documented schema."""


@dataclass(frozen=True)
class Participant:
    """One participant: metadata and mean aggregate risk (0 to 600).

    ``mean_risk`` is the mean over the participant's forecasts of the sum of
    the six activity ratings.
    """

    participant_id: str
    condition: LayoutCondition
    grips_score: float
    mentioned_per_day_info: bool
    mentioned_summary_only_info: bool
    mean_risk: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.grips_score):
            raise StudyDataError(
                f"participant {self.participant_id!r}: grips_score {_fmt_num(self.grips_score)} "
                "is not finite")
        if not RATING_MIN <= self.mean_risk <= _RISK_MAX:  # NaN fails too
            raise StudyDataError(
                f"participant {self.participant_id!r}: mean_risk {_fmt_num(self.mean_risk)} "
                f"outside [{RATING_MIN:g}, {_RISK_MAX:g}]")


def _mean(values: Collection[float]) -> float:
    return sum(values) / len(values)


def _describe(values: Sequence[float], t975: float) -> tuple[float, float, float, float]:
    """Mean, sample SD and 95% CI bounds; ``t975`` is t's 0.975 quantile at n - 1 df."""
    n = len(values)
    m = _mean(values)
    sd = math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))
    if sd == 0.0:
        return (m, sd, m, m)
    half = t975 * sd / math.sqrt(n)
    return (m, sd, m - half, m + half)


@dataclass(frozen=True)
class AnovaResult:
    """A one-way ANOVA: F, its two degrees of freedom, and p."""

    f_statistic: float
    df_between: int
    df_within: int
    p_value: float


def one_way_anova(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way between-groups ANOVA from explicit sums of squares."""
    if len(groups) < 2:
        raise StudyDataError(f"ANOVA needs at least 2 groups, found {len(groups)}")
    for i, g in enumerate(groups):
        if len(g) < 2:
            raise StudyDataError(f"ANOVA group {i + 1} needs at least 2 values, found {len(g)}")
    all_values = [v for g in groups for v in g]
    n_total = len(all_values)
    grand = _mean(all_values)
    means = [_mean(g) for g in groups]
    ss_between = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ss_within = sum((v - m) ** 2 for g, m in zip(groups, means) for v in g)
    df_between = len(groups) - 1
    df_within = n_total - len(groups)
    if ss_between == 0.0:
        return AnovaResult(0.0, df_between, df_within, 1.0)
    if ss_within == 0.0:
        return AnovaResult(math.inf, df_between, df_within, 0.0)
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(f, df_between, df_within, f_sf(f, df_between, df_within))


@dataclass(frozen=True)
class PairwiseResult:
    """One pooled-variance t test of two groups, p raw and Bonferroni-adjusted."""

    group_a: str
    group_b: str
    t_statistic: float
    df: int
    p_raw: float
    p_adjusted: float
    multiplier: int  # the Bonferroni multiplier: p_adjusted = min(1, p_raw * multiplier)


def pairwise_t_tests(
    groups: Sequence[tuple[str, Sequence[float]]],
    correction_count: int | None = None,
) -> tuple[PairwiseResult, ...]:
    """Pooled-variance two-sample t test for every group pair.

    Groups are between-subjects, so the comparison is independent-samples.
    ``correction_count`` is the Bonferroni multiplier; it defaults to the
    number of pairs tested here, but callers running a wider family of
    comparisons should pass that family's size.
    """
    if len(groups) < 2:
        raise StudyDataError(f"pairwise tests need at least 2 groups, found {len(groups)}")
    for name, values in groups:
        if len(values) < 2:
            raise StudyDataError(f"group {name!r} needs at least 2 values, found {len(values)}")
    pairs = [
        (groups[i], groups[j])
        for i in range(len(groups))
        for j in range(i + 1, len(groups))
    ]
    m = correction_count if correction_count is not None else len(pairs)
    if m < 1:
        raise StudyDataError(f"correction count must be >= 1, got {m}")
    out = []
    for (name_a, a), (name_b, b) in pairs:
        n_a, n_b = len(a), len(b)
        df = n_a + n_b - 2
        mean_a, mean_b = _mean(a), _mean(b)
        diff = mean_a - mean_b
        pooled = (
            sum((v - mean_a) ** 2 for v in a) + sum((v - mean_b) ** 2 for v in b)
        ) / df
        if diff == 0.0:
            t = 0.0
            p = 1.0
        elif pooled == 0.0:
            t = math.copysign(math.inf, diff)
            p = 0.0
        else:
            t = diff / math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
            p = t_two_sided_p(t, df)
        out.append(PairwiseResult(name_a, name_b, t, df, p, min(1.0, p * m), m))
    return tuple(out)


def t_ci95(values: Sequence[float]) -> tuple[float, float]:
    """95% t confidence interval for the mean."""
    n = len(values)
    if n < 2:
        raise StudyDataError(f"confidence interval needs at least 2 values, found {n}")
    _, _, low, high = _describe(values, t_ppf(0.975, n - 1))
    return (low, high)


@dataclass(frozen=True)
class RegressionResult:
    """Mean risk regressed on risk propensity: the line, R squared and the slope's p."""

    slope: float
    intercept: float
    r_squared: float
    p_value: float


def grips_regression(pairs: Sequence[tuple[float, float]]) -> RegressionResult:
    """Least-squares regression of mean risk on risk propensity.

    Returns the slope, R squared (the squared correlation), and the slope's
    two-sided t-test p-value. A zero-variance predictor is rejected; a
    constant response gives a flat line with R squared 0 and p 1.
    """
    n = len(pairs)
    if n < 3:
        raise StudyDataError(f"regression needs at least 3 pairs, found {n}")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    mx, my = _mean(xs), _mean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0:
        raise StudyDataError("predictor has zero variance; slope is undefined")
    slope = sxy / sxx
    intercept = my - slope * mx
    if syy == 0.0:
        return RegressionResult(slope, intercept, 0.0, 1.0)
    ss_res = syy - slope * sxy
    r_squared = 1.0 - ss_res / syy
    df = n - 2
    if ss_res <= 0.0:
        return RegressionResult(slope, intercept, 1.0, 0.0)
    se = math.sqrt(ss_res / df / sxx)
    t = slope / se
    return RegressionResult(slope, intercept, r_squared, t_two_sided_p(t, df))


def percentage(count: int, total: int) -> str:
    """Percentage at two decimals, ties rounding up (124/128 -> '96.88')."""
    if total <= 0:
        raise StudyDataError(f"percentage of empty total: {count}/{total}")
    return _fixed(Decimal(count) * Decimal(100) / Decimal(total), 2)


@dataclass(frozen=True)
class CodingCell:
    """Participants who mentioned a kind of information: count of total, as a percent."""

    scope: str  # "overall" or a condition value
    count: int
    total: int
    percent: str


@dataclass(frozen=True)
class CodingTable:
    """The coding cells for per-day and for summary-only information."""

    per_day: tuple[CodingCell, ...]
    summary_only: tuple[CodingCell, ...]


@dataclass(frozen=True)
class GroupSummary:
    """One layout condition's mean risk: n, mean, sd and 95% interval."""

    condition: LayoutCondition
    n: int
    mean: float
    sd: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class StatsReport:
    """Every analysis of one study, in report order."""

    groups: tuple[GroupSummary, ...]
    anova: AnovaResult
    pairwise: tuple[PairwiseResult, ...]
    regression: RegressionResult
    coding: CodingTable


def _coding_table(participants: Sequence[Participant],
                  conditions: list[LayoutCondition]) -> CodingTable:
    """Both flags' cells, overall and then per condition, counted in one pass."""
    # Per condition: participants, per-day mentions, summary-only mentions,
    # with each participant's condition looked up once.
    tallies = {c: [0, 0, 0] for c in conditions}
    for p in participants:
        tally = tallies[p.condition]
        tally[0] += 1
        if p.mentioned_per_day_info:
            tally[1] += 1
        if p.mentioned_summary_only_info:
            tally[2] += 1

    def cells(k: int) -> tuple[CodingCell, ...]:
        scopes = [("overall", sum(t[k] for t in tallies.values()), len(participants))]
        scopes += [(c.value, tallies[c][k], tallies[c][0]) for c in conditions]
        return tuple(CodingCell(scope, count, total, percentage(count, total))
                     for scope, count, total in scopes)

    return CodingTable(per_day=cells(1), summary_only=cells(2))


def build_report(
    participants: Sequence[Participant],
    correction_count: int | None = None,
) -> StatsReport:
    """Run the full analysis over one value per participant."""
    values_by_condition: dict[LayoutCondition, list[float]] = {}
    for p in participants:
        values_by_condition.setdefault(p.condition, []).append(p.mean_risk)
    conditions = [c for c in LayoutCondition if c in values_by_condition]
    if len(conditions) < 2:
        raise StudyDataError(
            f"analysis needs at least 2 conditions, found {len(conditions)}"
        )

    groups = []
    t975: dict[int, float] = {}  # by group size: the paper's four groups share one
    for c in conditions:
        values = values_by_condition[c]
        n = len(values)
        if n < 2:
            raise StudyDataError(f"condition {c.value!r} has fewer than 2 participants")
        if n not in t975:
            t975[n] = t_ppf(0.975, n - 1)
        groups.append(GroupSummary(c, n, *_describe(values, t975[n])))

    anova = one_way_anova([values_by_condition[c] for c in conditions])
    pairwise = pairwise_t_tests(
        [(c.value, values_by_condition[c]) for c in conditions],
        correction_count=correction_count,
    )
    regression = grips_regression([(p.grips_score, p.mean_risk) for p in participants])
    return StatsReport(
        groups=tuple(groups),
        anova=anova,
        pairwise=pairwise,
        regression=regression,
        coding=_coding_table(participants, conditions),
    )


def _fixed(x: float | Decimal, places: int) -> str:
    """``x``, as ``str`` spells it, at ``places`` decimals with ties rounding
    away from zero; an infinity prints as ``inf``."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return str(Decimal(str(x)).quantize(Decimal(10) ** -places, rounding=ROUND_HALF_UP))


def _fmt_p(p: float) -> str:
    if p >= 0.00005:
        text = f"{p:.4f}".rstrip("0")
        return text + "0" if text.endswith(".") else text
    return f"{p:.2e}"


def format_report(report: StatsReport) -> str:
    """Human-readable report text."""
    lines = ["Perceived-risk study report", ""]
    lines.append("Per-participant mean aggregate risk (0-600 scale):")
    for g in report.groups:
        lines.append(
            f"  {g.condition.value:<14} n={g.n:<4} M={_fixed(g.mean, 2):<8} "
            f"SD={_fixed(g.sd, 2):<8} 95% CI [{_fixed(g.ci_low, 2)}, {_fixed(g.ci_high, 2)}]"
        )
    a = report.anova
    lines.append("")
    lines.append(
        f"One-way ANOVA: F({a.df_between}, {a.df_within}) = {_fixed(a.f_statistic, 3)}, "
        f"p = {_fmt_p(a.p_value)}"
    )
    lines.append("")
    lines.append(f"Pairwise comparisons (Bonferroni multiplier {report.pairwise[0].multiplier}):")
    for pw in report.pairwise:
        lines.append(
            f"  {pw.group_a} vs {pw.group_b}: t({pw.df}) = {_fixed(pw.t_statistic, 3)}, "
            f"raw p = {_fmt_p(pw.p_raw)}, adjusted p = {_fmt_p(pw.p_adjusted)}"
        )
    r = report.regression
    lines.append("")
    lines.append(
        f"Risk propensity regression: slope = {_fixed(r.slope, 3)}, "
        f"R^2 = {_fixed(r.r_squared, 2)}, p = {_fmt_p(r.p_value)}"
    )
    lines.append("")
    lines.append("Free-text coding:")
    for title, cells in (
        ("mentioned per-day information", report.coding.per_day),
        ("mentioned summary-only information", report.coding.summary_only),
    ):
        lines.append(f"  {title}:")
        for cell in cells:
            lines.append(f"    {cell.scope:<14} {cell.count}/{cell.total} = {cell.percent}%")
    return "\n".join(lines) + "\n"


def degenerate_notes(report: StatsReport) -> Iterator[str]:
    """One line for each statistic of ``report`` that a degenerate study
    gives by a shortcut instead of its formula, in report order: a group
    whose SD is 0, an infinite F or t, an F or t of 0 where the formula is
    0/0 (the groups constant, their means equal), and an R^2 of exactly 0
    with p 1 or exactly 1 with p 0."""
    constant = {g.condition.value for g in report.groups if g.sd == 0.0}
    for g in report.groups:
        if g.sd == 0.0:
            yield f"{g.condition.value}: SD is 0, so the 95% CI is the mean"
    f = report.anova.f_statistic
    if math.isinf(f):
        yield "ANOVA: every group is constant and the means differ, so F is inf and p is 0"
    elif f == 0.0 and len(constant) == len(report.groups):
        yield "ANOVA: every group is constant and the means are equal, so F is 0 and p is 1"
    for pw in report.pairwise:
        if math.isinf(pw.t_statistic):
            yield (f"{pw.group_a} vs {pw.group_b}: both groups are constant and the means "
                   f"differ, so t is {_fixed(pw.t_statistic, 3)} and p is 0")
        elif pw.t_statistic == 0.0 and {pw.group_a, pw.group_b} <= constant:
            yield (f"{pw.group_a} vs {pw.group_b}: both groups are constant and the means "
                   "are equal, so t is 0 and p is 1")
    r = report.regression
    if (r.r_squared, r.p_value) == (0.0, 1.0):
        yield "regression: the line explains none of the variance, so R^2 is 0 and p is 1"
    elif (r.r_squared, r.p_value) == (1.0, 0.0):
        yield "regression: every participant lies on the line, so R^2 is 1 and p is 0"


def emit_report(report: StatsReport) -> str:
    """Machine-readable report, schema ``hsf-stats/1``, full float precision."""
    lines = ["schema: hsf-stats/1"]
    for g in report.groups:
        lines.append(
            f"group: {g.condition.value} | n={g.n} | mean={g.mean!r} | sd={g.sd!r} "
            f"| ci_low={g.ci_low!r} | ci_high={g.ci_high!r}"
        )
    a = report.anova
    lines.append(
        f"anova: F={a.f_statistic!r} | df_between={a.df_between} "
        f"| df_within={a.df_within} | p={a.p_value!r}"
    )
    for pw in report.pairwise:
        lines.append(
            f"pairwise: {pw.group_a} | {pw.group_b} | t={pw.t_statistic!r} "
            f"| df={pw.df} | p_raw={pw.p_raw!r} | p_adjusted={pw.p_adjusted!r}"
        )
    r = report.regression
    lines.append(
        f"regression: slope={r.slope!r} | intercept={r.intercept!r} "
        f"| r_squared={r.r_squared!r} | p={r.p_value!r}"
    )
    for name, cells in (("per_day", report.coding.per_day),
                        ("summary_only", report.coding.summary_only)):
        for cell in cells:
            lines.append(
                f"coding: {name} | {cell.scope} | count={cell.count} "
                f"| total={cell.total} | percent={cell.percent}"
            )
    return "\n".join(lines) + "\n"


def emit_plot_spec(report: StatsReport) -> str:
    """Group means and CI bounds for external plotting of the study figure."""
    lines = ["schema: hsf-plot/1", "# condition\tmean\tci_low\tci_high"]
    for g in report.groups:
        lines.append(f"{g.condition.value}\t{g.mean!r}\t{g.ci_low!r}\t{g.ci_high!r}")
    return "\n".join(lines) + "\n"


_RESPONSE_COLUMNS = ("participant_id", "forecast_id") + ACTIVITIES
_PARTICIPANT_COLUMNS = (
    "participant_id",
    "condition",
    "grips_score",
    "mentioned_per_day_info",
    "mentioned_summary_only_info",
)
_BOOL_TOKENS = {"true": True, "1": True, "false": False, "0": False}


def _check_header(actual: Sequence[str] | None, expected: Sequence[str], origin: str) -> None:
    if actual is None:
        raise StudyDataError(f"{origin}: empty file, expected header {','.join(expected)}")
    if tuple(actual) != tuple(expected):
        raise StudyDataError(
            f"{origin}: header mismatch; expected {','.join(expected)}, "
            f"found {','.join(actual)}"
        )


def _csv_rows(path: Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Data rows of a CSV file with an exact header, each with its line.

    The line is the physical line a record starts on, so a quoted field with
    an embedded newline does not shift the lines of later records. Rows are
    read one at a time and field counts checked row by row, so the first bad
    line is the one reported. A leading UTF-8 byte-order mark, as spreadsheet
    exports write, is skipped. A record the csv module cannot read (a field
    over its size limit, say) is an error at the line it starts on.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            _check_header(next(reader, None), columns, str(path))
            start = reader.line_num + 1
            for row in reader:
                if len(row) != len(columns):
                    raise StudyDataError(
                        f"{path}:{start}: expected {len(columns)} fields, found {len(row)}")
                yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:
            raise StudyDataError(f"{path}:{start}: {exc}") from None
        except UnicodeDecodeError:  # decoded in chunks, so its position is no guide
            _read_input(path, str(path), StudyDataError)  # raises at the bad byte's line
            raise StudyDataError(f"{path}: not UTF-8") from None  # the file changed since


#: The six ratings of a response row joined by commas, each in the model
#: number grammar. A field holding a comma adds a seventh part, so it fails.
_RATINGS_RE = re.compile(",".join([_NUMBER_RE.pattern] * len(ACTIVITIES)))


#: Most distinct rating spellings one load remembers: 4x the 1 001 spellings
#: of 0-100 at one decimal. Each is read and checked once, on its own; a row
#: holding a spelling past it is read in full, so a study whose every rating
#: is distinct keeps no more than this many.
_KNOWN_RATINGS_MAX = 4096


class _Ratings(dict):
    """Rating spelling -> its value, for one load. A miss reads and
    range-checks the spelling and keeps it while the memo has room; one that
    fails, or one past a full memo, raises KeyError, so that its row is read
    in full and gives the error the row alone would give."""

    def __missing__(self, text: str) -> float:
        if len(self) < _KNOWN_RATINGS_MAX:
            try:
                value = _read_number(text)
            except ValueError:
                raise KeyError(text) from None
            if RATING_MIN <= value <= RATING_MAX:
                self[text] = value
                return value
        raise KeyError(text)


def _read_field(name: str, text: str) -> float:
    try:
        return _read_number(text)
    except ValueError as exc:
        raise StudyDataError(f"{name} {exc}") from None


def load_study(responses_path: Path, participants_path: Path) -> tuple[Participant, ...]:
    """Load and join the response and participant files.

    Both are comma-separated with exact headers. Participant conditions use
    the command-line tokens (baseline, summary-last, icons, per-day-icons).
    Unknown references, duplicates, malformed numbers, and out-of-range
    ratings are hard errors, each naming ``path:line``. Numbers follow the
    model number grammar (:func:`summitwx.model._read_number`). Each distinct
    rating or grips_score spelling is read and checked once per load, on its
    own, where it first appears; later rows take its value as read there. A
    row holding a spelling that fails is read again in full, so its error,
    line and order of precedence are those of a row read on its own.

    Returns one :class:`Participant` per participant, in the order of their
    first row in ``responses.csv``; that order fixes the regression sums.
    """
    # Each value leads with its key, so the records keep this file's string.
    participants: dict[str, tuple[str, LayoutCondition, float, bool, bool]] = {}
    grips: dict[str, float] = {}  # grips spelling -> its value; at most one per row
    for line, row in _csv_rows(participants_path, _PARTICIPANT_COLUMNS):
        pid, condition_token, grips_text, flag_a, flag_b = row
        try:
            if not pid:
                raise StudyDataError("empty participant_id")
            if pid in participants:
                raise StudyDataError(f"duplicate participant {pid!r}")
            try:
                condition = condition_from_token(condition_token)
            except ValueError as exc:
                raise StudyDataError(str(exc)) from None
            per_day = _BOOL_TOKENS.get(flag_a.strip().lower())
            summary_only = _BOOL_TOKENS.get(flag_b.strip().lower())
            if per_day is None or summary_only is None:
                name, text = (("mentioned_per_day_info", flag_a) if per_day is None
                              else ("mentioned_summary_only_info", flag_b))
                raise StudyDataError(f"{name} must be true/false, found {text!r}")
            if grips_text not in grips:
                grips[grips_text] = _read_field("grips_score", grips_text)
            participants[pid] = (pid, condition, grips[grips_text], per_day, summary_only)
        except StudyDataError as exc:
            raise StudyDataError(f"{participants_path}:{line}: {exc}") from None
    if not participants:
        raise StudyDataError(f"{participants_path}: no records")

    # A 0-100 slider writes few distinct spellings, so most rows only look up.
    known: dict[str, float] = _Ratings()
    forecasts: dict[str, str] = {}  # forecast id -> the one string all rows share
    row_sums: dict[str, dict[str, float]] = {}  # participant -> forecast -> sum
    for line, row in _csv_rows(responses_path, _RESPONSE_COLUMNS):
        pid, forecast_id, a, b, c, d, e, f = row  # _csv_rows checked the width
        try:
            sums = row_sums.get(pid)
            if sums is None:
                if pid not in participants:
                    raise StudyDataError(f"unknown participant {pid!r}")
                sums = row_sums[participants[pid][0]] = {}
            forecast_id = forecasts.setdefault(forecast_id, forecast_id)
            if forecast_id in sums:
                raise StudyDataError(
                    f"duplicate response for participant {pid!r}, forecast {forecast_id!r}")
            try:
                sums[forecast_id] = sum((known[a], known[b], known[c], known[d], known[e], known[f]))
            except KeyError:  # a spelling that fails, or a new one past a full memo
                fields = row[2:]
                if _RATINGS_RE.fullmatch(",".join(fields)):
                    ratings = tuple(map(float, fields))
                else:
                    ratings = tuple(map(_read_field, ACTIVITIES, fields))
                for name, value in zip(ACTIVITIES, ratings):
                    if not RATING_MIN <= value <= RATING_MAX:
                        raise StudyDataError(
                            f"participant {pid!r}, forecast {forecast_id!r}: {name} rating "
                            f"{_fmt_num(value)} outside [{RATING_MIN:g}, {RATING_MAX:g}]"
                        )
                sums[forecast_id] = sum(ratings)
                if type(known) is _Ratings:
                    # The row passed, so the memo is full; a plain dict's
                    # miss goes straight here, without calling __missing__.
                    known = dict(known)
        except StudyDataError as exc:
            raise StudyDataError(f"{responses_path}:{line}: {exc}") from None
    if not row_sums:
        raise StudyDataError(f"{responses_path}: no records")
    if len(row_sums) != len(participants):  # every key of row_sums is a participant
        silent = sorted(participants.keys() - row_sums.keys())
        raise StudyDataError(
            f"{participants_path}: participants with no responses: {', '.join(silent)}"
        )
    # Each participant's sums go as its record is made, so both are never all kept.
    return tuple(Participant(*participants[pid], mean_risk=_mean(row_sums.pop(pid).values()))
                 for pid in list(row_sums))
