"""Life-table ingestion and related summaries.

The entry point for raw data is :func:`parse_lifetable`, which reads the
whitespace-columnar layout used by the major mortality databases and plain
CSV through one header rule: the first line naming ``Year``, ``Age`` and
``qx`` (and optionally ``Sex``) is the header, and it fixes how the records
after it are split; the table comes back as three columns,
:class:`LifeTableColumns`.  Only the conditional death probabilities
``qx`` are trusted; :func:`rebuild_deaths` places them on a year-by-age
grid and regenerates the death counts of all years at once through the
survivorship recursion, so that every year sums to a common radix.
:func:`gini_coefficient` summarises how concentrated a death-count vector
is over age.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    CompletenessError,
    DegenerateInputError,
    DomainError,
    ParseError,
    SchemaError,
    ShapeError,
)

DEFAULT_RADIX = 100000.0


def check_radix(radix):
    """Raise DomainError unless ``radix`` is finite and positive."""
    if not (np.isfinite(radix) and radix > 0.0):
        raise DomainError(f"radix must be finite and positive, got {radix!r}")


# Recomputed death counts below this value are lifted to it so that the
# log-ratio transform stays finite.
POSITIVITY_FLOOR = 1e-6

_SEX_ALIASES = {
    "f": "female",
    "female": "female",
    "m": "male",
    "male": "male",
    "b": "total",
    "t": "total",
    "total": "total",
    "both": "total",
}

_REQUIRED_COLUMNS = ("year", "age", "qx")


class LifeTableColumns(NamedTuple):
    """Integer years and ages and float ``qx``, one entry per record."""

    years: np.ndarray
    ages: np.ndarray
    qx: np.ndarray


@dataclass(frozen=True)
class LifeTableGrid:
    """Death counts on a rectangular year-by-age grid.

    Attributes
    ----------
    years : ndarray
        Strictly increasing calendar years, shape ``(n,)``.
    ages : ndarray
        Strictly increasing ages, shape ``(D,)``.
    deaths : ndarray
        Strictly positive death counts, shape ``(n, D)``.  Every row sums
        to ``radix`` within ``1e-6``.
    radix : float
        Initial cohort size of the synthetic life table, finite and positive.
    """

    years: np.ndarray
    ages: np.ndarray
    deaths: np.ndarray
    radix: float = DEFAULT_RADIX

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        ages = np.asarray(self.ages, dtype=int)
        deaths = np.asarray(self.deaths, dtype=float)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "deaths", deaths)
        if deaths.ndim != 2 or deaths.shape != (years.size, ages.size):
            raise ShapeError(
                f"deaths must have shape {(years.size, ages.size)}, got {deaths.shape}"
            )
        if ages.size < 2:
            raise ShapeError("need at least two ages")
        if np.any(np.diff(years) <= 0):
            raise DomainError("years must be strictly increasing")
        if np.any(np.diff(ages) <= 0):
            raise DomainError("ages must be strictly increasing")
        if not np.all(np.isfinite(deaths)) or np.any(deaths <= 0.0):
            raise DomainError("death counts must be finite and strictly positive")
        check_radix(self.radix)
        row_sums = deaths.sum(axis=1)
        worst = np.max(np.abs(row_sums - self.radix))
        if worst > 1e-6:
            raise DomainError(
                f"every year must sum to the radix within 1e-6, worst deviation {worst:.3e}"
            )

    @property
    def n_years(self) -> int:
        return self.years.size

    @property
    def n_ages(self) -> int:
        return self.ages.size


def _normalize_sex(token):
    try:
        return _SEX_ALIASES[token.strip().lower()]
    except KeyError:
        raise DomainError(f"unrecognised sex value {token!r}") from None


def _open_source(text_source):
    if hasattr(text_source, "read"):
        return text_source, False
    return open(os.fspath(text_source), "r", encoding="utf-8"), True


def _parse_int(token, what, line_number):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"cannot parse {what} {token!r}", line_number) from None


def _parse_age(token, line_number):
    # An open age group such as "110+" is folded onto its lower bound.
    return _parse_int(token.strip().removesuffix("+"), "age", line_number)


def _parse_qx(token, line_number):
    token = token.strip()
    if token == ".":
        raise ParseError("missing value '.' in qx column", line_number)
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse qx {token!r}", line_number) from None
    # The chained comparison is false for nan as well as for out-of-range values.
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"line {line_number}: qx must lie in [0, 1], got {token}")
    return value


def _split_lines(lines, width=-1):
    # Split at most ``width`` times: the columns after the last one read
    # stay in one unsplit tail.
    return map(str.split, lines, repeat(None), repeat(width))


def _find_header(lines):
    """Locate the first line that names ``Year``, ``Age`` and ``qx``.

    Whitespace tokens are tried before CSV cells on each line, so a
    columnar header wins over a comma in its own line and a free-text
    preamble ("Australia, Females ...") matches neither.  Returns the
    header's index in ``lines``, the tokeniser that read it (a function
    from lines to records), the ``year``, ``age`` and ``qx`` column
    indices, and the ``Sex`` column index or ``None``.
    """
    for index, line in enumerate(lines):
        for tokenise in (_split_lines, csv.reader):
            names = [cell.strip().lower() for cell in next(tokenise([line]), [])]
            if all(name in names for name in _REQUIRED_COLUMNS):
                columns = tuple(names.index(name) for name in _REQUIRED_COLUMNS)
                sex_column = names.index("sex") if "sex" in names else None
                return index, tokenise, columns, sex_column
    raise SchemaError("no header line naming Year, Age and qx was found")


def _convert_repeated(tokens, convert):
    # Each distinct token of a column of few distinct values is converted once.
    lookup = {token: convert(token) for token in set(tokens)}
    return np.fromiter(map(lookup.__getitem__, tokens), dtype=int, count=len(tokens))


def parse_lifetable(text_source, sex_filter=None):
    """Parse a life table from a text source into three columns.

    The header is the first line whose whitespace tokens or, failing
    that, CSV cells name ``Year``, ``Age`` and ``qx`` (case-insensitive);
    it may also name ``Sex``.  That line fixes the layout: the records
    after it are split the same way, so the whitespace-columnar files of
    the major mortality databases and plain CSV are read alike.  Lines
    before the header are a free-text preamble in either layout, and
    blank records are skipped.  An open age group such as ``110+`` or
    ``100+`` is folded onto its lower bound.  The missing-value token
    ``.`` is rejected rather than silently dropped.  Columns are
    converted in bulk; the first bad record raises, with its line number.

    Parameters
    ----------
    text_source : path-like or file-like
        Where to read from.
    sex_filter : str, optional
        One of ``"female"``, ``"male"`` or ``"total"``.  Applied only when
        the source carries a ``Sex`` column; sources without one (the usual
        single-sex files) pass through unchanged.

    Returns
    -------
    LifeTableColumns
        The records kept, in file order.

    Raises
    ------
    ParseError
        On a short record or a malformed token; the message names the
        offending line.
    SchemaError
        When no header naming the required columns is found.
    DomainError
        When a ``qx`` value falls outside ``[0, 1]``.
    """
    wanted = _normalize_sex(sex_filter) if sex_filter is not None else None
    handle, owns = _open_source(text_source)
    try:
        lines = handle.read().splitlines()
    finally:
        if owns:
            handle.close()

    header, tokenise, (year_col, age_col, qx_col), sex_col = _find_header(lines)
    width = 1 + max(year_col, age_col, qx_col, -1 if sex_col is None else sex_col)
    filter_sex = wanted is not None and sex_col is not None
    if tokenise is _split_lines:
        tokenise = partial(_split_lines, width=width)

    def read(check):
        # The year and age tokens of the records kept, one object per
        # distinct token, and their qx values; with ``check`` the token
        # helpers read each record first.  Records are numbered from the
        # header's line; a quoted CSV cell that spans lines is one record.
        years, ages, qx, distinct = [], [], [], {}
        records = tokenise(islice(lines, header + 1, None))
        for line_number, record in enumerate(records, start=header + 2):
            if not any(map(str.strip, record)):
                continue
            if len(record) < width:
                raise ParseError(
                    f"expected at least {width} columns, got {len(record)}", line_number
                )
            if filter_sex and _normalize_sex(record[sex_col]) != wanted:
                continue
            if check:
                _parse_int(record[year_col], "year", line_number)
                _parse_age(record[age_col], line_number)
                _parse_qx(record[qx_col], line_number)
            year, age = record[year_col], record[age_col]
            years.append(distinct.setdefault(year, year))
            ages.append(distinct.setdefault(age, age))
            qx.append(float(record[qx_col]))
        return years, ages, qx

    try:
        years, ages, qx = read(check=False)
        table = LifeTableColumns(
            _convert_repeated(years, int),
            _convert_repeated(ages, lambda token: int(token.strip().removesuffix("+"))),
            np.array(qx),
        )
        if not np.all((table.qx >= 0.0) & (table.qx <= 1.0)):
            raise DomainError("qx must lie in [0, 1]")
        return table
    except (ParseError, DomainError, ValueError):
        # The helpers accept exactly the tokens these conversions accept,
        # so reading the records again with them raises at the first fault.
        read(check=True)
        raise


def rebuild_deaths(table, radix=DEFAULT_RADIX):
    """Regenerate death counts from conditional death probabilities.

    The ``qx`` are placed on a year-by-age grid, and for all years at once
    the survivorship recursion ``l_{u+1} = l_u (1 - q_u)``,
    ``d_u = l_u q_u`` is run from ``l_0 = radix``; the terminal age group
    ``T`` receives all remaining survivors, ``d_T = l_T``, so the raw
    counts sum to the radix exactly.  Counts are then rounded to six
    decimal places, entries below :data:`POSITIVITY_FLOOR` are lifted to
    it, and each row is renormalised to the radix.

    Parameters
    ----------
    table : LifeTableColumns
        Must cover ages ``0..T`` exactly once for every year present, in
        any record order, where the terminal age ``T`` is the highest age.
    radix : float
        Cohort size each year is normalised to.

    Returns
    -------
    LifeTableGrid

    Raises
    ------
    CompletenessError
        When a year misses or duplicates an age; a year that closes below
        another year's terminal age misses ages.
    DomainError
        When the terminal age group does not have ``qx = 1``.
    """
    check_radix(radix)
    years, ages, qx = map(np.asarray, table)
    if years.size == 0:
        raise CompletenessError("no rows to rebuild from")
    # A stable sort by year, then age, keeps the records of each pair in
    # record order, so the repeat that comes first in the file is named.
    order = np.lexsort((ages, years))
    years, ages = years[order], ages[order]
    new_year = np.diff(years) != 0
    repeats = np.flatnonzero(~new_year & (np.diff(ages) == 0)) + 1
    if repeats.size:
        first = repeats[np.argmin(order[repeats])]
        raise CompletenessError(f"year {years[first]}: duplicate age {ages[first]}")
    starts = np.flatnonzero(np.concatenate(([True], new_year)))
    ends = np.append(starts[1:], years.size)
    width = int(ages.max()) + 1
    # Without repeats, a year covers 0..T once when it has T + 1 ages and
    # none below 0.  Years are checked in order, each for its ages first.
    complete = (ends - starts == width) & (ages[starts] >= 0)
    faulty = np.flatnonzero(~complete | (qx[order[ends - 1]] != 1.0))
    if faulty.size:
        i = faulty[0]
        year, present = years[starts[i]], ages[starts[i] : ends[i]]
        if complete[i]:
            raise DomainError(
                f"year {year}: terminal age group must have qx = 1,"
                f" got {qx[order[ends[i] - 1]]}"
            )
        # The first five missing ages lie below the number present plus five.
        candidates = np.arange(min(width, present.size + 5))
        missing = np.setdiff1d(candidates, present)[:5].tolist()
        extra = present[present < 0][:5].tolist()
        raise CompletenessError(
            f"year {year}: ages must cover 0..{width - 1} exactly once"
            f" (missing {missing}, unexpected {extra})"
        )
    grid = qx[order].reshape(-1, width)

    deaths = np.round(_survivorship_deaths(grid, radix), 6)
    deaths = np.maximum(deaths, POSITIVITY_FLOOR)
    deaths *= radix / deaths.sum(axis=1, keepdims=True)
    return LifeTableGrid(
        years=years[starts], ages=np.arange(width), deaths=deaths, radix=radix
    )


def _survivorship_deaths(qx, radix):
    # One table per row.  Terminal closure d_D = l_D makes the raw counts
    # sum to the radix regardless of rounding in qx.
    survivors = radix * np.cumprod(np.insert(1.0 - qx[..., :-1], 0, 1.0, axis=-1), axis=-1)
    deaths = survivors * qx
    deaths[..., -1] = survivors[..., -1]
    return deaths


def gini_coefficient(counts):
    """Gini coefficient of a nonnegative count vector.

    Computed from the trapezoidal area under the Lorenz curve of the
    sorted counts.  Zero means the counts are spread equally over all
    entries; the maximum ``1 - 1/D`` is reached when everything sits in a
    single entry.

    Parameters
    ----------
    counts : array_like
        Nonnegative values with at least two entries and positive total.

    Returns
    -------
    float
        Value in ``[0, 1 - 1/D]``.
    """
    x = np.asarray(counts, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("counts must be a vector with at least two entries")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise DomainError("counts must be finite and nonnegative")
    total = x.sum()
    if total <= 0.0:
        raise DegenerateInputError("counts sum to zero; Gini is undefined")
    lorenz = np.cumsum(np.sort(x)) / total
    return max(0.0, 1.0 - (2.0 * lorenz.sum() - 1.0) / x.size)
