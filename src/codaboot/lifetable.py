"""Life-table ingestion and related summaries.

The entry point for raw data is :func:`parse_lifetable`, which reads either
the whitespace-columnar layout used by the major mortality databases or a
plain CSV with ``year``, ``age`` and ``qx`` columns.  Only the conditional
death probabilities ``qx`` are trusted; :func:`rebuild_deaths` regenerates
the death counts from them through the survivorship recursion so that every
year sums to a common radix.  :func:`gini_coefficient` summarises how
concentrated a death-count vector is over age.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
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


class LifeTableRow(NamedTuple):
    """One (year, age) observation of the conditional death probability."""

    year: int
    age: int
    qx: float


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
        Initial cohort size of the synthetic life table.
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
    if isinstance(text_source, io.IOBase):
        return text_source, False
    if hasattr(text_source, "read"):
        return text_source, False
    return open(os.fspath(text_source), "r", encoding="utf-8"), True


def _parse_age(token, line_number):
    token = token.strip()
    if token.endswith("+"):
        token = token[:-1]
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"cannot parse age {token!r}", line_number) from None


def _parse_int(token, what, line_number):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"cannot parse {what} {token!r}", line_number) from None


def _parse_qx(token, line_number):
    token = token.strip()
    if token == ".":
        raise ParseError("missing value '.' in qx column", line_number)
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse qx {token!r}", line_number) from None
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise DomainError(f"line {line_number}: qx must lie in [0, 1], got {token}")
    return value


def _header_indices(tokens):
    lowered = [t.lower() for t in tokens]
    indices = {}
    for name in ("year", "age", "qx"):
        if name in lowered:
            indices[name] = lowered.index(name)
    sex_idx = lowered.index("sex") if "sex" in lowered else None
    return indices, sex_idx


def parse_lifetable(text_source, sex_filter=None):
    """Parse life-table rows from a text source.

    Two layouts are recognised.  If the first non-blank line contains a
    comma the source is read as CSV with a header naming at least ``year``,
    ``age`` and ``qx`` (case-insensitive).  Otherwise the source is treated
    as whitespace-columnar: the first line whose tokens include ``Year``,
    ``Age`` and ``qx`` is the header and following lines are data.  An
    open age group such as ``110+`` or ``100+`` is folded onto its lower
    bound.  The missing-value token ``.`` is rejected rather than
    silently dropped.

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
    list of LifeTableRow

    Raises
    ------
    ParseError
        On a malformed token; the message names the offending line.
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

    # Decide the layout from the header line, not the first line: columnar
    # files open with a free-text preamble that may itself contain commas
    # ("Australia, Females ...").
    if _looks_like_csv(lines):
        return _parse_csv(lines, wanted)
    return _parse_columnar(lines, wanted)


def _looks_like_csv(lines):
    # The first line that forms a Year/Age/qx header under either tokeniser
    # decides the layout.  No such line at all falls through to the columnar
    # parser, which reports the missing header.
    for line in lines:
        if not line.strip():
            continue
        found, _ = _header_indices(line.split())
        if len(found) == 3:
            return False
        cells = next(csv.reader([line]), [])
        found, _ = _header_indices([cell.strip() for cell in cells])
        if len(found) == 3:
            return True
    return False


def _parse_columnar(lines, wanted):
    indices = None
    sex_idx = None
    rows = []
    for line_number, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if indices is None:
            found, sex = _header_indices(tokens)
            if len(found) == 3:
                indices = found
                sex_idx = sex
            continue
        needed = max(indices.values())
        if sex_idx is not None:
            needed = max(needed, sex_idx)
        if len(tokens) <= needed:
            raise ParseError(
                f"expected at least {needed + 1} columns, got {len(tokens)}", line_number
            )
        if sex_idx is not None and wanted is not None:
            if _normalize_sex(tokens[sex_idx]) != wanted:
                continue
        year = _parse_int(tokens[indices["year"]], "year", line_number)
        age = _parse_age(tokens[indices["age"]], line_number)
        qx = _parse_qx(tokens[indices["qx"]], line_number)
        rows.append(LifeTableRow(year, age, qx))
    if indices is None:
        raise SchemaError("no header line naming Year, Age and qx was found")
    return rows


def _parse_csv(lines, wanted):
    reader = csv.reader(lines)
    header = None
    indices = None
    sex_idx = None
    rows = []
    for line_number, record in enumerate(reader, start=1):
        if not record or not any(cell.strip() for cell in record):
            continue
        if header is None:
            header = [cell.strip() for cell in record]
            indices, sex_idx = _header_indices(header)
            if len(indices) < 3:
                missing = {"year", "age", "qx"} - set(indices)
                raise SchemaError(
                    f"CSV header must name year, age and qx; missing {sorted(missing)}"
                )
            continue
        needed = max(indices.values())
        if sex_idx is not None:
            needed = max(needed, sex_idx)
        if len(record) <= needed:
            raise ParseError(
                f"expected at least {needed + 1} fields, got {len(record)}", line_number
            )
        if sex_idx is not None and wanted is not None:
            if _normalize_sex(record[sex_idx]) != wanted:
                continue
        year = _parse_int(record[indices["year"]].strip(), "year", line_number)
        age = _parse_age(record[indices["age"]], line_number)
        qx = _parse_qx(record[indices["qx"]], line_number)
        rows.append(LifeTableRow(year, age, qx))
    if header is None:
        raise SchemaError("CSV source is empty")
    return rows


def rebuild_deaths(rows, radix=DEFAULT_RADIX):
    """Regenerate death counts from conditional death probabilities.

    For each year the survivorship recursion ``l_{u+1} = l_u (1 - q_u)``,
    ``d_u = l_u q_u`` is run from ``l_0 = radix``; the terminal age group
    ``T`` receives all remaining survivors, ``d_T = l_T``, so the raw counts
    sum to the radix exactly.  Counts are then rounded to six decimal
    places, entries below :data:`POSITIVITY_FLOOR` are lifted to it, and
    the row is renormalised to the radix.

    Parameters
    ----------
    rows : iterable of LifeTableRow
        Must cover ages ``0..T`` exactly once for every year present,
        where the terminal age ``T`` is the highest age in the rows.
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
    if radix <= 0.0:
        raise DomainError("radix must be positive")
    by_year: dict[int, dict[int, float]] = {}
    for row in rows:
        ages = by_year.setdefault(row.year, {})
        if row.age in ages:
            raise CompletenessError(f"year {row.year}: duplicate age {row.age}")
        ages[row.age] = row.qx
    if not by_year:
        raise CompletenessError("no rows to rebuild from")

    terminal = max(max(ages) for ages in by_year.values())
    expected = list(range(terminal + 1))
    years = sorted(by_year)
    deaths = np.empty((len(years), len(expected)))
    for i, year in enumerate(years):
        ages = by_year[year]
        if sorted(ages) != expected:
            missing = sorted(set(expected) - set(ages))
            extra = sorted(set(ages) - set(expected))
            raise CompletenessError(
                f"year {year}: ages must cover 0..{terminal} exactly once"
                f" (missing {missing[:5]}, unexpected {extra[:5]})"
            )
        qx = np.array([ages[a] for a in expected])
        if qx[-1] != 1.0:
            raise DomainError(
                f"year {year}: terminal age group must have qx = 1, got {qx[-1]}"
            )
        deaths[i] = _survivorship_deaths(qx, radix)

    deaths = np.round(deaths, 6)
    deaths = np.maximum(deaths, POSITIVITY_FLOOR)
    deaths *= radix / deaths.sum(axis=1, keepdims=True)
    return LifeTableGrid(
        years=np.array(years), ages=np.array(expected), deaths=deaths, radix=radix
    )


def _survivorship_deaths(qx, radix):
    # Terminal closure d_D = l_D makes the raw counts sum to the radix
    # regardless of rounding in qx.
    survivors = radix * np.concatenate([[1.0], np.cumprod(1.0 - qx[:-1])])
    deaths = survivors * qx
    deaths[-1] = survivors[-1]
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
