"""Error statistics, NDVI, one-way ANOVA and the cosine-falloff check.

Everything here consumes plain numbers or the reflectance planes produced
upstream; nothing reaches back into imagery or calibration state.  The
ANOVA p-value carries its own F-distribution tail implementation so the
package has no runtime dependency on a statistics library.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import MetadataError
from .reflectance import ReflectanceImage

WEATHER_LEVELS = ("cloudy", "partly-cloudy", "sunny")
ALTITUDE_LEVELS_FT = (150, 225, 300, 375)
METHOD_LEVELS = ("elm1", "elm2", "aarr")

#: Error statistics of one group, in report column order.
ERROR_STATISTICS = ("mean_signed", "std_signed", "mean_absolute",
                    "std_absolute", "n")

#: Fields of TargetSample a report may group by.
GROUPABLE_FIELDS = ("target_id", "band_index", "weather", "altitude_ft",
                    "method")


@dataclass(frozen=True)
class TargetSample:
    """One target measurement: truth, estimate and its factor levels."""

    target_id: str
    band_index: int
    weather: str
    altitude_ft: int
    method: str
    true_reflectance: float
    estimated_reflectance: float

    def __post_init__(self):
        if self.weather not in WEATHER_LEVELS:
            raise MetadataError(
                f"weather {self.weather!r} not one of {WEATHER_LEVELS}")
        if self.altitude_ft not in ALTITUDE_LEVELS_FT:
            raise MetadataError(
                f"altitude {self.altitude_ft!r} ft not one of "
                f"{ALTITUDE_LEVELS_FT}")
        if self.method not in METHOD_LEVELS:
            raise MetadataError(
                f"method {self.method!r} not one of {METHOD_LEVELS}")
        if not 1 <= self.band_index <= 5:
            raise MetadataError(f"band_index out of range: {self.band_index}")
        for name in ("true_reflectance", "estimated_reflectance"):
            if not math.isfinite(getattr(self, name)):
                raise MetadataError(f"{name} must be finite")

    @property
    def signed_error(self) -> float:
        return signed_error(self.estimated_reflectance, self.true_reflectance)


@dataclass(frozen=True)
class ErrorReport:
    """Error statistics for one group of samples."""

    group: tuple[tuple[str, object], ...]
    mean_signed: float
    std_signed: float
    mean_absolute: float
    std_absolute: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise MetadataError("a report group cannot be empty")
        if self.std_signed < 0 or self.std_absolute < 0 or \
                self.mean_absolute < 0:
            raise MetadataError("malformed report statistics")

    @property
    def group_dict(self) -> dict:
        return dict(self.group)


def signed_error(estimated: float, truth: float) -> float:
    """Estimate minus truth; positive means over-estimation."""
    if not (math.isfinite(estimated) and math.isfinite(truth)):
        raise MetadataError("signed_error requires finite inputs")
    error = estimated - truth
    if not math.isfinite(error):
        raise MetadataError(
            f"signed error {estimated!r} - {truth!r} is beyond the float "
            "range")
    return error


def error_statistics(errors, ddof: int = 0) -> dict:
    """Mean and standard deviation of signed and absolute errors, and n.

    Keys are :data:`ERROR_STATISTICS`, the :class:`ErrorReport` fields.

    Raises
    ------
    MetadataError
        If a statistic is beyond the float range.
    """
    errors = np.asarray(errors, dtype=np.float64)
    # A sum that overflows is rejected below, so it is not worth a warning.
    with np.errstate(all="ignore"):
        statistics = {"mean_signed": float(errors.mean()),
                      "std_signed": float(errors.std(ddof=ddof)),
                      "mean_absolute": float(np.abs(errors).mean()),
                      "std_absolute": float(np.abs(errors).std(ddof=ddof))}
    for name, value in statistics.items():
        if not math.isfinite(value):
            raise MetadataError(f"{name} of the errors is beyond the float "
                                "range")
    return dict(statistics, n=int(errors.size))


def aggregate(samples: Sequence[TargetSample],
              group_by: Sequence[str] = (),
              sample_std: bool = False) -> list[ErrorReport]:
    """Group samples and report signed/absolute error statistics.

    ``group_by`` names distinct TargetSample fields; empty means one group.
    Standard deviations are population-flavored unless ``sample_std``.
    Groups come back sorted by their key values, so ordering does not
    depend on sample order.
    """
    if not samples:
        raise MetadataError("aggregate requires at least one sample")
    for i, name in enumerate(group_by):
        if name not in GROUPABLE_FIELDS:
            raise MetadataError(
                f"cannot group by {name!r}; choose from {GROUPABLE_FIELDS}")
        if name in group_by[:i]:
            raise MetadataError(f"cannot group by {name!r} twice")
    ddof = 1 if sample_std else 0
    groups: dict[tuple, list[float]] = {}
    for sample in samples:
        key = tuple(getattr(sample, name) for name in group_by)
        groups.setdefault(key, []).append(sample.signed_error)
    reports = []
    for key in sorted(groups, key=lambda k: tuple(map(str, k))):
        errors = np.array(groups[key])
        if ddof and errors.size < 2:
            raise MetadataError(
                "sample standard deviation needs at least two samples "
                f"in every group; group {key!r} has {errors.size}")
        reports.append(ErrorReport(group=tuple(zip(group_by, key)),
                                   **error_statistics(errors, ddof)))
    return reports


@dataclass(frozen=True)
class NdviResult:
    """NDVI plane plus the count of zero-denominator pixels forced to 0."""

    values: np.ndarray
    zero_denominator_count: int


def ndvi(red: ReflectanceImage, nir: ReflectanceImage) -> NdviResult:
    """Normalized difference vegetation index, (NIR - Red)/(NIR + Red).

    Pixels where the denominator is exactly zero produce 0 and are
    counted rather than raising, so one bad pixel cannot fail a mosaic.
    """
    if red.pixels.shape != nir.pixels.shape:
        raise MetadataError(
            f"dimension mismatch: red {red.pixels.shape} vs "
            f"nir {nir.pixels.shape}")
    total = nir.pixels + red.pixels
    difference = nir.pixels - red.pixels
    zero = total == 0.0
    safe_total = np.where(zero, 1.0, total)
    values = np.where(zero, 0.0, difference / safe_total)
    return NdviResult(values=values,
                      zero_denominator_count=int(np.count_nonzero(zero)))


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], accurate to ~1e-14."""
    if not (a > 0 and b > 0):
        raise ValueError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x!r} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    # The continued fraction converges fast only left of the mean; use the
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_survival(f_value: float, df_between: int, df_within: int) -> float:
    """P(F >= f_value) for an F distribution with the given df."""
    if df_between < 1 or df_within < 1:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(f_value):
        return 0.0
    if f_value <= 0.0:
        return 1.0
    x = df_within / (df_within + df_between * f_value)
    return regularized_incomplete_beta(df_within / 2.0, df_between / 2.0, x)


def anova_oneway(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Standard one-way ANOVA: F statistic and p-value.

    Zero within-group variance with distinct group means follows the
    infinite-F convention (F=inf, p=0); zero between-group variance gives
    F=0, p=1.
    """
    if len(groups) < 2:
        raise MetadataError("ANOVA needs at least two groups")
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    for i, arr in enumerate(arrays):
        if arr.size < 2:
            raise MetadataError(
                f"ANOVA group {i} has {arr.size} samples; needs at least 2")
        if not np.all(np.isfinite(arr)):
            raise MetadataError(f"ANOVA group {i} contains non-finite values")
    total_n = sum(arr.size for arr in arrays)
    grand_mean = sum(arr.sum() for arr in arrays) / total_n
    ss_between = sum(arr.size * (arr.mean() - grand_mean) ** 2
                     for arr in arrays)
    ss_within = sum(((arr - arr.mean()) ** 2).sum() for arr in arrays)
    df_between = len(arrays) - 1
    df_within = total_n - len(arrays)
    if ss_within == 0.0:
        if ss_between == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    f_value = float((ss_between / df_between) / (ss_within / df_within))
    return f_value, f_survival(f_value, df_between, df_within)


def cosine_falloff_check(measured: Sequence[tuple[float, Sequence[float]]]
                         ) -> np.ndarray:
    """Per-band RMS deviation of angular response from ``E(0) * cos(angle)``.

    ``measured`` holds ``(angle_deg, per-band irradiance)`` tuples and must
    include a 0-degree reading, which defines ``E(0)`` per band and is not
    itself scored.
    """
    if not measured:
        raise MetadataError("no measurements given")
    widths = {len(values) for _, values in measured}
    if len(widths) != 1:
        raise MetadataError(
            f"inconsistent band counts across measurements: {sorted(widths)}")
    reference: Optional[np.ndarray] = None
    rest: list[tuple[float, np.ndarray]] = []
    for angle, values in measured:
        arr = np.asarray(values, dtype=np.float64)
        if reference is None and angle == 0.0:
            reference = arr
        else:
            rest.append((angle, arr))
    if reference is None:
        raise MetadataError("cosine check requires a 0-degree reference")
    if not rest:
        return np.zeros_like(reference)
    deviations = np.stack([
        arr - reference * math.cos(math.radians(angle))
        for angle, arr in rest])
    return np.sqrt((deviations ** 2).mean(axis=0))


_SAMPLE_FIELDS = [f.name for f in fields(TargetSample)]


def read_samples(path) -> list[TargetSample]:
    """Load TargetSample rows from CSV (columns as the dataclass fields).

    A file that is not UTF-8 CSV, or a row that is not a sample, raises a
    :class:`MetadataError` naming the file (and the line, where known).
    """
    path = Path(path)
    samples = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or \
                    set(_SAMPLE_FIELDS) - set(reader.fieldnames):
                raise MetadataError(
                    f"{path}: sample CSV must have columns {_SAMPLE_FIELDS}")
            for row in reader:
                # The reader's own count: DictReader skips blank lines.
                lineno = reader.line_num
                if None in row.values():
                    raise MetadataError(f"{path}:{lineno}: row has fewer "
                                        "fields than the header")
                try:
                    samples.append(TargetSample(
                        target_id=row["target_id"],
                        band_index=int(row["band_index"]),
                        weather=row["weather"],
                        altitude_ft=int(row["altitude_ft"]),
                        method=row["method"],
                        true_reflectance=float(row["true_reflectance"]),
                        estimated_reflectance=float(
                            row["estimated_reflectance"])))
                except (ValueError, MetadataError) as exc:
                    raise MetadataError(f"{path}:{lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise MetadataError(f"{path}: cannot read: {exc}") from None
        except csv.Error as exc:
            raise MetadataError(f"{path}:{reader.line_num}: {exc}") from None
    if not samples:
        raise MetadataError(f"{path}: no sample rows")
    return samples


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as the CSV file ``path``."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_reports(path, reports: Sequence[ErrorReport]) -> None:
    """Emit reports as CSV: group columns, then the five statistics."""
    group_fields = list(reports[0].group_dict) if reports else []
    write_csv(path, group_fields + list(ERROR_STATISTICS),
              ([report.group_dict[g] for g in group_fields]
               + [repr(getattr(report, name)) for name in ERROR_STATISTICS]
               for report in reports))
