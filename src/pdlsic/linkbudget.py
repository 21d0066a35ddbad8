"""Link-budget composition from two constituent coded-modulation schemes.

The SIC architecture needs two codes: one sees the derated SNR (1-a^2)*SNR,
the other the full SNR.  Given each code's scalar AWGN FER curve as an
externally supplied table, the end-to-end frame error rate is
f1 + f2 - f1*f2 (bounded by f1 + f2) and the overall gap to the compound
capacity is the average of the per-code dB gaps.

Tables are CSV with the exact header ``snr_db,fer,rate_bits_per_real_dim,label``
and numbers in plain ASCII decimal with an optional exponent, such as
``1.2e-3`` (no digit separators), so published waterfall tables can be
hand-transcribed.  Lookups interpolate log10(FER) linearly in SNR-dB and
never extrapolate: a query outside the table span is a hard error naming the
required SNR.  Queries within 1e-3 dB of a row snap to it, absorbing the
rounding of hand-transcribed values.
"""

import csv
import math
import re
from dataclasses import dataclass

from .capacity import inverse_c_compound
from .channel import SnrSpec, validate_alpha

FER_COLUMNS = ("snr_db", "fer", "rate_bits_per_real_dim", "label")

#: Queries this close to a tabulated SNR (in dB) count as that row.
SNAP_TOL_DB = 1e-3

#: A number cell; ``float()`` alone would also take ``1_0.0``, non-ASCII digits and ``nan``.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class FerTableError(ValueError):
    """Malformed FER table (CSV format, header, or value constraints)."""


class SnrOutOfRangeError(ValueError):
    """A required lookup SNR falls outside the table span."""

    def __init__(self, required_snr_db: float, lo: float, hi: float):
        self.required_snr_db = required_snr_db
        super().__init__(
            f"required lookup SNR {required_snr_db:.4f} dB is outside the table span "
            f"[{lo:.4f}, {hi:.4f}] dB"
        )


@dataclass(frozen=True)
class FerPoint:
    snr_db: float
    fer: float
    rate_bits_per_real_dim: float
    label: str


@dataclass(frozen=True)
class FerTable:
    """Sorted FER-vs-SNR records for one coded-modulation scheme."""

    points: tuple[FerPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise FerTableError("FER table has no entries")
        pts = tuple(sorted(self.points, key=lambda p: p.snr_db))
        for p in pts:
            if not math.isfinite(p.snr_db):
                raise FerTableError(f"snr_db must be finite, got {p.snr_db}")
            if not 0.0 <= p.fer <= 1.0:
                raise FerTableError(f"fer must lie in [0, 1], got {p.fer}")
            if not 0.0 < p.rate_bits_per_real_dim < math.inf:
                raise FerTableError(
                    f"rate must be positive and finite, got {p.rate_bits_per_real_dim}"
                )
        for a, b in zip(pts, pts[1:]):
            if b.snr_db - a.snr_db < SNAP_TOL_DB:
                raise FerTableError(
                    f"table rows at {a.snr_db} and {b.snr_db} dB are not distinct"
                )
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_csv(cls, path) -> "FerTable":
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                rows = [row for row in reader if row]
        except OSError as exc:
            raise FerTableError(f"cannot read FER table {path}: {exc}") from exc
        except (csv.Error, UnicodeDecodeError) as exc:
            raise FerTableError(f"cannot parse FER table {path}: {exc}") from exc
        if not rows:
            raise FerTableError(f"FER table {path} is empty")
        header = tuple(cell.strip() for cell in rows[0])
        if header != FER_COLUMNS:
            raise FerTableError(
                f"FER table {path} must have header {','.join(FER_COLUMNS)}, "
                f"got {','.join(header)}"
            )
        points = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(FER_COLUMNS):
                raise FerTableError(
                    f"{path}:{lineno}: expected {len(FER_COLUMNS)} columns, got {len(row)}"
                )
            if not all(_DECIMAL.fullmatch(cell.strip(" \t")) for cell in row[:3]):
                raise FerTableError(f"{path}:{lineno}: {row[:3]} are not all plain decimal numbers")
            points.append(FerPoint(*map(float, row[:3]), row[3].strip()))
        return cls(tuple(points))

    def _locate(self, snr_db: float) -> tuple[int, int, float]:
        """Indices of the bracketing rows and the interpolation weight."""
        snrs = [p.snr_db for p in self.points]
        for i, v in enumerate(snrs):
            if abs(snr_db - v) <= SNAP_TOL_DB:
                return i, i, 0.0
        if snr_db < snrs[0] or snr_db > snrs[-1]:
            raise SnrOutOfRangeError(snr_db, snrs[0], snrs[-1])
        hi = next(i for i, v in enumerate(snrs) if v >= snr_db)
        lo = hi - 1
        w = (snr_db - snrs[lo]) / (snrs[hi] - snrs[lo])
        return lo, hi, w

    def fer_at(self, snr_db: float) -> float:
        """FER at the given SNR, log-linear in dB between rows; no extrapolation."""
        lo, hi, w = self._locate(snr_db)
        f_lo, f_hi = self.points[lo].fer, self.points[hi].fer
        if lo == hi:
            return f_lo
        if f_lo <= 0.0 or f_hi <= 0.0:
            return (1.0 - w) * f_lo + w * f_hi
        return 10.0 ** ((1.0 - w) * math.log10(f_lo) + w * math.log10(f_hi))

    def rate_at(self, snr_db: float) -> float:
        """Code rate at the nearest tabulated row to the given SNR."""
        lo, hi, w = self._locate(snr_db)
        return self.points[hi if w > 0.5 else lo].rate_bits_per_real_dim


@dataclass(frozen=True)
class CodePoint:
    """One constituent code at its operating SNR."""

    snr_db: float
    fer: float
    rate_bits_per_real_dim: float
    gap_db: float


@dataclass(frozen=True)
class OperatingPoint:
    """The composed end-to-end point; ``pdlsic fer`` prints its fields, in order, as JSON."""

    alpha: float
    snr_db: float
    snr_linear: float
    code1: CodePoint
    code2: CodePoint
    total_rate_bits_per_real_dim: float
    composed_gap_db: float
    gap_to_capacity_db: float
    fer_exact: float
    fer_bound: float


def _implied_gap_db(snr_db: float, rate: float) -> float:
    """dB margin between the operating SNR and the Shannon SNR for the rate."""
    shannon = 2.0 ** (2.0 * rate) - 1.0
    return snr_db - 10.0 * math.log10(shannon)


def evaluate_operating_point(
    alpha: float, snr: SnrSpec, table1: FerTable, table2: FerTable
) -> OperatingPoint:
    """Compose the end-to-end operating point from the two code tables.

    Table 1 is queried at the derated SNR 10*log10((1-a^2)*s), table 2 at the
    channel SNR.  Per-code gaps invert the scalar AWGN capacity at each
    code's tabulated rate; the composed gap averages them in dB, and the
    direct gap measures the horizontal distance to the compound capacity
    curve at the combined rate.  The end-to-end FER is f1 + f2 - f1*f2 for
    independent code errors, with the additive bound min(f1 + f2, 1).
    """
    validate_alpha(alpha)
    s = snr.snr_linear
    snr1_db = 10.0 * math.log10((1.0 - alpha**2) * s)
    snr2_db = snr.snr_db

    fer1 = table1.fer_at(snr1_db)
    rate1 = table1.rate_at(snr1_db)
    fer2 = table2.fer_at(snr2_db)
    rate2 = table2.rate_at(snr2_db)

    g1_db = _implied_gap_db(snr1_db, rate1)
    g2_db = _implied_gap_db(snr2_db, rate2)
    if min(g1_db, g2_db) < 0.0:
        raise FerTableError(
            "table claims a rate above the Shannon limit at its operating SNR"
        )
    total_rate = (rate1 + rate2) / 2.0
    direct_gap = snr2_db - 10.0 * math.log10(inverse_c_compound(alpha, total_rate))
    return OperatingPoint(
        alpha=alpha,
        snr_db=snr2_db,
        snr_linear=s,
        code1=CodePoint(snr1_db, fer1, rate1, g1_db),
        code2=CodePoint(snr2_db, fer2, rate2, g2_db),
        total_rate_bits_per_real_dim=total_rate,
        composed_gap_db=(g1_db + g2_db) / 2.0,
        gap_to_capacity_db=direct_gap,
        fer_exact=fer1 + fer2 - fer1 * fer2,
        fer_bound=min(fer1 + fer2, 1.0),
    )
