"""Output checks for benchmark sweeps, independent of the code under test.

`check_csv` reads a sweep's CSV back and checks it against the schema in
README.md: the row layout, the arithmetic that ties each row's columns
together, the aggregate rows against the per-replication rows they
summarise, and each theory row against a direct binomial computation of
E[max_i L_i].  It returns a list of problems, empty when the file is right.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from itertools import accumulate
from pathlib import Path

COLUMNS = ["algorithm", "M", "N", "p", "replication", "seed", "retransmissions",
           "baseline_retransmissions", "ratio", "ttd_mean", "ttd_std"]
# the CSV keeps 10 significant digits
REL_TOL = 1e-8


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_max_losses(m: int, n: int, p: float) -> float:
    """E[max of m iid Binomial(n, p)] as sum over j < n of P[max > j]."""
    pmf = [math.comb(n, c) * p ** c * (1.0 - p) ** (n - c) for c in range(n + 1)]
    return sum(1.0 - min(1.0, cdf) ** m for cdf in list(accumulate(pmf))[:-1])


def read_rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [dict(zip(header, row)) for row in reader]


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    """Equal to CSV precision; `scale` is the size of the (rounded) inputs
    b was computed from, which bounds its rounding error."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL * scale + 1e-12)


def _num(text: str) -> float:
    return math.nan if text == "" else float(text)


def check_csv(path: Path, schedulers: list[str], receivers: list[int], loss: float,
              batch: int, reps: int, theory: bool) -> list[str]:
    header, rows = read_rows(path)
    if header != COLUMNS:
        return [f"header {header} is not {COLUMNS}"]
    per_point = reps * len(schedulers) + 2 * len(schedulers) + int(theory)
    if len(rows) != per_point * len(receivers):
        return [f"{len(rows)} rows, expected {per_point * len(receivers)}"]
    problems: list[str] = []
    at = 0
    for m in receivers:
        point = rows[at:at + per_point]
        at += per_point
        problems += _check_point(point, schedulers, m, loss, batch, reps, theory)
    return problems


def _check_point(rows, schedulers, m, loss, batch, reps, theory) -> list[str]:
    problems = []
    where = f"M={m}"
    for row in rows:
        if (int(row["M"]), int(row["N"])) != (m, batch) or not _close(float(row["p"]), loss):
            return [f"{where}: row {row} has the wrong grid point"]
    runs = {name: [] for name in schedulers}
    for r in range(reps):
        for j, name in enumerate(schedulers):
            row = rows[r * len(schedulers) + j]
            if row["algorithm"] != name or row["replication"] != str(r):
                return [f"{where}: expected {name} replication {r}, got {row}"]
            retx, base = int(row["retransmissions"]), int(row["baseline_retransmissions"])
            ratio = float(row["ratio"])
            if not _close(ratio, retx / base if base else 0.0):
                problems.append(f"{where} {name} rep {r}: ratio {ratio} != {retx}/{base}")
            if name == "arq" and retx != base:
                problems.append(f"{where} arq rep {r}: {retx} repairs, baseline {base}")
            if name != "rlnc" and retx > base:
                problems.append(f"{where} {name} rep {r}: {retx} repairs above ARQ's {base}")
            runs[name].append(row)
    aggregates = rows[reps * len(schedulers):]
    for j, name in enumerate(schedulers):
        mean_row, pooled_row = aggregates[2 * j], aggregates[2 * j + 1]
        if (mean_row["algorithm"], mean_row["replication"]) != (name, "mean") or \
                (pooled_row["algorithm"], pooled_row["replication"]) != (name, "pooled"):
            return [f"{where}: aggregate rows for {name} out of place"]
        for col in ("retransmissions", "baseline_retransmissions", "ratio"):
            want = statistics.fmean(float(row[col]) for row in runs[name])
            for agg in (mean_row, pooled_row):
                if not _close(float(agg[col]), want):
                    problems.append(f"{where} {name} {agg['replication']} {col}: "
                                    f"{agg[col]} != {want}")
        means = [_num(row["ttd_mean"]) for row in runs[name]]
        means = [x for x in means if not math.isnan(x)]
        if means:
            got = (_num(mean_row["ttd_mean"]), _num(mean_row["ttd_std"]))
            want = (statistics.fmean(means), statistics.pstdev(means))
            if not all(_close(g, w, max(means)) for g, w in zip(got, want)):
                problems.append(f"{where} {name} mean ttd {got} != {want}")
            if not _num(pooled_row["ttd_mean"]) > 0:
                problems.append(f"{where} {name}: pooled ttd {pooled_row['ttd_mean']}")
    if theory:
        row = rows[-1]
        floor = expected_max_losses(m, batch, loss)
        arq = batch * (1.0 - (1.0 - loss) ** m)
        got = [float(row[c]) for c in ("retransmissions", "baseline_retransmissions", "ratio")]
        if row["algorithm"] != "theory" or \
                not all(_close(g, w) for g, w in zip(got, (floor, arq, floor / arq))):
            problems.append(f"{where} theory row {got} != {(floor, arq, floor / arq)}")
    return problems


def benefit_quality(path: Path) -> tuple[float, float]:
    """Benefit's retransmission ratio ("mean" rows) and pooled time to decode,
    each averaged over the grid points of the sweep."""
    _, rows = read_rows(path)
    ratios = [float(r["ratio"]) for r in rows
              if r["algorithm"] == "benefit" and r["replication"] == "mean"]
    ttds = [float(r["ttd_mean"]) for r in rows
            if r["algorithm"] == "benefit" and r["replication"] == "pooled"]
    return statistics.fmean(ratios), statistics.fmean(ttds)
