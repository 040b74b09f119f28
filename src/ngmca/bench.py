"""Monte-Carlo benchmark harness.

A campaign is a grid of instance parameters crossed with a list of
algorithm configurations and a number of trials per cell. Seeds are derived
by hashing (base_seed, cell coordinates, trial), so a record is identical
whether its trial runs alone, in a different order, or on a worker pool.
"""

import csv
import io as _io
import itertools
import json
import math
import numbers
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import AlgorithmConfig, run_algorithm
from .datagen import InstanceSpec, ProblemInstance, gen_instance
from .errors import UnknownAxisError
from .metrics import SDR_CAP_DB, condition_number, pair_sources
from .rng import derive_seed

RESULTS_CSV = "results.csv"
TIMINGS_CSV = "timings.csv"
SUMMARY_CSV = "summary.csv"
MANIFEST_JSON = "manifest.json"

#: the statistics columns of summary.csv; a grid axis of the same name
#: (the instance's column count n) is written as grid_<name>
SUMMARY_COLUMNS = ["algorithm_id", "n", "n_errors", "mean", "median", "sem"]


@dataclass
class BenchmarkConfig:
    grid: dict                      # InstanceSpec field -> list of values
    algorithms: list[AlgorithmConfig]  # or their dicts, as in a JSON config
    trials_per_cell: int = 24
    base_seed: int = 0
    output_dir: str = "results"

    def __post_init__(self):
        algos = self.algorithms
        if not (isinstance(algos, list) and algos and all(
                isinstance(a, (dict, AlgorithmConfig)) for a in algos)):
            raise ValueError(f"algorithms must be a non-empty list of "
                             f"algorithm configs, got {algos!r}")
        self.algorithms = [AlgorithmConfig(**a) if isinstance(a, dict) else a
                           for a in algos]
        # type(), not isinstance(): a bool is an int, but not a trial count
        if type(self.trials_per_cell) is not int or self.trials_per_cell < 1:
            raise ValueError(f"trials_per_cell must be an integer >= 1, "
                             f"got {self.trials_per_cell!r}")
        if not isinstance(self.grid, dict):
            raise ValueError(f"grid must be a mapping of axes, got {self.grid!r}")
        for axis, values in self.grid.items():
            if not isinstance(values, list) or not values:
                raise ValueError(f"grid axis {axis!r} must be a non-empty "
                                 f"list, got {values!r}")
        # an algorithm's seed is derived from its id, so two configs that
        # share one would get the same seeds and indistinguishable rows
        ids = [a.algorithm_id for a in self.algorithms]
        for algo_id in ids:
            if ids.count(algo_id) > 1:
                raise ValueError(f"algorithm_id {algo_id!r} is listed twice")

    def cells(self) -> list[dict]:
        keys = sorted(self.grid)
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(self.grid[k] for k in keys))]


@dataclass
class TrialRecord:
    cell: dict
    algorithm_id: str
    trial: int
    seed: int
    mean_sdr_db: float | None = None
    per_source_sdr_db: list | None = None
    final_objective: float | None = None
    wall_time_seconds: float | None = None
    iterations_run: int | None = None
    cond_a_ref: float | None = None
    error: str | None = None


#: the results.csv columns after the grid axes: the cell is spread over the
#: grid columns, and the wall time goes to timings.csv only
RESULT_COLUMNS = [f.name for f in fields(TrialRecord)
                  if f.name not in ("cell", "wall_time_seconds")]


def _cell_key(cell: dict) -> tuple:
    return tuple(sorted(cell.items()))


def _cell_order(cell_key: tuple) -> tuple:
    """Sort key of a _cell_key that never compares a number with a string:
    per axis, numbers first in numeric order, then the other values."""
    return tuple((k, (0, v) if isinstance(v, numbers.Real) else (1, str(v)))
                 for k, v in cell_key)


def _trial_spec(cfg: BenchmarkConfig, cell: dict, trial: int) -> InstanceSpec:
    spec = InstanceSpec(**cell)
    spec.seed = derive_seed(cfg.base_seed, _cell_key(cell), trial, "instance")
    return spec


def score_pair(a: np.ndarray, s: np.ndarray, inst: ProblemInstance) -> dict:
    """Score factors against an instance's references.

    Returns the pairing permutation, the per-source SDRs capped at +-300 dB,
    the mean SDR of the pairing and the objective 1/2 ||Y - A S||^2.
    """
    pairing = pair_sources(s, inst.s_ref, inst.z)
    resid = inst.y - a @ s
    return {
        "permutation": pairing.permutation.tolist(),
        "per_source_sdr_db": np.clip(pairing.per_source_sdr_db, -SDR_CAP_DB,
                                     SDR_CAP_DB).tolist(),
        "mean_sdr_db": pairing.mean_sdr_db,
        "final_objective": 0.5 * float(np.sum(resid * resid)),
    }


def run_trial(cfg: BenchmarkConfig, cell: dict, trial: int) -> list[TrialRecord]:
    """All records for one (cell, trial): one instance, every algorithm."""
    spec = _trial_spec(cfg, cell, trial)
    try:
        inst = gen_instance(spec)
        cond = condition_number(inst.a_ref)
    except Exception as exc:  # noqa: BLE001 - error rows keep the campaign alive
        return [TrialRecord(cell=cell, algorithm_id=a.algorithm_id, trial=trial,
                            seed=spec.seed, error=f"instance: {exc}")
                for a in cfg.algorithms]
    records = []
    for algo in cfg.algorithms:
        algo_seed = derive_seed(cfg.base_seed, _cell_key(cell), trial,
                                algo.algorithm_id)
        run_cfg = replace(algo, seed=algo_seed, rank=spec.r)
        rec = TrialRecord(cell=cell, algorithm_id=algo.algorithm_id,
                          trial=trial, seed=algo_seed, cond_a_ref=cond)
        try:
            start = time.perf_counter()
            try:
                pair = run_algorithm(inst.y, run_cfg, a_ref=inst.a_ref)
            finally:
                # the algorithm alone: the evaluation below is not timed
                rec.wall_time_seconds = time.perf_counter() - start
            score = score_pair(pair.a, pair.s, inst)
            rec.mean_sdr_db = score["mean_sdr_db"]
            rec.per_source_sdr_db = score["per_source_sdr_db"]
            rec.final_objective = score["final_objective"]
            rec.iterations_run = run_cfg.resolved_iterations()
        except Exception as exc:  # noqa: BLE001
            rec.error = str(exc)
        records.append(rec)
    return records


def run_campaign(cfg: BenchmarkConfig, workers: int = 1) -> list[TrialRecord]:
    """Run the full grid; results are merged in a deterministic order."""
    jobs = [(cell, trial) for cell in cfg.cells()
            for trial in range(cfg.trials_per_cell)]
    if workers <= 1:
        batches = [run_trial(cfg, cell, trial) for cell, trial in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_trial, cfg, cell, trial)
                       for cell, trial in jobs]
            batches = [f.result() for f in futures]
    algo_order = {a.algorithm_id: i for i, a in enumerate(cfg.algorithms)}
    records = [rec for batch in batches for rec in batch]
    records.sort(key=lambda r: (_cell_order(_cell_key(r.cell)),
                                algo_order[r.algorithm_id], r.trial))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def _csv(header: list[str], rows) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return out.getvalue()


def _records_csv(records: list[TrialRecord], columns: list[str]) -> str:
    grid_cols = sorted({k for rec in records for k in rec.cell})
    return _csv(grid_cols + columns,
                ([rec.cell.get(k) for k in grid_cols]
                 + [getattr(rec, c) for c in columns] for rec in records))


def records_to_csv(records: list[TrialRecord]) -> str:
    """Deterministic results CSV (wall time deliberately excluded)."""
    return _records_csv(records, RESULT_COLUMNS)


def timings_to_csv(records: list[TrialRecord]) -> str:
    return _records_csv(records, ["algorithm_id", "trial", "wall_time_seconds"])


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Per (cell, algorithm) mean/median/SEM of mean_sdr_db.

    Error rows are excluded and counted.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((_cell_key(rec.cell), rec.algorithm_id), []).append(rec)
    rows = []
    for (cell_key, algo_id), recs in sorted(
            groups.items(), key=lambda g: (_cell_order(g[0][0]), g[0][1])):
        values = [r.mean_sdr_db for r in recs if r.error is None]
        row = {f"grid_{k}" if k in SUMMARY_COLUMNS else k: v
               for k, v in cell_key}
        row["algorithm_id"] = algo_id
        row["n"] = len(values)
        row["n_errors"] = len(recs) - len(values)
        if values:
            arr = np.asarray(values, dtype=float)
            row["mean"] = float(arr.mean())
            row["median"] = float(np.median(arr))
            row["sem"] = (float(arr.std(ddof=1) / math.sqrt(arr.size))
                          if arr.size > 1 else 0.0)
        else:
            row["mean"] = row["median"] = row["sem"] = None
        rows.append(row)
    return rows


def summary_to_csv(rows: list[dict]) -> str:
    columns = (sorted(k for k in rows[0] if k not in SUMMARY_COLUMNS)
               + SUMMARY_COLUMNS)
    return _csv(columns, ([row.get(k) for k in columns] for row in rows))


def write_campaign_outputs(cfg: BenchmarkConfig, records: list[TrialRecord],
                           out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / RESULTS_CSV).write_text(records_to_csv(records))
    (out_dir / TIMINGS_CSV).write_text(timings_to_csv(records))
    (out_dir / SUMMARY_CSV).write_text(summary_to_csv(summarize(records)))
    manifest = {"version": __version__,
                "config": {**asdict(cfg), "output_dir": str(cfg.output_dir)}}
    (out_dir / MANIFEST_JSON).write_text(json.dumps(manifest, indent=2,
                                                    sort_keys=True))


# --- plotting ---------------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]


def emit_plot(summary_rows: list[dict], x_axis: str, out: Path) -> None:
    """Self-contained SVG line chart (one line per algorithm, SEM bars)
    plus a sidecar CSV of the plotted points.

    The rows come from summarize() or from csv.DictReader on summary.csv.
    Rows without a mean and rows whose x value is not numeric (a
    "noiseless" SNR) are left out, the latter with a warning naming them.
    """
    if not summary_rows:
        raise UnknownAxisError("empty summary")
    if x_axis in SUMMARY_COLUMNS:
        grid = f"grid_{x_axis}"
        hint = f"; the grid axis is {grid!r}" if grid in summary_rows[0] else ""
        raise UnknownAxisError(f"{x_axis!r} is a statistics column{hint}")
    if x_axis not in summary_rows[0]:
        raise UnknownAxisError(f"{x_axis!r} is not a summary column")

    series: dict[str, dict[float, list[tuple[float, float]]]] = {}
    skipped = set()
    for row in summary_rows:
        if row.get("mean") in (None, ""):  # a group of error rows only
            continue
        try:
            x = float(row[x_axis])
        except (TypeError, ValueError):
            skipped.add(str(row[x_axis]))
            continue
        series.setdefault(str(row["algorithm_id"]), {}).setdefault(x, []).append(
            (float(row["mean"]), float(row.get("sem") or 0.0)))
    if not series:
        raise UnknownAxisError(f"{x_axis!r} values are not numeric" if skipped
                               else "summary holds no plottable values")
    if skipped:
        warnings.warn(f"{x_axis!r}: left out the non-numeric values "
                      f"{', '.join(sorted(skipped))}", stacklevel=2)

    points: dict[str, list[tuple[float, float, float]]] = {}
    for algo, by_x in series.items():
        pts = []
        for x in sorted(by_x):
            means = [m for m, _ in by_x[x]]
            sems = [s for _, s in by_x[x]]
            pts.append((x, sum(means) / len(means), sum(sems) / len(sems)))
        points[algo] = pts

    xs = [p[0] for pts in points.values() for p in pts]
    ys = [p[1] - p[2] for pts in points.values() for p in pts]
    ys += [p[1] + p[2] for pts in points.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    width, height = 640, 480
    left, right, top, bottom = 70, 20, 20, 50

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f"<!-- data: {json.dumps(points, sort_keys=True)} -->",
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
             f'y2="{height - bottom}" stroke="black"/>',
             f'<line x1="{left}" y1="{top}" x2="{left}" '
             f'y2="{height - bottom}" stroke="black"/>']
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - bottom + 18}" '
                     f'font-size="11" text-anchor="middle">{xv:g}</text>')
        parts.append(f'<text x="{left - 6}" y="{sy(yv) + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{(left + width - right) / 2}" y="{height - 12}" '
                 f'font-size="13" text-anchor="middle">{x_axis}</text>')
    for idx, (algo, pts) in enumerate(sorted(points.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        path = " ".join(f"{sx(x):.2f},{sy(m):.2f}" for x, m, _ in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for x, m, sem in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(m):.2f}" r="2.5" '
                         f'fill="{color}"/>')
            if sem > 0.0:
                parts.append(f'<line x1="{sx(x):.2f}" y1="{sy(m - sem):.2f}" '
                             f'x2="{sx(x):.2f}" y2="{sy(m + sem):.2f}" '
                             f'stroke="{color}"/>')
        parts.append(f'<text x="{width - right - 140}" y="{top + 16 + 16 * idx}" '
                     f'font-size="12" fill="{color}">{algo}</text>')
    parts.append("</svg>")

    out = Path(out)
    out.write_text("\n".join(parts))
    out.with_suffix(".csv").write_text(_csv(
        ["algorithm_id", x_axis, "mean", "sem"],
        ([algo, *pt] for algo, pts in sorted(points.items()) for pt in pts)))
