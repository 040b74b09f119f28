"""Benchmark of ngmca: workloads, end-to-end metrics and a per-layer trace.

Run from the repository root, for example

    python3 perfbench/run.py --workload synthetic --seed 1 --seconds 10 --trace 0

One operation generates one instance, runs one algorithm on it and scores it
with pair_sources. Operations run in whole rounds, in one process, until the
measured time reaches --seconds; every output is then checked by
perfbench/checks.py outside the timed part. The last line of standard output
is one JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. See perfbench/README.md for the workloads and what each metric
should move.
"""

import time

_T0 = time.perf_counter()  # before every other import: the fallback set-up clock

import argparse
import contextlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("synthetic", "nmr", "campaign")

#: (snr_db, p_S) cells of the synthetic and campaign grids
CELLS = ((10.0, 0.1), (10.0, 0.3), (20.0, 0.1), (20.0, 0.3))

#: instance seeds of the synthetic cells; the algorithm seed is one more.
#: They do not follow --seed: with four operations a run, drawing new
#: instances each run would spread ops_per_s and sdr_db wider than the bounds.
SYNTHETIC_SEEDS = (1000, 2000, 3000, 4000)

#: criterion 10's NMR instances, in seed order from 0. Seed 1 stays in: its
#: polish runs all POLISH_CAP alternations without settling.
NMR_SEEDS = (0, 1)

#: operations that fail on every run because of a fault of the program, by
#: label; any other failure makes the run incorrect
KNOWN_NOT_STATIONARY = {
    "nmr seed 1": "the polish stops at POLISH_CAP = 300 alternations "
                  "before the pair is stationary",
}

#: names of the per-layer metrics, with their units
LAYER_METRICS = {
    "datagen.instance_s": "s",
    "algorithms.solve_s": "s",
    "algorithms.schedule_s": "s",
    "algorithms.polish_s": "s",
    "algorithms.polish_alternations": "count",
    "algorithms.polish_capped_ops": "count",
    "algorithms.dead_sources": "count",
    "subsolvers.fista_S_s": "s",
    "subsolvers.fista_S_calls": "count",
    "subsolvers.fista_S_prox_calls": "count",
    "subsolvers.fista_A_s": "s",
    "subsolvers.fista_A_calls": "count",
    "subsolvers.fista_A_proj_calls": "count",
    "linops.spectral_norm_s": "s",
    "linops.spectral_norm_calls": "count",
    "linops.least_squares_s": "s",
    "linops.least_squares_calls": "count",
    "priors.threshold_s": "s",
    "metrics.pair_sources_s": "s",
    "metrics.decompose_bss_calls": "count",
    "bench.campaign_s": "s",
    "bench.record_busy_s": "s",
    "bench.write_outputs_s": "s",
    "bench.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def process_age() -> float:
    """Seconds since this process started, from /proc where it exists."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
        since_import = time.perf_counter() - _T0
        if since_import <= age <= since_import + 60.0:
            return age
    except (OSError, ValueError, IndexError):
        pass
    return time.perf_counter() - _T0


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def sub_seed(*parts: int) -> int:
    """Input seed derived from the run's --seed and a position in the run."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            rev = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "git_rev": rev,
        "machine": platform.machine(),
    }


@dataclass
class Op:
    """Outcome of one checked operation."""

    label: str
    sdr_db: list = field(default_factory=list)   # own capped per-source SDRs
    dead_sources: int = 0
    error: Exception | None = None


@dataclass
class Unit:
    """A timed piece of a round: runs, returns its output for checking."""

    label: str
    ops: int
    run: Callable        # () -> output
    check: Callable      # output -> list[Op]


class Context:
    """The ngmca modules, the run's options and the trace, if any."""

    def __init__(self, args):
        from ngmca import algorithms, bench, datagen, metrics, rng
        self.algorithms, self.bench, self.datagen = algorithms, bench, datagen
        self.metrics, self.rng = metrics, rng
        self.seed = args.seed
        self.tracer: Tracer | None = None
        self.corpus = None
        self.polish_cap = getattr(algorithms, "POLISH_CAP", None)
        self.ngmca_ops = 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


# --- one ngmca_s operation (synthetic and nmr) -------------------------------

def solve_ngmca_s(ctx: Context, y, cfg):
    """Untraced: the public dispatch. Traced: ngmca with a callback, so the
    polish is timed as whatever runs after the last scheduled iteration."""
    al = ctx.algorithms
    tracer = ctx.tracer
    ctx.ngmca_ops += 1
    ngmca_fn = getattr(al, "ngmca", None)
    if tracer is None or ngmca_fn is None or \
            "callback" not in inspect.signature(ngmca_fn).parameters:
        with ctx.span("algorithms.solve"):
            return al.run_algorithm(y, cfg)
    marks = []

    def callback(*_):
        marks.append((time.perf_counter(),
                      tracer.calls["subsolvers.fista_S"]))

    with ctx.span("algorithms.solve"):
        pair = ngmca_fn(y, cfg, callback=callback)
        end = time.perf_counter()
    if marks:
        last_t, last_calls = marks[-1]
        alternations = tracer.calls["subsolvers.fista_S"] - last_calls
        tracer.seconds["algorithms.polish"] += end - last_t
        tracer.calls["algorithms.polish_alternations"] += alternations
        tracer.present.add("algorithms.polish")
        if ctx.polish_cap is not None and alternations >= ctx.polish_cap:
            tracer.calls["algorithms.polish_capped_ops"] += 1
    return pair


def ngmca_unit(ctx: Context, label: str, make_instance, cfg) -> Unit:
    def run():
        with ctx.span("datagen.instance"):
            inst = make_instance()
        pair = solve_ngmca_s(ctx, inst.y, replace(cfg, rank=inst.s_ref.shape[0]))
        with ctx.span("metrics.pair_sources"):
            pairing = ctx.metrics.pair_sources(pair.s, inst.s_ref, inst.z)
        return inst, pair, pairing

    def check(output):
        inst, pair, pairing = output
        op = Op(label, dead_sources=int((~pair.s.any(axis=1)).sum()))
        (m, n), r = inst.y.shape, inst.s_ref.shape[0]
        try:
            checks.check_factors(pair.a, pair.s, m, n, r)
            op.sdr_db = checks.check_pairing(
                pair.s, inst.s_ref, pairing.per_source_sdr_db,
                pairing.mean_sdr_db, pairing.permutation).tolist()
            checks.check_stationary(pair.a, pair.s, inst.y)
        except checks.CheckError as exc:
            op.error = exc
        return [op]

    return Unit(label, 1, run, check)


def synthetic_round(ctx: Context, k: int) -> list[Unit]:
    """Paper scale, one fixed instance per (SNR, p_S) cell."""
    units = []
    for c, (snr, p_s) in enumerate(CELLS):
        spec = ctx.datagen.InstanceSpec(m=200, n=200, r=15, p_S=p_s,
                                        snr_db=snr, seed=SYNTHETIC_SEEDS[c])
        cfg = ctx.algorithms.AlgorithmConfig("ngmca_s", rank=15,
                                             seed=SYNTHETIC_SEEDS[c] + 1)
        units.append(ngmca_unit(ctx, f"synthetic {snr:g} dB p_S {p_s:g}",
                                lambda spec=spec: ctx.datagen.gen_instance(spec),
                                cfg))
    return units


def nmr_round(ctx: Context, k: int) -> list[Unit]:
    """Criterion 10's NMR instances (m=15, n=1200, 15 dB), tau = 2."""
    derive = ctx.rng.derive_seed
    units = []
    for s in NMR_SEEDS:
        cfg = ctx.algorithms.AlgorithmConfig(
            "ngmca_s", rank=15, tau_final=2.0, seed=derive("c10", s, "ngmca_s"))
        units.append(ngmca_unit(
            ctx, f"nmr seed {s}",
            lambda s=s: ctx.datagen.gen_nmr_instance(
                15, 15.0, derive("c10", s, "instance"), peaklists=ctx.corpus),
            cfg))
    return units


# --- campaign -------------------------------------------------------------

def campaign_config(ctx: Context, k: int):
    algos = ctx.algorithms
    return ctx.bench.BenchmarkConfig(
        grid={"m": [100], "n": [100], "r": [15],
              "p_S": sorted({p for _, p in CELLS}),
              "snr_db": sorted({s for s, _ in CELLS})},
        algorithms=[algos.AlgorithmConfig("als", rank=15),
                    algos.AlgorithmConfig("mu", rank=15, outer_iterations=5000),
                    algos.AlgorithmConfig("oracle", rank=15)],
        trials_per_cell=1,
        base_seed=sub_seed(ctx.seed, k),
        output_dir=str(OUT / "campaign"))


def check_campaign_op(ctx: Context, cfg, rec) -> Op:
    """Re-solve one record's operation in-process and check it in full."""
    bench, al = ctx.bench, ctx.algorithms
    op = Op(f"campaign {rec.algorithm_id} {rec.cell['snr_db']:g} dB "
            f"p_S {rec.cell['p_S']:g}")
    try:
        if rec.error is not None:
            raise checks.CheckError(f"record error: {rec.error}")
        key = tuple(sorted(rec.cell.items()))
        if ctx.rng.derive_seed(cfg.base_seed, key, rec.trial,
                               rec.algorithm_id) != rec.seed:
            raise checks.CheckError("the campaign derives its seeds another "
                                    "way; update the benchmark's replica")
        spec = ctx.datagen.InstanceSpec(**rec.cell)
        spec.seed = ctx.rng.derive_seed(cfg.base_seed, key, rec.trial, "instance")
        inst = ctx.datagen.gen_instance(spec)
        algo = next(a for a in cfg.algorithms
                    if a.algorithm_id == rec.algorithm_id)
        oracle = rec.algorithm_id == al.ORACLE
        pair = al.run_algorithm(inst.y, replace(algo, seed=rec.seed,
                                                rank=spec.r),
                                a_ref=inst.a_ref if oracle else None)
        op.dead_sources = int((~pair.s.any(axis=1)).sum())
        checks.check_factors(pair.a, pair.s, spec.m, spec.n, spec.r)
        op.sdr_db = checks.check_pairing(pair.s, inst.s_ref,
                                         rec.per_source_sdr_db,
                                         rec.mean_sdr_db).tolist()
        if oracle:
            checks.check_oracle(inst.a_ref, pair.s, inst.y)
    except checks.CheckError as exc:
        op.error = exc
    return op


def campaign_round(ctx: Context, k: int) -> list[Unit]:
    """run_campaign plus write_campaign_outputs, as `ngmca bench` does."""
    bench = ctx.bench
    cfg = campaign_config(ctx, k)
    out_dir = Path(cfg.output_dir)
    expected = len(cfg.cells()) * cfg.trials_per_cell * len(cfg.algorithms)

    def run():
        with ctx.span("bench.campaign"):
            records = bench.run_campaign(cfg, workers=1)
        with ctx.span("bench.write_outputs"):
            bench.write_campaign_outputs(cfg, records, out_dir)
        return records

    def check(records):
        if ctx.tracer:
            ctx.tracer.seconds["bench.record_busy"] += sum(
                r.wall_time_seconds or 0.0 for r in records)
            ctx.tracer.calls["bench.output_bytes"] += sum(
                p.stat().st_size for p in out_dir.iterdir())
        ops = [check_campaign_op(ctx, cfg, rec) for rec in records]
        try:
            cells = cfg.cells()
            trial = bench.run_trial(cfg, cells[k % len(cells)], 0)
            checks.check_campaign((out_dir / bench.RESULTS_CSV).read_text(),
                                  (out_dir / bench.SUMMARY_CSV).read_text(),
                                  bench.records_to_csv(trial), expected,
                                  cfg.trials_per_cell)
        except checks.CheckError as exc:
            for op in ops:
                op.error = op.error or exc
        return ops

    return [Unit(f"campaign round {k}", expected, run, check)]


ROUNDS = {"synthetic": synthetic_round, "nmr": nmr_round,
          "campaign": campaign_round}


# --- tracing ----------------------------------------------------------------

def install_hooks(tracer: Tracer) -> None:
    """Spans at the layer boundaries, through the names callers use."""
    tracer.present |= {"bench.campaign", "bench.write_outputs"}  # own spans
    tracer.hook_span("datagen.instance", "ngmca.bench.gen_instance")
    tracer.hook_span("algorithms.solve", "ngmca.bench.run_algorithm")
    tracer.hook_span("subsolvers.fista_S", "ngmca.algorithms.fista_update_S")
    tracer.hook_span("subsolvers.fista_A", "ngmca.algorithms.fista_update_A")
    tracer.hook_count("subsolvers.fista_S_prox", "ngmca.subsolvers.prox_nonneg_l1",
                      "ngmca.subsolvers.hard_threshold",
                      within="subsolvers.fista_S")
    tracer.hook_count("subsolvers.fista_A_proj", "ngmca.subsolvers.nonneg_project",
                      within="subsolvers.fista_A")
    tracer.hook_span("linops.spectral_norm", "ngmca.subsolvers.spectral_norm",
                     "ngmca.linops.spectral_norm")
    tracer.hook_span("linops.least_squares", "ngmca.linops.least_squares_solve_S",
                     "ngmca.linops.least_squares_solve_A")
    tracer.hook_span("priors.threshold", "ngmca.priors.mad_sigma_rows",
                     "ngmca.priors.ngmca_lambda_init",
                     "ngmca.priors.ngmca_lambda_next",
                     "ngmca.priors.naive_threshold_select")
    tracer.hook_span("metrics.pair_sources", "ngmca.bench.pair_sources")
    tracer.hook_count("metrics.decompose_bss", "ngmca.metrics.decompose_bss")


def layer_metrics(ctx: Context, ops: list[Op], overhead: float) -> tuple[dict, list]:
    """Every per-layer metric whose source was measured, and the absent ones."""
    t = ctx.tracer
    values = {"algorithms.dead_sources": sum(o.dead_sources for o in ops),
              "bench.record_busy_s": t.seconds["bench.record_busy"],
              "bench.output_bytes": t.calls["bench.output_bytes"],
              "trace.overhead_s": overhead}
    for name in t.present:
        values[f"{name}_s"] = t.seconds[name]
        values[f"{name}_calls"] = t.calls[name]
    # the polish is whatever ngmca runs after its last scheduled callback;
    # a workload with no ngmca_s operation has none
    if "algorithms.polish" in t.present or ctx.ngmca_ops == 0:
        polish = t.seconds["algorithms.polish"]
        values["algorithms.polish_s"] = polish
        values["algorithms.schedule_s"] = values["algorithms.solve_s"] - polish
        values["algorithms.polish_alternations"] = \
            t.calls["algorithms.polish_alternations"]
        if ctx.polish_cap is not None:
            values["algorithms.polish_capped_ops"] = \
                t.calls["algorithms.polish_capped_ops"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_METRICS.items() if name in values}
    return metrics, [name for name in LAYER_METRICS if name not in values]


# --- driver -------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed(unit: Unit, totals: dict):
    c0, t0 = cpu_seconds(), time.perf_counter()
    output = unit.run()
    totals["wall"] += time.perf_counter() - t0
    totals["cpu"] += cpu_seconds() - c0
    return output


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ngmca" / "__init__.py").is_file():
        print(f"perfbench: no ngmca sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ngmca.errors import NgmcaError, RankCollapseWarning
    warnings.simplefilter("ignore", RankCollapseWarning)  # counted as dead_sources

    ctx = Context(args)
    if args.workload == "nmr":
        ctx.corpus = ctx.datagen.load_peak_corpus()
    OUT.mkdir(exist_ok=True)
    # warm-up: BLAS threads, lazy imports and first-call paths
    warm = ctx.datagen.gen_instance(ctx.datagen.InstanceSpec(
        m=20, n=20, r=3, p_S=0.3, snr_db=20.0, seed=0))
    warm_pair = ctx.algorithms.run_algorithm(
        warm.y, ctx.algorithms.AlgorithmConfig("ngmca_s", rank=3,
                                                outer_iterations=10))
    ctx.metrics.pair_sources(warm_pair.s, warm.s_ref, warm.z)

    make_round = ROUNDS[args.workload]
    overhead = 0.0
    if args.trace:
        # the first unit once untraced, as the reference for the overhead
        reference = {"wall": 0.0, "cpu": 0.0}
        timed(make_round(ctx, 0)[0], reference)
        ctx.tracer = Tracer()
        install_hooks(ctx.tracer)

    setup_s = process_age()
    totals = {"wall": 0.0, "cpu": 0.0}
    ops: list[Op] = []
    attempted = 0
    k = 0
    while k == 0 or totals["wall"] < args.seconds:
        for i, unit in enumerate(make_round(ctx, k)):
            if ctx.tracer:
                ctx.tracer.op = attempted
            before = totals["wall"]
            try:
                output = timed(unit, totals)
            except (NgmcaError, ValueError, ArithmeticError,
                    np.linalg.LinAlgError) as exc:
                ops += [Op(unit.label, error=exc)] * unit.ops
            else:
                with ctx.tracer.paused() if ctx.tracer else contextlib.nullcontext():
                    ops += unit.check(output)
            attempted += unit.ops
            if args.trace and k == 0 and i == 0:
                overhead = (totals["wall"] - before) - reference["wall"]
        k += 1
    if ctx.tracer:
        ctx.tracer.uninstall()

    failed = [o for o in ops if o.error is not None]
    unexpected = 0
    for o in failed:
        known = isinstance(o.error, checks.NotStationary) and \
            o.label in KNOWN_NOT_STATIONARY
        unexpected += not known
        print(f"failed: {o.label}: {o.error}"
              + (f" (known fault: {KNOWN_NOT_STATIONARY[o.label]})"
                 if known else ""), file=sys.stderr)
    sdrs = [v for o in ops for v in o.sdr_db]
    env = environment()
    print(json.dumps({"env": env}))

    if args.trace:
        metrics, absent = layer_metrics(ctx, ops, overhead)
        if absent:
            print(json.dumps({"absent_metrics": absent}))
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "workload": args.workload, "seed": args.seed,
            "attempted": attempted, "metrics": metrics, "absent": absent,
            "spans": ctx.tracer.spans}))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": attempted / totals["wall"], "unit": "1/s"},
            "cpu_s_per_op": {"value": totals["cpu"] / attempted, "unit": "s"},
            "sdr_db": {"value": statistics.median(sdrs) if sdrs else float("nan"),
                       "unit": "dB"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    if args.workload == "campaign":
        shutil.rmtree(OUT / "campaign", ignore_errors=True)
    print(json.dumps({"correct": not unexpected and bool(sdrs),
                      "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
