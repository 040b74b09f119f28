"""Command-line front end.

Subcommands: generate, run, eval, bench, plot. Exit codes: 0 success,
1 usage error, 2 runtime failure.
"""

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import io as io_mod
from .algorithms import ALGORITHM_IDS, AlgorithmConfig, run_algorithm
from .datagen import InstanceSpec, gen_instance

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ngmca",
                     description="Sparse non-negative BSS benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="materialize a problem instance")
    p.add_argument("--spec", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("run", help="factorize an instance")
    p.add_argument("--algorithm", required=True, choices=ALGORITHM_IDS)
    p.add_argument("--instance", required=True, type=Path)
    p.add_argument("--config", type=Path,
                   help="JSON AlgorithmConfig overrides")
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("eval", help="score factors against an instance")
    p.add_argument("--factors", required=True, type=Path)
    p.add_argument("--instance", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("bench", help="run a Monte-Carlo campaign")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--paper-scale", action="store_true",
                   help="restore full-scale sizes (m=n=200, 48 trials)")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("plot", help="plot a summary CSV")
    p.add_argument("--summary", required=True, type=Path)
    p.add_argument("--x", required=True)
    p.add_argument("--out", required=True, type=Path)
    return parser


def _cmd_generate(args) -> None:
    spec = InstanceSpec(**io_mod.load_json(args.spec))
    io_mod.write_instance(args.out, gen_instance(spec))


def _cmd_run(args) -> None:
    inst = io_mod.read_instance(args.instance)
    overrides = io_mod.load_json(args.config) if args.config else {}
    overrides["algorithm_id"] = args.algorithm
    overrides.setdefault("rank", inst.spec.r)
    cfg = AlgorithmConfig(**overrides)
    pair = run_algorithm(inst.y, cfg, a_ref=inst.a_ref)
    io_mod.write_factors(args.out, pair.a, pair.s,
                         meta={"algorithm_id": cfg.algorithm_id,
                               "seed": cfg.seed})


def _cmd_eval(args) -> None:
    a, s = io_mod.read_factors(args.factors)
    report = bench_mod.score_pair(a, s, io_mod.read_instance(args.instance))
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))


def _cmd_bench(args) -> None:
    raw = io_mod.load_json(args.config)
    raw["algorithms"] = [AlgorithmConfig(**a) for a in raw.get("algorithms", [])]
    raw["output_dir"] = str(args.out)
    cfg = bench_mod.BenchmarkConfig(**raw)
    if args.paper_scale:
        cfg.trials_per_cell = 48
        cfg.grid = dict(cfg.grid, m=[200], n=[200])
    records = bench_mod.run_campaign(cfg, workers=args.workers)
    bench_mod.write_campaign_outputs(cfg, records, Path(args.out))


def _cmd_plot(args) -> None:
    rows = bench_mod.summary_from_csv(Path(args.summary).read_text())
    bench_mod.emit_plot(rows, args.x, args.out)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {"generate": _cmd_generate, "run": _cmd_run, "eval": _cmd_eval,
                "bench": _cmd_bench, "plot": _cmd_plot}
    try:
        handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
