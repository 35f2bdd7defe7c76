"""Command-line front end.

    ncretx simulate --algorithms benefit,sort-utility --receivers 2..30 \
                    --loss 0.5 --batch 200 --reps 1000 --seed 1 --out results.csv
    ncretx theory   --receivers 10 --batch 200 --loss 0.05..0.95:0.05 --out theory.csv
    ncretx figure   fig2 --out results/
    ncretx trace    --matrix table.txt --algorithm benefit

Ranges: "a..b" (ints, step 1), "a..b:step", or comma-separated values.
Exit status 0 on success, 2 on an invariant violation, 1 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    FIGURE_PRESETS,
    InvariantViolation,
    check_unique,
    figure_config,
    load_matrix,
    run_experiment,
    trace_run,
)
from .schedulers import SCHEDULER_NAMES
from .theory import TheoryParams, expected_min_retx, q_distribution, theory_ratio


def _check_range(part: str, lo, hi, step) -> None:
    if step <= 0:
        raise ValueError(f"range {part!r} needs a positive step")
    if hi < lo:
        raise ValueError(f"range {part!r} runs backwards")


def parse_int_range(text: str) -> list[int]:
    values = []
    for part in text.split(","):
        if ".." in part:
            bounds, _, step = part.partition(":")
            lo, hi = bounds.split("..")
            lo_i, hi_i, st = int(lo), int(hi), int(step) if step else 1
            _check_range(part, lo_i, hi_i, st)
            values.extend(range(lo_i, hi_i + 1, st))
        else:
            values.append(int(part))
    return values


def parse_float_range(text: str) -> list[float]:
    values = []
    for part in text.split(","):
        if ".." in part:
            bounds, _, step = part.partition(":")
            lo, hi = bounds.split("..")
            if not step:
                raise ValueError(f"float range {part!r} needs an explicit :step")
            lo_f, hi_f, st = float(lo), float(hi), float(step)
            _check_range(part, lo_f, hi_f, st)
            count = int(round((hi_f - lo_f) / st))
            values.extend(round(lo_f + i * st, 10) for i in range(count + 1)
                          if lo_f + i * st <= hi_f + 1e-9)
        else:
            values.append(float(part))
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncretx",
        description="Network-coded retransmission schedulers: simulation and bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo sweep over (M, p) grid")
    sim.add_argument("--algorithms", required=True,
                     help=f"comma list from: {', '.join(SCHEDULER_NAMES)}, theory")
    sim.add_argument("--receivers", required=True, help="e.g. 10 or 2..30")
    sim.add_argument("--loss", required=True, help="e.g. 0.5 or 0.1..0.9:0.1")
    sim.add_argument("--batch", type=int, required=True)
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--out", required=True)

    theory = sub.add_parser("theory", help="closed-form repair-count distribution")
    theory.add_argument("--receivers", required=True, help="e.g. 10 or 2..30")
    theory.add_argument("--batch", type=int, required=True)
    theory.add_argument("--loss", required=True, help="e.g. 0.5 or 0.05..0.95:0.05")
    theory.add_argument("--out", required=True)

    fig = sub.add_parser("figure", help="run a preset experiment")
    fig.add_argument("name", choices=sorted(FIGURE_PRESETS))
    fig.add_argument("--out", required=True, help="output directory")
    fig.add_argument("--reps", type=int, default=1000)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--receivers", default=None, help="override preset M values")
    fig.add_argument("--loss", default=None, help="override preset loss rates")
    fig.add_argument("--workers", type=int, default=None)

    trace = sub.add_parser("trace", help="slot-by-slot narrated run on a matrix file")
    trace.add_argument("--matrix", required=True)
    trace.add_argument("--algorithm", required=True,
                       choices=sorted(SCHEDULER_NAMES))
    trace.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_simulate(args) -> int:
    config = ExperimentConfig(
        algorithms=[a.strip() for a in args.algorithms.split(",") if a.strip()],
        receiver_counts=parse_int_range(args.receivers),
        loss_rates=parse_float_range(args.loss),
        batch=args.batch, replications=args.reps, base_seed=args.seed,
        output_path=args.out, workers=args.workers)
    rows = run_experiment(config)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_theory(args) -> int:
    batch = args.batch
    receiver_counts = parse_int_range(args.receivers)
    loss_rates = parse_float_range(args.loss)
    check_unique("receiver count", receiver_counts)
    check_unique("loss rate", loss_rates)
    # every point is validated before the output file is created
    grid = [(m, p, TheoryParams.homogeneous(m, batch, p))
            for m in receiver_counts for p in loss_rates]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "N", "p", "j", "Q_j"])
        for m, p, params in grid:
            q = q_distribution(params)
            for j, qj in enumerate(q):
                writer.writerow([m, batch, f"{p:.10g}", j, f"{qj:.12g}"])
            writer.writerow([m, batch, f"{p:.10g}", "expected_min_retx",
                             f"{expected_min_retx(params):.12g}"])
            writer.writerow([m, batch, f"{p:.10g}", "theory_ratio",
                             f"{theory_ratio(params):.12g}"])
    print(f"wrote {args.out}")
    return 0


def _cmd_figure(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = figure_config(
        args.name, out_dir, replications=args.reps, base_seed=args.seed,
        receiver_counts=parse_int_range(args.receivers) if args.receivers else None,
        loss_rates=parse_float_range(args.loss) if args.loss else None,
        workers=args.workers)
    run_experiment(config)
    print(f"wrote {config.output_path}")
    return 0


def _cmd_trace(args) -> int:
    matrix = load_matrix(args.matrix)
    trace_run(matrix, args.algorithm, seed=args.seed)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "theory": _cmd_theory,
                "figure": _cmd_figure, "trace": _cmd_trace}
    try:
        return handlers[args.command](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
