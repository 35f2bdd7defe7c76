"""Command-line front end.

    ncretx simulate --algorithms benefit,sort-utility --receivers 2..30 \
                    --loss 0.5 --batch 200 --reps 1000 --seed 1 --out results.csv
    ncretx theory   --receivers 10 --batch 200 --loss 0.05..0.95:0.05 --out theory.csv
    ncretx figure   fig2 --out results/
    ncretx trace    --matrix table.txt --algorithm benefit

Ranges: "a..b" (ints, step 1), "a..b:step", or comma-separated values.
Exit status 0 on success, 2 on an invariant violation or unrecovered cell, 1 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    FIGURE_PRESETS,
    figure_config,
    load_matrix,
    run_experiment,
    trace_run,
)
from .metrics import retransmission_ratio
from .model import IntegrityError
from .schedulers import SCHEDULER_NAMES
from .theory import TheoryParams, expected_baseline_retx, floor_mean, q_distribution

# the most values one range may expand to; a longer one is refused before
# any list is built
MAX_RANGE_VALUES = 1_000_000
# the most rows `theory` may write, N + 3 per grid point: one point at the
# largest batch fits, and the file stays below about 1 GB
MAX_THEORY_ROWS = 20_000_000


def _items(text: str, convert):
    """``convert`` for the items of the list argument ``text``: a bad item
    is reported as one line that quotes it and the whole argument."""
    kind = "an integer" if convert is int else "a number"

    def checked(item: str):
        try:
            return convert(item)
        except ValueError:
            raise ValueError(f"bad item {item!r} in {text!r}: expected {kind}") from None

    return checked


def _range(part: str, convert, default_step=None) -> tuple:
    """The checked a, b and step of "a..b[:step]"; the step may be left
    out only where ``default_step`` is given."""
    bounds, _, step = part.partition(":")
    lo, _, hi = bounds.partition("..")
    if ".." in hi + step:
        raise ValueError(f"range {part!r} must be a..b[:step]")
    if not step and default_step is None:
        raise ValueError(f"float range {part!r} needs an explicit :step")
    lo, hi, step = convert(lo), convert(hi), convert(step) if step else default_step
    # an int is finite, and one too large for a float must not be converted
    if isinstance(lo, float) and not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"range {part!r} needs finite bounds and step")
    if step <= 0:
        raise ValueError(f"range {part!r} needs a positive step")
    if step < 1e-10:  # only a float step can be this small; values keep 10 decimals
        raise ValueError(f"float range {part!r} needs a step of at least 1e-10")
    if hi < lo:
        raise ValueError(f"range {part!r} runs backwards")
    # (hi - lo) / step >= MAX_RANGE_VALUES, without a quotient that can overflow
    if hi - lo >= MAX_RANGE_VALUES * step:
        raise ValueError(f"range {part!r} has more than {MAX_RANGE_VALUES} values")
    return lo, hi, step


def parse_int_range(text: str) -> list[int]:
    number = _items(text, int)
    values = []
    for part in text.split(","):
        if ".." in part:
            lo, hi, step = _range(part, number, 1)
            values.extend(range(lo, hi + 1, step))
        else:
            values.append(number(part))
    return values


def parse_float_range(text: str) -> list[float]:
    number = _items(text, float)
    values = []
    for part in text.split(","):
        if ".." in part:
            lo, hi, step = _range(part, number)
            count = int(round((hi - lo) / step))
            values.extend(round(lo + i * step, 10) for i in range(count + 1)
                          if lo + i * step <= hi + 1e-9)
        else:
            values.append(number(part))
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 1), not with argparse's exit 2."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    config = ExperimentConfig(
        algorithms=["theory"], receiver_counts=parse_int_range(args.receivers),
        loss_rates=parse_float_range(args.loss), batch=args.batch, output_path=args.out)
    # the config checks every value and --out; the rows, too, before the file opens
    batch = config.batch
    rows = len(config.receiver_counts) * len(config.loss_rates) * (batch + 3)
    if rows > MAX_THEORY_ROWS:
        raise ValueError(f"the theory would write {rows} rows; at most {MAX_THEORY_ROWS}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "N", "p", "j", "Q_j"])
        for m, p in itertools.product(config.receiver_counts, config.loss_rates):
            params = TheoryParams.homogeneous(m, batch, p)
            q = q_distribution(params)
            for j, qj in enumerate(q):
                writer.writerow([m, batch, f"{p:.10g}", j, f"{qj:.12g}"])
            floor = floor_mean(q)
            ratio = retransmission_ratio(floor, expected_baseline_retx(params))
            writer.writerow([m, batch, f"{p:.10g}", "expected_min_retx", f"{floor:.12g}"])
            writer.writerow([m, batch, f"{p:.10g}", "theory_ratio", f"{ratio:.12g}"])
    print(f"wrote {args.out}")
    return 0


def _cmd_figure(args) -> int:
    settings = dict(
        replications=args.reps, base_seed=args.seed,
        receiver_counts=None if args.receivers is None else parse_int_range(args.receivers),
        loss_rates=None if args.loss is None else parse_float_range(args.loss),
        workers=args.workers)
    figure_config(args.name, None, **settings)  # a rejected run makes no directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = figure_config(args.name, out_dir, **settings)
    run_experiment(config)
    print(f"wrote {config.output_path}")
    return 0


def _cmd_trace(args) -> int:
    if args.seed < 0:  # it seeds rlnc's coefficient draws
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    matrix = load_matrix(args.matrix)
    trace_run(matrix, args.algorithm, seed=args.seed)
    return 0


def main(argv: list[str] | None = None) -> int:
    handlers = {"simulate": _cmd_simulate, "theory": _cmd_theory,
                "figure": _cmd_figure, "trace": _cmd_trace}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except IntegrityError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
