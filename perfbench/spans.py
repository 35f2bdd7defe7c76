"""Per-layer tracing for the benchmark, installed from outside the package.

`Patches` swaps ncretx functions and methods for wrappers and puts the
originals back.  A function imported by name into several modules is
replaced in each of them, so every call site goes through the wrapper.

`Tracer` records two kinds of wrapper:

* spans, around the calls that enter a layer: each span adds its duration
  minus the time of the spans opened inside it to its name's self time, so
  the self times of all spans add up to the time spent inside the outermost
  ones;
* counters, around small methods called hundreds of thousands of times per
  sweep, where a timer would cost more than the call itself.  Their time
  stays with the enclosing span.

Aggregates are kept in memory; `layer_metrics` turns them into the named
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


class Patches:
    """Replaces ncretx attributes with wrappers until `restore` is called."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, fn, make) -> None:
        wrapper = make(fn)
        for name, module in list(sys.modules.items()):
            if name != "ncretx" and not name.startswith("ncretx."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Self time per span name, call counts and named counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # inclusive scheduler time per (algorithm, M, N), for the baseline table
        self.run_s: defaultdict[tuple[str, int, int], float] = defaultdict(float)
        self.runs: Counter[tuple[str, int, int]] = Counter()
        self._stack: list[list[float]] = [[0.0]]

    # -- wrappers --

    def span(self, name, fn, after=None):
        """Wrap fn in a span; `name` may be a function of the call arguments."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = name(args) if callable(name) else name
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stack[-1][0] += took
                self_s[key] += took - children[0]
                calls[key] += 1
            if after is not None:
                after(out, args, took)
            return out

        return traced

    def counter(self, name: str, fn, after=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, args)
            return out

        return counted

    @property
    def spanned_s(self) -> float:
        """Time inside outermost spans; equals the sum of all self times."""
        return self._stack[0][0]

    # -- what gets traced --

    def install(self, patches: Patches) -> None:
        from ncretx import channel, cli, decoder, gf, harness, metrics, model, schedulers, theory

        counts = self.counts

        def sampled(out, args, took):
            counts["channel.matrices"] += 1

        def scheduled(result, args, took):
            name, matrix = args[0], args[1]
            counts[f"schedulers.{name}.repairs"] += result.schedule.retransmission_count
            if result.audit:
                counts[f"schedulers.{name}.forced_repairs"] += sum(a.forced for a in result.audit)
            shape = (name, matrix.receivers, matrix.batch)
            self.run_s[shape] += took
            self.runs[shape] += 1

        def received(out, args, took):
            state, packet = args[0], args[1]
            if not out and not packet.constituents <= state.have:
                counts["decoder.buffered"] += 1

        def peeled(out, args):
            counts["decoder.peel_recoveries"] += len(out)

        def inserted(out, args, took):
            counts["gf.innovative"] += bool(out)

        def measured(out, args, took):
            counts["metrics.ttd_samples"] += len(out.ttd_samples)

        def written(out, args, took):
            counts["harness.csv_bytes"] += os.path.getsize(args[1])

        span, counter = self.span, self.counter
        patches.function(channel.sample_matrix,
                         lambda f: span("channel.sample", f, sampled))
        patches.function(schedulers.run_scheduler,
                         lambda f: span(lambda a: f"schedulers.{a[0]}", f, scheduled))
        # receiver setup from the sampled matrix (every scheduler but benefit,
        # which sets receivers up original by original, and rlnc)
        patches.function(schedulers._init_states, lambda f: span("schedulers.receiver_setup", f))
        for attr in ("is_lost", "mark_received", "column_utility"):
            patches.method(model.TransmissionMatrix, attr,
                           lambda f, attr=attr: counter(f"model.{attr}_calls", f))
        patches.method(decoder.ReceiverState, "receive",
                       lambda f: span("decoder.receive", f, received))
        patches.method(decoder.ReceiverState, "receive_original",
                       lambda f: counter("decoder.receive_original_calls", f))
        patches.method(decoder.ReceiverState, "decode_search",
                       lambda f: counter("decoder.decode_search_calls", f, peeled))
        patches.method(gf.Gf256Basis, "insert", lambda f: span("gf.insert", f, inserted))
        patches.function(gf.solve, lambda f: span("gf.solve", f))
        for fn in (theory.expected_min_retx, theory.expected_baseline_retx,
                   theory.theory_ratio, theory.q_distribution):
            patches.function(fn, lambda f: span(f"theory.{f.__name__}", f))
        patches.function(theory.loss_cdf, lambda f: counter("theory.loss_cdf_calls", f))
        patches.function(metrics.run_metrics, lambda f: span("metrics.run_metrics", f, measured))
        for fn in (harness.run_experiment, harness.run_replication):
            patches.function(fn, lambda f: span(f"harness.{f.__name__}", f))
        patches.function(harness.write_csv, lambda f: span("harness.write_csv", f, written))
        patches.function(harness.payload_check, lambda f: span("harness.payload_check", f))
        patches.function(cli.main, lambda f: span("cli.main", f))

    # -- results --

    def count_metrics(self) -> dict[str, int]:
        """Every per-layer count; two traced runs of one seed must agree on all."""
        c, calls = self.counts, self.calls
        out = {
            "channel.matrices": c["channel.matrices"],
            "model.is_lost_calls": c["model.is_lost_calls"],
            "model.mark_received_calls": c["model.mark_received_calls"],
            "model.column_utility_calls": c["model.column_utility_calls"],
            "decoder.receive_calls": calls["decoder.receive"],
            "decoder.receive_original_calls": c["decoder.receive_original_calls"],
            "decoder.peel_recoveries": c["decoder.peel_recoveries"],
            "gf.inserts": calls["gf.insert"],
            "theory.q_distribution_calls": calls["theory.q_distribution"],
            "theory.loss_cdf_calls": c["theory.loss_cdf_calls"],
            "metrics.ttd_samples": c["metrics.ttd_samples"],
            "harness.csv_bytes": c["harness.csv_bytes"],
        }
        from ncretx import SCHEDULER_NAMES
        for name in SCHEDULER_NAMES:
            out[f"schedulers.{name}.repairs"] = c[f"schedulers.{name}.repairs"]
        out["schedulers.benefit.forced_repairs"] = c["schedulers.benefit.forced_repairs"]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Self times, shares and counts under their BENCHMARK.json names."""
        s, calls, c = self.self_s, self.calls, self.counts
        from ncretx import SCHEDULER_NAMES
        out: dict[str, float] = {f"schedulers.{n}.self_s": s[f"schedulers.{n}"]
                                 for n in SCHEDULER_NAMES}
        out.update({
            "schedulers.receiver_setup_s": s["schedulers.receiver_setup"],
            "channel.sample_s": s["channel.sample"],
            "decoder.receive_s": s["decoder.receive"],
            "decoder.buffered_share": _share(c["decoder.buffered"], calls["decoder.receive"]),
            "gf.insert_s": s["gf.insert"],
            "gf.innovative_share": _share(c["gf.innovative"], calls["gf.insert"]),
            "gf.solve_s": s["gf.solve"],
            "theory.floor_s": sum(v for k, v in s.items() if k.startswith("theory.")),
            "metrics.self_s": s["metrics.run_metrics"],
            "harness.self_s": s["harness.run_experiment"] + s["harness.run_replication"],
            "harness.write_csv_s": s["harness.write_csv"],
            "harness.payload_check.self_s": s["harness.payload_check"],
            "cli.self_s": s["cli.main"],
        })
        out.update(self.count_metrics())
        return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
