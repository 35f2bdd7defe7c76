"""The benchmark's tracer still fits the package.

`perfbench/spans.py` patches package functions and methods by name.  A
rename there would only show as an AttributeError in a traced benchmark
run; this test makes it fail the suite instead.
"""

import importlib.util
import sys
from pathlib import Path

# cli is not used here, but install patches it, so the snapshot must see it
from ncretx import SCHEDULER_NAMES, cli, decoder, gf, harness, model, schedulers, theory  # noqa: F401

from conftest import replay

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes() -> dict:
    """Every module attribute of the package and every method of the
    patched classes, by identity."""
    out = {(name, attr): value for name, module in sys.modules.items()
           if name == "ncretx" or name.startswith("ncretx.")
           for attr, value in vars(module).items()}
    for cls in (model.TransmissionMatrix, decoder.ReceiverState, gf.Gf256Basis):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_tracer_installs_runs_and_restores(worked_example):
    spans = load_spans()
    before = package_attributes()
    repairs = {name: schedulers.run_scheduler(name, worked_example, seed=1)
               .schedule.retransmission_count for name in SCHEDULER_NAMES}
    tracer, patches = spans.Tracer(), spans.Patches()
    tracer.install(patches)
    try:
        assert package_attributes() != before
        for name in SCHEDULER_NAMES:
            schedulers.run_scheduler(name, worked_example, seed=1)
        harness.payload_check(worked_example, "rlnc", payload_len=8, seed=1)
        params = theory.TheoryParams(20, ((0.3, 2), (0.6, 1)))
        theory.expected_min_retx(params)
        theory.theory_ratio(params)
    finally:
        patches.restore()
    assert package_attributes() == before
    counts = tracer.count_metrics()
    for name in SCHEDULER_NAMES:
        # payload_check schedules its rlnc run once more
        expected = repairs[name] * (2 if name == "rlnc" else 1)
        assert counts[f"schedulers.{name}.repairs"] == expected
    for span in ("schedulers.receiver_setup", "decoder.receive", "gf.insert",
                 "gf.solve", "harness.payload_check", "theory.expected_min_retx",
                 "theory.expected_baseline_retx", "theory.theory_ratio"):
        assert tracer.calls[span] > 0, span
    assert counts["decoder.receive_original_calls"] > 0
    # peel_recoveries is counted on decode_search: a decoder that bypassed
    # it would read 0 there without failing
    assert tracer.counts["decoder.decode_search_calls"] > 0
    # one CDF per distinct loss rate, in each of the two floor computations
    assert counts["theory.q_distribution_calls"] == 2
    assert counts["theory.loss_cdf_calls"] == 4


def test_tracer_counts_every_filing_on_a_matrix_that_buffers():
    # only benefit files repairs: arq, greedy and sort-utility obey the
    # strict rule, so no receiver ever misses two of a repair's packets.
    # Here benefit's R4 and R5 file c2^c3, R4 files c1^c2, and c1 sets off
    # two searches
    mat = model.TransmissionMatrix.from_rows(
        [[1, 0, 1], [0, 0, 1], [0, 1, 0], [1, 1, 1], [0, 1, 1]])
    filings = sum(bool(state.buffer) and state.buffer[-1] is packet
                  for packet, _, states, _ in replay(mat, schedulers.benefit(mat))
                  for state in states)
    spans = load_spans()
    tracer, patches = spans.Tracer(), spans.Patches()
    tracer.install(patches)
    try:
        for name in SCHEDULER_NAMES:
            schedulers.run_scheduler(name, mat, seed=1)
    finally:
        patches.restore()
    assert filings >= 2
    assert tracer.calls["decoder.receive"] == filings
    assert tracer.counts["decoder.decode_search_calls"] >= 2
