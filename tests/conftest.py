from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ncretx import CodedPacket, TransmissionMatrix, run_scheduler
from ncretx.schedulers import _BenefitRun, _Run

from gf2_oracle import ListScanReceiver, buffer, constituents_to_bits, gf2_decodable

DATA_DIR = Path(__file__).parent / "data"

# the worked-example matrix: 4 receivers, 5 packets, 10 lost cells
WORKED_EXAMPLE_ROWS = [
    [1, 1, 0, 0, 1],
    [0, 1, 0, 1, 0],
    [0, 1, 1, 0, 0],
    [1, 0, 0, 1, 1],
]


@pytest.fixture
def worked_example() -> TransmissionMatrix:
    return TransmissionMatrix.from_rows(WORKED_EXAMPLE_ROWS)


@pytest.fixture
def worked_example_path() -> Path:
    return DATA_DIR / "worked_example.txt"


def numpy_row_rng(seed: int, i: int) -> np.random.Generator:
    """Row i's stream as NumPy builds it: the reference the channel derives."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def loss_counts(seed: int, receivers: int, p: float, batch: int, reps: int) -> np.ndarray:
    """The loss counts L_i of ``reps`` batches, shape (reps, receivers), for
    Monte Carlo checks.  Row i draws its ``(seed, i)`` stream one batch
    after another, in blocks of 10,000 batches, so batch 0 is the matrix
    ``sample_matrix`` draws for ``seed``."""
    counts = np.empty((reps, receivers), dtype=np.int64)
    for i in range(1, receivers + 1):
        rng = numpy_row_rng(seed, i)
        for done in range(0, reps, 10_000):
            draws = rng.random((min(10_000, reps - done), batch)) < p
            counts[done:done + len(draws), i - 1] = draws.sum(axis=1)
    return counts


def random_matrix(rng: np.random.Generator, max_receivers: int = 8,
                  max_batch: int = 20) -> TransmissionMatrix:
    """A loss realization with random shape and per-receiver loss rates."""
    m = int(rng.integers(2, max_receivers + 1))
    n = int(rng.integers(1, max_batch + 1))
    p = rng.uniform(0.05, 0.95, size=m)
    cells = rng.random((m, n)) < p[:, None]
    return TransmissionMatrix(cells.astype(np.uint8))


@st.composite
def loss_matrices(draw, max_receivers=10, max_batch=40):
    """A loss matrix with per-receiver p in [0, 1], or all lost, or none."""
    m = draw(st.integers(2, max_receivers))
    n = draw(st.integers(1, max_batch))
    kind = draw(st.sampled_from(["random", "all-lost", "none-lost"]))
    if kind == "random":
        p = np.array(draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cells = rng.random((m, n)) < p[:, None]
    else:
        cells = np.full((m, n), kind == "all-lost")
    return TransmissionMatrix(cells.astype(np.uint8))


def slot_order(result):
    """A run's transmissions in slot order, rebuilt from its two records:
    ``(True, c_k)`` for packet k's original, an uncoded packet in the slot
    ``original_slot`` gives it, and ``(False, repair)`` for each repair."""
    sent = [(True, CodedPacket(frozenset((k,)), slot))
            for k, slot in enumerate(result.original_slot.tolist(), 1)]
    sent += [(False, packet) for packet in result.schedule.repairs]
    return sorted(sent, key=lambda entry: entry[1].slot)


def sent_record(result) -> str:
    """Every transmission in slot order with its kind and sorted
    constituents, rebuilt from ``original_slot`` and the repairs."""
    return " ".join(("o" if original else "r") + ",".join(map(str, sorted(cp.constituents)))
                    for original, cp in slot_order(result))


def held_record(result) -> str:
    """Per receiver each recovery, in recovery order, as ``k@slot``, with
    ``<source-slot`` if a repair yielded it."""
    return " | ".join(
        " ".join(f"{k}@{slot}" + (f"<{state.source[k].slot}" if k in state.source else "")
                 for k, slot in state.recovery_slot.items())
        for state in result.receivers)


def benefit_record(result) -> str:
    """One canonical line for a benefit run: the transmissions, every audit
    field but ``forced`` (always False, and asserted so elsewhere), and the
    recoveries."""
    audit = " ".join(
        f"{a.slot}:{','.join(map(str, a.constituents))}:{a.cycle}:{a.desired_benefit}:"
        f"{a.decode_benefit}:{a.minimum_benefit}:{a.combination_benefit}"
        for a in result.audit)
    return f"{sent_record(result)} / {audit} / {held_record(result)}"


def replay(mat, result, states=None):
    """Deliver a run to list-scan receivers (``ListScanReceiver``, which
    shares no code with the package's decoder), in slot order: an original
    reaches the receivers that did not lose it, a repair reaches every
    receiver.  The receivers are new ones, one per row of ``mat``, unless
    ``states`` passes them in, to be read after a run that may have no
    repair.

    Yields ``(packet, lacking, states, recovered)`` once each repair is
    delivered.  ``lacking`` is the grid as the repair found it: the loss
    cells, less those recovered from earlier repairs.  ``states`` are the
    receivers after the repair, and ``recovered[i0]`` lists what receiver
    i0 recovered from it.  At the end nothing may be left lacking.
    """
    lacking = mat.cells.copy()
    if states is None:
        states = [ListScanReceiver() for _ in range(mat.receivers)]
    for original, packet in slot_order(result):
        if original:
            (k,) = packet.constituents
            for i0, state in enumerate(states):
                if not mat.cells[i0, k - 1]:
                    state.receive_original(k, packet.slot)
            continue
        recovered = [state.receive(packet) for state in states]
        yield packet, lacking, states, recovered
        for i0, ks in enumerate(recovered):
            for kk in ks:
                lacking[i0, kk - 1] = 0
    assert not lacking.any()


def assert_strict_rule(mat, result, *where):
    """Greedy's and sort-utility's rule: every repair leaves each receiver,
    as ``replay``'s ``lacking`` finds it, missing at most one of its
    packets.  ``where`` labels a failure."""
    for packet, lacking, _, _ in replay(mat, result):
        cols = [k - 1 for k in packet.constituents]
        assert (lacking[:, cols].sum(axis=1) <= 1).all(), (*where, packet.slot)


def records(states):
    """What each receiver holds, in order: its recovery slots, the slot of
    each recovered packet's source, and its undecoded repairs in arrival
    order, read off a ``ReceiverState``'s index or a list-scan buffer."""
    return [(list(state.recovery_slot.items()),
             {k: cp.slot for k, cp in state.source.items()},
             state.buffer if isinstance(state, ListScanReceiver) else buffer(state))
            for state in states]


def recorded_run(name, mat):
    """Run an XOR scheduler, recording its own receivers after every repair.

    Returns the result and, per repair in slot order, ``(packet,
    recovered, records)``: what ``_Run.send`` returned and ``records`` of
    the run's receivers just after it.
    """
    send = _Run.send
    sent = []

    def recording(self, constituents):
        recovered = send(self, constituents)
        sent.append((self.repairs[-1], recovered, records(self.states)))
        return recovered

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Run, "send", recording)
        result = run_scheduler(name, mat)
    return result, sent


def assert_peeling_sound(mat, name):
    """Run an XOR scheduler and check its own receivers after every repair:
    each holds only what elimination over what it heard could give, and
    every repair it keeps filed still lacks at least two constituents."""
    n = mat.batch
    result, sent = recorded_run(name, mat)
    heard = [[] for _ in range(mat.receivers)]
    repairs = iter(sent)
    for original, packet in slot_order(result):
        bits = constituents_to_bits(packet.constituents, n)
        for i0, vectors in enumerate(heard):
            if not (original and mat.cells[i0, min(packet.constituents) - 1]):
                vectors.append(bits)
        if original:
            continue  # an original adds its own unit vector and nothing else
        _, _, held = next(repairs)
        for (recovery, _, filed), vectors in zip(held, heard):
            known = dict(recovery).keys()
            assert known <= gf2_decodable(vectors, n), (name, packet.slot)
            assert all(len(cp.constituents - known) >= 2 for cp in filed), (name, packet.slot)
    return result


class EveryCycleBenefit(_BenefitRun):
    """Benefit that scans every cycle, lowering the desired benefit by one
    each time, where the scheduler skips the cycles that cannot send.  The
    reference that the skip must not change."""

    def execute(self):
        self._scan()
        while any(self.missing) and self.desired_benefit > 1:
            self.desired_benefit -= 1
            self._new_cycle()
            self._scan()
        return self.result("benefit", audit=self.audit)


class UnguardedBenefit(EveryCycleBenefit):
    """Benefit with the walk's guard defeated, scanning every cycle: every
    receiver always counts as still ``lacking`` a packet, so
    ``_admit_first`` always walks.  The reference that neither the guard
    nor the skip may change."""

    @property
    def lacking(self) -> int:
        return (1 << self.m) - 1

    @lacking.setter
    def lacking(self, value: int) -> None:
        pass  # ``_Run`` writes it; the full mask stays
