"""Receiver-side peeling: immediate decode, buffering, chained search."""

import numpy as np
import pytest

from ncretx import CodedPacket, ReceiverState, TransmissionMatrix
from ncretx.schedulers import _Run

from gf2_oracle import ListScanReceiver, buffer, constituents_to_bits, gf2_decodable


def holding(*packets: int) -> ReceiverState:
    state = ReceiverState()
    for slot, k in enumerate(packets, start=1):
        state.receive_original(k, slot)
    return state


def after_batch(n: int, *lost: int) -> _Run:
    """A run just after its n originals, whose first receiver lost the
    packets ``lost``; a second, lossless receiver makes it a valid matrix
    and never decodes."""
    cells = np.zeros((2, n), dtype=np.uint8)
    cells[0, [k - 1 for k in lost]] = 1
    run = _Run(TransmissionMatrix(cells))
    run.send_batch()
    return run


def test_undecodable_packet_is_buffered():
    # worked example, slot 3: the receiver holding only c3, c4 cannot use c1^c2
    state = holding(3, 4)
    packet = CodedPacket(frozenset({1, 2}), 3)
    assert state.receive(packet) is None
    assert buffer(state) == [packet]
    assert state.waiting == {1: [packet], 2: [packet]}
    assert packet.constituents - state.recovery_slot.keys() == {1, 2}


def test_one_unknown_decodes_immediately():
    # the receiver holding c2, c3 recovers c1 from c1^c2
    run = after_batch(3, 1)
    state = run.states[0]
    assert run.send([1, 2]) == [1]
    packet = run.repairs[-1]
    assert state.recovery_slot[1] == packet.slot == 4
    assert state.source == {1: packet}  # c2, c3 arrived as originals
    assert buffer(state) == []


@pytest.mark.parametrize("held, unknowns", [((1, 2), 0), ((2, 3), 1)],
                         ids=["nothing-new", "one-unknown"])
def test_receive_rejects_a_repair_leaving_fewer_than_two_unknowns(held, unknowns):
    # a repair with one unknown decodes now and one with none tells the
    # receiver nothing; neither is filed, and the error names the repair
    state = holding(*held)
    with pytest.raises(ValueError, match=rf"c1\^c2 \(slot 3\) leaves {unknowns} unknown"):
        state.receive(CodedPacket(frozenset({1, 2}), 3))
    assert (state.waiting, state.source) == ({}, {})
    assert list(state.recovery_slot) == list(held)


def test_search_unlocks_buffered_packet_at_trigger_slot():
    # buffered c1^c2 resolves the moment c2 arrives inside c2^c3^c4
    run = after_batch(4, 1, 2)
    state = run.states[0]
    assert run.send([1, 2]) == []
    assert run.send([2, 3, 4]) == [2, 1]
    first, second = run.repairs
    assert state.recovery_slot[1] == state.recovery_slot[2] == second.slot == 6
    # c2 came straight out of the new packet, c1 out of the buffered one
    assert state.source == {2: second, 1: first}
    assert list(state.recovery_slot) == [3, 4, 2, 1]


def test_original_runs_no_search(monkeypatch):
    # an original goes out before every repair holding it, so it can unlock
    # nothing: receiving one is a single record, with no buffer search
    state = holding(3)
    packet = CodedPacket(frozenset({1, 2, 3}), 4)
    state.receive(packet)

    def no_search(self, newly, slot):
        raise AssertionError("an original ran the buffer search")

    monkeypatch.setattr(ReceiverState, "decode_search", no_search)
    assert state.receive_original(5, 5) is None
    assert buffer(state) == [packet]
    assert packet.constituents - state.recovery_slot.keys() == {1, 2}
    assert state.recovery_slot == {3: 1, 5: 5}
    assert state.source == {}


def test_recovery_with_nothing_waiting_runs_no_search(monkeypatch):
    # a recovery searches only the repairs filed under it; with none filed
    # there is nothing to pop, so the search is not called at all
    calls = []
    search = ReceiverState.decode_search
    monkeypatch.setattr(ReceiverState, "decode_search",
                        lambda self, newly, slot: calls.append(newly) or search(self, newly, slot))
    run = after_batch(5, 1, 4, 5)
    state = run.states[0]
    assert run.send([4, 5]) == []  # filed under 4 and 5
    assert run.send([1, 2]) == [1]
    assert calls == []
    # a recovery with a repair filed under it still searches and peels
    assert run.send([3, 4]) == [4, 5]
    assert calls == [4]
    assert state.waiting == {}


def test_have_is_a_read_only_view_of_recovery_slots():
    run = after_batch(4, 1, 3)
    state = run.states[0]
    assert state.have == {2, 4}
    run.send([1, 2])
    assert state.have == {1, 2, 4} == set(state.recovery_slot)
    with pytest.raises(AttributeError):
        state.have = set()
    assert vars(state).keys() == {"recovery_slot", "source", "waiting"}


def test_search_on_empty_buffer():
    state = holding(1)
    assert state.decode_search(1, 5) == []


def test_search_requires_known_packet():
    state = holding(1)
    with pytest.raises(ValueError):
        state.decode_search(2, 5)


def test_chained_peel():
    # buffer {a^b, b^c}; learning a peels b, then c
    run = after_batch(3, 1, 2, 3)
    state = run.states[0]
    run.send([1, 2])
    run.send([2, 3])
    assert run.send([1]) == [1, 2, 3]
    assert all(state.recovery_slot[k] == 6 for k in (1, 2, 3))
    assert buffer(state) == []


def test_cascade_reduces_by_its_own_earlier_recoveries():
    # buffer c1^c2, c2^c3, c1^c2^c3, then c1 arrives: peeling c1 out of c1^c2
    # gives c2, and c1^c2^c3 is then judged with c2 known, so it yields c3
    run = after_batch(4, 1, 2, 3)
    state = run.states[0]
    for ids in ([1, 2], [2, 3], [1, 2, 3]):
        assert run.send(ids) == []
    assert run.send([1, 4]) == [1, 2, 3]
    first, _, triple, trigger = run.repairs
    assert state.recovery_slot == {4: 4, 1: 8, 2: 8, 3: 8}
    assert state.source == {1: trigger, 2: first, 3: triple}
    assert buffer(state) == []


def stream_run(rng, n: int, p_received: float):
    """An ``after_batch`` run whose first receiver heard each original with
    probability ``p_received``.  Returns the run, and that receiver's row
    of losses."""
    row = (rng.random(n) >= p_received).astype(np.uint8)
    return after_batch(n, *(np.flatnonzero(row) + 1).tolist()), row


def random_repair(rng, n: int, size: int) -> list[int]:
    return [int(x) + 1 for x in rng.choice(n, size=size, replace=False)]


def test_buffer_invariants_random_streams():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        run, _ = stream_run(rng, n, 0.5)
        state = run.states[0]
        for _ in range(11):
            run.send(random_repair(rng, n, int(rng.integers(1, n + 1))))
            # the buffer holds repairs as heard, in arrival order, each still
            # lacking at least two constituents
            held = buffer(state)
            assert all(len(packet.constituents - state.recovery_slot.keys()) >= 2
                       for packet in held)
            assert held == [packet for packet in run.repairs if packet in held]
        assert run.states[1].waiting == {} and run.states[1].source == {}


def test_peeling_never_exceeds_elimination_closure():
    # soundness oracle: whatever peeling recovers must lie in the GF(2)
    # row space of everything received (checked after every packet)
    rng = np.random.default_rng(33)
    for _ in range(250):
        n = int(rng.integers(2, 7))
        run, row = stream_run(rng, n, 0.4)
        state = run.states[0]
        received_vectors = [constituents_to_bits({k}, n)
                            for k in range(1, n + 1) if not row[k - 1]]
        for _ in range(13):
            ids = random_repair(rng, n, int(rng.integers(1, n + 1)))
            run.send(ids)
            received_vectors.append(constituents_to_bits(ids, n))
            closure = gf2_decodable(received_vectors, n)
            assert state.recovery_slot.keys() <= closure


def test_indexed_peeling_matches_the_list_scan_reference():
    # differential: after every repair the run's receiver and the list-scan
    # reference hold the same recoveries in the same order, from the same
    # repairs, with the same repairs still undecoded.  Mostly pairs and
    # triples over few originals buffer long chains, so one repair often
    # sets off a cascade several searches deep.
    rng = np.random.default_rng(47)
    deeper = 0
    for _ in range(400):
        n = int(rng.integers(3, 13))
        run, row = stream_run(rng, n, 0.2)
        state, reference = run.states[0], ListScanReceiver()
        for k in range(1, n + 1):
            if not row[k - 1]:
                reference.receive_original(k, k)
        for _ in range(2 * n):
            size = 1 if rng.random() < 0.1 else int(rng.integers(2, min(n, 3) + 1))
            got = run.send(random_repair(rng, n, size))
            assert got == reference.receive(run.repairs[-1])
            assert list(state.recovery_slot.items()) == list(reference.recovery_slot.items())
            assert state.source == reference.source
            assert buffer(state) == reference.buffer
            # a repair without the packet's own recovery was unlocked by a
            # recovery inside the cascade: a second level or deeper
            deeper += sum(got[0] not in state.source[k].constituents for k in got[1:])
    assert deeper >= 200
