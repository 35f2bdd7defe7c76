"""Receiver-side peeling: immediate decode, buffering, chained search."""

import numpy as np
import pytest

from ncretx import CodedPacket, ReceiverState

from gf2_oracle import constituents_to_bits, gf2_decodable


def holding(*packets: int) -> ReceiverState:
    state = ReceiverState()
    for slot, k in enumerate(packets, start=1):
        state.receive_original(k, slot)
    return state


def test_undecodable_packet_is_buffered():
    # worked example, slot 3: the receiver holding only c3, c4 cannot use c1^c2
    state = holding(3, 4)
    packet = CodedPacket(frozenset({1, 2}), 3)
    assert state.receive(packet) == []
    assert state.buffer == [({1, 2}, packet)]


def test_one_unknown_decodes_immediately():
    # the receiver holding c2, c3 recovers c1 from c1^c2
    state = holding(2, 3)
    packet = CodedPacket(frozenset({1, 2}), 3)
    assert state.receive(packet) == [1]
    assert state.recovery_slot[1] == 3
    assert state.source == {1: packet}  # c2, c3 arrived as originals
    assert state.buffer == []


def test_fully_known_packet_discarded():
    state = holding(1, 2)
    assert state.receive(CodedPacket(frozenset({1, 2}), 3)) == []
    assert state.buffer == []


def test_search_unlocks_buffered_packet_at_trigger_slot():
    # buffered c1^c2 resolves the moment c2 arrives inside c2^c3^c4
    state = holding(3, 4)
    first = CodedPacket(frozenset({1, 2}), 3)
    second = CodedPacket(frozenset({2, 3, 4}), 6)
    state.receive(first)
    got = state.receive(second)
    assert sorted(got) == [1, 2]
    assert state.recovery_slot[1] == 6
    assert state.recovery_slot[2] == 6
    # c2 came straight out of the new packet, c1 out of the buffered one
    assert state.source == {2: second, 1: first}
    assert list(state.recovery_slot) == [3, 4, 2, 1]


def test_search_on_empty_buffer():
    state = holding(1)
    assert state.decode_search(1, 5) == []


def test_search_requires_known_packet():
    state = holding(1)
    with pytest.raises(ValueError):
        state.decode_search(2, 5)


def test_chained_peel():
    # buffer {a^b, b^c}; learning a peels b, then c
    state = ReceiverState()
    state.receive(CodedPacket(frozenset({1, 2}), 1))
    state.receive(CodedPacket(frozenset({2, 3}), 2))
    got = state.receive(CodedPacket(frozenset({1}), 5))
    assert sorted(got) == [1, 2, 3]
    assert all(state.recovery_slot[k] == 5 for k in (1, 2, 3))
    assert state.buffer == []


def test_buffer_invariants_random_streams():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        state = ReceiverState()
        for k in range(1, n + 1):
            if rng.random() < 0.5:
                state.receive_original(k, k)
        for slot in range(n + 1, n + 12):
            size = int(rng.integers(1, n + 1))
            ids = frozenset(int(x) + 1 for x in rng.choice(n, size=size, replace=False))
            state.receive(CodedPacket(ids, slot))
            assert all(len(unknowns) >= 2 for unknowns, _ in state.buffer)
            assert all(not (unknowns & state.have) for unknowns, _ in state.buffer)
            assert all(unknowns <= packet.constituents for unknowns, packet in state.buffer)


def test_peeling_never_exceeds_elimination_closure():
    # soundness oracle: whatever peeling recovers must lie in the GF(2)
    # row space of everything received (checked after every packet)
    rng = np.random.default_rng(33)
    for _ in range(250):
        n = int(rng.integers(2, 7))
        state = ReceiverState()
        received_vectors = []
        originals = [k for k in range(1, n + 1) if rng.random() < 0.4]
        for k in originals:
            state.receive_original(k, k)
            received_vectors.append(constituents_to_bits({k}, n))
        for slot in range(n + 1, n + 14):
            size = int(rng.integers(1, n + 1))
            ids = frozenset(int(x) + 1 for x in rng.choice(n, size=size, replace=False))
            state.receive(CodedPacket(ids, slot))
            received_vectors.append(constituents_to_bits(ids, n))
            closure = gf2_decodable(received_vectors, n)
            assert state.have <= closure
