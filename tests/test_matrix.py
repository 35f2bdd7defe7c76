"""Transmission matrix: utilities, cell transitions, text format."""

import numpy as np
import pytest

from ncretx import TransmissionMatrix, run_scheduler


def test_column_utilities_match_worked_example(worked_example):
    assert [worked_example.column_utility(k) for k in range(1, 6)] == [2, 3, 1, 2, 2]


def test_column_utility_all_received_is_zero():
    m = TransmissionMatrix.from_rows([[0, 1], [0, 1]])
    assert m.column_utility(1) == 0


def test_receiver_utilities_match_worked_example(worked_example):
    assert worked_example.cells.sum(axis=1).tolist() == [3, 2, 2, 3]


def test_receiver_utility_over_subset(worked_example):
    # row 1 misses both of the first two packets
    assert worked_example.cells[0, [0, 1]].sum() == 2
    assert worked_example.cells[1, [0, 2, 4]].sum() == 0


def test_utility_totals_agree(worked_example):
    total_cu = sum(worked_example.column_utility(k) for k in range(1, 6))
    total_ru = int(worked_example.cells.sum(axis=1).sum())
    assert total_cu == total_ru == 10


@pytest.mark.parametrize("k", [0, 6, -1])
def test_column_utility_out_of_range(worked_example, k):
    with pytest.raises(IndexError):
        worked_example.column_utility(k)


@pytest.mark.parametrize("i", [0, 5])
def test_receiver_index_out_of_range(worked_example, i):
    with pytest.raises(IndexError):
        worked_example.is_lost(i, 1)
    with pytest.raises(IndexError):
        worked_example.mark_received(i, 1)


def test_mark_received_flips_and_is_idempotent(worked_example):
    assert worked_example.is_lost(1, 1)
    before = worked_example.column_utility(1)
    worked_example.mark_received(1, 1)
    assert not worked_example.is_lost(1, 1)
    assert worked_example.column_utility(1) == before - 1
    worked_example.mark_received(1, 1)  # no further change
    assert worked_example.column_utility(1) == before - 1


def test_mark_received_on_received_cell_keeps_utility(worked_example):
    before = worked_example.column_utility(3)
    worked_example.mark_received(1, 3)  # (1, 3) was already received
    assert worked_example.column_utility(3) == before


def test_matrix_does_not_alias_the_callers_array():
    cells = np.ones((2, 3), dtype=np.uint8)
    mat = TransmissionMatrix(cells)
    mat.mark_received(1, 1)
    assert cells[0, 0] == 1
    assert mat.cells[0, 0] == 0


def test_cells_are_read_only(worked_example):
    assert not worked_example.cells.flags.writeable
    with pytest.raises(ValueError):
        worked_example.cells[0, 0] = 0


def test_run_records_follow_the_cells(worked_example):
    # packet 1 is lost by receivers 1 and 4; receiver 2 holds packets 1, 3 and 5
    assert worked_example.loss_masks == (0b1001, 0b0111, 0b0100, 0b1010, 0b1001)
    assert worked_example.received_slots[1] == {1: 1, 3: 3, 5: 5}
    with pytest.raises(TypeError):
        worked_example.received_slots[1][2] = 2  # every run starts from this record
    before = worked_example.cells
    worked_example.mark_received(1, 1)
    assert before[0, 0] == 1  # an earlier read keeps the grid it read
    assert not worked_example.cells.flags.writeable
    assert worked_example.loss_masks[0] == 0b1000
    assert worked_example.received_slots[0] == {1: 1, 3: 3, 4: 4}


def test_lost_cell_count_monotone_under_marks(worked_example):
    rng = np.random.default_rng(0)
    last = int(worked_example.cells.sum())
    for _ in range(30):
        i = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        worked_example.mark_received(i, k)
        now = int(worked_example.cells.sum())
        assert now <= last
        last = now


def test_shape_validation():
    with pytest.raises(ValueError):
        TransmissionMatrix.from_rows([[0, 1]])  # single receiver
    with pytest.raises(ValueError):
        TransmissionMatrix(np.zeros((2, 0), dtype=np.uint8))
    with pytest.raises(ValueError):
        TransmissionMatrix.from_rows([[0, 2], [0, 0]])


def test_parse_round_trip(worked_example_path, worked_example):
    parsed = TransmissionMatrix.parse(worked_example_path.read_text())
    assert np.array_equal(parsed.cells, worked_example.cells)
    assert TransmissionMatrix.parse(parsed.format()).format() == parsed.format()


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        TransmissionMatrix.parse("2 3\n0 1 0\n0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        TransmissionMatrix.parse("2 2\n0 x\n0 0\n")
    with pytest.raises(ValueError, match="line 1"):
        TransmissionMatrix.parse("nonsense\n")
    with pytest.raises(ValueError, match="2 matrix rows"):
        TransmissionMatrix.parse("2 2\n0 0\n")


def test_default_original_slots_are_batch_order(worked_example):
    # every scheduler but benefit sends the whole batch first, packet k in slot k
    for name in ("arq", "greedy", "sort-utility", "rlnc"):
        result = run_scheduler(name, worked_example)
        assert result.original_slot.tolist() == [1, 2, 3, 4, 5]
    result = run_scheduler("benefit", worked_example)
    # in id order, in the slots its repairs leave free
    repair_slots = {cp.slot for cp in result.schedule.repairs}
    assert result.original_slot.tolist() == \
        [s for s in range(1, 5 + len(repair_slots) + 1) if s not in repair_slots]

