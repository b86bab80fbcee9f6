import numpy as np
import pytest

from wallbench import oracle
from wallbench.workloads import ArrayShape, ArrayTopK, check_all

INFO = np.iinfo(np.int64)


def test_int64_extremes_rank_without_wrapping():
    values = np.array([5, INFO.min, 3, 7], dtype=np.int64)
    got, indices = oracle.topk(values, 2)
    assert got.tolist() == [7, 5]
    assert indices.tolist() == [3, 0]


def test_unsigned_and_float_keys():
    unsigned = np.array([0, np.iinfo(np.uint64).max, 3], dtype=np.uint64)
    assert oracle.topk(unsigned, 1)[1].tolist() == [1]
    floats = np.array([0.5, -1.0, 2.0, 2.0], dtype=np.float32)
    assert oracle.topk(floats, 3)[1].tolist() == [2, 3, 0]


def _answer(values, k):
    want_values, want_indices = oracle.topk(values, k)
    return want_values, want_indices, oracle.array_lookup(values)


def test_compare_accepts_exact_answer_and_flags_tie_order():
    values = np.array([5, 9, 3, 9, 7], dtype=np.int64)
    want_values, want_indices, lookup = _answer(values, 3)
    assert oracle.compare_topk(want_values, want_indices, want_values,
                               want_indices, lookup) == (None, True)
    swapped = np.array([3, 1, 4])
    assert oracle.compare_topk(values[swapped], swapped, want_values,
                               want_indices, lookup) == (None, False)


@pytest.mark.parametrize(
    "got_values, got_indices",
    [
        ([9, 9, 5], [1, 3, 0]),  # wrong value at rank 3
        ([9, 9, 7], [1, 1, 4]),  # an index returned twice
        ([9, 9, 7], [1, 3, 2]),  # index 2 holds 3, not 7
        ([9, 9, 7], [1, 3, 99]),  # index out of range
        ([9, 9], [1, 3]),  # too short
    ],
)
def test_compare_catches_planted_wrong_answers(got_values, got_indices):
    values = np.array([5, 9, 3, 9, 7], dtype=np.int64)
    want_values, want_indices, lookup = _answer(values, 3)
    problem, _ = oracle.compare_topk(
        np.array(got_values, dtype=np.int64), np.array(got_indices),
        want_values, want_indices, lookup,
    )
    assert problem is not None


def test_sql_rows_check():
    rank = np.array([10, 50, 40, 30, 20])
    where = np.array([True, False, True, True, True])
    assert oracle.check_sql_rows(np.array([2, 3]), where, rank, 2) is None
    assert oracle.check_sql_rows(np.array([3, 2]), where, rank, 2) is None
    assert "WHERE" in oracle.check_sql_rows(np.array([1, 2]), where, rank, 2)
    assert "multiset" in oracle.check_sql_rows(np.array([2, 4]), where, rank, 2)
    assert oracle.check_sql_rows(np.array([2, 2]), where, rank, 2) is not None


def test_group_count_check():
    column = np.array([4, 4, 4, 7, 7, 9])
    assert oracle.check_group_counts([4, 7], [3, 2], column, 2) is None
    assert "true count" in oracle.check_group_counts([4, 7], [3, 3], column, 2)
    assert "multiset" in oracle.check_group_counts([4, 9], [3, 1], column, 2)
    assert oracle.check_group_counts([4, 5], [3, 2], column, 2) is not None


def test_workload_check_counts_a_planted_wrong_answer(capsys):
    workload = ArrayTopK(
        shapes=(ArrayShape("tiny", "full-i64", 512, 8, 2, 1, 1000.0),),
        min_ops=1,
    )
    workload.setup(seed=0, seconds=0.0)
    ops, _ = workload.run(0.0, cycles=1)
    assert check_all(workload, ops).failed == 0
    ops[1].output.values = ops[1].output.values.copy()
    ops[1].output.values[-1] -= 1
    checked = check_all(workload, ops)
    assert (checked.wrong, checked.good) == (1, [True, False])
    assert "FAILED array-topk kind=tiny" in capsys.readouterr().err
