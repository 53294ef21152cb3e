import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_clear_gain_is_claimable():
    change = [p - 0.1 for p in PARENT]
    row = bench_pairs.verdict(PARENT, change, "lower", 0.25)
    assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
    assert row["gain_claimable"] and row["against_bound"] == "within"
    assert row["parent"]["median"] == pytest.approx(1.0)
    assert row["relative_change"] == pytest.approx(-0.1)


def test_ties_count_for_neither_side():
    # nine wins and one tie is nine tenths; eight wins and two ties is not
    change = [p - 0.1 for p in PARENT[:9]] + PARENT[9:]
    row = bench_pairs.verdict(PARENT, change, "lower", 0.25)
    assert (row["wins"], row["losses"]) == (9, 0) and row["gain_claimable"]
    change = [p - 0.1 for p in PARENT[:8]] + PARENT[8:]
    assert not bench_pairs.verdict(PARENT, change, "lower", 0.25)["gain_claimable"]


def test_a_gap_inside_the_parents_spread_is_no_gain():
    # every pair is won, but by less than the parent's interquartile range
    change = [p - 0.01 for p in PARENT]
    row = bench_pairs.verdict(PARENT, change, "lower", 0.25)
    assert row["wins"] == 10 and not row["gain_claimable"]


def test_the_better_direction_and_the_bound():
    worse = [1.3 * p for p in PARENT]
    row = bench_pairs.verdict(PARENT, worse, "lower", 0.25)
    assert row["losses"] == 10 and row["against_bound"] == "beyond"
    assert bench_pairs.verdict(PARENT, worse, "lower", 0.35)["against_bound"] == "within"
    row = bench_pairs.verdict(PARENT, worse, "higher", 0.25)
    assert row["wins"] == 10 and row["gain_claimable"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the parent's interquartile range, 0.02, is wider than a 1 % bound
    assert bench_pairs.verdict(PARENT, PARENT, "lower", 0.01)["against_bound"] == "unresolved"
    assert bench_pairs.verdict(PARENT, PARENT, "lower", 0.05)["against_bound"] == "within"
    # unless every change run reads better than every parent run
    for better, step in (("lower", -0.1), ("higher", 0.1)):
        change = [p + step for p in PARENT]
        row = bench_pairs.verdict(PARENT, change, better, 0.01)
        assert row["against_bound"] == "within"
        nearly = change[:9] + [PARENT[9] + step / 20]
        row = bench_pairs.verdict(PARENT, nearly, better, 0.01)
        assert row["wins"] == 10 and row["against_bound"] == "unresolved"


def test_checkouts_that_are_not_siblings_are_refused(tmp_path, capsys):
    # a run's peak RSS follows the checkout's location, so both sides must
    # sit in one parent directory; the refusal names both parents and
    # comes before any file is read or any run starts
    parent, change = tmp_path / "a" / "parent", tmp_path / "b" / "change"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(parent), str(change), "--workload", "two-path",
                          "--seed", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert all(str((tmp_path / side).resolve()) in err for side in "ab")
