"""Spark-free tests of tools/check_tables.py's cell-by-cell comparison."""
import importlib.util
import os

import pandas as pd

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "check_tables.py")
_spec = importlib.util.spec_from_file_location("check_tables", _PATH)
check_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tables)

T8 = pd.DataFrame({"stage": ["parse", "stream"], "partitions": [1, 4], "lines": [100, 50],
                   "seconds": [1.5, 2.0], "lines_per_s": [66, 25]})


def test_timing_columns_and_missing_values_are_not_differences():
    got = T8.assign(seconds=[9.0, 9.0], lines_per_s=[1, 2])
    assert check_tables.differences(8, got, T8) == []
    gaps = T8.assign(lines=[100.0, float("nan")])
    assert check_tables.differences(8, gaps, gaps) == []


def test_each_differing_cell_is_reported():
    got = T8.assign(partitions=[1, 16], lines=[101, 50])
    diff = check_tables.differences(8, got, T8)
    assert len(diff) == 2
    assert "row 1 (stream, 4) partitions: 16, recorded 4" in diff[0]
    assert "row 0 (parse, 1) lines: 101, recorded 100" in diff[1]
    # a timing column of one table is compared in another
    assert check_tables.differences(5, T8.assign(seconds=[9.0, 2.0]), T8)


def test_shape_difference_is_reported():
    assert check_tables.differences(8, T8.head(1), T8)
    assert check_tables.differences(8, T8.drop(columns="lines"), T8)
