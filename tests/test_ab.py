"""``tools/ab.py``, the paired in-process A/B timer: an A/A comparison of
the working tree reports every field. Its timings are not checked."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [key for key in sys.modules if key.split(".")[0] in ("chocosim_base",
                                                                     "chocosim_head")]:
        del sys.modules[name]


def test_an_a_a_comparison_reports_each_side_the_ratio_and_its_interval(ab, monkeypatch):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    report = ab.compare(ROOT / "src", ROOT / "src", "ring16-sign", 2)
    assert set(report) == {"workload", "rounds", "base", "head", "ratio_median", "head_wins",
                           "base_wins", "interval_95"}
    assert (report["workload"], report["rounds"]) == ("ring16-sign", 2)
    for side in ("base", "head"):
        spread = report[side]
        assert 0.0 < spread["q1_s"] <= spread["median_s"] <= spread["q3_s"]
    assert report["head_wins"] + report["base_wins"] <= 2  # a tie counts for neither
    low, high = report["interval_95"]
    assert 0.0 < low <= report["ratio_median"] <= high


def test_the_wins_and_the_interval_read_the_paired_ratios(ab):
    report = ab.summarize([2.0, 3.0, 1.0, 4.0], [1.0, 3.0, 2.0, 2.0])
    assert report["ratio_median"] == 1.5  # ratios 2, 1, 0.5, 2
    assert (report["head_wins"], report["base_wins"]) == (2, 1)
    assert report["interval_95"] == ab.summarize([2.0, 3.0, 1.0, 4.0],
                                                 [1.0, 3.0, 2.0, 2.0])["interval_95"]
    assert 0.5 <= report["interval_95"][0] <= report["interval_95"][1] <= 2.0
    with pytest.raises(ValueError, match="unknown workload"):
        ab.compare(ROOT / "src", ROOT / "src", "ring16", 2)
