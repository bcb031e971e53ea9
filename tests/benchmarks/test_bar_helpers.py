"""The shared timing and checking helpers of the CI bars.

``benchmarks/_timing.py`` is the one way a bar script times, checks and
records a bar; these tests run no real bar.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _timing import Bar, alternate, check, ratio, summary  # noqa: E402


class TestAlternate:
    def test_warmups_are_untimed_and_the_first_side_rotates(self):
        calls = []

        def side(name):
            def run():
                calls.append(name)
                return float(len(calls))

            return run

        samples = alternate({"a": side("a"), "b": side("b"), "c": side("c")}, 4, warmup=2)

        assert calls == list("abcabc" + "abc" "bca" "cab" "abc")
        # each side's samples are the values it returned in the timed rounds
        assert samples == {
            "a": [7.0, 12.0, 14.0, 16.0],
            "b": [8.0, 10.0, 15.0, 17.0],
            "c": [9.0, 11.0, 13.0, 18.0],
        }

    def test_no_warmup(self):
        calls = []
        alternate({"a": lambda: calls.append("a"), "b": lambda: calls.append("b")}, 2, warmup=0)
        assert calls == ["a", "b", "b", "a"]


class TestSummary:
    def test_median_iqr_and_count(self):
        assert summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "iqr": 2.0, "n": 5}

    def test_scale(self):
        assert summary([0.001, 0.002, 0.003], 1e3) == pytest.approx(
            {"median": 2.0, "iqr": 1.0, "n": 3}
        )

    def test_one_sample_has_no_spread(self):
        assert summary([0.5]) == {"median": 0.5, "iqr": 0.0, "n": 1}

    def test_ratio_is_the_median_of_per_round_ratios(self):
        numerators, denominators = [1.0, 4.0, 9.0], [1.0, 1.0, 9.0]
        # per-round ratios 1, 4, 1: the median is 1, where the ratio of the
        # two sides' medians would be 4
        assert ratio(numerators, denominators)["median"] == 1.0
        assert ratio(numerators, denominators)["n"] == 3


class TestBar:
    @pytest.mark.parametrize(
        "value, met", [(2.0, True), (3.0, True), (3.0001, False)]
    )
    def test_lower_is_better(self, value, met):
        assert Bar("x", value, 3.0).met is met

    @pytest.mark.parametrize(
        "value, met", [(21.0, True), (20.0, True), (19.999, False)]
    )
    def test_higher_is_better(self, value, met):
        assert Bar("x", value, 20.0, higher_is_better=True).met is met


class TestCheck:
    def test_failing_enforced_bar_exits_1_and_names_itself(self, tmp_path, capsys):
        output = tmp_path / "BENCH_x.json"
        bars = [Bar("fast_enough", 1.0, 2.0), Bar("commit_swap_us", 95.8, 60.0)]

        assert check(bars, {"results": {"k": 1}}, output) == 1

        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("OK: fast_enough")
        assert lines[1].startswith("FAIL: commit_swap_us")
        payload = json.loads(output.read_text())
        assert [row["status"] for row in payload["bars"]] == ["OK", "FAIL"]
        assert payload["results"] == {"k": 1}
        assert set(payload["host"]) == {"cpu_model", "available_cores", "python", "numpy"}

    def test_not_enforced_bar_never_fails(self, tmp_path, capsys):
        output = tmp_path / "BENCH_x.json"
        bars = [
            Bar("speedup", 1.2, 3.0, higher_is_better=True, enforced=False),
            Bar("path_ms", 99.0, 17.0, enforced=False),
        ]

        assert check(bars, {}, output) == 0

        out = capsys.readouterr().out
        assert "not enforced: speedup" in out and "not enforced: path_ms" in out
        assert "FAIL" not in out

    def test_passing_bars_exit_0(self, tmp_path):
        bars = [Bar("ratio", 3.0, 3.0), Bar("gain", 1.05, 1.05, higher_is_better=True)]
        assert check(bars, {}, tmp_path / "out.json") == 0
