"""The summary arithmetic of tools/bench_pairs.py on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]   # median 14.5, IQR 16.75 - 12.25


def results(values, metric=LOWER, failed=0):
    return [{"correct": failed == 0, "attempted": 4, "failed": failed,
             "metrics": {metric["name"]: {"value": v, "unit": metric["unit"]}}} for v in values]


def summary(bench_pairs, parent, change, metric=LOWER):
    (row,) = bench_pairs.summarize(results(parent, metric), results(change, metric), [metric])
    return row


def test_parse_result_reads_the_last_json_line(bench_pairs):
    line = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    stdout = "# closed_loop_baseline setup_s = 0.5 s\n# info {\"seed\": 0}\n" + json.dumps(line) + "\n\n"
    assert bench_pairs.parse_result(stdout) == line
    for stdout in ("\n", "Traceback\n", "[1, 2]\n", '{"metrics": {}}\n'):
        with pytest.raises(ValueError):
            bench_pairs.parse_result(stdout)


def test_medians_wins_and_parent_iqr(bench_pairs):
    row = summary(bench_pairs, PARENT, [v - 5.0 for v in PARENT])
    assert (row["parent_median"], row["change_median"]) == (14.5, 9.5)
    assert (row["wins"], row["pairs"]) == (10, 10)
    assert row["parent_iqr"] == pytest.approx(4.5)
    assert row["verdict"] == "gain"


@pytest.mark.parametrize("change, wins, verdict", [
    ([v - 5.0 for v in PARENT[:9]] + [PARENT[9]], 9, "gain"),             # a tie counts for neither side
    ([v - 5.0 for v in PARENT[:8]] + PARENT[8:], 8, "unresolved"),         # 8/10 wins is not a gain
    ([v - 4.0 for v in PARENT], 10, "unresolved"),                         # gap 4 is inside the IQR 4.5
    ([v + 5.0 for v in PARENT], 0, "worse"),                               # 5 > 0.25 * 14.5
    (list(PARENT), 0, "unresolved"),                                       # IQR 4.5 > 0.25 * 14.5
])
def test_verdicts_on_a_lower_is_better_metric(bench_pairs, change, wins, verdict):
    row = summary(bench_pairs, PARENT, change)
    assert (row["wins"], row["verdict"]) == (wins, verdict)


def test_narrow_parent_spread_resolves(bench_pairs):
    parent = [10.0] * 9 + [10.5]                                           # IQR 0
    assert summary(bench_pairs, parent, [v + 1.0 for v in parent])["verdict"] == "within bound"
    assert summary(bench_pairs, parent, [v + 3.0 for v in parent])["verdict"] == "worse"


def test_wide_spread_resolves_when_every_change_run_is_better(bench_pairs):
    parent = [10.0] * 5 + [20.0] * 5                                        # median 15, IQR 10
    row = summary(bench_pairs, parent, [9.9] * 10)                          # gap 5.1 is inside the IQR
    assert (row["wins"], row["verdict"]) == (10, "within bound")
    row = summary(bench_pairs, parent, [10.1] * 10)                         # not every run is better
    assert (row["wins"], row["verdict"]) == (5, "unresolved")


def test_fewer_than_ten_pairs_is_never_a_gain(bench_pairs):
    assert summary(bench_pairs, PARENT[:9], [v - 5.0 for v in PARENT[:9]])["verdict"] == "unresolved"
    assert summary(bench_pairs, [14.5], [9.5])["verdict"] == "within bound"


def test_higher_is_better_metric(bench_pairs):
    assert summary(bench_pairs, PARENT, [v + 5.0 for v in PARENT], HIGHER)["verdict"] == "gain"
    row = summary(bench_pairs, PARENT, [v - 5.0 for v in PARENT], HIGHER)
    assert (row["wins"], row["verdict"]) == (0, "worse")


def test_failures_sum_over_runs(bench_pairs):
    assert bench_pairs.failures(results([1.0, 2.0, 3.0], failed=1)) == (3, 12)


def test_unpaired_results_rejected(bench_pairs):
    with pytest.raises(ValueError):
        bench_pairs.summarize(results(PARENT), results(PARENT[:9]), [LOWER])


def test_failure_report_refuses_a_larger_failed_share_or_an_incorrect_change_run(bench_pairs):
    clean = results([1.0, 2.0])
    lines, refused = bench_pairs.failure_report(clean, clean)
    assert lines == ["parent: 0 of 8 operations failed (0.00%)", "change: 0 of 8 operations failed (0.00%)"]
    assert not refused
    lines, refused = bench_pairs.failure_report(clean, results([1.0], failed=1) + results([2.0]))
    assert refused
    assert "change: 1 of 8 operations failed (12.50%)" in lines
    assert "change: run of pair 1 is incorrect" in lines
    assert any(line.startswith("refused: the change fails 12.50%") for line in lines)
    assert "refused: 1 change run(s) incorrect" in lines
    # an incorrect run is refused even when no operation failed
    incorrect = [dict(clean[0], correct=False), clean[1]]
    lines, refused = bench_pairs.failure_report(clean, incorrect)
    assert refused and lines[-1] == "refused: 1 change run(s) incorrect"
    # a parent that fails more is reported but refuses nothing
    lines, refused = bench_pairs.failure_report(results([1.0], failed=2), results([1.0]))
    assert not refused and "parent: run of pair 1 is incorrect" in lines


def test_a_run_that_exits_nonzero_keeps_the_finished_pairs(bench_pairs, tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 30, "end_to_end": [LOWER],
            "workloads": [{"name": "first"}, {"name": "second"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        workload = cmd[cmd.index("--workload") + 1]
        calls.append(workload)
        # the first workload's 4th run (pair 2, parent side) exits 3
        code = 3 if workload == "first" and calls.count("first") == 4 else 0
        line = json.dumps(results([float(len(calls))])[0])
        return bench_pairs.subprocess.CompletedProcess(cmd, code, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    code = bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert calls == ["first"] * 4 + ["second"] * 6       # no --workload: every workload runs
    assert "pair 2/3 parent: perfbench/run.py exited with code 3" in out
    assert "first, 1 finished pairs of 30 s" in out       # pair 2's change run is dropped
    assert "second, 3 finished pairs of 30 s" in out
    assert out.count("step_ms_p50") == 2 + 9              # a table row per workload, a line per finished run
    assert "refused" not in out


@pytest.mark.parametrize("stdout", ["", "\n\n", "# closed_loop_baseline setup_s = 0.5 s\n", "{\"truncated\": \n"])
def test_a_malformed_run_keeps_the_finished_pairs(bench_pairs, tmp_path, monkeypatch, capsys, stdout):
    spec = {"run_seconds": 30, "end_to_end": [LOWER], "workloads": [{"name": "first"}, {"name": "second"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        workload = cmd[cmd.index("--workload") + 1]
        calls.append(workload)
        # the first workload's 4th run (pair 2, parent side) exits 0 without a result line
        out = stdout if workload == "first" and calls.count("first") == 4 else json.dumps(results([1.0])[0]) + "\n"
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    code = bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert calls == ["first"] * 4 + ["second"] * 6
    assert "pair 2/3 parent: perfbench/run.py malformed output: " in out
    assert "first, 1 finished pairs of 30 s" in out
    assert "second, 3 finished pairs of 30 s" in out


def test_a_nonzero_exit_prints_the_end_of_stderr(bench_pairs, tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 30, "end_to_end": [LOWER], "workloads": [{"name": "first"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    stderr = "".join(f"frame {i}\n" for i in range(8)) + "ValueError: boom\n"

    def fake_run(cmd, cwd, **kwargs):
        return bench_pairs.subprocess.CompletedProcess(cmd, 2, stdout="", stderr=stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    lines = stderr.splitlines()[-bench_pairs.STDERR_LINES:]
    assert "pair 1/2 parent: perfbench/run.py exited with code 2\n" + "".join(f"    {line}\n" for line in lines) in out
    assert "frame 3" not in out
    assert "first, 0 finished pairs of 30 s" in out
