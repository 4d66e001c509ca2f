"""Tests of the benchmark itself, on the tiny size of each workload.

    python3 -m pytest -q bench

Each workload runs one traced round twice with the same seed, side by
side. The traced run also makes the matching untraced run, whose
stamped result carries the end-to-end metrics, so one traced run checks
both metric sets.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import (END_TO_END, NAMED, PER_LAYER_COUNTS, PER_LAYER_TIMES, Recorder,  # noqa: E402
                 layer_unit, setups_due)
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _start(workload, out):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1", "--rounds", "1", "--tiny", "--out", str(out)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    stdout, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stderr
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def twice(request, tmp_path_factory):
    """(last line, stamped result, untraced result) of two same-seed runs."""
    tmp = tmp_path_factory.mktemp(request.param)
    outs = [tmp / "a.json", tmp / "b.json"]
    procs = [_start(request.param, out) for out in outs]
    lines = [_finish(proc) for proc in procs]
    return request.param, [
        (line, json.loads(out.read_text()),
         json.loads(out.with_name(out.stem + "-untraced.json").read_text()))
        for line, out in zip(lines, outs)]


def test_last_line_has_the_contract_keys(twice):
    _, runs = twice
    for line, _, _ in runs:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1


def test_every_metric_is_emitted_with_its_unit(twice):
    name, runs = twice
    for _, traced, untraced in runs:
        e2e = untraced["end_to_end"]
        for metric, unit in END_TO_END.items():
            assert e2e[metric]["unit"] == unit
            assert e2e[metric]["value"] > 0
        for metric, kind, stat in NAMED[name]:
            if stat == "tail":
                continue            # one tiny round has too few samples for a tail
            expected = "1/s" if stat == "rate" else metric.rsplit("_", 1)[1]
            assert e2e[metric]["unit"] == expected, metric
        assert e2e["op_fail_ratio"]["unit"] == "ratio"
        layers = traced["per_layer"]
        timed = PER_LAYER_TIMES + ["trace.traced_ms", "trace.untraced_ms"]
        for metric in PER_LAYER_COUNTS + timed + ["vault.subset_yield"]:
            assert layers[metric]["unit"] == layer_unit(metric), metric
        for metric in timed:
            assert layers[metric]["value"] > 0, metric
        assert traced["trace_accounting"]["wrapper_spans"] > 0


def test_counts_repeat_exactly(twice):
    _, runs = twice
    (_, first, _), (_, second, _) = runs
    for metric in PER_LAYER_COUNTS + ["vault.subset_yield"]:
        assert first["per_layer"][metric] == second["per_layer"][metric], metric
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]


def test_named_counts_move_where_predicted(twice):
    name, runs = twice
    layers = runs[0][1]["per_layer"]
    assert layers["field.is_prime.calls"]["value"] > 0
    if name == "unlock-chaff-hits":
        assert layers["vault.subsets_tried"]["value"] > 0
        assert layers["vault.chaff_hits"]["value"] > 0
        assert layers["vault.unlock.failed.DecodeFailed"]["value"] > 0
    if name in ("unlock-chaff-hits", "attack-analysis", "enroll-verify"):
        assert layers["polynomial.lagrange_interpolate.calls"]["value"] > 0
    if name == "keygen":
        assert layers["field.gen_params.calls"]["value"] == len(WORKLOADS[name].TINY_LIST)


def test_failures_are_only_the_recorded_chaff_leak(twice):
    name, runs = twice
    _, traced, untraced = runs[0]
    for result in (traced, untraced):
        assert result["unexpected_failures"] == []
        if name == "attack-analysis":
            # one keyless attack on a classical quickstart vault per job;
            # while chaff leaks, each of them opens the vault
            assert result["failed"] == result["known_failures"].get("chaff-leak", 0) <= 3
        else:
            assert result["failed"] == 0


def test_only_an_opened_vault_counts_as_the_known_defect():
    rec = Recorder(lib=None, tracer=None, kernel=lambda: None)

    def leak(result):
        return "chaff-leak" if result == "opened" else None

    def crash():
        raise AttributeError("no result")

    rec.op("bruteforce", lambda: "opened", lambda res: res == "closed", known_defect=leak)
    rec.op("bruteforce", crash, lambda res: res == "closed", known_defect=leak)
    rec.op("bruteforce", lambda: "closed", lambda res: res == "closed", known_defect=leak)
    assert (rec.attempted, rec.failed) == (3, 2)
    assert rec.known == {"chaff-leak": 1}
    assert [kind for kind, _ in rec.unexpected] == ["bruteforce"]


def test_set_up_repeats_between_rounds(tmp_path):
    name = "unlock-chaff-hits"
    out = tmp_path / "run.json"
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--rounds", "2",
                           "--tiny", "--out", str(out)],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert result["correct"] is True and result["rounds"] == 2
    repeats = setups_due(WORKLOADS[name], 1)
    assert repeats > 0
    assert result["end_to_end"]["setup_s"]["samples"] == 1 + repeats


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "keygen", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
