"""Guards of the benchmark harness itself.

    python3 -m pytest perfbench/test_guards.py -q     (from the repo root)

* import state: the timed ``campaign-corpus`` process loads no ``repro``
  module beyond what a plain ``python -m repro campaign run`` loads, and
  the traced bootstrap imports no ``repro`` module before the entry
  point does;
* warm-up requests never share a task key with a timed stream;
* streams and campaign orders depend on the seed alone;
* load shape: one worker, at most ``nproc`` connections, refusal below
  two cores; processes under test and the host-speed probe share one
  core, the benchmark keeps off it;
* host speed: the probe imports no ``repro`` module and stops when
  told; a factor is the median reading of its stretch;
* input pins: an edited or added corpus file is refused;
* every per-layer metric names the end-to-end metric and workload it
  should move (`attribution.json`).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import sut  # noqa: E402
import workloads  # noqa: E402

from repro.engine.tasks import TaskSpec, task_hash  # noqa: E402


def key(spec):
    return task_hash(TaskSpec.from_dict(spec))


def repro_imports(argv, env, cwd):
    """The ``repro`` modules a process tree imported (``-X importtime``)."""
    env = dict(env, PYTHONPROFILEIMPORTTIME="1")
    out = subprocess.run(argv, env=env, cwd=str(cwd), capture_output=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr.decode()[-2000:]
    names = re.findall(r"^import time:.*\|\s*(\S+)\s*$",
                       out.stderr.decode(), flags=re.M)
    return {n.strip() for n in names if n.strip().startswith("repro")}


@pytest.fixture
def small_campaign(tmp_path):
    tasks = workloads.campaign_tasks(ROOT)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(workloads.campaign_document(
        "guard", workloads.campaign_warmup(tasks))))
    return spec


def test_timed_campaign_imports_no_more_than_the_entry_point(small_campaign,
                                                             tmp_path):
    argv = sut.sut_argv(sut.campaign_args(small_campaign, tmp_path / "a"))
    assert argv[:3] == [sys.executable, "-m", "repro"]
    bench = repro_imports(argv, sut.sut_env(ROOT), tmp_path)
    plain_env = {k: v for k, v in os.environ.items()
                 if not k.startswith("PYTHON")}
    plain_env["PYTHONPATH"] = str(ROOT / "src")
    plain = repro_imports(
        [sys.executable, "-m", "repro", "campaign", "run", str(small_campaign),
         "--workers", "1", "--verify", "--cache-dir", str(tmp_path / "b")],
        plain_env, tmp_path)
    assert bench and bench <= plain


def test_traced_campaign_imports_what_the_untraced_one_does(small_campaign,
                                                            tmp_path):
    untraced = repro_imports(
        sut.sut_argv(sut.campaign_args(small_campaign, tmp_path / "a")),
        sut.sut_env(ROOT), tmp_path)
    traced = repro_imports(
        sut.sut_argv(sut.campaign_args(small_campaign, tmp_path / "b"), True),
        sut.sut_env(ROOT, tmp_path), tmp_path)
    assert traced == untraced


def test_bootstrap_imports_no_repro_module(tmp_path):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import layers; "
            "layers.install(sys.argv[2]); "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR),
                          str(tmp_path)], env=sut.sut_env(ROOT),
                         capture_output=True, timeout=60, check=True)
    assert out.stdout.decode().strip() == "[]"


@pytest.mark.parametrize("seed", range(5))
def test_serve_light_warmup_is_disjoint_from_the_stream(seed):
    warm = {key(d["task"]) for d in workloads.light_warmup()}
    stream = {key(d["task"])
              for d in islice(workloads.light_stream(seed), 20000)}
    assert not warm & stream


def test_serve_corpus_warmup_is_disjoint_from_the_stream():
    specs = workloads.corpus_round_specs(workloads.corpus_functions(ROOT))
    warm = {key(d["task"]) for d in workloads.corpus_warmup(specs)}
    assert len(warm) == len(workloads.CORPUS_STRATEGIES)
    for seed in range(3):
        for round_index in range(3):
            stream = {key(d["task"])
                      for d in workloads.corpus_round(specs, seed, round_index)}
            assert len(stream) == len(specs)
            assert not warm & stream


def test_inputs_depend_only_on_the_seed():
    first = list(islice(workloads.light_stream(7), 500))
    assert first == list(islice(workloads.light_stream(7), 500))
    assert first != list(islice(workloads.light_stream(8), 500))
    seeds = [d["task"]["seed"] for d in first]
    assert 0.2 < 1 - len(set(seeds)) / len(seeds) < 0.4
    tasks = workloads.campaign_tasks(ROOT)
    assert len(tasks) == 216
    assert workloads.campaign_order(tasks, 3, 0) == \
        workloads.campaign_order(tasks, 3, 0)
    assert workloads.campaign_order(tasks, 3, 0) != \
        workloads.campaign_order(tasks, 4, 0)


def test_load_shape():
    assert sut.serve_args(Path("c"))[:3] == ["serve", "--workers", "1"]
    campaign = sut.campaign_args(Path("s"), Path("c"))
    assert campaign[campaign.index("--workers") + 1] == "1"
    with pytest.raises(RuntimeError, match="more connections than cores"):
        run.serve_phase(None, "x", iter(()), (os.cpu_count() or 1) + 1,
                        lambda i, t: True, run.Segments(), [])


def test_refuses_to_record_below_two_cores(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run.main(["--workload", "serve-light", "--seed", "0",
                     "--seconds", "1"]) == 4
    assert capsys.readouterr().out == ""


def test_processes_under_test_and_probe_share_a_core_the_benchmark_avoids():
    sut_core, bench_cores = sut.cores()
    assert bench_cores and sut_core not in bench_cores
    out = subprocess.run([sys.executable, "-c",
                          "import os; print(sorted(os.sched_getaffinity(0)))"],
                         preexec_fn=sut.sut_preexec, capture_output=True,
                         check=True, timeout=30)
    assert out.stdout.decode().strip() == f"[{sut_core}]"


def test_probe_reads_host_speed_without_repro_code(tmp_path):
    speed = sut.HostSpeed(tmp_path)
    try:
        deadline = time.time() + 20
        while len(speed._read(time.time())) < 5 and time.time() < deadline:
            time.sleep(0.1)
        assert speed.factor(time.time() - 60, time.time()) > 0
    finally:
        speed.close()
    assert speed.proc.returncode is not None
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import probe; "
            "probe.kernel(); print(sorted(m for m in sys.modules "
            "if m.startswith('repro')))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)],
                         env=sut.sut_env(ROOT), capture_output=True,
                         timeout=60, check=True)
    assert out.stdout.decode().strip() == "[]"


def test_speed_factor_is_the_median_reading_of_its_stretch(tmp_path):
    speed = sut.HostSpeed.__new__(sut.HostSpeed)
    speed.path = tmp_path / "probe.txt"
    speed.samples = []
    speed.proc = subprocess.Popen([sys.executable, "-c", "pass"])
    speed.proc.wait()
    ref = sut.HostSpeed.REFERENCE_NS
    readings = [(10.0 + i, ref * (1 + i % 3)) for i in range(20)]
    speed.path.write_text("".join(f"{t} {ns}\n" for t, ns in readings)
                          + "99.0 12")   # a line still being written
    assert speed.factor(10.0, 29.0) == 2.0
    assert speed.factor(10.0, 14.0) == 2.0             # readings at 10 .. 14
    speed.LEAST_READINGS = 3
    assert speed.factor(12.0, 12.5) == 2.0             # readings at 12, 13, 14
    assert speed.factor(10.0, 12.0) == 2.0             # readings at 10, 11, 12
    assert len(speed.samples) == 20


def test_pins_refuse_edited_or_added_corpus_files(tmp_path):
    for rel in json.loads((BENCH_DIR / "inputs.json").read_text())["sha256"]:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / rel, tmp_path / rel)
    workloads.check_pins(tmp_path)
    extra = tmp_path / "examples" / "llvm" / "extra.ll"
    extra.write_text("")
    with pytest.raises(workloads.PinError, match="unpinned"):
        workloads.check_pins(tmp_path)
    extra.unlink()
    basics = tmp_path / "examples" / "llvm" / "basics.ll"
    basics.write_text(basics.read_text() + "\n")
    with pytest.raises(workloads.PinError, match="changed"):
        workloads.check_pins(tmp_path)


def test_every_layer_metric_names_what_it_should_move():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    tags = json.loads((BENCH_DIR / "attribution.json").read_text())["per_layer"]
    assert set(tags) == {m["name"] for m in config["per_layer"]}
    e2e = {m["name"] for m in config["end_to_end"]} | {"none"}
    names = {w["name"] for w in config["workloads"]}
    for tag in tags.values():
        assert tag["moves"] and set(tag["moves"]) <= e2e
        assert tag["workloads"] and set(tag["workloads"]) <= names
