"""Timing-free checks of the benchmark: seeding, counters, tracing and oracles."""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import machines, tracing, workloads  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.speed import Speed, import_seconds  # noqa: E402

# small mixes: the same code paths as the real ones, a fraction of the cost
SMALL = {
    "regex_equiv": {"mix": [[2, "pos", 1], [2, "neg_b", 1], [3, "pos", 1], [3, "neg_prev", 1]]},
    "machine_bisim": {"mix": [["dfa", "pos", 12, 1], ["nfa", "neg", 12, 1], ["lts", "minimize", 15, 1]]},
    "kleene_roundtrip": {"mix": [["dfa", 3, 1], ["nfa", 3, 1], ["lts", 4, 1], ["partial", 4, 1]]},
}


def make(name: str, workdir: Path, mix: list | None = None):
    design = {"workloads": {name: {"mix": mix or SMALL[name]["mix"]}}}
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.make(name, design, str(workdir))


def traced_run(name: str, workdir: Path, seed: int = 3, queries: int = 4, mix: list | None = None):
    wl = make(name, workdir, mix)
    lib = workloads.load_library()
    return bench.run(wl, seed, 0, 60, True, lib, wl.setup(lib), Speed(0.005), max_queries=queries)


def first_round(name: str, workdir: Path, seed: int) -> list:
    queries = next(make(name, workdir).rounds(seed))
    out = []
    for q in queries:
        inputs = dict(q.inputs)
        if "argv" in inputs:
            inputs["argv"] = [Path(a).read_text() if a.endswith(".json") else a for a in inputs["argv"]]
        out.append((q.label, json.dumps(inputs, sort_keys=True), q.expected))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_same_queries(name, tmp_path):
    first = first_round(name, tmp_path / "a", seed=5)
    assert first == first_round(name, tmp_path / "b", seed=5)
    assert first != first_round(name, tmp_path / "c", seed=6)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_same_counts(name, tmp_path):
    one = traced_run(name, tmp_path / "a")
    two = traced_run(name, tmp_path / "b")
    assert one["wrong"] == [] and two["wrong"] == []
    assert [r["status"] for r in one["records"]] == ["ok"] * 4
    # the traced run gives the same verdicts as the untraced one
    assert [r["traced_status"] for r in one["records"]] == ["ok"] * 4
    for counter in ("synthesis.states", "equivalence.pair_checks", "extraction.term_tree_nodes"):
        assert one["layer_count"].get(counter) == two["layer_count"].get(counter)
    assert one["layer_count"] == two["layer_count"]


def test_r3_synthesizes_to_16_states(tmp_path):
    result = traced_run("regex_equiv", tmp_path, queries=1, mix=[[3, "pos", 1]])
    assert result["layer_count"]["synthesis.synthesize"] == 2
    assert result["layer_count"]["synthesis.states"] == 32


def test_layers_a_workload_must_not_touch(tmp_path):
    regex = traced_run("regex_equiv", tmp_path / "r")["layer_count"]
    bisim = traced_run("machine_bisim", tmp_path / "m")["layer_count"]
    kleene = traced_run("kleene_roundtrip", tmp_path / "k")["layer_count"]
    for span in ("derivative.delta", "synthesis.synthesize", "synthesis.acie_normal_form"):
        assert bisim.get(span, 0) == 0
    assert regex.get("extraction.extract", 0) == 0
    assert bisim.get("extraction.extract", 0) == 0
    assert kleene["extraction.extract"] == 4
    assert regex["derivative.delta"] > 0 and bisim["cli.main"] == 4


def test_every_imported_copy_of_a_traced_function_is_rebound():
    import importlib
    import pkgutil

    import coalgex

    hooked = {(m, a) for m, a, _ in tracing.CROSS_LAYER_CALLS + tracing.COUNTED_CALLS}
    names = {a for _, a, _ in tracing.CROSS_LAYER_CALLS + tracing.COUNTED_CALLS}
    for info in pkgutil.iter_modules(coalgex.__path__):
        module = importlib.import_module(f"coalgex.{info.name}")
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn) and fn.__module__ != module.__name__:
                assert (module.__name__, name) in hooked


@pytest.mark.parametrize("kind", ["nfa", "lts"])
def test_round_trips_record_term_key_calls_from_set_ordering(kind, tmp_path, monkeypatch):
    mix = [[kind, 3, 2]]
    full = traced_run("kleene_roundtrip", tmp_path / "full", mix=mix)["layer_count"]
    without = [c for c in tracing.CROSS_LAYER_CALLS if c[0] != "coalgex.fvalue"]
    monkeypatch.setattr(tracing, "CROSS_LAYER_CALLS", tuple(without))
    partial = traced_run("kleene_roundtrip", tmp_path / "partial", mix=mix)["layer_count"]
    assert full["expr.term_key"] > partial["expr.term_key"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_add_up_to_the_traced_query_time(name, tmp_path):
    metrics = bench.per_layer(traced_run(name, tmp_path))
    self_times = sum(v for k, (v, unit) in metrics.items() if unit == "ms" and not k.startswith("trace."))
    assert self_times == pytest.approx(metrics["trace.query_ms"][0], rel=1e-9)


def test_oracles_reject_wrong_verdicts(tmp_path):
    lib = workloads.load_library()
    regex = make("regex_equiv", tmp_path / "r")
    for q in next(regex.rounds(1)):
        with pytest.raises(workloads.Mismatch):
            regex.check(q, not q.expected, lib, {})

    bisim = make("machine_bisim", tmp_path / "m")
    for q in next(bisim.rounds(1)):
        code, text = bisim.run(q, lib, {})
        bisim.check(q, (code, text), lib, {})
        if q.label.startswith("minimize"):
            wrong = (code, json.dumps({"states": ["x"] * (q.expected + 1)}))
        else:
            wrong = (1 - code, text)
        with pytest.raises(workloads.Mismatch):
            bisim.check(q, wrong, lib, {})

    kleene = make("kleene_roundtrip", tmp_path / "k")
    ctx = kleene.setup(lib)
    q = next(kleene.rounds(1))[0]
    verdict, back = kleene.run(q, lib, ctx)
    kleene.check(q, (verdict, back), lib, {})
    with pytest.raises(workloads.Mismatch):
        kleene.check(q, (False, back), lib, {})
    # a machine that is not bisimilar to the source fails the refinement oracle
    other = lib.synthesize(ctx["functors"][q.inputs["kind"]], lib.extract(
        lib.coalgebra_from_doc(machines.flip_point(q.data["machine"]).doc()), "q1"))
    with pytest.raises(workloads.Mismatch):
        kleene.check(q, (True, other), lib, {})


def test_refinement_oracle_on_constructed_pairs():
    rng = random.Random(0)
    for kind in ("dfa", "nfa", "lts"):
        m = machines.random_machine(rng, kind, 10)
        twin = machines.duplicated(rng, m)
        assert machines.oracle_bisimilar(m, m.point, twin, twin.point)
        flipped = machines.flip_point(twin)
        assert not machines.oracle_bisimilar(m, m.point, flipped, flipped.point)
        small = machines.minimal(m)
        assert machines.oracle_bisimilar(m, m.point, small, small.point)
        assert len(small.values) == len(set(machines.bisimilarity_classes(small.values).values()))


def test_time_out_is_undecided_and_the_run_goes_on(tmp_path):
    wl = make("regex_equiv", tmp_path, [[3, "pos", 3]])
    lib = workloads.load_library()
    result = bench.run(wl, 1, 0, 0.001, False, lib, wl.setup(lib), Speed(0.005), max_queries=3)
    assert [r["status"] for r in result["records"]] == ["timeout"] * 3
    assert result["wrong"] == []
    metrics, _ = bench.end_to_end(result, 0.001, 75)
    assert metrics["decided_share"][0] == 0
    assert metrics["verdict_p50_ms"][0] >= 1.0


def test_speed_factor_is_reference_over_recent_kernel_median():
    speed = Speed(0.005, every_s=float("inf"), window=3)
    speed.factor()
    assert len(speed.kernel_seconds) == 3  # the first call fills the window
    speed.factor()
    assert len(speed.kernel_seconds) == 3  # no new sample within every_s
    speed.recent.extend([0.001, 0.004, 0.010])
    assert speed.factor() == pytest.approx(0.005 / 0.004)


def test_import_kernel_modules_are_imported_by_neither_library_nor_benchmark():
    code = ("import sys; sys.path[:0] = ['src', '.']; import perfbench.run, perfbench.tracing; "
            "from perfbench import workloads; workloads.load_library(); "
            "from perfbench.speed import IMPORT_KERNEL; print([m for m in IMPORT_KERNEL if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "[]"
    assert import_seconds() > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regex_equiv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
