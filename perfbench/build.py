"""The building process: creation and maintenance through the library.

Run by :mod:`run` as its own process, so its peak memory is the
program's alone (the oracle and the load generator live in the parent).
``python perfbench/build.py CONFIG.json`` reads the run's settings and
writes ``build.json`` beside it.  Steps, each timed from outside:

1. generate the LUBM graph, three times (the median is its set-up time);
2. first materialization through ``MaintenanceRunner.run``, repeated in
   fresh state directories: sample, label exactly, train LMKG-S for
   star/chain 2-3, publish (``train_s`` is the median);
3. ``LMKGU.fit`` for star:2 and chain:2 at a fixed small budget;
4. cycles: a seeded 1% vocabulary-preserving delta through
   ``TripleStore.add_all``, then one incremental ``MaintenanceRunner.run``;
   each cycle's materialized training labels are copied aside for the
   parent's oracle check;
5. estimates of the benchmark's test queries by the maintained LMKG-S,
   the independence baseline and LMKG-U (five timed passes);
6. optionally, closed-loop point estimation in process with one and
   with two caller threads, the two alternating in a few rounds.

With ``trace`` set, the layer wrappers of :mod:`tracing` are installed
first and the spans of each step are written to ``trace-build.json``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
from tracing import Tracer, install_build

SHAPES = [("star", 2), ("star", 3), ("chain", 2), ("chain", 3)]
U_SHAPES = [("star", 2), ("chain", 2)]


def to_pattern(query):
    from repro.rdf.pattern import QueryPattern
    from repro.rdf.terms import TriplePattern, Variable

    return QueryPattern(
        [
            TriplePattern(
                *[Variable(t[1:]) if isinstance(t, str) else t for t in tp]
            )
            for tp in query
        ]
    )


def peak_rss_mb(pids) -> float:
    """Summed peak resident memory (VmHWM) of processes *pids*."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


def closed_loop(framework, queries, callers: int, seconds: float):
    """Point estimation by *callers* threads, each waiting for its
    answer before asking again; returns latencies and answers."""
    latencies, answers = [], []
    lock = threading.Lock()
    stop = time.perf_counter() + seconds

    def caller(offset: int) -> None:
        mine, got, i = [], [], offset
        while time.perf_counter() < stop:
            index = i % len(queries)
            start = time.perf_counter()
            value = framework.estimate_batch([queries[index]])
            mine.append(time.perf_counter() - start)
            got.append((index, float(value[0])))
            i += callers
        with lock:
            latencies.extend(mine)
            answers.extend(got)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=caller, args=(k,)) for k in range(callers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, answers, time.perf_counter() - started


def main(config_path: str) -> None:
    config = json.loads(Path(config_path).read_text())
    work = Path(config["work"])
    tracer = Tracer() if config["trace"] else None
    if tracer is not None:
        install_build(tracer)

    from repro.baselines.independence import IndependenceEstimator
    from repro.core.lmkg_u import LMKGU, LMKGUConfig
    from repro.datasets import generate_lubm
    from repro.maintain import MaintenanceRunner
    from repro.serve.artifacts import load_checkpoint

    phases = {}

    def mark(name: str) -> None:
        if tracer is not None:
            phases[name] = tracer.snapshot()

    out: dict = {}
    generate = []
    for _ in range(3):
        start = time.perf_counter()
        store = generate_lubm(
            universities=config["universities"], seed=config["graph_seed"]
        )
        generate.append(time.perf_counter() - start)
    out["generate_s"] = generate
    rows = base_rows = np.array(store.backend.rows(), dtype=np.int64)
    np.save(work / "base_rows.npy", rows)
    mark("setup")

    # Identical first materializations (the runner is seeded and leaves
    # the store as it is); train_s is their median, and the last one's
    # state is maintained below.
    train = []
    for attempt in range(config["materializations"]):
        state = work / f"state-{attempt}"
        runner = MaintenanceRunner(
            store,
            state,
            shapes=SHAPES,
            queries_per_shape=config["queries_per_shape"],
            epochs=config["epochs"],
            hidden_sizes=(64, 64),
            seed=0,
        )
        start = time.perf_counter()
        report = runner.run()
        train.append(time.perf_counter() - start)
        if attempt + 1 < config["materializations"]:
            shutil.rmtree(state)
    out["train_s"] = statistics.median(train)
    out["first_action"] = report.action
    shutil.copytree(state / "workload", work / "labels" / "0")
    mark("materialize")

    start = time.perf_counter()
    u_models = {}
    for topology, size in U_SHAPES:
        model = LMKGU(
            store,
            topology,
            size,
            LMKGUConfig(
                embed_dim=16,
                hidden_sizes=(64, 64),
                epochs=config["u_epochs"],
                training_samples=config["u_samples"],
                particles=64,
                seed=0,
            ),
        )
        model.fit()
        u_models[f"{topology}_{size}"] = model
    out["train_u_s"] = time.perf_counter() - start
    mark("u_fit")

    cycles = []
    deltas = []
    for cycle in range(1, config["cycles"] + 1):
        delta = inputs.delta(rows, config["seed"], cycle, config["delta"])
        rows = np.concatenate([rows, delta])
        deltas.append(delta)
        start = time.perf_counter()
        store.add_all(delta)
        report = runner.run()
        seconds = time.perf_counter() - start
        watermark = json.loads((state / "watermark.json").read_text())
        cycles.append(
            {
                "seconds": seconds,
                "action": report.action,
                "relabeled": sum(report.relabeled.values()),
                "store_triples": len(store),
                "watermark_triples": watermark.get("num_triples"),
                "delta_triples": len(delta),
            }
        )
        shutil.copytree(state / "workload", work / "labels" / str(cycle))
    np.save(
        work / "deltas.npy",
        np.concatenate(deltas) if deltas else np.empty((0, 3), np.int64),
    )
    out["cycles"] = cycles
    out["checkpoint"] = report.checkpoint_dir
    out["snapshot"] = report.snapshot_dir
    mark("cycles")

    tests = inputs.make_test_queries(
        base_rows, config["test_seed"], config["test_per_shape"]
    )
    framework, _ = load_checkpoint(report.checkpoint_dir, store)
    flat = [q for shape in inputs.SHAPES for q in tests[f"{shape[0]}_{shape[1]}"]]
    patterns = [to_pattern(q) for q in flat]
    out["tests"] = tests
    out["lmkg_s"] = framework.estimate_batch(patterns).tolist()
    out["independence"] = (
        IndependenceEstimator(store).estimate_batch(patterns).tolist()
    )
    mark("score")
    u_estimates = {}
    # The first estimate_batch of a model times candidate block widths;
    # that set-up is paid here, before the timed pass.
    for shape, model in u_models.items():
        model.estimate_batch([to_pattern(q) for q in tests[shape][:8]])
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        for shape, model in u_models.items():
            queries = tests[shape][: config["u_test_per_shape"]]
            u_estimates[shape] = model.estimate_batch(
                [to_pattern(q) for q in queries]
            ).tolist()
        passes.append(time.perf_counter() - start)
    out["estimate_u_s"] = statistics.median(passes)
    out["estimate_u_queries"] = sum(len(v) for v in u_estimates.values())
    out["lmkg_u"] = u_estimates
    mark("u_estimate")

    if config["inproc_seconds"] > 0:
        pool = inputs.point_requests(rows, config["seed"], 512)
        pool_patterns = [to_pattern(q) for q in pool]
        reference = framework.estimate_batch(pool_patterns)
        loops = {1: [], 2: []}
        for _ in range(config["rounds"]):
            for callers in (1, 2):
                loops[callers].append(
                    closed_loop(
                        framework,
                        pool_patterns,
                        callers,
                        config["inproc_seconds"] / (2 * config["rounds"]),
                    )
                )
        inproc = {}
        for callers, runs in loops.items():
            latencies = [t for run in runs for t in run[0]]
            inproc[f"c{callers}"] = {
                "p50_ms": statistics.median(latencies) * 1e3,
                "samples": len(latencies),
                "qps": statistics.median(len(run[0]) / run[2] for run in runs),
                "mismatched": sum(
                    1
                    for run in runs
                    for index, value in run[1]
                    if not (
                        np.isfinite(value)
                        and value >= 0
                        and np.isclose(value, reference[index], rtol=1e-4)
                    )
                ),
            }
        out["inproc"] = inproc
        mark("inproc")

    out["rss_mb"] = peak_rss_mb(["self"])
    (work / "build.json").write_text(json.dumps(out))
    if tracer is not None:
        tracer.dump(str(work / "trace-build.json"), phases)


if __name__ == "__main__":
    main(sys.argv[1])
