#!/usr/bin/env python3
"""End-to-end benchmark of the LMKG reproduction.

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload build-churn --repeat 5

Every run builds the estimator from scratch in its own process
(:mod:`build`), checks the program's labels and scores its estimates
against the benchmark's own exact counts (:mod:`oracle`), and for the
serving workloads starts a fresh ``repro serve`` and drives it closed
loop over HTTP (:mod:`client`).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  ``--repeat K`` runs the workload K
times on seeds ``seed .. seed+K-1`` and prints each metric's median and
quartiles.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the server, its workers and the load
# generator share two cores, and BLAS threads would contend with them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: settings shared by every workload's build
BUILD = {
    "universities": 10,
    "graph_seed": 7,
    "queries_per_shape": 300,
    "epochs": 15,
    "u_epochs": 2,
    "u_samples": 1500,
    "delta": 0.01,
    "materializations": 5,
    # The test queries come from the generated graph with a fixed seed,
    # so runs differ in the deltas and requests, not in what is scored.
    "test_seed": 0,
    "test_per_shape": 300,
    "u_test_per_shape": 100,
    "cycles": 6,
}

#: the serving workloads' server and requests: worker processes,
#: queries per request, distinct requests sent in a cycle; build-churn
#: measures point estimation in process instead
WORKLOADS = {
    "serve-point": {"workers": 1, "width": 1, "pool": 1024},
    "serve-bulk": {"workers": 2, "width": 64, "pool": 64},
    "build-churn": {},
}

#: in a bulk request, every COMPOUND_EVERY-th query is a compound
COMPOUND_EVERY = 8
SERVER_STARTS = 3
#: the one- and two-connection phases alternate this many times, so a
#: slow spell of the shared host falls on both
ROUNDS = 4
#: throughput is the median over windows of about this length, so one
#: stall of the host does not move it
QPS_WINDOW_S = 0.25
LOAD_METRICS = ("qps.c1", "qps.c2", "p50_ms.c1", "p50_ms.c2")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


STARTED = time.perf_counter()


def log(message: str) -> None:
    print(f"[{time.perf_counter() - STARTED:6.1f}s] {message}", file=sys.stderr)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def quantiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def qerrors(estimates, truths):
    out = []
    for estimate, truth in zip(estimates, truths):
        e, t = max(float(estimate), 1.0), max(float(truth), 1.0)
        out.append(max(e / t, t / e))
    return out


def window_rates(answers, window):
    """Items per second over consecutive windows of at least *window*
    seconds, each closed at an answer; *answers* are ``(seconds since
    the first send, items)`` in order.  A partial last window is left
    out."""
    rates, opened, items = [], 0.0, 0
    for done, count in answers:
        items += count
        if done - opened >= window:
            rates.append(items / (done - opened))
            opened, items = done, 0
    return rates


def percentile(values, q):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# Process helpers
# ----------------------------------------------------------------------


def descendants(pid: int):
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                parents[int(entry)] = int(fields[1])
            except (OSError, IndexError, ValueError):
                continue
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent:
                found.append(child)
                frontier.append(child)
    return found


def alive(pid: int) -> bool:
    """True while *pid* runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Server:
    """One ``repro serve`` process, started and stopped by the benchmark."""

    def __init__(self, command, log_path: Path) -> None:
        self.log_path = log_path
        self.log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.host, self.port = None, None

    def wait_ready(self, timeout: float = 60.0) -> float:
        from client import get_json

        deadline = time.perf_counter() + timeout
        pattern = re.compile(rb"serving \d+ triples at http://([\d.]+):(\d+)")
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "server exited early:\n" + self.log_path.read_text()
                )
            if self.port is None:
                match = pattern.search(self.log_path.read_bytes())
                if match:
                    self.host = match.group(1).decode()
                    self.port = int(match.group(2))
            if self.port is not None:
                try:
                    get_json(self.host, self.port, "/healthz", timeout=1.0)
                    return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def stop(self) -> None:
        """SIGTERM drain, then wait for the server and its workers."""
        children = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.perf_counter() + 10
        for pid in children:
            while alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.01)
            if alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.log.close()


# ----------------------------------------------------------------------
# Checks against the oracle
# ----------------------------------------------------------------------


def parse_label_pattern(text: str):
    """One pattern of the program's workload TSV, in oracle form."""
    query = []
    for chunk in text.split(";"):
        terms = chunk.strip()[1:-1].split()
        query.append(
            tuple(t if t.startswith("?") else int(t) for t in terms)
        )
    return tuple(query)


def read_labels(directory: Path):
    """``{(file, row): (pattern, label)}`` of one cycle's workload TSVs."""
    labels = {}
    for path in sorted(directory.glob("*.tsv")):
        lines = path.read_text().splitlines()[1:]
        for row, line in enumerate(lines):
            _, _, cardinality, pattern = line.split("\t")
            labels[(path.name, row)] = (pattern, int(cardinality))
    return labels


def check_build(build: dict, work: Path, problems: list):
    """Labels, watermark and store size of every cycle; returns the
    oracle over the final graph, its rows and the number of materialized
    queries.

    Every cycle must hold the same materialized queries as the first,
    all of them.  The first materialization's labels are all counted;
    after a cycle, a query is counted again if one of its patterns
    matches a row of the cycle's delta on its own (every new answer uses
    a new row), and the others keep their count."""
    import numpy as np

    import inputs
    from oracle import Oracle

    rows = np.load(work / "base_rows.npy")
    deltas = np.load(work / "deltas.npy")
    cycles = build["cycles"]
    offsets = np.cumsum([0] + [c["delta_triples"] for c in cycles])
    if build["first_action"] != "full":
        problems.append(f"first materialization was {build['first_action']}")
    oracle = Oracle(rows.tolist())
    delta = Oracle([])
    expected = len(inputs.SHAPES) * BUILD["queries_per_shape"]
    first = None
    counts = {}
    for cycle in range(len(cycles) + 1):
        if cycle:
            added = deltas[offsets[cycle - 1]:offsets[cycle]]
            rows = np.concatenate([rows, added])
            oracle.add(added.tolist())
            delta = Oracle(added.tolist())
            info = cycles[cycle - 1]
            if info["action"] != "incremental":
                problems.append(f"cycle {cycle} ran {info['action']}")
            if not (
                info["store_triples"] == info["watermark_triples"] == len(oracle)
            ):
                problems.append(
                    f"cycle {cycle}: store {info['store_triples']}, watermark "
                    f"{info['watermark_triples']}, graph {len(oracle)} triples"
                )
        labels = read_labels(work / "labels" / str(cycle))
        queries = {key: pattern for key, (pattern, _) in labels.items()}
        if first is None:
            first = queries
            if len(first) != expected:
                problems.append(
                    f"first materialization holds {len(first)} queries, "
                    f"not {expected}"
                )
        elif queries != first:
            problems.append(
                f"cycle {cycle} holds {len(queries)} materialized queries, "
                f"{sum(1 for k, q in first.items() if queries.get(k) != q)} "
                "of the first materialization's missing or changed"
            )
        for key, (pattern, label) in labels.items():
            query = parse_label_pattern(pattern)
            if key not in counts or any(delta.count((tp,)) for tp in query):
                counts[key] = oracle.count(query)
            if counts[key] != label:
                problems.append(
                    f"cycle {cycle}: {key[0]} {pattern} labelled {label}, "
                    f"oracle counts {counts[key]}"
                )
    return oracle, rows, len(first)


def accuracy(build: dict, oracle, problems: list) -> dict:
    import inputs

    tests = build["tests"]
    flat = [
        tuple(tuple(tp) for tp in q)
        for topology, size in inputs.SHAPES
        for q in tests[f"{topology}_{size}"]
    ]
    truths = [oracle.count(q) for q in flat]
    by_shape = {}
    offset = 0
    for topology, size in inputs.SHAPES:
        shape = f"{topology}_{size}"
        by_shape[shape] = truths[offset:offset + len(tests[shape])]
        offset += len(tests[shape])
    for name in ("lmkg_s", "independence"):
        if not all(math.isfinite(v) and v >= 0 for v in build[name]):
            problems.append(f"{name} returned a negative or non-finite estimate")
    s_err = qerrors(build["lmkg_s"], truths)
    ind_err = qerrors(build["independence"], truths)
    u_err = []
    for shape, values in build["lmkg_u"].items():
        if not all(math.isfinite(v) and v >= 0 for v in values):
            problems.append(f"LMKG-U {shape} returned a bad estimate")
        u_err += qerrors(values, by_shape[shape][: len(values)])
    result = {
        "qerror_p50": percentile(s_err, 50),
        "qerror_p90": percentile(s_err, 90),
        "independence_p90": percentile(ind_err, 90),
        "qerror_u_p50": percentile(u_err, 50),
        "qerror_u_p90": percentile(u_err, 90),
    }
    if not result["qerror_p90"] < result["independence_p90"]:
        problems.append(
            f"LMKG-S q-error p90 {result['qerror_p90']:.2f} is not below the "
            f"independence baseline's {result['independence_p90']:.2f}"
        )
    return result


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


def serve(spec, build, rows, work, seed, seconds, trace, problems):
    import numpy as np

    import inputs
    from build import peak_rss_mb, to_pattern
    from client import closed_loop, get_json, post_bytes
    from repro.rdf.store import TripleStore
    from repro.serve.artifacts import load_checkpoint

    log("serving")
    store = TripleStore.load_snapshot(build["snapshot"])
    framework, _ = load_checkpoint(build["checkpoint"], store)
    if spec["width"] == 1:
        requests = [[q] for q in inputs.point_requests(rows, seed, spec["pool"])]
    else:
        requests = inputs.bulk_requests(
            rows, seed, spec["pool"], spec["width"], COMPOUND_EVERY
        )
    bodies = [
        post_bytes(
            "127.0.0.1",
            "/estimate",
            json.dumps(
                {"queries": [inputs.render(q, store.dictionary) for q in request]}
            ).encode(),
        )
        for request in requests
    ]
    reference = [
        framework.estimate_batch([to_pattern(q) for q in request])
        for request in requests
    ]

    command = [
        sys.executable, "-m", "repro", "serve",
        "--snapshot", build["snapshot"],
        "--checkpoint", build["checkpoint"],
        "--port", "0",
        "--workers", str(spec["workers"]),
    ]
    trace_dir = work / "trace"
    if trace:
        trace_dir.mkdir()
        command = [sys.executable, str(HERE / "launch.py"), str(trace_dir)] + command[3:]
    starts = []
    server = None
    try:
        for attempt in range(SERVER_STARTS):
            server = Server(command, work / f"server-{attempt}.log")
            starts.append(server.wait_ready())
            log(f"server answered /healthz after {starts[-1]:.2f} s")
            if attempt < SERVER_STARTS - 1:
                server.stop()
                log("server stopped")
        phases = {"c1": [], "c2": []}
        sent = 0
        for _ in range(ROUNDS):
            for connections in (1, 2):
                loop = closed_loop(
                    server.host, server.port, bodies, connections,
                    seconds / (2 * ROUNDS), start=sent,
                )
                phases[f"c{connections}"].append(loop)
                sent += len(loop[0])
        stats = get_json(server.host, server.port, "/stats")
        rss = peak_rss_mb([server.proc.pid] + descendants(server.proc.pid))
    finally:
        if server is not None:
            server.stop()

    out = {"setup_server_s": statistics.median(starts), "rss_mb": rss}
    attempted = failed = 0
    for phase, loops in phases.items():
        results = [r for loop in loops for r in loop[0]]
        latencies = [r[1] for r in results]
        rates = []
        for round_results, _, _ in loops:
            answers = []
            for index, _, status, body, done in round_results:
                attempted += 1
                if status != 200:
                    failed += 1
                    continue
                payload = json.loads(body)
                values = np.asarray(payload["estimates"], dtype=np.float64)
                answers.append((done, len(values)))
                check_estimates(phase, index, payload, values, reference, problems)
            rates += window_rates(
                answers, min(QPS_WINDOW_S, seconds / (4 * ROUNDS))
            )
        out[f"qps.{phase}"] = statistics.median(rates)
        out[f"p50_ms.{phase}"] = statistics.median(latencies) * 1e3
        out[f"p99_ms.{phase}"] = percentile(latencies, 99) * 1e3
        out[f"samples.{phase}"] = len(latencies)
        out[f"mean_ms.{phase}"] = statistics.fmean(latencies) * 1e3
        out[f"spans.{phase}"] = [span for _, _, span in loops]
    out["requests"] = sum(len(loop[0]) for loops in phases.values() for loop in loops)
    out["stats"] = stats
    out["repeat_share"] = inputs.repeat_share(
        [r[0] for loops in phases.values() for loop in loops for r in loop[0]]
    )
    return out, attempted, failed


def check_estimates(phase, index, payload, values, reference, problems):
    """A served answer must equal the in-process estimate of its request."""
    import numpy as np

    expected = reference[index]
    if (
        payload.get("degraded")
        or values.shape != expected.shape
        or not np.all(np.isfinite(values))
        or np.any(values < 0)
        or not np.allclose(values, expected, rtol=1e-4, atol=1e-9)
    ):
        problems.append(
            f"{phase}: request {index} answered {values[:4]}..., "
            f"in-process estimate {expected[:4]}..."
        )


# ----------------------------------------------------------------------
# Per-layer metrics from the trace files
# ----------------------------------------------------------------------


def _delta(phases, name, before):
    after, prior = phases.get(name, {}), phases.get(before, {})
    out = {}
    for layer, record in after.items():
        base = prior.get(layer, [0, 0.0, 0.0, 0])
        out[layer] = [a - b for a, b in zip(record, base)]
    return out


def _merge(*tables):
    out = {}
    for table in tables:
        for layer, record in table.items():
            base = out.get(layer, [0, 0.0, 0.0, 0])
            out[layer] = [a + b for a, b in zip(base, record)]
    return out


def _per(table, layer, scale, by="calls"):
    calls, busy, _, items = table.get(layer, [0, 0.0, 0.0, 0])
    divisor = items if by == "items" else calls
    return busy * scale / divisor if divisor else 0.0


def layer_metrics(build, served, work, materialized):
    trace = json.loads((work / "trace-build.json").read_text())
    phases = trace["phases"]
    order = ["setup", "materialize", "u_fit", "cycles", "score", "u_estimate", "inproc"]
    step = {
        phase: _delta(phases, phase, order[i - 1] if i else "")
        for i, phase in enumerate(order)
    }
    mat, cyc = step["materialize"], step["cycles"]
    n_cycles = max(len(build["cycles"]), 1)
    _, label_busy, _, label_items = mat.get("rdf.parallel.label", [0, 0.0, 0.0, 0])
    m = {
        "datasets.generate_s": statistics.median(build["generate_s"]),
        "sampling.sample_s": mat.get("sampling.sample", [0, 0.0])[1]
        / BUILD["materializations"],
        "rdf.parallel.label_qps": label_items / label_busy if label_busy else 0.0,
        "nn.fit_s": mat.get("nn.fit", [0, 0.0])[1] / BUILD["materializations"],
        "rdf.store.add_all_s": cyc.get("rdf.store.add_all", [0, 0.0])[1] / n_cycles,
        "maintain.plan_s": cyc.get("maintain.plan", [0, 0.0])[1] / n_cycles,
        "maintain.relabel_s": cyc.get("maintain.relabel", [0, 0.0])[1] / n_cycles,
        "maintain.relabel_share": sum(c["relabeled"] for c in build["cycles"])
        / (n_cycles * materialized) if materialized else 0.0,
        "rdf.fastcount.us_per_query": _per(cyc, "rdf.fastcount", 1e6),
        "sampling.io.load_calls": cyc.get("sampling.io.load", [0])[0] / n_cycles,
        "sampling.io.load_s": cyc.get("sampling.io.load", [0, 0.0])[1] / n_cycles,
        "maintain.finetune_s": cyc.get("maintain.finetune", [0, 0.0])[1] / n_cycles,
        "serve.artifacts.load_s": cyc.get("serve.artifacts.load", [0, 0.0])[1] / n_cycles,
        "serve.artifacts.save_s": cyc.get("serve.artifacts.save", [0, 0.0])[1] / n_cycles,
        "rdf.store.save_snapshot_s": cyc.get("rdf.store.save_snapshot", [0, 0.0])[1] / n_cycles,
        "core.lmkg_u.fit_s": step["u_fit"].get("core.lmkg_u.fit", [0, 0.0])[1],
        "nn.made.fit_s": step["u_fit"].get("nn.made.fit", [0, 0.0])[1],
        "core.lmkg_u.us_per_query": _per(
            step["u_estimate"], "core.lmkg_u.estimate", 1e6, by="items"
        ),
    }
    if served is None:
        model = step["inproc"]
        server = {}
        workers = {}
    else:
        server = json.loads((work / "trace" / "server.json").read_text())["layers"]
        workers = _merge(
            *(
                json.loads(p.read_text())["layers"]
                for p in sorted((work / "trace").glob("worker-*.json"))
            )
        )
        model = _merge(server, workers)
    m.update(
        {
            "core.framework.us_per_query": _per(model, "core.framework", 1e6, by="items"),
            "core.lmkg_s.featurize_us_per_query": _per(
                model, "core.lmkg_s.featurize", 1e6, by="items"
            ),
            "nn.predict_us_per_query": _per(model, "nn.predict", 1e6, by="items"),
            "core.decomposition.us_per_query": _per(model, "core.decomposition", 1e6),
        }
    )
    samples = (
        json.loads((work / "trace" / "server.json").read_text())["samples"]
        if served else {}
    )

    def c1_mean_ms(layer):
        """Mean span of *layer* over the one-connection phase."""
        spans = [
            b
            for t, b in samples.get(layer, [])
            if any(start <= t <= end for start, end in served["spans.c1"])
        ]
        return statistics.fmean(spans) * 1e3 if spans else 0.0

    pool = server.get("serve.supervisor.pool", [0, 0.0, 0.0, 0])
    worker_fw = workers.get("core.framework", [0, 0.0, 0.0, 0])
    m.update(
        {
            "serve.http.self_ms": (
                served["mean_ms.c1"]
                - sum(
                    c1_mean_ms(layer)
                    for layer in (
                        "rdf.parser", "serve.admission", "serve.scheduler.submit"
                    )
                )
                if served else 0.0
            ),
            "serve.http.p99_ms.c1": served["p99_ms.c1"] if served else 0.0,
            "serve.http.p99_ms.c2": served["p99_ms.c2"] if served else 0.0,
            "serve.http.samples.c1": served["samples.c1"] if served else 0,
            "serve.http.samples.c2": served["samples.c2"] if served else 0,
            "serve.scheduler.wait_ms": (
                c1_mean_ms("serve.scheduler.wait") if served else 0.0
            ),
            "serve.scheduler.mean_batch": (
                served["stats"]["mean_batch"] if served else 0.0
            ),
            "serve.scheduler.batches": served["stats"]["batches"] if served else 0,
            "rdf.parser.us_per_query": _per(server, "rdf.parser", 1e6, by="items"),
            "serve.admission.us_per_query": _per(
                server, "serve.admission", 1e6, by="items"
            ),
            "serve.supervisor.pipe_ms": (
                (pool[1] / pool[0] - worker_fw[1] / worker_fw[0]) * 1e3
                if pool[0] and worker_fw[0] else 0.0
            ),
        }
    )
    return m


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # Anything the program or its libraries write to a temporary
    # directory stays inside the checkout.
    (work / "tmp").mkdir()
    os.environ["TMPDIR"] = str(work / "tmp")
    problems: list = []
    try:
        config = dict(
            BUILD,
            work=str(work),
            seed=seed,
            trace=trace,
            inproc_seconds=seconds if "workers" not in spec else 0,
            rounds=ROUNDS,
        )
        (work / "config.json").write_text(json.dumps(config))
        with open(work / "build.log", "wb") as build_log:
            done = subprocess.run(
                [sys.executable, str(HERE / "build.py"), str(work / "config.json")],
                cwd=ROOT, env=child_env(), stdout=build_log, stderr=subprocess.STDOUT,
                timeout=150,
            )
        if done.returncode != 0:
            raise RuntimeError(
                "build failed:\n" + (work / "build.log").read_text()[-4000:]
            )
        build = json.loads((work / "build.json").read_text())
        log("build done")
        oracle, rows, materialized = check_build(build, work, problems)
        log("labels checked")
        scores = accuracy(build, oracle, problems)
        log("test set scored")
        generate_s = statistics.median(build["generate_s"])
        e2e = {
            "train_s": build["train_s"],
            "maintain_s": statistics.median(c["seconds"] for c in build["cycles"]),
            "train_u_s": build["train_u_s"],
            "estimate_u_qps": build["estimate_u_queries"] / build["estimate_u_s"],
            "qerror_p50": scores["qerror_p50"],
            "qerror_p90": scores["qerror_p90"],
            "qerror_u_p50": scores["qerror_u_p50"],
            "qerror_u_p90": scores["qerror_u_p90"],
        }
        # operations: maintenance runs, then requests or estimate calls
        attempted = BUILD["materializations"] + len(build["cycles"])
        failed = 0
        served = None
        if "workers" in spec:
            served, sent, lost = serve(
                spec, build, rows, work, seed, seconds, trace, problems
            )
            attempted += sent
            failed += lost
            # build the snapshot, train the served model, start serving
            e2e["setup_s"] = (
                generate_s + build["train_s"] + served["setup_server_s"]
            )
            e2e["rss_mb"] = served["rss_mb"]
            load = {key: served[key] for key in LOAD_METRICS}
        else:
            inproc = build["inproc"]
            e2e["setup_s"] = generate_s
            e2e["rss_mb"] = build["rss_mb"]
            load = {}
            for phase in ("c1", "c2"):
                load[f"qps.{phase}"] = inproc[phase]["qps"]
                load[f"p50_ms.{phase}"] = inproc[phase]["p50_ms"]
                attempted += inproc[phase]["samples"]
                if inproc[phase]["mismatched"]:
                    problems.append(
                        f"{phase}: {inproc[phase]['mismatched']} in-process "
                        "estimates differ from the batch estimate"
                    )
        # One connection (or caller) is end to end; two are reported
        # per layer, because on serve-point whether two requests meet in
        # the batch window follows the host's load (README.md).
        e2e.update({k: load[k] for k in ("qps.c1", "p50_ms.c1")})
        bench = load_benchmark_spec()
        if trace:
            metrics_spec = bench["per_layer"]
            values = layer_metrics(build, served, work, materialized)
            values.update({k: load[k] for k in ("qps.c2", "p50_ms.c2")})
            print(
                "end-to-end (traced run): "
                + json.dumps({k: round(v, 6) for k, v in e2e.items()}),
                file=sys.stderr,
            )
        else:
            metrics_spec = bench["end_to_end"]
            values = e2e
        if served is not None:
            print(
                f"requests {served['requests']}, repeat share "
                f"{served['repeat_share']:.3f}, scheduler {served['stats']}",
                file=sys.stderr,
            )
        for problem in problems[:20]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        metrics = {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in metrics_spec
        }
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Repeat mode
# ----------------------------------------------------------------------


def repeat(args) -> int:
    bench = load_benchmark_spec()
    expected = {
        m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]
    }
    rows, bad = [], []
    for i in range(args.repeat):
        seed = args.seed + i
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            bad.append(f"seed {seed}: exit {done.returncode}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        names = set(result["metrics"])
        wrong = [n for n in names if not NAME_RE.match(n)]
        if wrong or names != expected:
            bad.append(
                f"seed {seed}: metric names {sorted(names ^ expected)} "
                f"{wrong} do not match BENCHMARK.json"
            )
        if not result["correct"]:
            bad.append(f"seed {seed}: checks failed")
        rows.append((seed, result))
        print(
            f"seed {seed}: attempted {result['attempted']} "
            f"failed {result['failed']} correct {result['correct']} "
            + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
            ),
            flush=True,
        )
    summary = {}
    for name in sorted(expected):
        values = [r["metrics"][name]["value"] for _, r in rows if name in r["metrics"]]
        if not values:
            continue
        q1, q2, q3 = quantiles(values)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        summary[name] = {
            "median": q2, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
        }
        print(
            f"{name:40s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
            f"spread {spread:7.3%}"
        )
    for problem in bad:
        print(f"PROBLEM: {problem}")
    print(json.dumps({"workload": args.workload, "runs": len(rows), "summary": summary}))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program sources at {SRC}; run from a checkout of the repository")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.repeat:
        return repeat(args)
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
