"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions of ``repro`` in place: each
wrapper replaces the module or class attribute that callers look the
function up through, so the program's own code runs unchanged between
the spans.  Per layer it records calls, busy time, self time (busy time
minus the spans of traced calls made inside it, on the same thread)
and the number of items (queries, rows) the calls handled.  Spans stay
in memory and are written out as JSON once, when the traced process
ends.

The layer names are the metric prefixes :mod:`run` reports; which
end-to-end metric each should move is written down in README.md.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

#: environment variable naming the directory traced processes write to
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: the request-path layers whose calls are kept one by one
SAMPLED = frozenset(
    {
        "rdf.parser",
        "serve.admission",
        "serve.scheduler.submit",
        "serve.scheduler.wait",
    }
)

#: key the backend wrapper adds to a batch's metadata, so the request
#: that waited for the batch can subtract the backend's span
BACKEND_SPAN_KEY = "perfbench_backend_s"


class Tracer:
    """Call counts, busy and self time, and items per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.layers: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        #: per call of the layers named in :data:`SAMPLED`: (wall-clock
        #: end, busy), so a reader can split the calls by load phase
        self.samples: Dict[str, list] = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, busy: float, own: float, items: int) -> None:
        with self._lock:
            record = self.layers[layer]
            record[0] += 1
            record[1] += busy
            record[2] += own
            record[3] += items
            if layer in SAMPLED:
                self.samples[layer].append((time.time(), busy))

    def wrap(
        self,
        layer: str,
        fn: Callable,
        items: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """*fn* timed as *layer*; ``items(args)`` counts its work and
        ``after(result, seconds)`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += busy
            self.add(layer, busy, busy - inner, items(args) if items else 0)
            if after is not None:
                after(result, busy)
            return result

        return traced

    def patch(self, owner, name: str, layer: str, **kwargs) -> None:
        setattr(owner, name, self.wrap(layer, getattr(owner, name), **kwargs))

    def snapshot(self) -> Dict[str, list]:
        with self._lock:
            return {k: list(v) for k, v in self.layers.items()}

    def dump(self, path: str, phases: Optional[dict] = None) -> None:
        with self._lock:
            samples = {k: list(v) for k, v in self.samples.items()}
        payload = {
            "layers": self.snapshot(),
            "phases": phases or {},
            "samples": samples,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _count_arg(index: int) -> Callable:
    return lambda args: len(args[index])


def install_model_path(tracer: Tracer) -> None:
    """The estimation path every process that answers queries runs."""
    import repro.core.framework as framework
    from repro.core.lmkg_s import LMKGS
    from repro.nn.network import Regressor

    tracer.patch(
        framework.LMKG, "estimate_batch", "core.framework",
        items=_count_arg(1),
    )
    tracer.patch(LMKGS, "featurize", "core.lmkg_s.featurize", items=_count_arg(1))
    tracer.patch(Regressor, "predict", "nn.predict", items=_count_arg(1))
    tracer.patch(
        framework, "decompose", "core.decomposition", items=lambda args: 1
    )


def install_server(tracer: Tracer) -> None:
    """The server process: handler spans, scheduler, backend, pool."""
    from repro.serve.admission import ShapeManifest
    from repro.serve.scheduler import BatchScheduler
    from repro.serve.service import EstimatorService
    from repro.serve.supervisor import ResilientBackend, SupervisedPool

    install_model_path(tracer)
    tracer.patch(
        EstimatorService, "parse_queries", "rdf.parser", items=_count_arg(1)
    )
    tracer.patch(
        ShapeManifest, "admit_all", "serve.admission", items=_count_arg(1)
    )
    tracer.patch(
        SupervisedPool, "estimate_batch", "serve.supervisor.pool",
        items=_count_arg(1),
    )

    def tag_backend_span(result, seconds) -> None:
        result[1][BACKEND_SPAN_KEY] = seconds

    tracer.patch(
        ResilientBackend, "__call__", "serve.backend",
        items=_count_arg(1), after=tag_backend_span,
    )

    def record_wait(result, seconds) -> None:
        backend = result[1].pop(BACKEND_SPAN_KEY, 0.0)
        tracer.add("serve.scheduler.wait", seconds - backend, 0.0, 0)

    tracer.patch(
        BatchScheduler, "submit_with_meta", "serve.scheduler.submit",
        items=_count_arg(1), after=record_wait,
    )


def install_build(tracer: Tracer) -> None:
    """Creation and maintenance: sampling, labeling, training, store."""
    import repro.maintain.relabel as relabel
    import repro.maintain.runner as runner
    import repro.sampling.workload as workload
    from repro.core.lmkg_u import LMKGU
    from repro.nn.masked import MADE
    from repro.nn.network import Regressor
    from repro.rdf.store import TripleStore

    install_model_path(tracer)
    tracer.patch(workload, "sample_instances", "sampling.sample")
    tracer.patch(
        workload, "label_queries", "rdf.parallel.label", items=_count_arg(0)
    )
    tracer.patch(Regressor, "fit", "nn.fit")
    tracer.patch(TripleStore, "add_all", "rdf.store.add_all")
    tracer.patch(TripleStore, "save_snapshot", "rdf.store.save_snapshot")
    tracer.patch(runner, "plan_maintenance", "maintain.plan")
    tracer.patch(runner, "relabel_records", "maintain.relabel")
    tracer.patch(
        relabel, "count_query", "rdf.fastcount", items=lambda args: 1
    )
    tracer.patch(runner, "load_workload", "sampling.io.load")
    tracer.patch(runner, "finetune_models", "maintain.finetune")
    tracer.patch(runner, "load_checkpoint", "serve.artifacts.load")
    tracer.patch(runner, "save_checkpoint", "serve.artifacts.save")
    tracer.patch(LMKGU, "fit", "core.lmkg_u.fit")
    tracer.patch(MADE, "fit", "nn.made.fit")
    tracer.patch(
        LMKGU, "estimate_batch", "core.lmkg_u.estimate", items=_count_arg(1)
    )


def traced_worker_main(*args) -> None:
    """Stands in for the supervisor's worker entry point in a traced
    server: installs the model-path wrappers in the spawned worker, runs
    the real entry point, and writes the spans when it returns."""
    from repro.serve import supervisor

    tracer = Tracer()
    install_model_path(tracer)
    try:
        supervisor._worker_main(*args)
    finally:
        directory = os.environ.get(TRACE_DIR_ENV)
        if directory:
            tracer.dump(os.path.join(directory, f"worker-{os.getpid()}.json"))
