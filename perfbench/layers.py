"""Outside-in layer tracing: wrap each layer's public entry points.

The benchmark installs wrappers at the module or class attribute each
caller looks up, records one span per wrapped call, and removes every
wrapper afterwards, so an untraced run measures the unmodified program.
``minimize_loss``, for example, is imported by name into four modules;
each of those module attributes is wrapped.

A span is ``[layer, name, start, end, parent, request_id, thread_id,
extra]``. The parent is the innermost open span on the same thread, so a
layer's self time is its duration minus the time its children cover.
Spans stay in memory and are written out at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time

LAYERS = ("gateway", "shard", "service", "mechanism", "engine",
          "optimize", "losses", "dp", "oracle", "update", "ledger",
          "checkpoint")

# Span record fields.
LAYER, NAME, START, END, PARENT, REQUEST, THREAD, EXTRA = range(8)


def _batch_width(args, kwargs, result):
    return len(args[0]) if args else len(kwargs.get("losses", ()))


def _queries_len(args, kwargs, result):
    return len(args[2]) if len(args) > 2 else len(kwargs["queries"])


def _minimize_exact(args, kwargs, result):
    return 1 if getattr(result, "exact", False) else 0


def entry_points():
    """``(owner, attribute, layer, span name, extra)`` for every wrapped
    entry point. ``extra(args, kwargs, result)`` stores one number on the
    span (batch width, closed-form flag)."""
    import repro.core.accuracy
    import repro.core.pmw_cm
    import repro.core.update
    import repro.engine
    import repro.engine.batch
    import repro.losses.fingerprint
    import repro.optimize.minimize
    import repro.serve.service
    from repro.core.pmw_cm import PrivateMWConvex
    from repro.core.pmw_linear import PrivateMWLinear
    from repro.data.log_histogram import LogHistogram
    from repro.dp.accountant import PrivacyAccountant
    from repro.dp.sparse_vector import SparseVector
    from repro.erm.oracle import SingleQueryOracle
    from repro.losses.base import LossFunction
    from repro.serve.cache import AnswerCache
    from repro.serve.checkpoint import Checkpointer
    from repro.serve.gateway import ServiceGateway
    from repro.serve.ledger import BudgetLedger
    from repro.serve.service import PMWService
    from repro.serve.session import Session
    from repro.serve.shard import ShardedService

    points = [
        (ServiceGateway, "submit_async", "gateway", "submit_async", None),
        (ShardedService, "serve_session_batch", "shard", "rpc",
         _queries_len),
        (PMWService, "serve_session_batch", "service",
         "serve_session_batch", _queries_len),
        (PMWService, "submit", "service", "submit", None),
        (repro.serve.service, "plan_batch", "service", "plan", None),
        (Session, "prewarm", "service", "prewarm", None),
        (Session, "answer", "service", "session_answer", None),
        (Session, "answer_from_hypothesis", "service",
         "session_hypothesis", None),
        (AnswerCache, "get", "service", "cache_get", None),
        (AnswerCache, "put", "service", "cache_put", None),
        (AnswerCache, "contains", "service", "cache_contains", None),
        (repro.engine, "batch_data_minima", "engine", "batch_minima",
         _batch_width),
        (repro.engine, "closed_form_minima", "engine", "closed_form", None),
        (repro.engine, "batch_answers", "engine", "batch_answers", None),
        (repro.engine, "dedupe_by_fingerprint", "engine", "dedupe", None),
        (repro.optimize.minimize, "projected_gradient_descent", "optimize",
         "gradient_descent", None),
        (LossFunction, "gradient_on", "losses", "gradient", None),
        (LossFunction, "loss_on", "losses", "value", None),
        (repro.losses.fingerprint, "fingerprint_of", "losses",
         "fingerprint", None),
        (SparseVector, "process", "dp", "svt", None),
        (PrivacyAccountant, "spend", "dp", "spend", None),
        (PrivacyAccountant, "preflight", "dp", "preflight", None),
        (LogHistogram, "apply_update", "update", "mw", None),
        (LogHistogram, "freeze", "update", "freeze", None),
        (repro.core.pmw_cm, "dual_certificate", "update", "certificate",
         None),
        (Checkpointer, "checkpoint", "checkpoint", "capture", None),
        (Checkpointer, "maybe_checkpoint", "checkpoint", "maybe", None),
    ]
    for module in (repro.core.pmw_cm, repro.engine.batch,
                   repro.core.accuracy, repro.core.update):
        points.append((module, "minimize_loss", "optimize", "minimize",
                       _minimize_exact))
    for mechanism in (PrivateMWConvex, PrivateMWLinear):
        for method in ("answer", "prewarm", "answer_from_hypothesis"):
            if method in vars(mechanism):
                points.append((mechanism, method, "mechanism", method, None))
    for verb in ("append_open", "append_spends", "append_answer",
                 "append_close"):
        points.append((BudgetLedger, verb, "ledger", "append", None))
    for oracle in _subclasses(SingleQueryOracle):
        if "answer" in vars(oracle):
            points.append((oracle, "answer", "oracle", "answer", None))
    return points


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class LayerTracer:
    """Installs the wrappers, records spans, and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        # id(query) -> (request id, submit time), filled by the load
        # generator so a worker-side root span can name its requests.
        self._requests: dict[int, tuple[int, float]] = {}
        self.queue_waits: list[float] = []
        self.generator_thread = threading.get_ident()

    # -- requests ------------------------------------------------------------

    def note_submit(self, query, request_id: int, submitted: float) -> None:
        self._requests[id(query)] = (request_id, submitted)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, name, extra in entry_points():
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, name, extra,
                                            batch_root=attr ==
                                            "serve_session_batch"))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, function, layer: str, name: str, extra, *,
              batch_root: bool):
        spans = self.spans
        local = self._local
        requests = self._requests
        waits = self.queue_waits
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            start = clock()
            request = parent[REQUEST] if parent is not None else None
            if batch_root and parent is None:
                # The gateway hands a coalesced batch to the service (or
                # the shard router): every member's queue wait ends here.
                queries = args[2] if len(args) > 2 else kwargs["queries"]
                for query in queries:
                    known = requests.get(id(query))
                    if known is not None:
                        waits.append(start - known[1])
                        if request is None:
                            request = known[0]
            record = [layer, name, start, 0.0, parent, request,
                      threading.get_ident(), None]
            spans.append(record)
            stack.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if extra is not None:
                record[EXTRA] = extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    # -- analysis ------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``busy_s`` (outermost spans of the layer,
        so nested same-layer calls are not counted twice) and ``self_s``
        (duration minus child spans), plus ``worker_self_s`` — self time
        spent off the load-generator thread."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                key = id(parent)
                child_time[key] = (child_time.get(key, 0.0)
                                   + span[END] - span[START])
        out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                       "worker_self_s": 0.0} for layer in LAYERS}
        for span in self.spans:
            entry = out[span[LAYER]]
            duration = span[END] - span[START]
            own = duration - child_time.get(id(span), 0.0)
            entry["calls"] += 1
            entry["self_s"] += own
            if span[THREAD] != self.generator_thread:
                entry["worker_self_s"] += own
            ancestor = span[PARENT]
            while ancestor is not None and ancestor[LAYER] != span[LAYER]:
                ancestor = ancestor[PARENT]
            if ancestor is None:
                entry["busy_s"] += duration
        return out

    def named(self, layer: str, name: str) -> list[list]:
        return [span for span in self.spans
                if span[LAYER] == layer and span[NAME] == name]

    def write(self, path) -> None:
        """Write every span as one JSON line (parents as indices)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        origin = min((span[START] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span[PARENT]
                handle.write(json.dumps({
                    "layer": span[LAYER], "name": span[NAME],
                    "start_s": span[START] - origin,
                    "end_s": span[END] - origin,
                    "parent": None if parent is None else index[id(parent)],
                    "request": span[REQUEST], "thread": span[THREAD],
                    "extra": span[EXTRA],
                }) + "\n")


def total_seconds(spans) -> float:
    return float(sum(span[END] - span[START] for span in spans))
