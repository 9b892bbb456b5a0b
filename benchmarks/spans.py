"""Spans around phenotag's public functions, recorded from outside ``src/``.

``Tracer.tracing()`` swaps each traced function or method for a wrapper
that records a span (id, parent id, name, start, end, chain-run id) and
restores the originals on exit, so untraced runs execute the program
exactly as shipped. Names that ``phenotag.cli`` imported into its own
namespace are wrapped there too, because the CLI calls them through those
bindings.

A span opened on a worker thread of a pool takes as parent the span open
on the main thread, which is the call that started the pool. Spans stay in
memory until ``write()``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: float
    end: float
    run: int
    key: object = None  # call detail the metrics need, e.g. a batch fingerprint


def _targets(ph) -> list[tuple[object, str, str, Callable | None, Callable | None]]:
    """(owner, attribute, span name, key from args, key from result)."""
    cli, corpus, annotate, ontology, orchestrate, config = (
        ph.cli, ph.corpus, ph.annotate, ph.ontology, ph.orchestrate, ph.config
    )
    failed_count = lambda out: sum(o.status == "failed" for o in out)  # noqa: E731
    targets = [
        (cli, "load_records", "corpus.load_records", None, None),
        (corpus, "load_records", "corpus.load_records", None, None),
        (cli, "normalize_text", "corpus.normalize_text", None, None),
        (cli, "import_doccano", "corpus.import_doccano", None, None),
        (annotate.MockNerBackend, "__init__", "annotate.backend_init", None, None),
        (annotate.HttpNerBackend, "__init__", "annotate.backend_init", None, None),
        (annotate.MockNerBackend, "submit", "annotate.submit",
         lambda a, kw: hash(tuple(a[1])), None),
        (annotate.HttpNerBackend, "submit", "annotate.submit",
         lambda a, kw: hash(tuple(a[1])), None),
        (annotate, "parse_backend_response", "annotate.parse_response", None, None),
        (cli, "annotate_batch", "annotate.annotate_batch", None, failed_count),
        (annotate, "annotate_batch", "annotate.annotate_batch", None, failed_count),
        (cli, "write_outcomes", "annotate.io", None, None),
        (cli, "read_outcomes", "annotate.io", None, None),
        (annotate, "write_outcomes", "annotate.io", None, None),
        (annotate, "read_outcomes", "annotate.io", None, None),
        (cli, "load_ontology", "ontology.load", None, None),
        (ontology, "load_ontology", "ontology.load", None, None),
        (ontology.OntologyIndex, "__init__", "ontology.index_build", None, None),
        (ontology.HashedBagOfWordsProvider, "embed", "ontology.embed", None, None),
        (ontology.RemoteEmbeddingProvider, "embed", "ontology.embed", None, None),
        (ontology.OntologyIndex, "top_k", "ontology.top_k", None, None),
        (orchestrate, "build_prompt", "orchestrate.build_prompt", None, None),
        (orchestrate, "parse_verdict", "orchestrate.parse_verdict", None, None),
        (orchestrate.ScriptedLlmBackend, "complete", "orchestrate.llm", None, None),
        (orchestrate.HttpLlmBackend, "complete", "orchestrate.llm", None, None),
        (cli, "match_mentions", "evaluate.match_mentions", None, None),
        (cli, "alignment_accuracy", "evaluate.alignment", None, None),
        (cli, "alignment_confusions", "evaluate.alignment", None, None),
        (cli, "alignment_stats", "evaluate.alignment", None, None),
        (cli, "read_verdicts", "evaluate.read_verdicts", None, None),
        (cli, "render_report", "report.render_report", None, None),
        (config.RunManifest, "add_input", "cli.manifest", None, None),
        (config.RunManifest, "add_output", "cli.manifest", None, None),
        (config.RunManifest, "write", "cli.manifest", None, None),
    ]
    judged = lambda a, kw: len(a[1])  # noqa: E731
    verdict_flags = lambda out: (  # noqa: E731
        sum(v.kind.value == "unparseable" for _, v in out), sum(v.hallucinated for _, v in out)
    )
    for owner in (cli, orchestrate):
        targets.append((owner, "run_strategy", "orchestrate.run_strategy", judged, verdict_flags))
        targets.append((owner, "build_raft_dataset", "orchestrate.raft", None, None))
    for command in ("ingest", "annotate", "run", "eval", "raft"):
        obj = cli.eval_cmd if command == "eval" else getattr(cli, command)
        targets.append((obj, "callback", f"cli.{command}", None, None))
    return targets


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, ph):
        self._ph = ph
        self.spans: list[Span] = []
        self.results: dict[int, object] = {}  # span id -> key derived from the result
        self.inflight_max: Counter = Counter()  # (run, name) -> concurrent high-water
        self.run_id = 0
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._active: Counter = Counter()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, key_fn, result_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(tracer._ids)
            key = key_fn(args, kwargs) if key_fn else None
            run = tracer.run_id
            with tracer._lock:
                tracer._active[name] += 1
                if tracer._active[name] > tracer.inflight_max[(run, name)]:
                    tracer.inflight_max[(run, name)] = tracer._active[name]
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer._active[name] -= 1
                tracer.spans.append(Span(sid, parent, name, start, end, run, key))
            if result_fn:
                tracer.results[sid] = result_fn(out)
            return out

        return traced

    @contextmanager
    def tracing(self, run_id: int):
        """Install every wrapper for one chain run, then restore."""
        self.run_id = run_id
        saved = []
        try:
            for owner, attr, name, key_fn, result_fn in _targets(self._ph):
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, key_fn, result_fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        fields = Span._fields[:-1]
        path.write_text(
            "".join(json.dumps(dict(zip(fields, s[:-1]))) + "\n" for s in self.spans),
            encoding="utf-8",
        )


def percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 when there are no samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def run_metrics(tracer: Tracer, run: int) -> dict[str, float]:
    """Per-layer metrics of one traced chain run (latency percentiles aside).

    ``.s`` is time busy, ``.self_s`` a span's time minus the part its child
    spans cover, ``.calls`` a span count.
    """
    spans = [s for s in tracer.spans if s.run == run]
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(*names: str) -> float:
        """Time busy: the wall time covered by the spans, so calls that ran
        concurrently on pool threads count once."""
        return _covered([(s.start, s.end) for n in names for s in by_name[n]])

    def self_time(name: str) -> float:
        out = 0.0
        for s in by_name[name]:
            inner = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]]
            out += (s.end - s.start) - _covered([i for i in inner if i[1] > i[0]])
        return out

    submits = by_name["annotate.submit"]
    queue_wait = retries = 0.0
    for batch in by_name["annotate.annotate_batch"]:
        first: dict[object, float] = {}
        mine = [s for s in submits if s.parent == batch.sid]
        for s in mine:
            first[s.key] = min(first.get(s.key, math.inf), s.start)
        queue_wait += sum(t - batch.start for t in first.values())
        retries += len(mine) - len(first)
    flags = [tracer.results[s.sid] for s in by_name["orchestrate.run_strategy"]]
    judged = sum(s.key for s in by_name["orchestrate.run_strategy"])
    m = {
        "corpus.load_records.s": total("corpus.load_records"),
        "corpus.normalize_text.calls": len(by_name["corpus.normalize_text"]),
        "corpus.normalize_text.s": total("corpus.normalize_text"),
        "corpus.import_doccano.s": total("corpus.import_doccano"),
        "annotate.backend_init.s": total("annotate.backend_init"),
        "annotate.submit.calls": len(submits),
        "annotate.submit.s": total("annotate.submit"),
        "annotate.parse_response.s": total("annotate.parse_response"),
        "annotate.io.s": total("annotate.io"),
        "annotate.queue_wait_s": queue_wait,
        "annotate.inflight_max": tracer.inflight_max[(run, "annotate.submit")],
        "annotate.retries": retries,
        "annotate.records_failed": sum(
            tracer.results[s.sid] for s in by_name["annotate.annotate_batch"]
        ),
        "ontology.load.s": total("ontology.load"),
        "ontology.index_builds": len(by_name["ontology.index_build"]),
        "ontology.index_build.s": total("ontology.index_build"),
        "ontology.embed.calls": len(by_name["ontology.embed"]),
        "ontology.embed.s": total("ontology.embed"),
        "ontology.top_k.calls": len(by_name["ontology.top_k"]),
        "ontology.top_k.s": total("ontology.top_k"),
        "orchestrate.build_prompt.calls": len(by_name["orchestrate.build_prompt"]),
        "orchestrate.build_prompt.s": total("orchestrate.build_prompt"),
        "orchestrate.parse_verdict.s": total("orchestrate.parse_verdict"),
        "orchestrate.run_strategy.self_s": self_time("orchestrate.run_strategy"),
        "orchestrate.raft.self_s": self_time("orchestrate.raft"),
        "orchestrate.llm.calls": len(by_name["orchestrate.llm"]),
        "orchestrate.llm.s": total("orchestrate.llm"),
        "orchestrate.llm.retries": len(by_name["orchestrate.llm"]) - judged,
        "orchestrate.verdicts.unparseable": sum(f[0] for f in flags),
        "orchestrate.verdicts.hallucinated": sum(f[1] for f in flags),
        "evaluate.match_mentions.s": total("evaluate.match_mentions"),
        "evaluate.alignment.s": total("evaluate.alignment"),
        "evaluate.read_verdicts.s": total("evaluate.read_verdicts"),
        "report.render_report.s": total("report.render_report"),
        "cli.manifest.s": total("cli.manifest"),
    }
    for command in ("ingest", "annotate", "run", "eval", "raft"):
        m[f"cli.{command}.self_s"] = self_time(f"cli.{command}")
    return m


def latency_metrics(tracer: Tracer, runs: list[int]) -> dict[str, float]:
    """Latency percentiles pooled over every call in the traced runs."""
    wanted = set(runs)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        if s.run in wanted:
            durations[s.name].append(s.end - s.start)
    return {
        "annotate.submit.p50_ms": percentile_ms(durations["annotate.submit"], 0.50),
        "annotate.submit.p99_ms": percentile_ms(durations["annotate.submit"], 0.99),
        "ontology.top_k.p50_ms": percentile_ms(durations["ontology.top_k"], 0.50),
        "orchestrate.llm.p50_ms": percentile_ms(durations["orchestrate.llm"], 0.50),
        "orchestrate.llm.p99_ms": percentile_ms(durations["orchestrate.llm"], 0.99),
    }
