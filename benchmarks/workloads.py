"""The three benchmark workloads: inputs, one timed chain run, work counts.

``ner_scan`` and ``rag_verify`` drive the real ``phenotag`` CLI commands
in-process, exactly as a user's shell would invoke them; ``remote_backends``
drives the library through the HTTP backends' ``transport=`` seams with the
fakes in ``fakes.py``. Every concurrency window is at most ``INFLIGHT``, so
no stage runs more threads than the machine has processors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import fakes
import generate
import speed
from generate import Sizes

INFLIGHT = max(1, min(2, os.cpu_count() or 1))
# Latencies long enough that waiting, not the processor or late timer
# wake-ups on a busy host, sets remote_backends' time.
NER_LATENCY_S = 0.030
EMBED_LATENCY_S = 0.002
LLM_LATENCY_S = 0.012

# The CLI workloads' chains are sized to run in about 1.5 s or less, so the
# reference kernel bracketing each one sees the processor state it ran in
# (speed.py); rag_verify's ~375 top_k queries are therefore fewer than
# thousands, and a larger chain measured raw spread more than twice as wide.
SIZES = {
    "ner_scan": Sizes(records=10, lexicon=2000, concepts=0, mentions_per_record=2.0,
                      zipf_s=1.1, question_pool=8, raft_questions=0),
    "rag_verify": Sizes(records=120, lexicon=0, concepts=2000, mentions_per_record=2.0,
                        zipf_s=1.1, question_pool=8, raft_questions=160),
    "remote_backends": Sizes(records=128, lexicon=0, concepts=300, mentions_per_record=2.0,
                             zipf_s=1.1, question_pool=8, raft_questions=0),
}


class ChainError(RuntimeError):
    """A pipeline step exited non-zero or raised."""


@dataclass
class ChainRun:
    """What one chain run produced and how long each stage took."""

    total_s: float
    stages: dict[str, float]
    out_dir: Path
    failed_ops: int = 0  # failed records plus backend-error verdicts
    calls: dict = field(default_factory=dict)  # fake-backend call counts
    scaled_s: float | None = None  # total_s at reference processor speed

    def digests(self) -> dict[str, str]:
        """sha256 of every result file; run manifests carry timestamps."""
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.out_dir.iterdir())
            if p.is_file() and not p.name.endswith("_manifest.json")
        }


def _cli(ph, *args: str) -> None:
    buffer = io.StringIO()
    code: object = 0
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            ph.cli.main.main(args=list(args), prog_name="phenotag", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    if code not in (0, None):
        raise ChainError(f"phenotag {args[0]} exited {code}: {buffer.getvalue().strip()}")


class _Stages:
    """Stage wall times. With ``scale``, the reference kernel also runs
    right before the first stage and right after the last, outside the
    stage times, and scales the chain's time (speed.py)."""

    def __init__(self, scale: bool):
        self.times: dict[str, float] = {}
        self._kernel_before = speed.kernel_time() if scale else None
        self._mark = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        self.times[name] = now - self._mark
        self._mark = now

    def run(self, out: Path, **counts) -> ChainRun:
        total = sum(self.times.values())
        scaled = None
        if self._kernel_before is not None:
            scaled = speed.scaled(total, self._kernel_before, speed.kernel_time())
        return ChainRun(total, self.times, out, scaled_s=scaled, **counts)


def chain_ner_scan(ph, inputs: Path, rep: Path, truth: dict, scale: bool) -> ChainRun:
    config = str(rep / "config.ini")
    clock = _Stages(scale)
    _cli(ph, "ingest", "-c", config)
    clock.done("ingest")
    _cli(ph, "annotate", "-c", config)
    clock.done("annotate")
    _cli(ph, "eval", "-c", config)
    clock.done("eval")
    out = rep / "out"
    failed = sum(json.loads(line)["status"] == "failed" for line in
                 (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines() if line)
    return clock.run(out, failed_ops=failed)


def chain_rag_verify(ph, inputs: Path, rep: Path, truth: dict, scale: bool) -> ChainRun:
    config = str(rep / "config.ini")
    out = rep / "out"
    clock = _Stages(scale)
    # The prompts are dumped so the gate can check what each one retrieved.
    _cli(ph, "run", "-c", config, "--strategy", "rag-fsi", "--k", "3",
         "--retrieval-k", str(truth["retrieval_k"]), "--dump-prompts", str(out / "prompts.jsonl"))
    clock.done("run")
    _cli(ph, "raft", "-c", config, "--n-distractors", str(truth["n_distractors"]),
         "--questions", str(inputs / "questions.jsonl"))
    clock.done("raft")
    _cli(ph, "eval", "-c", config, "--verdicts", str(out / "verdicts.jsonl"))
    clock.done("eval")
    return clock.run(out)


def chain_remote(ph, inputs: Path, rep: Path, truth: dict, scale: bool) -> ChainRun:
    annotate, ontology, orchestrate = ph.annotate, ph.ontology, ph.orchestrate
    ner = fakes.FakeNerTransport(truth, NER_LATENCY_S)
    embedder = fakes.FakeEmbeddingTransport(256, EMBED_LATENCY_S)
    llm_wire = fakes.FakeLlmTransport(truth, LLM_LATENCY_S)
    out = rep / "out"
    out.mkdir(parents=True, exist_ok=True)
    clock = _Stages(scale)
    corpus = ph.corpus.load_records(inputs / "records.jsonl")
    backend = annotate.HttpNerBackend("fake://ner", transport=ner)
    outcomes = annotate.annotate_batch(
        corpus.records, backend,
        annotate.BackendConfig(batch_size=generate.REMOTE_BATCH_SIZE, max_inflight=INFLIGHT,
                               retry_budget=generate.REMOTE_NER_RETRY_BUDGET),
    )
    ph.config.atomic_write_text(
        out / "predictions.jsonl", "\n".join(annotate.write_outcomes(outcomes)) + "\n"
    )
    clock.done("annotate")
    store = ontology.load_ontology(inputs / "ontology.jsonl")
    provider = ontology.RemoteEmbeddingProvider("remote", "fake://embed", 256, transport=embedder)
    index = ontology.OntologyIndex(store, provider)
    mentions = [a for o in outcomes if o.status == "ok" for a in o.annotations]
    results = orchestrate.run_strategy(
        corpus, mentions,
        orchestrate.PromptSpec(orchestrate.Strategy.RAG_FSI, k=3, retrieval_k=3),
        orchestrate.HttpLlmBackend("fake://llm", transport=llm_wire), store,
        provider=provider, seed=ph.config.derive_seed(7, "run"),
        example_pool=orchestrate.load_example_pool(inputs / "examples.jsonl"),
        index=index, retry_budget=generate.REMOTE_LLM_RETRY_BUDGET, max_inflight=INFLIGHT,
    )
    ph.config.atomic_write_text(
        out / "verdicts.jsonl", "\n".join(ph.evaluate.write_verdicts(results)) + "\n"
    )
    clock.done("run")
    errors = sum(v.raw_text.startswith("<llm error") for _, v in results)
    failed = sum(o.status == "failed" for o in outcomes)
    return clock.run(
        out, failed_ops=failed + errors,
        calls={"ner": ner.calls, "llm": llm_wire.calls, "embed": embedder.calls},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, int, Sizes], dict]
    chain: Callable[[object, Path, Path, dict, bool], ChainRun]
    cli: bool
    # Work items per chain run, keyed by stage-throughput metric.
    items: Callable[[dict], dict[str, int]]
    # Whether the chain's time is scaled by the reference kernel (speed.py):
    # yes where it is CPU-bound, no where it waits on fixed-latency fakes.
    scaled: bool

    def prepare(self, inputs: Path, rep: Path) -> None:
        rep.mkdir(parents=True)
        if self.cli:
            generate.write_config(rep / "config.ini", self.name, inputs)

    def operations(self, truth: dict) -> int:
        """Operations one chain run attempts (the failed-ratio denominator)."""
        return sum(self.items(truth).values())


WORKLOADS = {
    "ner_scan": Workload(
        "ner_scan", generate.generate_ner_scan, chain_ner_scan, True,
        lambda t: {"annotate": t["records"]}, True,
    ),
    "rag_verify": Workload(
        "rag_verify", generate.generate_rag_verify, chain_rag_verify, True,
        lambda t: {"run": len(t["verdicts"]), "raft": len(t["questions"])}, True,
    ),
    "remote_backends": Workload(
        "remote_backends", generate.generate_remote, chain_remote, False,
        lambda t: {"annotate": t["records"], "run": len(t["verdicts"])}, False,
    ),
}
