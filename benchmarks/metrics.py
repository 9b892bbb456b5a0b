"""What each per-layer metric should move, recorded before anything is optimised.

``BENCHMARK.json`` is the catalogue: names, units and directions of every
metric, and the bounds of the end-to-end ones. ``PREDICTIONS`` maps each of
its per-layer metrics to the end-to-end figure, and the workload, that a
change to that layer should move. The ``stage.*`` throughputs are the
issue-level figures a user of one command sees; they are per-layer because
not every workload has every stage, and an end-to-end metric must exist on
all of them.
"""

from __future__ import annotations

_ALL = "total_s on every workload, as a small share"
_SCAN = "stage.annotate.records_per_s and total_s on ner_scan"
_REMOTE_ANNOTATE = "stage.annotate.records_per_s and ok_ratio on remote_backends"
_BUILD = "stage.run.mentions_per_s on remote_backends (build-dominated) and total_s on rag_verify"
_RETRIEVE = "stage.run.mentions_per_s and stage.raft.questions_per_s on rag_verify"
_REMOTE_LLM = "stage.run.mentions_per_s and ok_ratio on remote_backends"
_EVAL = "total_s on ner_scan and rag_verify, as a small share; flat under a simplicity change"
_CLI = "total_s on ner_scan and rag_verify (the CLI workloads)"

PREDICTIONS = {
    "stage.annotate.records_per_s": "the annotate stage itself; 0 on rag_verify",
    "stage.run.mentions_per_s": "the run stage itself; 0 on ner_scan",
    "stage.raft.questions_per_s": "the raft stage itself; rag_verify only",
    "stage.failed_ratio": "1 - ok_ratio; 0 offline, the injected share remote",
    "trace.total_s": "traced chain time; the untraced one is total_s",
    "trace.overhead_s": "traced total_s minus untraced total_s",
    "corpus.load_records.s": _ALL,
    "corpus.normalize_text.calls": _ALL,
    "corpus.normalize_text.s": _ALL,
    "corpus.import_doccano.s": _ALL,
    "annotate.backend_init.s": _SCAN + "; shows work moved into construction",
    "annotate.submit.calls": _SCAN + "; 0 on rag_verify",
    "annotate.submit.s": _SCAN + "; most of total_s there",
    "annotate.submit.ms_per_record": _SCAN + "; mock scan cost at L=2000",
    "annotate.parse_response.s": _SCAN,
    "annotate.io.s": _SCAN,
    "annotate.submit.p50_ms": _REMOTE_ANNOTATE,
    "annotate.submit.p99_ms": _REMOTE_ANNOTATE,
    "annotate.queue_wait_s": _REMOTE_ANNOTATE,
    "annotate.inflight_max": _REMOTE_ANNOTATE,
    "annotate.retries": _REMOTE_ANNOTATE,
    "annotate.records_failed": _REMOTE_ANNOTATE,
    "ontology.load.s": _BUILD,
    "ontology.index_builds": _BUILD,
    "ontology.index_build.s": _BUILD,
    "ontology.embed.calls": _BUILD,
    "ontology.embed.s": _BUILD,
    "ontology.top_k.calls": _RETRIEVE + "; 0 on ner_scan",
    "ontology.top_k.s": _RETRIEVE,
    "ontology.top_k.p50_ms": _RETRIEVE + "; top_k cost at C=2000",
    "orchestrate.build_prompt.calls": _RETRIEVE,
    "orchestrate.build_prompt.s": _RETRIEVE,
    "orchestrate.parse_verdict.s": _RETRIEVE,
    "orchestrate.run_strategy.self_s": _RETRIEVE,
    "orchestrate.raft.self_s": _RETRIEVE,
    "orchestrate.llm.calls": _REMOTE_LLM,
    "orchestrate.llm.s": _REMOTE_LLM + "; scripted and cheap on rag_verify",
    "orchestrate.llm.p50_ms": _REMOTE_LLM,
    "orchestrate.llm.p99_ms": _REMOTE_LLM,
    "orchestrate.llm.retries": _REMOTE_LLM,
    "orchestrate.verdicts.unparseable": _REMOTE_LLM,
    "orchestrate.verdicts.hallucinated": _REMOTE_LLM,
    "evaluate.match_mentions.s": _EVAL,
    "evaluate.alignment.s": _EVAL,
    "evaluate.read_verdicts.s": _EVAL,
    "report.render_report.s": _EVAL,
    "cli.ingest.self_s": _CLI,
    "cli.annotate.self_s": _CLI,
    "cli.run.self_s": _CLI,
    "cli.eval.self_s": _CLI,
    "cli.raft.self_s": _CLI,
    "cli.manifest.s": _CLI,
}
