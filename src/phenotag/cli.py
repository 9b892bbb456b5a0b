"""Command-line entry point wiring the pipeline into reproducible runs.

Exit codes are a stable contract: 0 success, 1 validation or usage
problem, 2 missing input, 3 backend failure. Every command reads,
checks and computes everything first, then calls ``_write_results``, the
one write path: the run manifest goes out before any result file, and all
result files are written atomically, so identical configs with scripted
backends reproduce outputs byte for byte. A command that fails writes no
manifest and no result file; only the ontology index cache is written
earlier, while the index is built.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

import click

from . import __version__
from .annotate import (
    BackendConfig,
    HttpNerBackend,
    MockNerBackend,
    annotate_batch,
    load_mock_lexicon,
    read_outcomes,
    submitted_text,
    write_outcomes,
)
from .config import RunConfig, RunManifest, atomic_write, derive_seed, load_config
from .corpus import (
    AnnotationSet,
    ConceptId,
    Corpus,
    import_doccano,
    json_field,
    jsonl_line,
    jsonl_lines,
    load_records,
    normalize_text,
    read_jsonl,
)
from .errors import BackendError, ValidationError
from .evaluate import (
    alignment_accuracy,
    alignment_confusions,
    alignment_stats,
    compute_metrics,
    hallucination_rate,
    match_concepts,
    match_mentions,
    mean_coherence,
    mean_rouge,
    read_verdicts,
    write_verdicts,
)
from .ontology import (
    INDEX_FILE,
    HashedBagOfWordsProvider,
    OntologyIndex,
    RemoteEmbeddingProvider,
    load_ontology,
)
from .orchestrate import (
    CotVariant,
    HttpLlmBackend,
    LlmParams,
    PromptSpec,
    ScriptedLlmBackend,
    Strategy,
    TemplateRegistry,
    build_raft_dataset,
    check_raft_inputs,
    check_run_settings,
    load_example_pool,
    raft_to_jsonl,
    run_strategy,
)
from .report import (
    CotRow,
    EmbeddingRow,
    FinetunedRow,
    FlagsRow,
    NerNenRow,
    RagFsiRow,
    ReportBundle,
    ZeroShotRow,
    render_report,
)

EXIT_VALIDATION = 1
EXIT_MISSING_INPUT = 2
EXIT_BACKEND = 3

# --strategy NAME -> (strategy, CoT variant): a Strategy's value, or
# "cot:" and a CotVariant's value.
_STRATEGY_NAMES = {
    **{s.value: (s, CotVariant.NONE) for s in Strategy if s is not Strategy.COT},
    **{f"cot:{v.value}": (Strategy.COT, v) for v in CotVariant},
}


_EXIT_CODES = (((FileNotFoundError, IsADirectoryError), EXIT_MISSING_INPUT),
               (BackendError, EXIT_BACKEND), ((ValidationError, ValueError), EXIT_VALIDATION))


def _configured(command: Callable[..., None]) -> Callable[..., None]:
    """The click callback, with a ``--config`` option, for
    ``command(cfg, **outputs)``; it goes right under ``main.command``.

    The callback loads ``--config`` with every flag laid over it: a
    parameter named ``<section>__<key>`` overrides that key, so the
    ``RunConfig`` the command gets, and the manifest it writes, hold what
    the command used. The other parameters (``--out``, ``--dump-prompts``)
    are passed on. An exception in ``_EXIT_CODES`` becomes its exit code
    and an ``error:`` line on stderr.
    """

    @functools.wraps(command)
    def callback(config_path: str, **params) -> None:
        flags = {tuple(name.split("__")): params.pop(name)
                 for name in [name for name in params if "__" in name]}
        try:
            command(load_config(config_path, flags), **params)
        except (FileNotFoundError, IsADirectoryError, BackendError, ValidationError,
                ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for kind, code in _EXIT_CODES if isinstance(exc, kind)))

    return click.option("--config", "-c", "config_path", required=True,
                        help="Run config INI file.")(callback)


def _path_flag(*decls: str, **attrs):
    """A flag naming an input file, relative to the working directory."""
    return click.option(*decls, **attrs, callback=lambda _c, _p, value: value and Path(value))


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Disease phenotyping pipeline: ingest, annotate, verify, evaluate."""


def _realpath(path: Path, parents: dict[str, str]) -> str:
    """``os.path.realpath(path)``, resolving each parent directory once per
    ``parents`` memo: only the last component is looked at on its own, and
    only a symlink, ".", ".." or "" there is resolved in full."""
    head, name = os.path.split(path)
    if name in ("", ".", ".."):
        return os.path.realpath(path)
    if head not in parents:
        parents[head] = os.path.realpath(head)
    joined = os.path.join(parents[head], name)
    return os.path.realpath(joined) if os.path.islink(joined) else joined


def _write_results(command: str, cfg: RunConfig, out_dir: Path,
                   files: list[tuple[Path, str]], index: OntologyIndex | None = None) -> None:
    """The one write path for manifests and result files, called once a
    command has computed every ``(path, text)`` in ``files``.

    Nothing is written if a result path, the manifest's included, resolves
    to one of ``cfg.inputs``, another result or one of the index cache's
    two files (ValidationError), or if UTF-8 cannot encode a text, as with
    a lone surrogate (UnicodeEncodeError). Then ``<command>_manifest.json``
    in ``out_dir`` first names every file in ``cfg.inputs`` and, with
    ``index``, the cache sidecar: an input when the matrix was read, an
    output when it was written. Then each text's UTF-8 bytes are written
    atomically, and the manifest is rewritten with the checksums of the
    bytes written.
    """
    manifest = RunManifest(command, cfg, out_dir)
    parents: dict[str, str] = {}
    taken = {_realpath(path, parents): "an input" for path in cfg.inputs}
    if index is not None:
        for path in (index.cache_sidecar, index.cache_sidecar.with_name(INDEX_FILE)):
            taken[_realpath(path, parents)] = "the ontology index cache"
    for path in [manifest.path, *(path for path, _ in files)]:
        resolved = _realpath(path, parents)
        if resolved in taken:
            raise ValidationError(f"result file {path} would overwrite {taken[resolved]}")
        taken[resolved] = "another result file"
    encoded = [(path, text.encode("utf-8")) for path, text in files]
    for path in cfg.inputs:
        manifest.add_input(path)
    if index is not None and index.cache_read:
        manifest.add_input(index.cache_sidecar)
    elif index is not None:
        manifest.add_output(index.cache_sidecar)
    manifest.write()
    for path, data in encoded:
        atomic_write(path, lambda handle: handle.write(data), "wb")
        manifest.add_output(path, data)
    manifest.write()


def _preprocessed_corpus(cfg: RunConfig) -> Corpus:
    """The [paths] corpus, preprocessed as the config sets; no command that
    reads it reads ``expects_disease``, so no keyword scan sets it."""
    corpus = load_records(cfg.require_path("paths", "corpus"))
    preprocess = cfg.preprocess()
    rewritten = []
    for record in corpus:
        rewritten.append(
            dataclasses.replace(
                record,
                question_text=normalize_text(record.question_text, preprocess),
                answer_text=normalize_text(record.answer_text, preprocess),
                preceding_questions=tuple(
                    normalize_text(q, preprocess) for q in record.preceding_questions
                ),
            )
        )
    return Corpus(rewritten)


def _record_to_json(record) -> str:
    obj = {
        "record_id": record.record_id,
        "question_text": record.question_text,
        "answer_text": record.answer_text,
        "field_type": record.field_type.value,
        "preceding_questions": list(record.preceding_questions),
        "expects_disease": record.expects_disease,
    }
    return jsonl_line(obj)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

@main.command()
@_configured
@_path_flag("--records", "paths__corpus", help="Override the record file path.")
def ingest(cfg: RunConfig) -> None:
    """Validate and persist the survey corpus; print record statistics."""
    corpus = load_records(cfg.require_path("paths", "corpus"), cfg.expects_keywords())
    text = "\n".join(_record_to_json(r) for r in corpus) + "\n"
    _write_results("ingest", cfg, cfg.output_dir, [(cfg.output_dir / "corpus.jsonl", text)])
    click.echo(f"{len(corpus)} records")
    by_type: dict[str, int] = {}
    for record in corpus:
        by_type[record.field_type.value] = by_type.get(record.field_type.value, 0) + 1
    for field_type in sorted(by_type):
        click.echo(f"  {field_type}: {by_type[field_type]}")
    expected = sum(r.expects_disease for r in corpus)
    click.echo(f"  expects_disease: {expected} true / {len(corpus) - expected} false")


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

@main.command()
@_configured
@_path_flag("--corpus", "paths__corpus", help="Override the corpus file path.")
@_path_flag("--mock-lexicon", "ner__mock_lexicon",
            help="Use the deterministic mock backend with this lexicon file.")
@click.option("--endpoint", "ner__endpoint", help="NER backend URL.")
@click.option("--out", help="Predictions output path.")
def annotate(cfg: RunConfig, out: str | None) -> None:
    """Run the NER/NEN backend over the corpus and persist predictions."""
    corpus = _preprocessed_corpus(cfg)
    mock_path = cfg.input_path("ner", "mock_lexicon")
    endpoint = cfg.get("ner", "endpoint")
    if mock_path is not None:
        backend = MockNerBackend(load_mock_lexicon(mock_path))
    elif endpoint:
        backend = HttpNerBackend(endpoint, **cfg.settings("ner", timeout_ms=int))
    else:
        raise ValidationError("no NER backend: set [ner] endpoint or --mock-lexicon")
    backend_config = BackendConfig(
        **cfg.settings("ner", batch_size=int, max_inflight=int, retry_budget=int)
    )
    outcomes = annotate_batch(corpus.records, backend, backend_config)
    out_dir = cfg.output_dir
    predictions_path = Path(out) if out else out_dir / "predictions.jsonl"
    _write_results("annotate", cfg, out_dir,
                   [(predictions_path, "\n".join(write_outcomes(outcomes)) + "\n")])
    failures = sum(1 for o in outcomes if o.status == "failed")
    click.echo(f"{len(outcomes)} records annotated, {failures} failed")
    if outcomes and failures == len(outcomes):
        click.echo("error: backend failed for every record", err=True)
        sys.exit(EXIT_BACKEND)


# ---------------------------------------------------------------------------
# run (LLM verification strategies)
# ---------------------------------------------------------------------------

def _parse_flags(flags: str | None) -> tuple[bool, bool]:
    use_rag, use_fsi = True, True
    if flags:
        for part in flags.split(","):
            key, _, value = part.strip().partition("=")
            if key not in ("rag", "fsi") or value not in ("on", "off"):
                raise ValidationError(
                    f"bad --flags entry {part!r}: expected rag=on|off,fsi=on|off"
                )
            if key == "rag":
                use_rag = value == "on"
            else:
                use_fsi = value == "on"
    return use_rag, use_fsi


def _build_spec(cfg: RunConfig) -> PromptSpec:
    name = cfg.get("strategy", "name")
    if name is None or name not in _STRATEGY_NAMES:
        valid = ", ".join(sorted(_STRATEGY_NAMES))
        raise ValidationError(f"unknown strategy {name!r}; valid names: {valid}")
    strategy, cot_variant = _STRATEGY_NAMES[name]
    use_rag, use_fsi = True, True
    if strategy is Strategy.RAG_FSI_FLAGS:
        use_rag, use_fsi = _parse_flags(cfg.get("strategy", "flags"))
    return PromptSpec(strategy, cot_variant=cot_variant, use_rag=use_rag, use_fsi=use_fsi,
                      **cfg.settings("strategy", k=int, retrieval_k=int))


def _embedding_provider(endpoint: str | None = None, label: str | None = None,
                        dimension: int | None = None, **remote: int):
    """HashedBagOfWordsProvider, or RemoteEmbeddingProvider for ``endpoint``
    with its keyword settings ``remote``. An unset label or dimension takes
    the hashed provider's default, for the remote provider too."""
    shape = {"name": label, "dimension": dimension}
    hashed = HashedBagOfWordsProvider(**{k: v for k, v in shape.items() if v is not None})
    if not endpoint:
        return hashed
    return RemoteEmbeddingProvider(hashed.name, endpoint, hashed.dimension, **remote)


def _configured_embedding_provider(cfg: RunConfig):
    return _embedding_provider(**cfg.settings(
        "embedding", endpoint=str, label=str, dimension=int, timeout_ms=int
    ))


def _llm_backend(cfg: RunConfig):
    """The LLM backend the config names: [llm] scripted over an endpoint."""
    scripted = cfg.input_path("llm", "scripted")
    if scripted is not None:
        return ScriptedLlmBackend.from_file(scripted)
    endpoint = cfg.get("llm", "endpoint")
    if endpoint:
        return HttpLlmBackend(endpoint, **cfg.settings("llm", timeout_ms=int))
    raise ValidationError("no LLM backend: set [llm] endpoint or [llm] scripted")


def _templates(cfg: RunConfig) -> TemplateRegistry | None:
    """The [paths] templates directory's registry, or None for the built-in
    wording; each template file counts as an input."""
    directory = cfg.input_path("paths", "templates")
    if directory is None:
        return None
    templates = TemplateRegistry(directory)
    cfg.inputs += templates.paths
    return templates


@main.command()
@_configured
@click.option("--strategy", "strategy__name",
              help="zero-shot-cvc|zero-shot-cvm|few-shot|cot:VARIANT|rag-fsi|rag-fsi-flags")
@click.option("--k", "strategy__k", type=int, help="Few-shot count (0/1/2/3/5).")
@click.option("--retrieval-k", "strategy__retrieval_k", type=int)
@click.option("--flags", "strategy__flags", help="rag=on|off,fsi=on|off")
@click.option("--seed", "run__seed", type=int)
@_path_flag("--predictions", "eval__predictions")
@_path_flag("--scripted-llm", "llm__scripted")
@click.option("--dump-prompts", help="Also write every rendered prompt to this file.")
@click.option("--out", help="Verdicts output path.")
def run(cfg: RunConfig, dump_prompts: str | None, out: str | None) -> None:
    """Judge backend annotations with an LLM strategy; persist verdicts."""
    spec = _build_spec(cfg)
    corpus = _preprocessed_corpus(cfg)
    outcomes = read_outcomes(jsonl_lines(cfg.require_path("eval", "predictions")),
                             {r.record_id: submitted_text(r)[0] for r in corpus})
    store = load_ontology(cfg.require_path("paths", "ontology"))
    llm = _llm_backend(cfg)
    example_pool = []
    if spec.fsi_enabled:
        example_pool = load_example_pool(cfg.require_path("paths", "example_pool"))
    templates = _templates(cfg)
    annotations = [ann for o in outcomes if o.status == "ok" for ann in o.annotations]
    params = LlmParams(**cfg.settings("llm", max_tokens=int, temperature=float))
    window = cfg.settings("llm", max_inflight=int, retry_budget=int)
    check_run_settings(spec, example_pool, **window)
    out_dir = cfg.output_dir
    index = (
        OntologyIndex(store, _configured_embedding_provider(cfg), cache_dir=out_dir)
        if spec.rag_enabled else None
    )
    dumped: list[str] = []
    sink = None
    if dump_prompts:
        def sink(annotation, prompt):  # noqa: E306
            dumped.append(jsonl_line({
                "record_id": annotation.record_id,
                "span": [annotation.span.begin, annotation.span.end],
                "prompt": prompt,
            }))
    results = run_strategy(
        corpus, annotations, spec, llm, store,
        seed=derive_seed(cfg.seed, "run"),
        example_pool=example_pool,
        index=index,
        templates=templates,
        params=params,
        prompt_sink=sink,
        **window,
    )
    verdicts_path = Path(out) if out else out_dir / "verdicts.jsonl"
    files = [(verdicts_path, "\n".join(write_verdicts(results)) + "\n")]
    if dump_prompts:
        files.append((Path(dump_prompts), "\n".join(dumped) + "\n"))
    _write_results("run", cfg, out_dir, files, index)
    kinds: dict[str, int] = {}
    for _, verdict in results:
        kinds[verdict.kind.value] = kinds.get(verdict.kind.value, 0) + 1
    rate = hallucination_rate([v for _, v in results])
    click.echo(f"{len(results)} verdicts: " + ", ".join(
        f"{kind}={count}" for kind, count in sorted(kinds.items())
    ))
    click.echo(f"hallucination rate: {'NR' if rate is None else f'{rate:.3f}'}")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_summaries(path: Path) -> list[tuple[str, str]]:
    def pair(_lineno: int, obj) -> tuple[str, str]:
        return json_field(obj, "candidate", str), json_field(obj, "reference", str)

    return read_jsonl(jsonl_lines(path), "summary pair", pair)


def _accuracies(scored) -> tuple[float | None, float | None]:
    report = alignment_accuracy(*scored)
    return report.bern2_alignment_accuracy, report.gt_alignment_accuracy


def _cot_row(entry: dict, scored, *_) -> CotRow:
    metrics = compute_metrics(alignment_confusions(*scored)[0])
    return CotRow(entry.get("model", ""), entry.get("prompt", ""), metrics.recall, metrics.fnr)


def _embedding_row(entry: dict, _scored, pairs, remote: dict) -> EmbeddingRow:
    provider = _embedding_provider(entry.get("endpoint"), entry.get("embedding"),
                                   entry.get("dimension"), **remote)
    return EmbeddingRow(provider.name, mean_rouge(pairs, 1), mean_coherence(pairs, provider))


# Each report-plan section, in table order: the keys its entries may carry,
# files first, and its row builder. The builder gets the entry, the scored
# verdicts as ``(verdicts, annotations, gold)`` and the summary pairs, each
# None where the section has no such file, and the [embedding] settings.
# A file key names a path relative to the plan, "dimension" is a positive
# integer and every other key is a string label.
_PLAN_FILES = ("verdicts", "summaries")
_PLAN_SECTIONS = {
    "zero_shot": (("verdicts", "group", "model"), lambda entry, scored, *_: ZeroShotRow(
        entry.get("group", ""), entry.get("model", ""),
        alignment_accuracy(*scored).bern2_alignment_accuracy, hallucination_rate(scored[0]))),
    "finetuned": (("verdicts", "group", "model"), lambda entry, scored, *_: FinetunedRow(
        entry.get("group", ""), entry.get("model", ""), *alignment_stats(*scored))),
    "rag_fsi": (("verdicts", "summaries", "model"), lambda entry, scored, pairs, _: RagFsiRow(
        entry.get("model", ""), mean_rouge(pairs, 1),
        mean_coherence(pairs, HashedBagOfWordsProvider()), *_accuracies(scored))),
    "flags": (("verdicts", "model"), lambda entry, scored, *_: FlagsRow(
        entry.get("model", ""), *_accuracies(scored))),
    "cot": (("verdicts", "model", "prompt"), _cot_row),
    "embeddings": (("summaries", "embedding", "endpoint", "dimension"), _embedding_row),
}


def _check_plan_entry(section: str, entry: dict, remote: dict) -> None:
    """Check one plan entry's keys, and build an ``endpoint`` entry's
    provider, which checks the URL and ``remote``'s timeout and sends
    nothing; so a bad entry stops the plan before any request is sent."""
    where = f"bad report plan: {section!r} entry {json.dumps(entry)}"
    allowed = _PLAN_SECTIONS[section][0]
    for key, value in entry.items():
        if key not in allowed:
            raise ValidationError(
                f"{where}: unknown key {key!r}; allowed keys: {', '.join(allowed)}"
            )
        if key not in (*_PLAN_FILES, "dimension") and not isinstance(value, str):
            raise ValidationError(f"{where}: {key!r} must be a string")
    for key in allowed:
        if key in _PLAN_FILES and not isinstance(entry.get(key), str):
            raise ValidationError(
                f"bad report plan: entry {json.dumps(entry)} needs a {key!r} path"
            )
    dimension = entry.get("dimension", 1)
    if type(dimension) is not int or dimension < 1:
        raise ValidationError(f"{where}: 'dimension' must be an integer >= 1")
    if entry.get("endpoint"):
        _embedding_provider(entry["endpoint"], **remote)


def _bundle_from_plan(plan_path: Path, gold_set: AnnotationSet, gold_texts,
                      cfg: RunConfig) -> ReportBundle:
    """Build tables 2-7 from a JSON plan of labeled verdict/summary files,
    adding each file the plan names to ``cfg.inputs``. Remote
    ``embeddings`` entries take the config's [embedding] timeout_ms."""
    try:
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad report plan: {exc}") from exc
    if not isinstance(plan, dict):
        raise ValidationError("bad report plan: top level must be an object")
    remote = cfg.settings("embedding", timeout_ms=int)
    for section, entries in plan.items():
        if section not in _PLAN_SECTIONS:
            raise ValidationError(
                f"bad report plan: unknown section {section!r}; "
                f"known sections: {', '.join(_PLAN_SECTIONS)}"
            )
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValidationError(f"bad report plan: {section!r} must be a list of objects")
        for entry in entries:
            _check_plan_entry(section, entry, remote)
    # Every file is read before any row is built, so a missing or bad file
    # stops the plan before an earlier entry sends an embedding request.
    read = []
    for section, (keys, row) in _PLAN_SECTIONS.items():
        for entry in plan.get(section, []):
            files = {key: plan_path.parent / entry[key] for key in keys if key in _PLAN_FILES}
            for path in files.values():
                if not path.exists():
                    raise FileNotFoundError(f"report plan references missing file {path}")
                if path.is_dir():
                    raise IsADirectoryError(f"report plan references {path}, a directory")
                cfg.inputs.append(path)
            scored = ((*read_verdicts(jsonl_lines(files["verdicts"]), gold_texts), gold_set)
                      if "verdicts" in files else None)
            pairs = _load_summaries(files["summaries"]) if "summaries" in files else None
            read.append((section, row, entry, scored, pairs))
    bundle = ReportBundle()
    for section, row, entry, scored, pairs in read:
        getattr(bundle, section).append(row(entry, scored, pairs, remote))
    return bundle


def _optional_input(cfg: RunConfig, section: str, key: str) -> Path | None:
    """[eval] verdicts or report_plan: a configured file that does not exist
    is skipped, so that part of the report is left out."""
    path = cfg.path(section, key)
    return cfg.input_path(section, key) if path is not None and path.exists() else None


@main.command("eval")
@_configured
@_path_flag("--predictions", "eval__predictions")
@_path_flag("--gold", "paths__gold")
@_path_flag("--verdicts", "eval__verdicts")
@_path_flag("--report-plan", "eval__report_plan")
@click.option("--out", help="Report output directory.")
def eval_cmd(cfg: RunConfig, out: str | None) -> None:
    """Score predictions (and optional verdicts) against ground truth."""
    predictions_path = cfg.require_path("eval", "predictions")
    gold_set, gold_texts = import_doccano(jsonl_lines(cfg.require_path("paths", "gold")))
    outcomes = read_outcomes(jsonl_lines(predictions_path), gold_texts)
    predicted = AnnotationSet(
        ann for o in outcomes if o.status == "ok" for ann in o.annotations
    )
    pairs, counts = match_mentions(predicted, gold_set, sorted(gold_texts))
    metrics = compute_metrics(counts)
    concept_accuracy = match_concepts(pairs)
    out_dir = Path(out) if out else cfg.output_dir
    bundle = ReportBundle(
        ner_nen=[NerNenRow("BERN2", metrics, concept_accuracy.accuracy, counts=counts)]
    )
    verdicts_path = _optional_input(cfg, "eval", "verdicts")
    if verdicts_path is not None:
        verdicts, annotations = read_verdicts(jsonl_lines(verdicts_path), gold_texts, predicted)
        if verdicts:
            report = alignment_accuracy(verdicts, annotations, gold_set)
            rate = hallucination_rate(verdicts)
            click.echo(
                f"verdicts: BERN2 alignment {report.bern2_alignment_accuracy:.3f}, "
                f"GT alignment {report.gt_alignment_accuracy:.3f}, "
                f"hallucination rate {'NR' if rate is None else f'{rate:.3f}'}"
            )
    plan_path = _optional_input(cfg, "eval", "report_plan")
    if plan_path is not None:
        planned = _bundle_from_plan(plan_path, gold_set, gold_texts, cfg)
        planned.ner_nen = bundle.ner_nen
        bundle = planned
    _write_results("eval", cfg, out_dir, list(render_report(bundle, out_dir).items()))

    def fmt(value):
        return "NR" if value is None else f"{value:.3f}"

    click.echo(
        f"mentions: tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn}"
    )
    click.echo(
        f"precision {fmt(metrics.precision)} recall {fmt(metrics.recall)} "
        f"F1 {fmt(metrics.f1)} accuracy {fmt(metrics.accuracy)}"
    )
    click.echo(f"concept accuracy (NEN): {fmt(concept_accuracy.accuracy)}")
    click.echo(f"report: {out_dir / 'report.md'}")


# ---------------------------------------------------------------------------
# raft
# ---------------------------------------------------------------------------

@main.command()
@_configured
@_path_flag("--questions", "raft__questions")
@click.option("--n-distractors", "raft__n_distractors", type=int)
@click.option("--out")
def raft(cfg: RunConfig, out: str | None) -> None:
    """Build a RAFT fine-tuning dataset from question/concept pairs."""
    n_distractors = cfg.settings("raft", n_distractors=int).get("n_distractors", 3)
    store = load_ontology(cfg.require_path("paths", "ontology"))

    def question(_lineno: int, obj) -> tuple[str, ConceptId]:
        text = obj["question"]
        if not isinstance(text, str) or not text.strip():
            raise ValidationError(f"question must be a non-blank string, got {text!r}")
        return text, ConceptId.parse(obj["concept_id"])

    questions = read_jsonl(
        jsonl_lines(cfg.require_path("raft", "questions")), "question record", question
    )
    templates = _templates(cfg)
    check_raft_inputs(store, questions, n_distractors)
    out_dir = cfg.output_dir
    index = OntologyIndex(store, _configured_embedding_provider(cfg), cache_dir=out_dir)
    datapoints = build_raft_dataset(store, questions, n_distractors, index, templates)
    raft_path = Path(out) if out else out_dir / "raft.jsonl"
    _write_results("raft", cfg, out_dir,
                   [(raft_path, "\n".join(raft_to_jsonl(datapoints)) + "\n")], index)
    click.echo(f"{len(datapoints)} RAFT datapoints with {n_distractors} distractors each")


if __name__ == "__main__":
    main()
