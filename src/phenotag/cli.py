"""Command-line entry point wiring the pipeline into reproducible runs.

Exit codes are a stable contract: 0 success, 1 validation or usage
problem, 2 missing input, 3 backend failure. Every command reads and
validates its inputs first, then writes through ``_manifested``, the one
write path: the run manifest goes out before any result file, and all
result files are written atomically, so identical configs with scripted
backends reproduce outputs byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

import click

from . import __version__
from .annotate import (
    BackendConfig,
    HttpNerBackend,
    MockNerBackend,
    annotate_batch,
    read_outcomes,
    submitted_text,
    write_outcomes,
)
from .config import RunConfig, RunManifest, atomic_write_text, derive_seed, load_config
from .corpus import (
    AnnotationSet,
    ConceptId,
    Corpus,
    import_doccano,
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

_STRATEGY_NAMES = {
    "zero-shot-cvc": (Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT, CotVariant.NONE),
    "zero-shot-cvm": (Strategy.ZERO_SHOT_CONCEPT_VS_MENTION, CotVariant.NONE),
    "few-shot": (Strategy.FEW_SHOT, CotVariant.NONE),
    "cot:none": (Strategy.COT, CotVariant.NONE),
    "cot:simple": (Strategy.COT, CotVariant.SIMPLE),
    "cot:strong": (Strategy.COT, CotVariant.STRONG),
    "cot:hybrid": (Strategy.COT, CotVariant.HYBRID),
    "rag-fsi": (Strategy.RAG_FSI, CotVariant.NONE),
    "rag-fsi-flags": (Strategy.RAG_FSI_FLAGS, CotVariant.NONE),
}


def _execute(body: Callable[[], None]) -> None:
    try:
        body()
    except FileNotFoundError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_MISSING_INPUT)
    except BackendError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BACKEND)
    except (ValidationError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Disease phenotyping pipeline: ingest, annotate, verify, evaluate."""


@contextmanager
def _manifested(command: str, cfg: RunConfig, out_dir: Path, inputs: Sequence[Path],
                index: OntologyIndex | None = None) -> Iterator[dict[Path, str | None]]:
    """The one write path for manifests and result files.

    On entry, ``<command>_manifest.json`` in ``out_dir`` names ``inputs``
    and, with ``index``, the cache sidecar: an input when the matrix was
    read, an output when it was written. The body fills the yielded
    ``{path: text}`` dict; None marks a file the body already wrote. On a
    clean exit each text is written atomically and the manifest is
    rewritten with the output checksums. If the body raises, the first
    manifest stays and no result file is written.
    """
    manifest = RunManifest(command, cfg, out_dir)
    for path in inputs:
        manifest.add_input(path)
    if index is not None and index.cache_read:
        manifest.add_input(index.cache_sidecar)
    elif index is not None:
        manifest.add_output(index.cache_sidecar)
    manifest.write()
    files: dict[Path, str | None] = {}
    yield files
    for path, text in files.items():
        if text is not None:
            atomic_write_text(path, text)
        manifest.add_output(path)
    manifest.write()


def _resolve(path_option: str | None, cfg: RunConfig, section: str, key: str) -> Path:
    if path_option is not None:
        path = Path(path_option)
        if not path.exists():
            raise FileNotFoundError(f"no such file: {path}")
        return path
    return cfg.require_path(section, key)


def _optional_input(path_option: str | None, cfg: RunConfig, section: str,
                    key: str) -> Path | None:
    """An input a command can do without: an explicit path must exist (exit
    2), while a config default that is unset or missing is skipped."""
    if path_option:
        return _resolve(path_option, cfg, section, key)
    path = cfg.path(section, key)
    return path if path is not None and path.exists() else None


def _preprocessed_corpus(corpus_path: Path, cfg: RunConfig) -> tuple[Corpus, list[Path]]:
    """The corpus preprocessed as the config sets, and every file read."""
    corpus = load_records(corpus_path, cfg.expects_keywords())
    preprocess, read = cfg.preprocess()
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
    return Corpus(rewritten), [corpus_path, *read]


def _record_to_json(record) -> str:
    obj = {
        "record_id": record.record_id,
        "question_text": record.question_text,
        "answer_text": record.answer_text,
        "field_type": record.field_type.value,
        "preceding_questions": list(record.preceding_questions),
        "expects_disease": record.expects_disease,
    }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

@main.command()
@click.option("--config", "-c", "config_path", required=True, help="Run config INI file.")
@click.option("--records", "records_option", default=None, help="Override the record file path.")
def ingest(config_path: str, records_option: str | None) -> None:
    """Validate and persist the survey corpus; print record statistics."""

    def body() -> None:
        cfg = load_config(config_path)
        records_path = _resolve(records_option, cfg, "paths", "corpus")
        corpus = load_records(records_path, cfg.expects_keywords())
        with _manifested("ingest", cfg, cfg.output_dir, [records_path]) as files:
            files[cfg.output_dir / "corpus.jsonl"] = (
                "\n".join(_record_to_json(r) for r in corpus) + "\n"
            )
        click.echo(f"{len(corpus)} records")
        by_type: dict[str, int] = {}
        for record in corpus:
            by_type[record.field_type.value] = by_type.get(record.field_type.value, 0) + 1
        for field_type in sorted(by_type):
            click.echo(f"  {field_type}: {by_type[field_type]}")
        expected = sum(r.expects_disease for r in corpus)
        click.echo(f"  expects_disease: {expected} true / {len(corpus) - expected} false")

    _execute(body)


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def _load_mock_lexicon(path: Path) -> dict[str, ConceptId]:
    lexicon: dict[str, ConceptId] = {}

    def add(_lineno: int, obj) -> None:
        term = obj["term"]
        if not isinstance(term, str):
            raise ValidationError(f"term must be a string, got {term!r}")
        if term in lexicon:
            raise ValidationError(f"duplicate term {term!r}")
        lexicon[term] = ConceptId.parse(obj["concept_id"])

    read_jsonl(jsonl_lines(path), "lexicon entry", add)
    return lexicon


@main.command()
@click.option("--config", "-c", "config_path", required=True)
@click.option("--corpus", "corpus_option", default=None, help="Override the corpus file path.")
@click.option("--mock-lexicon", "mock_option", default=None,
              help="Use the deterministic mock backend with this lexicon file.")
@click.option("--endpoint", "endpoint_option", default=None, help="NER backend URL.")
@click.option("--out", "out_option", default=None, help="Predictions output path.")
def annotate(config_path: str, corpus_option: str | None, mock_option: str | None,
             endpoint_option: str | None, out_option: str | None) -> None:
    """Run the NER/NEN backend over the corpus and persist predictions."""

    def body() -> None:
        cfg = load_config(config_path)
        corpus_path = _resolve(corpus_option, cfg, "paths", "corpus")
        corpus, inputs = _preprocessed_corpus(corpus_path, cfg)
        mock_path = (_resolve(mock_option, cfg, "ner", "mock_lexicon") if mock_option
                     else cfg.input_path("ner", "mock_lexicon"))
        endpoint = endpoint_option or cfg.get("ner", "endpoint")
        if mock_path is not None:
            backend = MockNerBackend(_load_mock_lexicon(mock_path))
            inputs.append(mock_path)
        elif endpoint:
            backend = HttpNerBackend(endpoint, **cfg.settings("ner", timeout_ms=int))
        else:
            raise ValidationError("no NER backend: set [ner] endpoint or --mock-lexicon")
        backend_config = BackendConfig(
            **cfg.settings("ner", batch_size=int, max_inflight=int, retry_budget=int)
        )
        out_dir = cfg.output_dir
        predictions_path = Path(out_option) if out_option else out_dir / "predictions.jsonl"
        with _manifested("annotate", cfg, out_dir, inputs) as files:
            outcomes = annotate_batch(corpus.records, backend, backend_config)
            files[predictions_path] = "\n".join(write_outcomes(outcomes)) + "\n"
        failures = sum(1 for o in outcomes if o.status == "failed")
        click.echo(f"{len(outcomes)} records annotated, {failures} failed")
        if outcomes and failures == len(outcomes):
            click.echo("error: backend failed for every record", err=True)
            sys.exit(EXIT_BACKEND)

    _execute(body)


# ---------------------------------------------------------------------------
# run (LLM verification strategies)
# ---------------------------------------------------------------------------

def _parse_flags(flags_option: str | None) -> tuple[bool, bool]:
    use_rag, use_fsi = True, True
    if flags_option:
        for part in flags_option.split(","):
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


def _build_spec(cfg: RunConfig, strategy_option: str | None, k_option: int | None,
                retrieval_option: int | None, flags_option: str | None) -> PromptSpec:
    name = strategy_option or cfg.get("strategy", "name")
    if name is None or name not in _STRATEGY_NAMES:
        valid = ", ".join(sorted(_STRATEGY_NAMES))
        raise ValidationError(f"unknown strategy {name!r}; valid names: {valid}")
    strategy, cot_variant = _STRATEGY_NAMES[name]
    shape = cfg.settings("strategy", k=int, retrieval_k=int)
    for key, option in (("k", k_option), ("retrieval_k", retrieval_option)):
        if option is not None:
            shape[key] = option
    use_rag, use_fsi = True, True
    if strategy is Strategy.RAG_FSI_FLAGS:
        use_rag, use_fsi = _parse_flags(flags_option or cfg.get("strategy", "flags"))
    return PromptSpec(strategy, cot_variant=cot_variant, use_rag=use_rag, use_fsi=use_fsi,
                      **shape)


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


def _llm_backend(cfg: RunConfig, scripted_option: str | None):
    """The LLM backend the config or flag names, and the files it read."""
    scripted = (_resolve(scripted_option, cfg, "llm", "scripted") if scripted_option
                else cfg.input_path("llm", "scripted"))
    if scripted is not None:
        return ScriptedLlmBackend.from_file(scripted), [scripted]
    endpoint = cfg.get("llm", "endpoint")
    if endpoint:
        return HttpLlmBackend(endpoint, **cfg.settings("llm", timeout_ms=int)), []
    raise ValidationError("no LLM backend: set [llm] endpoint or [llm] scripted")


@main.command()
@click.option("--config", "-c", "config_path", required=True)
@click.option("--strategy", "strategy_option", default=None,
              help="zero-shot-cvc|zero-shot-cvm|few-shot|cot:VARIANT|rag-fsi|rag-fsi-flags")
@click.option("--k", "k_option", type=int, default=None, help="Few-shot count (0/1/2/3/5).")
@click.option("--retrieval-k", "retrieval_option", type=int, default=None)
@click.option("--flags", "flags_option", default=None, help="rag=on|off,fsi=on|off")
@click.option("--seed", "seed_option", type=int, default=None)
@click.option("--predictions", "predictions_option", default=None)
@click.option("--scripted-llm", "scripted_option", default=None)
@click.option("--dump-prompts", "dump_option", default=None,
              help="Also write every rendered prompt to this file.")
@click.option("--out", "out_option", default=None, help="Verdicts output path.")
def run(config_path: str, strategy_option: str | None, k_option: int | None,
        retrieval_option: int | None, flags_option: str | None, seed_option: int | None,
        predictions_option: str | None, scripted_option: str | None,
        dump_option: str | None, out_option: str | None) -> None:
    """Judge backend annotations with an LLM strategy; persist verdicts."""

    def body() -> None:
        cfg = load_config(config_path)
        spec = _build_spec(cfg, strategy_option, k_option, retrieval_option, flags_option)
        corpus, inputs = _preprocessed_corpus(cfg.require_path("paths", "corpus"), cfg)
        predictions_path = _resolve(predictions_option, cfg, "eval", "predictions")
        outcomes = read_outcomes(jsonl_lines(predictions_path))
        ontology_path = cfg.require_path("paths", "ontology")
        store = load_ontology(ontology_path)
        llm, llm_inputs = _llm_backend(cfg, scripted_option)
        inputs += [predictions_path, ontology_path, *llm_inputs]
        example_pool = []
        if spec.fsi_enabled:
            pool_path = cfg.require_path("paths", "example_pool")
            example_pool = load_example_pool(pool_path)
            inputs.append(pool_path)
        templates = None
        templates_dir = cfg.input_path("paths", "templates")
        if templates_dir is not None:
            templates = TemplateRegistry(templates_dir)
            inputs += templates.paths
        seed = derive_seed(seed_option if seed_option is not None else cfg.seed, "run")
        ok = [outcome for outcome in outcomes if outcome.status == "ok"]
        annotations = [ann for outcome in ok for ann in outcome.annotations]
        orphans = sorted({o.record_id for o in ok if o.record_id not in corpus})
        if orphans:
            raise ValidationError(f"predictions reference records missing from corpus: {orphans}")
        for outcome in ok:
            if outcome.text != submitted_text(corpus.get(outcome.record_id))[0]:
                raise ValidationError(
                    f"record {outcome.record_id!r}: prediction text differs from the "
                    "preprocessed corpus text"
                )
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
        if dump_option:
            def sink(annotation, prompt):  # noqa: E306
                dumped.append(json.dumps(
                    {
                        "record_id": annotation.record_id,
                        "span": [annotation.span.begin, annotation.span.end],
                        "prompt": prompt,
                    },
                    ensure_ascii=False, sort_keys=True, separators=(",", ":"),
                ))
        verdicts_path = Path(out_option) if out_option else out_dir / "verdicts.jsonl"
        with _manifested("run", cfg, out_dir, inputs, index) as files:
            results = run_strategy(
                corpus, annotations, spec, llm, store,
                seed=seed,
                example_pool=example_pool,
                index=index,
                templates=templates,
                params=params,
                prompt_sink=sink,
                **window,
            )
            files[verdicts_path] = "\n".join(write_verdicts(results)) + "\n"
            if dump_option:
                files[Path(dump_option)] = "\n".join(dumped) + "\n"
        kinds: dict[str, int] = {}
        for _, verdict in results:
            kinds[verdict.kind.value] = kinds.get(verdict.kind.value, 0) + 1
        rate = hallucination_rate([v for _, v in results])
        click.echo(f"{len(results)} verdicts: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(kinds.items())
        ))
        click.echo(f"hallucination rate: {'NR' if rate is None else f'{rate:.3f}'}")

    _execute(body)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_summaries(path: Path) -> list[tuple[str, str]]:
    return read_jsonl(
        jsonl_lines(path),
        "summary pair",
        lambda _, obj: (obj["candidate"], obj["reference"]),
    )


def _read_verdict_file(path: Path, texts):
    return read_verdicts(jsonl_lines(path), texts)


# The keys each report-plan section's entries may carry. "verdicts" and
# "summaries" are paths, "dimension" is a positive integer and every other
# key is a string label.
_PLAN_SECTIONS = {
    "zero_shot": ("verdicts", "group", "model"),
    "finetuned": ("verdicts", "group", "model"),
    "rag_fsi": ("verdicts", "summaries", "model"),
    "flags": ("verdicts", "model"),
    "cot": ("verdicts", "model", "prompt"),
    "embeddings": ("summaries", "embedding", "endpoint", "dimension"),
}
_PLAN_LABELS = ("group", "model", "prompt", "embedding", "endpoint")


def _check_plan_entry(section: str, entry: dict) -> None:
    where = f"bad report plan: {section!r} entry {json.dumps(entry)}"
    allowed = _PLAN_SECTIONS[section]
    for key, value in entry.items():
        if key not in allowed:
            raise ValidationError(
                f"{where}: unknown key {key!r}; allowed keys: {', '.join(allowed)}"
            )
        if key in _PLAN_LABELS and not isinstance(value, str):
            raise ValidationError(f"{where}: {key!r} must be a string")
    if "dimension" in entry:
        try:
            dimension = int(entry["dimension"])
        except (TypeError, ValueError, OverflowError):
            dimension = 0
        if dimension < 1:
            raise ValidationError(f"{where}: 'dimension' must be an integer >= 1")


def _bundle_from_plan(
    plan_path: Path, gold_set: AnnotationSet, gold_texts, embedding_remote: dict
) -> tuple[ReportBundle, list[Path]]:
    """Build tables 2-7 from a JSON plan of labeled verdict/summary files;
    also return every file the plan named. Remote ``embeddings`` entries
    take the keyword settings ``embedding_remote``."""
    try:
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad report plan: {exc}") from exc
    if not isinstance(plan, dict):
        raise ValidationError("bad report plan: top level must be an object")
    for section, entries in plan.items():
        if section not in _PLAN_SECTIONS:
            raise ValidationError(
                f"bad report plan: unknown section {section!r}; "
                f"known sections: {', '.join(_PLAN_SECTIONS)}"
            )
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValidationError(f"bad report plan: {section!r} must be a list of objects")
        for entry in entries:
            _check_plan_entry(section, entry)
    base = plan_path.parent
    bundle = ReportBundle()
    read: list[Path] = []

    def _path(entry: dict, key: str) -> Path:
        if not isinstance(entry.get(key), str):
            raise ValidationError(
                f"bad report plan: entry {json.dumps(entry)} needs a {key!r} path"
            )
        resolved = base / entry[key]
        if not resolved.exists():
            raise FileNotFoundError(f"report plan references missing file {resolved}")
        read.append(resolved)
        return resolved

    for entry in plan.get("zero_shot", []):
        verdicts, annotations = _read_verdict_file(_path(entry, "verdicts"), gold_texts)
        report = alignment_accuracy(verdicts, annotations, gold_set)
        bundle.zero_shot.append(ZeroShotRow(
            prompt_group=entry.get("group", ""),
            model=entry.get("model", ""),
            correct_rate=report.bern2_alignment_accuracy,
            hallucination_rate=hallucination_rate(verdicts),
        ))
    for entry in plan.get("finetuned", []):
        verdicts, annotations = _read_verdict_file(_path(entry, "verdicts"), gold_texts)
        bern2, gt = alignment_stats(verdicts, annotations, gold_set)
        bundle.finetuned.append(FinetunedRow(
            group=entry.get("group", ""), model=entry.get("model", ""), bern2=bern2, gt=gt,
        ))
    for entry in plan.get("rag_fsi", []):
        verdicts, annotations = _read_verdict_file(_path(entry, "verdicts"), gold_texts)
        report = alignment_accuracy(verdicts, annotations, gold_set)
        pairs = _load_summaries(_path(entry, "summaries"))
        bundle.rag_fsi.append(RagFsiRow(
            model=entry.get("model", ""),
            rouge1=mean_rouge(pairs, 1),
            coherence=mean_coherence(pairs, HashedBagOfWordsProvider()),
            bern2_alignment=report.bern2_alignment_accuracy,
            gt_alignment=report.gt_alignment_accuracy,
        ))
    for entry in plan.get("flags", []):
        verdicts, annotations = _read_verdict_file(_path(entry, "verdicts"), gold_texts)
        report = alignment_accuracy(verdicts, annotations, gold_set)
        bundle.flags.append(FlagsRow(
            model=entry.get("model", ""),
            bern2_alignment=report.bern2_alignment_accuracy,
            gt_alignment=report.gt_alignment_accuracy,
        ))
    for entry in plan.get("cot", []):
        verdicts, annotations = _read_verdict_file(_path(entry, "verdicts"), gold_texts)
        bern2_counts, _ = alignment_confusions(verdicts, annotations, gold_set)
        metrics = compute_metrics(bern2_counts)
        bundle.cot.append(CotRow(
            model=entry.get("model", ""),
            prompt=entry.get("prompt", ""),
            tpr=metrics.recall,
            fnr=metrics.fnr,
        ))
    for entry in plan.get("embeddings", []):
        dimension = int(entry["dimension"]) if "dimension" in entry else None
        provider = _embedding_provider(entry.get("endpoint"), entry.get("embedding"), dimension,
                                       **embedding_remote)
        pairs = _load_summaries(_path(entry, "summaries"))
        bundle.embeddings.append(EmbeddingRow(
            embedding=provider.name,
            rouge1=mean_rouge(pairs, 1),
            coherence=mean_coherence(pairs, provider),
        ))
    return bundle, read


@main.command("eval")
@click.option("--config", "-c", "config_path", required=True)
@click.option("--predictions", "predictions_option", default=None)
@click.option("--gold", "gold_option", default=None)
@click.option("--verdicts", "verdicts_option", default=None)
@click.option("--report-plan", "plan_option", default=None)
@click.option("--out", "out_option", default=None, help="Report output directory.")
def eval_cmd(config_path: str, predictions_option: str | None, gold_option: str | None,
             verdicts_option: str | None, plan_option: str | None,
             out_option: str | None) -> None:
    """Score predictions (and optional verdicts) against ground truth."""

    def body() -> None:
        cfg = load_config(config_path)
        predictions_path = _resolve(predictions_option, cfg, "eval", "predictions")
        gold_path = _resolve(gold_option, cfg, "paths", "gold")
        outcomes = read_outcomes(jsonl_lines(predictions_path))
        gold_set, gold_texts = import_doccano(jsonl_lines(gold_path))
        universe = sorted(gold_texts)
        known = set(universe)
        missing = sorted(o.record_id for o in outcomes if o.record_id not in known)
        if missing:
            raise ValidationError(f"records missing from gold file: {missing}")
        for outcome in outcomes:
            if outcome.status == "ok" and gold_texts[outcome.record_id] != outcome.text:
                raise ValidationError(
                    f"record {outcome.record_id!r}: prediction text differs from gold text"
                )
        predicted = AnnotationSet(
            ann for o in outcomes if o.status == "ok" for ann in o.annotations
        )
        pairs, counts = match_mentions(predicted, gold_set, universe)
        metrics = compute_metrics(counts)
        concept_accuracy = match_concepts(pairs)
        out_dir = Path(out_option) if out_option else cfg.output_dir
        inputs = [predictions_path, gold_path]
        bundle = ReportBundle(
            ner_nen=[NerNenRow("BERN2", metrics, concept_accuracy.accuracy, counts=counts)]
        )
        verdicts_path = _optional_input(verdicts_option, cfg, "eval", "verdicts")
        if verdicts_path is not None:
            verdicts, annotations = _read_verdict_file(verdicts_path, gold_texts)
            inputs.append(verdicts_path)
            if verdicts:
                report = alignment_accuracy(verdicts, annotations, gold_set)
                rate = hallucination_rate(verdicts)
                click.echo(
                    f"verdicts: BERN2 alignment {report.bern2_alignment_accuracy:.3f}, "
                    f"GT alignment {report.gt_alignment_accuracy:.3f}, "
                    f"hallucination rate {'NR' if rate is None else f'{rate:.3f}'}"
                )
        plan_path = _optional_input(plan_option, cfg, "eval", "report_plan")
        if plan_path is not None:
            planned, plan_inputs = _bundle_from_plan(
                plan_path, gold_set, gold_texts, cfg.settings("embedding", timeout_ms=int)
            )
            planned.ner_nen = bundle.ner_nen
            bundle = planned
            inputs += [plan_path, *plan_inputs]
        with _manifested("eval", cfg, out_dir, inputs) as files:
            paths = render_report(bundle, out_dir)
            files.update(dict.fromkeys(paths.values()))

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
        click.echo(f"report: {paths['report']}")

    _execute(body)


# ---------------------------------------------------------------------------
# raft
# ---------------------------------------------------------------------------

@main.command()
@click.option("--config", "-c", "config_path", required=True)
@click.option("--questions", "questions_option", default=None)
@click.option("--n-distractors", "n_option", type=int, default=None)
@click.option("--out", "out_option", default=None)
def raft(config_path: str, questions_option: str | None, n_option: int | None,
         out_option: str | None) -> None:
    """Build a RAFT fine-tuning dataset from question/concept pairs."""

    def body() -> None:
        cfg = load_config(config_path)
        n_distractors = (n_option if n_option is not None
                         else cfg.settings("raft", n_distractors=int).get("n_distractors", 3))
        if n_distractors < 1:
            raise ValidationError(
                "usage: --n-distractors must be >= 1 (each datapoint needs distractors)"
            )
        ontology_path = cfg.require_path("paths", "ontology")
        store = load_ontology(ontology_path)
        questions_path = _resolve(questions_option, cfg, "raft", "questions")
        questions = read_jsonl(
            jsonl_lines(questions_path),
            "question record",
            lambda _, obj: (obj["question"], ConceptId.parse(obj["concept_id"])),
        )
        check_raft_inputs(store, questions, n_distractors)
        out_dir = cfg.output_dir
        index = OntologyIndex(store, _configured_embedding_provider(cfg), cache_dir=out_dir)
        datapoints = build_raft_dataset(store, questions, n_distractors, index)
        raft_path = Path(out_option) if out_option else out_dir / "raft.jsonl"
        with _manifested("raft", cfg, out_dir, [ontology_path, questions_path], index) as files:
            files[raft_path] = "\n".join(raft_to_jsonl(datapoints)) + "\n"
        click.echo(f"{len(datapoints)} RAFT datapoints with {n_distractors} distractors each")

    _execute(body)


if __name__ == "__main__":
    main()
