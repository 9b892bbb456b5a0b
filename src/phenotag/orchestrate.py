"""Prompt strategies, LLM backends, verdict parsing, and RAFT data prep.

Prompts are assembled from versioned template files (swappable via a
templates directory) with sections in a fixed order: task instruction,
retrieved documents, few-shot examples, chain-of-thought directive, the
case under judgment, answer-format instruction. Turning a section's flag
off removes exactly that section, so the all-flags-off rendering is
byte-identical to the plain zero-shot prompt.

The chain-of-thought variant composes with any strategy; "hybrid" is the
strong scaffold plus few-shot examples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import random
import re
import string
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from .corpus import (
    MESH_ID, ConceptId, Corpus, NormalizedAnnotation, SurveyRecord, json_field, jsonl_line,
    jsonl_lines, read_jsonl,
)
from .errors import BackendError, ValidationError
from .ontology import EmbeddingProvider, OntologyIndex, OntologyStore, RagDocument
from .transport import (
    call_with_retry, checked_endpoint, post_json, send, usable_cpus, window, window_map,
)

__all__ = [
    "Strategy",
    "CotVariant",
    "PromptSpec",
    "PromptContext",
    "FewShotExample",
    "VerdictKind",
    "LlmVerdict",
    "LlmParams",
    "LlmBackend",
    "ScriptedLlmBackend",
    "HttpLlmBackend",
    "TemplateRegistry",
    "build_prompt",
    "select_few_shot",
    "parse_verdict",
    "detect_hallucination",
    "flag_hallucination",
    "check_run_settings",
    "run_strategy",
    "RaftDatapoint",
    "check_raft_inputs",
    "build_raft_dataset",
    "render_cot_answer",
    "raft_to_jsonl",
    "load_example_pool",
]


class Strategy(Enum):
    ZERO_SHOT_CONCEPT_VS_CONCEPT = "zero-shot-cvc"
    ZERO_SHOT_CONCEPT_VS_MENTION = "zero-shot-cvm"
    FEW_SHOT = "few-shot"
    COT = "cot"
    RAG_FSI = "rag-fsi"
    RAG_FSI_FLAGS = "rag-fsi-flags"


class CotVariant(Enum):
    NONE = "none"
    SIMPLE = "simple"
    STRONG = "strong"
    HYBRID = "hybrid"


_ALLOWED_SHOTS = (0, 1, 2, 3, 5)


@dataclass(frozen=True)
class PromptSpec:
    """A strategy configuration: which sections the prompt carries."""

    strategy: Strategy
    k: int = 5
    cot_variant: CotVariant = CotVariant.NONE
    use_rag: bool = False
    use_fsi: bool = False
    retrieval_k: int = 3

    def __post_init__(self) -> None:
        if self.k not in _ALLOWED_SHOTS:
            raise ValueError(f"shot count {self.k} not in {_ALLOWED_SHOTS}")
        if self.rag_enabled and self.retrieval_k < 1:
            raise ValueError("retrieval_k must be >= 1 when retrieval is active")
        if self.fsi_enabled and self.k == 0:
            raise ValueError("use_fsi and the hybrid CoT carry examples: k must be >= 1")

    @property
    def rag_enabled(self) -> bool:
        if self.strategy is Strategy.RAG_FSI:
            return True
        if self.strategy is Strategy.RAG_FSI_FLAGS:
            return self.use_rag
        return False

    @property
    def fsi_enabled(self) -> bool:
        if self.strategy is Strategy.RAG_FSI:
            return self.k > 0
        if self.strategy is Strategy.RAG_FSI_FLAGS:
            return self.use_fsi
        if self.strategy is Strategy.FEW_SHOT:
            return self.k > 0
        if self.strategy is Strategy.COT:
            return self.cot_variant is CotVariant.HYBRID
        return False


class VerdictKind(Enum):
    AGREE = "agree"
    DISAGREE = "disagree"
    UNPARSEABLE = "unparseable"


@dataclass(frozen=True)
class LlmVerdict:
    """A parsed model judgment. Proposal only accompanies Disagree."""

    kind: VerdictKind
    raw_text: str
    proposal: ConceptId | None = None
    hallucinated: bool = False

    def __post_init__(self) -> None:
        if self.proposal is not None and self.kind is not VerdictKind.DISAGREE:
            raise ValueError("proposal only valid on Disagree verdicts")
        if self.hallucinated and self.proposal is None:
            raise ValueError("hallucinated verdicts must carry a proposal")


_VERDICT_TOKEN = re.compile(r"\b(agree|disagree)\b", re.IGNORECASE)


def parse_verdict(text: str) -> LlmVerdict:
    """Total parser: every string maps to a verdict.

    The first standalone AGREE/DISAGREE token (any case) decides the kind;
    on DISAGREE the first substring in the concept-id grammar
    (``corpus.MESH_ID``: ``mesh:`` and ``D`` in any ASCII case, then ASCII
    digits) becomes the proposal.
    """
    match = _VERDICT_TOKEN.search(text)
    if match is None:
        return LlmVerdict(VerdictKind.UNPARSEABLE, raw_text=text)
    if match.group(1).lower() == "agree":
        return LlmVerdict(VerdictKind.AGREE, raw_text=text)
    proposal_match = MESH_ID.search(text)
    proposal = ConceptId.parse(proposal_match.group(0)) if proposal_match else None
    return LlmVerdict(VerdictKind.DISAGREE, raw_text=text, proposal=proposal)


def detect_hallucination(verdict: LlmVerdict, store: OntologyStore) -> bool:
    """True iff the verdict proposes a concept the ontology does not know.

    Unparseable verdicts are counted separately, never as hallucinations.
    """
    return verdict.proposal is not None and verdict.proposal not in store


def flag_hallucination(verdict: LlmVerdict, store: OntologyStore) -> LlmVerdict:
    return dataclasses.replace(verdict, hallucinated=detect_hallucination(verdict, store))


@dataclass(frozen=True)
class FewShotExample:
    question: str
    mention: str
    concept: str
    verdict: str

    def __post_init__(self) -> None:
        if parse_verdict(self.verdict).kind is VerdictKind.UNPARSEABLE:
            raise ValueError(f"example verdict {self.verdict!r} is not parseable")


@dataclass(frozen=True)
class PromptContext:
    """Everything a prompt rendering can draw on for one judgment."""

    record: SurveyRecord
    mention: NormalizedAnnotation
    backend_concept: ConceptId
    backend_concept_name: str | None = None
    retrieved_docs: tuple[RagDocument, ...] = ()
    examples: tuple[FewShotExample, ...] = ()


# ---------------------------------------------------------------------------
# Templates and prompt assembly
# ---------------------------------------------------------------------------

# Each prompt template, in load order, and the fields it is rendered with.
# Both case templates get the same fields, so either renders from one call.
_CASE_FIELDS = (
    "preceding_questions", "question", "answer", "mention", "concept_name", "concept_id",
)
_TEMPLATE_FIELDS = {
    "task_concept_vs_concept": (),
    "task_concept_vs_mention": (),
    "documents_section": ("documents",),
    "examples_section": ("examples",),
    "example_item": tuple(field.name for field in dataclasses.fields(FewShotExample)),
    "cot_simple": (),
    "cot_strong": (),
    "case_concept_vs_concept": _CASE_FIELDS,
    "case_concept_vs_mention": _CASE_FIELDS,
    "answer_format": (),
    "cot_answer": ("question", "concept_name", "concept_id"),
}


class TemplateRegistry:
    """Named prompt templates, loaded from a directory or the built-ins.

    Wordings iterate faster than code: pointing the registry at a directory
    swaps every prompt without a rebuild. A template that does not parse, or
    whose placeholders are not all bare names of its fields, fails at load.
    """

    def __init__(self, directory: str | Path | None = None):
        root = resources.files("phenotag") / "templates" if directory is None else Path(directory)
        self._templates: dict[str, str] = {}
        self.paths: list = []  # the files read; Paths when read from ``directory``
        for name, fields in _TEMPLATE_FIELDS.items():
            path = root / f"{name}.txt"
            if not path.is_file():
                raise ValidationError(f"template {name!r} missing from {root}")
            text = path.read_text(encoding="utf-8").rstrip("\n")
            try:
                for _, field, _, _ in string.Formatter().parse(text):
                    if field is not None and field not in fields:
                        raise ValidationError(f"template {name!r} uses {{{field}}}; "
                                              f"its fields: {', '.join(fields) or 'none'}")
                text.format(**dict.fromkeys(fields, ""))  # a bad conversion or spec fails here
            except (ValueError, KeyError, IndexError) as exc:
                raise ValidationError(f"template {name!r}: {exc}") from None
            self.paths.append(path)
            self._templates[name] = text

    def render(self, name: str, **fields: str) -> str:
        return self._templates[name].format(**fields)


@functools.cache
def _builtin_templates() -> TemplateRegistry:
    return TemplateRegistry()


def build_prompt(
    spec: PromptSpec, ctx: PromptContext, templates: TemplateRegistry | None = None
) -> str:
    """Deterministic prompt rendering; identical (spec, ctx) gives identical bytes."""
    registry = templates or _builtin_templates()
    concept_vs_mention = spec.strategy is Strategy.ZERO_SHOT_CONCEPT_VS_MENTION
    kind = "concept_vs_mention" if concept_vs_mention else "concept_vs_concept"
    sections = [registry.render(f"task_{kind}")]
    if spec.rag_enabled:
        if not ctx.retrieved_docs:
            raise ValidationError("prompt requires the 'retrieved_docs' section but context has none")
        sections.append(
            registry.render(
                "documents_section",
                documents="\n\n".join(doc.body for doc in ctx.retrieved_docs),
            )
        )
    if spec.fsi_enabled:
        if not ctx.examples:
            raise ValidationError("prompt requires the 'examples' section but context has none")
        rendered = "\n\n".join(
            registry.render("example_item", **vars(example)) for example in ctx.examples
        )
        sections.append(registry.render("examples_section", examples=rendered))
    if spec.cot_variant is CotVariant.SIMPLE:
        sections.append(registry.render("cot_simple"))
    elif spec.cot_variant in (CotVariant.STRONG, CotVariant.HYBRID):
        sections.append(registry.render("cot_strong"))
    concept_name = ctx.backend_concept_name or (
        "no concept" if ctx.backend_concept.is_none else "unknown concept"
    )
    preceding = "\n".join(f"- {q}" for q in ctx.record.preceding_questions) or "(none)"
    sections.append(
        registry.render(
            f"case_{kind}",
            preceding_questions=preceding,
            question=ctx.record.question_text,
            answer=ctx.record.answer_text,
            mention=ctx.mention.surface,
            concept_name=concept_name,
            concept_id=ctx.backend_concept.render(),
        )
    )
    sections.append(registry.render("answer_format"))
    return "\n\n".join(sections)


def select_few_shot(
    pool: Sequence[FewShotExample], k: int, seed: int
) -> list[FewShotExample]:
    """Pick k distinct examples, deterministic for a fixed seed."""
    if k < 0:
        raise ValidationError("shot count must be non-negative")
    if len(pool) < k:
        raise ValidationError(f"example pool has {len(pool)} entries, {k} required")
    if k == 0:
        return []
    return random.Random(seed).sample(list(pool), k)


def load_example_pool(path: str | Path) -> list[FewShotExample]:
    return read_jsonl(
        jsonl_lines(path),
        "few-shot example",
        lambda _, obj: FewShotExample(*(
            json_field(obj, key, str) for key in ("question", "mention", "concept", "verdict")
        )),
    )


# ---------------------------------------------------------------------------
# LLM backends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LlmParams:
    """Deterministic decoding by default so runs are reproducible."""

    max_tokens: int = 256
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


class LlmBackend(Protocol):
    name: str

    def complete(self, prompt: str, params: LlmParams) -> str: ...


def _compile_rule(rule) -> tuple[re.Pattern, str]:
    """A scripted rule's (pattern, response): the "regex", or the "contains"
    needle as a literal pattern. A missing key raises KeyError, a bad value
    ValidationError."""
    response = json_field(rule, "response", str)
    if "regex" not in rule:
        return re.compile(re.escape(json_field(rule, "contains", str))), response
    try:
        return re.compile(json_field(rule, "regex", str), re.DOTALL), response
    except re.error as exc:
        raise ValidationError(f"scripted rule has an invalid regex: {exc}") from exc


class ScriptedLlmBackend:
    """Rule-driven backend, the LLM of every offline run: the first rule
    whose pattern the prompt holds answers.

    Rules are {"contains": ...} or {"regex": ...} plus "response"; an empty
    "contains" makes a catch-all. Loadable from a JSONL rule file.
    """

    name = "scripted"

    def __init__(self, rules: Iterable[dict]):
        self._rules = [_compile_rule(rule) for rule in rules]

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedLlmBackend":
        backend = cls(())
        # Each rule is compiled once, as its line is read, so a bad rule
        # fails naming its line.
        backend._rules = read_jsonl(jsonl_lines(path), "scripted rule",
                                    lambda _lineno, rule: _compile_rule(rule))
        return backend

    def complete(self, prompt: str, params: LlmParams) -> str:
        for pattern, response in self._rules:
            if pattern.search(prompt):
                return response
        raise BackendError(f"scripted backend {self.name!r}: no rule matched the prompt")


class HttpLlmBackend:
    """Backend speaking {"prompt", "max_tokens", "temperature"} -> {"text"}."""

    def __init__(
        self,
        endpoint: str,
        name: str = "llm",
        timeout_ms: int = 60_000,
        transport: Callable[[str, dict, float], dict] | None = None,
    ):
        self.name = name
        self.endpoint = endpoint if transport else checked_endpoint(endpoint, timeout_ms)
        self.timeout_ms = timeout_ms
        self._transport = transport or functools.partial(post_json, token_env="PHENOTAG_LLM_TOKEN")

    def complete(self, prompt: str, params: LlmParams) -> str:
        payload = {
            "prompt": prompt,
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
        }
        # A response without a string "text" is retried like a transport fault.
        label = f"LLM backend {self.name!r}"
        response = send(label, self._transport, self.endpoint, payload, self.timeout_ms / 1000.0)
        try:
            text = response["text"]
        except (KeyError, TypeError) as exc:
            raise BackendError(f"{label} failed: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError(f"{label} failed: text must be a string, got {text!r}")
        return text


# ---------------------------------------------------------------------------
# Strategy execution
# ---------------------------------------------------------------------------

def check_run_settings(
    spec: PromptSpec, example_pool: Sequence[FewShotExample], **window: int
) -> None:
    """Raise ValidationError for any setting ``run_strategy`` rejects, so a
    caller can check them before it builds an index. ``window`` holds the
    ``max_inflight`` and ``retry_budget`` the caller passes on, if any."""
    for key, least in (("max_inflight", 1), ("retry_budget", 0)):
        if window.get(key, least) < least:
            raise ValidationError(f"{key} must be >= {least}")
    if spec.fsi_enabled and len(example_pool) < spec.k:
        raise ValidationError(f"example pool has {len(example_pool)} entries, {spec.k} required")


def run_strategy(
    records: Corpus,
    annotations: Sequence[NormalizedAnnotation],
    spec: PromptSpec,
    llm: LlmBackend,
    store: OntologyStore,
    provider: EmbeddingProvider | None = None,
    seed: int = 0,
    example_pool: Sequence[FewShotExample] = (),
    index: OntologyIndex | None = None,
    templates: TemplateRegistry | None = None,
    params: LlmParams = LlmParams(),
    retry_budget: int = 1,
    max_inflight: int = 1,
    prompt_sink: Callable[[NormalizedAnnotation, str], None] | None = None,
) -> list[tuple[NormalizedAnnotation, LlmVerdict]]:
    """Judge every backend annotation with the configured strategy.

    Output order equals annotation order, and so does the order in which
    ``prompt_sink`` sees the prompts. A BackendError that survives its
    retries records an Unparseable verdict with the error detail and the
    run continues; any other exception judges no further annotation and
    propagates: the first failure in annotation order, whether retrieval's
    or the LLM's.

    At most ``max_inflight`` LLM calls (retries included) are in flight.
    A retrieval strategy ranks ahead of them in a ``transport.window`` of
    its own, in annotation order: W rankings run at once, where W is the
    number of processors this process may run on, and at least
    ``max_inflight + 1``. Annotation ``i + W + 1`` starts ranking once the
    judge of annotation ``i`` has taken its documents, so retrieval runs at
    most W + ``max_inflight`` + 1 annotations ahead of the next verdict.
    Each ranking is the one serial ranking gives, so verdicts and prompts
    do not depend on W.
    """
    check_run_settings(spec, example_pool, max_inflight=max_inflight, retry_budget=retry_budget)
    examples: tuple[FewShotExample, ...] = ()
    if spec.fsi_enabled:
        examples = tuple(select_few_shot(example_pool, spec.k, seed))
    if spec.rag_enabled and index is None:
        if provider is None:
            raise ValidationError("retrieval-augmented strategies need an embedding provider")
        index = OntologyIndex(store, provider)

    def retrieve(annotation: NormalizedAnnotation) -> tuple[RagDocument, ...]:
        if not spec.rag_enabled:
            return ()
        question = records.get(annotation.record_id).question_text
        query = " ".join(part for part in (annotation.surface, question) if part)
        return tuple(index.document(cid) for cid, _ in index.top_k(query, spec.retrieval_k))

    def judge(
        retrieved: tuple[NormalizedAnnotation, tuple[RagDocument, ...]],
    ) -> tuple[NormalizedAnnotation, LlmVerdict, str]:
        annotation, docs = retrieved
        name = None
        if annotation.concept in store:
            name = store.get(annotation.concept).preferred_name
        ctx = PromptContext(
            record=records.get(annotation.record_id),
            mention=annotation,
            backend_concept=annotation.concept,
            backend_concept_name=name,
            retrieved_docs=docs,
            examples=examples,
        )
        prompt = build_prompt(spec, ctx, templates)
        try:
            text = call_with_retry(lambda: llm.complete(prompt, params), 1 + retry_budget)
        except BackendError as exc:
            verdict = LlmVerdict(VerdictKind.UNPARSEABLE, raw_text=f"<llm error: {exc}>")
        else:
            verdict = parse_verdict(text)
        return annotation, flag_hallucination(verdict, store), prompt

    width = max(usable_cpus(), max_inflight + 1) if spec.rag_enabled else 1
    # Closing the rankings waits for those still running when judging stops.
    with contextlib.closing(window(retrieve, annotations, width)) as docs:
        judged = window_map(judge, zip(annotations, docs), max_inflight)
    if prompt_sink is not None:
        for annotation, _, prompt in judged:
            prompt_sink(annotation, prompt)
    return [(annotation, verdict) for annotation, verdict, _ in judged]


# ---------------------------------------------------------------------------
# RAFT dataset construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RaftDatapoint:
    question: str
    oracle_doc: RagDocument
    distractor_docs: tuple[RagDocument, ...]
    cot_answer: str

    def __post_init__(self) -> None:
        if len(self.distractor_docs) < 1:
            raise ValueError("RAFT datapoints need at least one distractor")
        ids = [doc.concept_id for doc in self.distractor_docs]
        if len(set(ids)) != len(ids):
            raise ValueError("distractors must be pairwise distinct")
        if self.oracle_doc.concept_id in ids:
            raise ValueError("oracle document may not appear among the distractors")


def render_cot_answer(
    concept, question: str, templates: TemplateRegistry | None = None
) -> str:
    """Reasoned answer quoting the oracle document's name and id, ending
    with the canonical concept id on the final ANSWER line."""
    return (templates or _builtin_templates()).render(
        "cot_answer",
        question=question,
        concept_name=concept.preferred_name,
        concept_id=concept.concept_id.render(),
    )


def check_raft_inputs(
    store: OntologyStore, questions: Sequence[tuple[str, ConceptId]], n_distractors: int
) -> None:
    """Raise ValidationError for any input ``build_raft_dataset`` rejects, so
    a caller can check them before it builds an index."""
    if n_distractors < 1:
        raise ValidationError("n_distractors must be >= 1")
    if len(store) < n_distractors + 1:
        raise ValidationError(
            f"store has {len(store)} concepts, need at least {n_distractors + 1}"
        )
    for _, gold_id in questions:
        if gold_id not in store:
            raise ValidationError(f"gold concept {gold_id} not in the ontology store")


def build_raft_dataset(
    store: OntologyStore,
    questions: Sequence[tuple[str, ConceptId]],
    n_distractors: int,
    index: OntologyIndex,
    templates: TemplateRegistry | None = None,
) -> list[RaftDatapoint]:
    """Build one datapoint per (question, gold concept) pair. Distractors
    are the nearest non-oracle concepts by retrieval (hard negatives): the
    store holds at least n_distractors + 1 concepts, so the top
    n_distractors + 1 minus the oracle always leaves enough.

    Questions are ranked in a ``transport.window`` as wide as the number
    of processors this process may run on, started in question order, and
    the datapoints come out in question order; each is the one serial
    ranking gives, whatever the width."""
    check_raft_inputs(store, questions, n_distractors)

    def datapoint(pair: tuple[str, ConceptId]) -> RaftDatapoint:
        question, gold_id = pair
        ranked = index.top_k(question, n_distractors + 1)
        distractor_ids = [cid for cid, _ in ranked if cid != gold_id][:n_distractors]
        return RaftDatapoint(
            question=question,
            oracle_doc=index.document(gold_id),
            distractor_docs=tuple(index.document(cid) for cid in distractor_ids),
            cot_answer=render_cot_answer(store.get(gold_id), question, templates),
        )

    return window_map(datapoint, questions, usable_cpus())


def raft_to_jsonl(datapoints: Sequence[RaftDatapoint]) -> list[str]:
    """Serialize datapoints to the line-delimited export format."""
    lines = []
    for point in datapoints:
        obj = {
            "question": point.question,
            "oracle": point.oracle_doc.body,
            "distractors": [doc.body for doc in point.distractor_docs],
            "cot_answer": point.cot_answer,
        }
        lines.append(jsonl_line(obj))
    return lines
