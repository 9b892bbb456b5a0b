"""Driving an external NER/NEN backend over a wire protocol.

The wire protocol is phenotag's own batch protocol. Only each annotation
has the shape of a public BERN2 annotation (mention/span/obj/id); the
request and the response around them do not. A real BERN2 service takes
one {"text": ...} per request to /plain, so it does not drop in (see
ROADMAP.md item 14, "Speak the wire protocols that real endpoints speak"):

    request:  {"texts": [string, ...]}
    response: {"results": [{"annotations": [{"mention": str,
               "span": {"begin": int, "end": int}, "obj": str,
               "id": [str, ...]}, ...]}, ...]}   (aligned by index)

Only entries with obj == "disease" are kept. Records are grouped in
submission order into chunks of batch_size and dispatched with a bounded
in-flight window; outcomes are re-sequenced to input order, and a failed
record never aborts the batch.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from .corpus import (
    MESH_ID, ConceptId, NONE_CONCEPT, NormalizedAnnotation, Source, SurveyRecord, json_field,
    jsonl_line, jsonl_lines, offsets, read_jsonl,
)
from .errors import BackendError, ValidationError
from .transport import call_with_retry, checked_endpoint, post_json, send, window_map

__all__ = [
    "BackendConfig",
    "AnnotationOutcome",
    "NerBackend",
    "HttpNerBackend",
    "MockNerBackend",
    "load_mock_lexicon",
    "submitted_text",
    "parse_backend_response",
    "annotate_batch",
    "write_outcomes",
    "read_outcomes",
]


@dataclass(frozen=True)
class BackendConfig:
    batch_size: int = 16
    max_inflight: int = 4
    retry_budget: int = 2

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")


@dataclass(frozen=True)
class AnnotationOutcome:
    """Exactly one per submitted record: either annotations or a reason.

    ``question_join`` records where the answer starts inside the submitted
    question-space-answer concatenation (0 when the question was empty).
    """

    record_id: str
    text: str
    status: str  # "ok" | "failed"
    annotations: tuple[NormalizedAnnotation, ...] = ()
    error: str | None = None
    question_join: int = 0

    def __post_init__(self) -> None:
        if self.status not in ("ok", "failed"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "failed" and not self.error:
            raise ValueError("failed outcomes must carry a reason")


class NerBackend(Protocol):
    """Anything that answers the NER wire protocol for a batch of texts."""

    def submit(self, texts: Sequence[str]) -> dict: ...


class HttpNerBackend:
    """POSTs phenotag's {"texts": [...]} batch and reads {"results": [...]},
    whose annotations have BERN2's shape; not BERN2's own /plain protocol."""

    def __init__(
        self,
        endpoint: str,
        timeout_ms: int = 30_000,
        transport: Callable[[str, dict, float], dict] | None = None,
    ):
        self.endpoint = endpoint if transport else checked_endpoint(endpoint, timeout_ms)
        self.timeout_ms = timeout_ms
        self._transport = transport or functools.partial(post_json, token_env="PHENOTAG_NER_TOKEN")

    def submit(self, texts: Sequence[str]) -> dict:
        return send(f"NER backend at {self.endpoint}", self._transport, self.endpoint,
                    {"texts": list(texts)}, self.timeout_ms / 1000.0)


_TOKEN = re.compile(r"\w+")
# A term with at least one word has only word characters in its words iff
# each of its characters is a word character or whitespace (``\s`` and
# ``str.split`` agree on every code point, and no character is both).
_TERM_CHARS = re.compile(r"[\w\s]+")


def _check_term(term: str) -> None:
    """Raise ValueError for a mock lexicon term that could never match."""
    if not term.split() or term != term.lower():
        raise ValueError(f"lexicon terms must be non-empty lowercase, got {term!r}")
    if not _TERM_CHARS.fullmatch(term):
        raise ValueError(
            f"lexicon term {term!r} can never match: its words must be word characters only"
        )


class MockNerBackend:
    """Deterministic lexicon-driven backend speaking the same wire contract.

    Annotates by case-insensitive longest-match whole-token scan. Text is cut
    into ``\\w+`` tokens, so a multiword term matches across any run of
    non-word characters between its words: "asthma episodes" hits both
    "Asthma, episodes" and "asthma\\n\\nepisodes". A term must be lowercase
    and non-empty, and each of its whitespace-separated words must be all
    word characters; any other term could never match and is rejected.

    The lexicon maps each term to a canonical concept-id string (as
    ``ConceptId.canonical`` gives, e.g. ``"mesh:D001249"``), which each
    annotation's ``"id"`` carries unchanged; the ids are not checked again.
    """

    def __init__(self, lexicon: Mapping[str, str]):
        if not lexicon:
            raise ValueError("mock lexicon must be non-empty")
        # Both character checks run once over all terms: "\n" matches \s,
        # and lowercasing is per character except for U+03A3, which is never
        # lowercase. Only a failure checks term by term, to name the first
        # bad term; a blank term passes here and is caught below.
        joined = "\n".join(lexicon)
        if joined != joined.lower() or not _TERM_CHARS.fullmatch(joined):
            for term in lexicon:
                _check_term(term)
        # Word tuple -> concept id; of two terms that split alike, the first keeps it.
        self._ids: dict[tuple[str, ...], str] = {}
        # Start word -> its terms' word counts, longest first, so "asthma
        # episodes" beats "asthma". Most start words have one length, so only
        # a second, different length merges and sorts.
        self._lengths: dict[str, tuple[int, ...]] = {}
        for term, concept_id in lexicon.items():
            words = tuple(term.split())
            if not words:
                _check_term(term)
            self._ids.setdefault(words, concept_id)
            known = self._lengths.get(words[0])
            if known is None:
                self._lengths[words[0]] = (len(words),)
            elif len(words) not in known:
                self._lengths[words[0]] = tuple(sorted((*known, len(words)), reverse=True))

    def submit(self, texts: Sequence[str]) -> dict:
        return {"results": [{"annotations": self._scan(text)} for text in texts]}

    def _scan(self, text: str) -> list[dict]:
        tokens = list(_TOKEN.finditer(text))
        words = [token.group(0).lower() for token in tokens]
        annotations: list[dict] = []
        i = 0
        while i < len(words):
            for length in self._lengths.get(words[i], ()):
                if i + length > len(words):
                    continue
                concept_id = self._ids.get(tuple(words[i : i + length]))
                if concept_id is not None:
                    break
            else:
                i += 1
                continue
            begin = tokens[i].start()
            end = tokens[i + length - 1].end()
            annotations.append(
                {
                    "mention": text[begin:end],
                    "span": {"begin": begin, "end": end},
                    "obj": "disease",
                    "id": [concept_id],
                }
            )
            i += length
        return annotations


def load_mock_lexicon(path: str | Path) -> dict[str, str]:
    """Term -> canonical concept id; the one check of the file's ids."""
    lexicon: dict[str, str] = {}

    def add(_lineno: int, obj) -> None:
        term = json_field(obj, "term", str)
        if term in lexicon:
            raise ValidationError(f"duplicate term {term!r}")
        lexicon[term] = ConceptId.canonical(obj["concept_id"])

    def add_all(entries: list) -> dict[str, str] | None:
        # What add builds, when every entry is an object (nothing else takes
        # a string key) with a string term and an id already canonical, and
        # no term repeats; any other file, ids in other accepted forms
        # included, goes to add line by line.
        nonlocal lexicon
        try:
            terms = [entry["term"] for entry in entries]
            ids = [entry["concept_id"] for entry in entries]
        except (KeyError, TypeError):
            return None
        if set(map(type, terms)) != {str} or not ConceptId.all_canonical(ids):
            return None
        built = dict(zip(terms, ids))
        if len(built) != len(terms):
            return None
        lexicon = built
        return lexicon

    read_jsonl(jsonl_lines(path), "lexicon entry", add, add_all)
    return lexicon


def submitted_text(record: SurveyRecord) -> tuple[str, int]:
    """Text sent to the backend for a record, plus the question/answer join
    offset (0 when the question is empty and the answer goes out alone)."""
    if not record.question_text:
        return record.answer_text, 0
    return f"{record.question_text} {record.answer_text}", len(record.question_text) + 1


def parse_backend_response(
    payload: Mapping, text: str, record_id: str = ""
) -> list[NormalizedAnnotation]:
    """Parse one text's result entry into disease annotations.

    Keeps only obj == "disease". The first string id whose ``strip()`` is in
    the concept-id grammar (``corpus.MESH_ID``) wins; an id list with none
    (empty, or only "CUI-less", "NONE" and other ids) maps to the NONE
    concept. A result or entry that is not an object, or a kept entry whose
    id is not a list, raises ValidationError.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(f"backend result for record {record_id!r} is not an object")
    entries = payload.get("annotations")
    if not isinstance(entries, list):
        raise ValidationError("backend result missing 'annotations' list")
    annotations: list[NormalizedAnnotation] = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ValidationError(f"backend annotation for record {record_id!r} is not an object")
        if entry.get("obj") != "disease":
            continue
        try:
            span_obj = json_field(entry, "span", dict)
            span = offsets(span_obj["begin"], span_obj["end"])
            span.check_bounds(text)
        except (KeyError, ValueError, ValidationError) as exc:
            raise ValidationError(f"backend span invalid for record {record_id!r}: {exc}") from exc
        mention = entry.get("mention", "")
        if text[span.begin : span.end] != mention:
            raise ValidationError(
                f"backend mention {mention!r} does not match text at "
                f"({span.begin}, {span.end}) for record {record_id!r}"
            )
        candidates = entry.get("id", [])
        if not isinstance(candidates, list):
            raise ValidationError(f"backend id for record {record_id!r} is not a list")
        concept = next((ConceptId.parse(c) for c in candidates
                        if isinstance(c, str) and MESH_ID.fullmatch(c.strip())), NONE_CONCEPT)
        annotations.append(
            NormalizedAnnotation(
                record_id=record_id,
                span=span,
                surface=mention,
                concept=concept,
                source=Source.NER_BACKEND,
            )
        )
    return annotations


def annotate_batch(
    records: Sequence[SurveyRecord],
    backend: NerBackend,
    config: BackendConfig,
) -> list[AnnotationOutcome]:
    """Annotate every record, returning one outcome per record in input order.

    Records are chunked in submission order. Each chunk is retried up to
    retry_budget times on transport failure; a chunk that still fails marks
    every record in it failed without touching the rest. Malformed results
    fail only the record they belong to. Any other exception from the
    backend is a bug: no further chunk is sent and it propagates.
    """
    chunks: list[list[SurveyRecord]] = [
        list(records[i : i + config.batch_size])
        for i in range(0, len(records), config.batch_size)
    ]
    results = window_map(lambda chunk: _process_chunk(chunk, backend, config), chunks,
                         config.max_inflight)
    return [outcome for chunk_outcomes in results for outcome in chunk_outcomes]


def _process_chunk(
    chunk: list[SurveyRecord], backend: NerBackend, config: BackendConfig
) -> list[AnnotationOutcome]:
    submissions = [submitted_text(record) for record in chunk]
    texts = [text for text, _ in submissions]
    joins = [join for _, join in submissions]
    attempts = 1 + config.retry_budget

    def all_failed(reason: str) -> list[AnnotationOutcome]:
        return [
            AnnotationOutcome(record.record_id, text, "failed", error=reason, question_join=join)
            for record, text, join in zip(chunk, texts, joins)
        ]

    try:
        payload = call_with_retry(lambda: backend.submit(texts), attempts)
    except BackendError as exc:
        return all_failed(f"backend unreachable after {attempts} attempts: {exc}")
    results = payload.get("results") if isinstance(payload, Mapping) else None
    if not isinstance(results, list) or len(results) != len(chunk):
        return all_failed("malformed backend response: results misaligned with submitted texts")
    outcomes = []
    for record, text, join, result in zip(chunk, texts, joins, results):
        try:
            annotations = parse_backend_response(result, text, record.record_id)
            outcomes.append(
                AnnotationOutcome(
                    record.record_id, text, "ok",
                    annotations=tuple(annotations), question_join=join,
                )
            )
        except ValidationError as exc:
            outcomes.append(
                AnnotationOutcome(record.record_id, text, "failed", error=str(exc), question_join=join)
            )
    return outcomes


def write_outcomes(outcomes: Sequence[AnnotationOutcome]) -> list[str]:
    """Serialize outcomes to the line-delimited predictions format."""
    lines = []
    for outcome in outcomes:
        obj = {
            "record_id": outcome.record_id,
            "text": outcome.text,
            "status": outcome.status,
            "question_join": outcome.question_join,
            "annotations": [
                {
                    "begin": ann.span.begin,
                    "end": ann.span.end,
                    "surface": ann.surface,
                    "concept": ann.concept.render(),
                    "confidence": ann.confidence,
                }
                for ann in outcome.annotations
            ],
            "error": outcome.error,
        }
        lines.append(jsonl_line(obj))
    return lines


def read_outcomes(lines, texts: Mapping[str, str]) -> list[AnnotationOutcome]:
    """Parse a predictions file back into outcomes, checked against
    ``texts``, each upstream record's id and the text it must carry.

    Each annotation's span must fit its line's text and its surface must be
    that slice. Then the line must name a record of ``texts`` that no
    earlier line names, and an ``ok`` line's text must be that record's.
    """
    seen: set[str] = set()

    def parse(_lineno: int, obj) -> AnnotationOutcome:
        record_id = json_field(obj, "record_id", str)
        text = json_field(obj, "text", str)
        annotations = tuple(
            NormalizedAnnotation(
                record_id=record_id,
                span=offsets(a["begin"], a["end"]),
                surface=json_field(a, "surface", str),
                concept=ConceptId.parse(a["concept"]),
                source=Source.NER_BACKEND,
                confidence=json_field(a, "confidence", float, None),
            )
            for a in json_field(obj, "annotations", list, [])
        )
        for annotation in annotations:
            annotation.check_against(text)
        outcome = AnnotationOutcome(
            record_id=record_id,
            text=text,
            status=json_field(obj, "status", str),
            annotations=annotations,
            error=json_field(obj, "error", str, None),
            question_join=json_field(obj, "question_join", int, 0),
        )
        if record_id not in texts:
            raise ValidationError(f"unknown record_id {record_id!r}")
        if record_id in seen:
            raise ValidationError(f"record {record_id!r} repeats an earlier line")
        seen.add(record_id)
        if outcome.status == "ok" and text != texts[record_id]:
            raise ValidationError(f"record {record_id!r}: text differs from the upstream text")
        return outcome

    return read_jsonl(lines, "prediction record", parse)
