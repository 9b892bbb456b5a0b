"""Survey corpus handling.

Ingests line-delimited survey records, normalizes free text through a
fixed chain of string rewrites, and round-trips ground truth through the
Doccano JSONL format.

Every span indexes the normalized text; no map back to the raw input is
kept. All character offsets count Unicode scalar values (Python string
indices), never bytes.
"""

from __future__ import annotations

import functools
import json
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import ValidationError

__all__ = [
    "FieldType",
    "Source",
    "SurveyRecord",
    "TextSpan",
    "ConceptId",
    "MESH_ID",
    "NONE_CONCEPT",
    "NormalizedAnnotation",
    "AnnotationSet",
    "PreprocessConfig",
    "Corpus",
    "jsonl_line",
    "jsonl_lines",
    "read_jsonl",
    "json_field",
    "offsets",
    "ingest_records",
    "load_records",
    "normalize_text",
    "import_doccano",
    "export_doccano",
    "load_acronym_map",
    "load_lexicon",
]


class FieldType(Enum):
    """Closed set of survey question formats."""

    SLIDER = "slider"
    DESCRIPTIVE = "descriptive"
    BINARY = "binary"
    RATIO = "ratio"
    DROPDOWN = "dropdown"
    CHECKBOX = "checkbox"


class Source(Enum):
    """Provenance of an annotation."""

    NER_BACKEND = "ner_backend"
    HUMAN = "human"


@dataclass(frozen=True)
class SurveyRecord:
    """One question/answer unit from a survey export."""

    record_id: str
    question_text: str
    answer_text: str
    field_type: FieldType
    preceding_questions: tuple[str, ...] = ()
    expects_disease: bool = False

    def __post_init__(self) -> None:
        if not self.record_id:
            raise ValueError("record_id must be non-empty")


@dataclass(frozen=True, order=True)
class TextSpan:
    """Half-open character span [begin, end) into some text."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.begin < self.end):
            raise ValueError(f"invalid span ({self.begin}, {self.end}): need 0 <= begin < end")

    def check_bounds(self, text: str) -> None:
        if self.end > len(text):
            raise ValueError(f"span ({self.begin}, {self.end}) exceeds text of length {len(text)}")


# The one MeSH id grammar: "mesh:" and "D" in any ASCII case, then ASCII
# digits. re.ASCII keeps Unicode case folding out ("meſh" is not "mesh").
MESH_ID = re.compile(r"mesh:D[0-9]+", re.IGNORECASE | re.ASCII)
# The canonical form, of ids joined by "\n": one fullmatch checks a column.
_MESH_CANONICAL_LINES = re.compile(r"mesh:D[0-9]+(?:\nmesh:D[0-9]+)*")


@dataclass(frozen=True)
class ConceptId:
    """A MeSH descriptor id, or the NONE sentinel for unnormalized mentions.

    Canonical rendering is ``mesh:D<ASCII digits>`` (or the literal ``NONE``).
    """

    identifier: str | None = None

    def __post_init__(self) -> None:
        if self.identifier is not None and not ConceptId.all_canonical(["mesh:" + self.identifier]):
            raise ValueError(f"malformed MeSH identifier {self.identifier!r}")

    @property
    def is_none(self) -> bool:
        return self.identifier is None

    @classmethod
    def parse(cls, text: str) -> "ConceptId":
        """Parse a ``MESH_ID`` (surrounding whitespace allowed) or NONE in any case."""
        try:
            stripped = text.strip()
        except AttributeError:
            raise TypeError(f"concept id must be a string, got {text!r}") from None
        if MESH_ID.fullmatch(stripped) is None:
            if stripped.upper() == "NONE":
                return NONE_CONCEPT
            raise ValueError(f"cannot parse concept id {text!r}")
        return cls._unchecked("D" + stripped[len("mesh:D"):])

    @classmethod
    def _unchecked(cls, identifier: str) -> "ConceptId":
        """The ConceptId of an identifier a match already proved to be "D" and
        ASCII digits, skipping the constructor's second check."""
        concept = object.__new__(cls)
        object.__setattr__(concept, "identifier", identifier)
        return concept

    @classmethod
    def canonical(cls, text: str) -> str:
        """``parse(text).render()``, raising as ``parse`` does; a text that is
        already canonical MeSH is returned as it is, building nothing."""
        if ConceptId.all_canonical([text]):
            return text
        return cls.parse(text).render()

    @staticmethod
    def all_canonical(texts: Sequence[Any]) -> bool:
        """Whether every item is a string already in canonical MeSH form
        (``canonical`` would return each as it is, and none is NONE); one
        fullmatch over the ``\\n``-joined column."""
        if not texts:
            return True
        try:
            joined = "\n".join(texts)
        except TypeError:  # an item that is not a string
            return False
        # The count rejects an item that itself holds a "\n": the item
        # "mesh:D1\nmesh:D2" would otherwise pass as two canonical ids.
        return (joined.count("\n") == len(texts) - 1
                and _MESH_CANONICAL_LINES.fullmatch(joined) is not None)

    def render(self) -> str:
        return "NONE" if self.identifier is None else f"mesh:{self.identifier}"

    def __str__(self) -> str:
        return self.render()


NONE_CONCEPT = ConceptId(None)


@dataclass(frozen=True)
class NormalizedAnnotation:
    """A disease mention (span + surface) with its ontology assignment."""

    record_id: str
    span: TextSpan
    surface: str
    concept: ConceptId
    source: Source
    confidence: float | None = None

    def __post_init__(self) -> None:
        if self.confidence is not None and not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    def check_against(self, text: str) -> None:
        """Verify the span fits ``text`` and the surface matches the slice."""
        self.span.check_bounds(text)
        actual = text[self.span.begin : self.span.end]
        if actual != self.surface:
            raise ValueError(
                f"surface {self.surface!r} does not match text slice {actual!r} "
                f"at ({self.span.begin}, {self.span.end})"
            )


class AnnotationSet:
    """Annotations grouped by record, each group sorted by (begin, end).

    Human-sourced groups may not contain two annotations with identical
    spans; model-sourced groups may overlap freely.
    """

    def __init__(self, annotations: Iterable[NormalizedAnnotation] = ()):
        grouped: dict[str, list[NormalizedAnnotation]] = defaultdict(list)
        for ann in annotations:
            grouped[ann.record_id].append(ann)
        self._by_record: dict[str, tuple[NormalizedAnnotation, ...]] = {}
        for record_id, group in grouped.items():
            group.sort(key=lambda a: (a.span.begin, a.span.end))
            seen_human_spans: set[TextSpan] = set()
            for ann in group:
                if ann.source is Source.HUMAN:
                    if ann.span in seen_human_spans:
                        raise ValidationError(
                            f"record {record_id!r}: duplicate human annotation "
                            f"at span ({ann.span.begin}, {ann.span.end})"
                        )
                    seen_human_spans.add(ann.span)
            self._by_record[record_id] = tuple(group)

    def for_record(self, record_id: str) -> tuple[NormalizedAnnotation, ...]:
        return self._by_record.get(record_id, ())

    def record_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_record))

    def __iter__(self) -> Iterator[NormalizedAnnotation]:
        for record_id in sorted(self._by_record):
            yield from self._by_record[record_id]

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_record.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationSet):
            return NotImplemented
        return self._by_record == other._by_record

    def __repr__(self) -> str:
        return f"AnnotationSet({len(self)} annotations over {len(self._by_record)} records)"


class Corpus:
    """Immutable collection of survey records with unique ids."""

    def __init__(self, records: Iterable[SurveyRecord]):
        self.records: tuple[SurveyRecord, ...] = tuple(records)
        self._by_id: dict[str, SurveyRecord] = {}
        for record in self.records:
            if record.record_id in self._by_id:
                raise ValidationError(f"duplicate record_id {record.record_id!r}")
            self._by_id[record.record_id] = record

    def get(self, record_id: str) -> SurveyRecord:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise KeyError(f"unknown record_id {record_id!r}") from None

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SurveyRecord]:
        return iter(self.records)


# ---------------------------------------------------------------------------
# Line-delimited JSON
# ---------------------------------------------------------------------------

T = TypeVar("T")
R = TypeVar("R")


_DECODER = json.JSONDecoder()
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def jsonl_lines(path: str | Path) -> list[str]:
    """The lines of a text file, split on ``\\n`` only, with the ``\\r`` of a
    ``\\r\\n`` dropped: the one line splitter for JSON Lines files, the
    acronym map and the spelling lexicon.

    ``str.splitlines`` would also split on U+0085, U+2028 and U+2029, which
    JSON allows raw inside strings and which phenotag writes raw; and a
    universal-newline read would end a line at a bare ``\\r``, which JSON
    allows as whitespace between tokens.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    if "\r" in text:  # one memchr; the replace alone scans slower
        text = text.replace("\r\n", "\n")
    return text.split("\n")


def jsonl_line(obj: Any) -> str:
    """The one canonical JSON Lines writer: sorted keys, no spaces and
    non-ASCII characters raw, so equal objects give equal bytes."""
    return _ENCODER.encode(obj)


def read_jsonl(lines: Iterable[str], what: str, parse: Callable[[int, Any], T],
               bulk: Callable[[list[Any]], R | None] | None = None) -> list[T] | R:
    """Decode each non-blank line as JSON and return ``parse(lineno, obj)``
    for each, in file order; line numbers count blank lines too.

    A line that is not JSON, that nests too deep to decode, or that
    ``parse`` rejects with a ValidationError, KeyError, TypeError,
    ValueError or IndexError, raises ValidationError("line N: bad <what>: ...").

    Each line is scanned once, in one C call, which decodes a line that is
    exactly one JSON value; ``json.loads`` then decodes any other line, in
    its turn, and owns its value or message. Without ``bulk``, each line is
    decoded and parsed before the next is read, and nothing is kept.

    ``bulk`` is a fast path for a whole file, which is then scanned before
    anything is parsed. When every non-blank line is exactly one JSON value,
    ``bulk`` gets the values in file order and returns what ``read_jsonl``
    returns, or None. On None, or when some line is not exactly one value,
    ``parse`` takes the scanned values line by line from the top as above,
    so it alone owns every error and its line number. ``bulk`` must
    therefore return None for every file on which ``parse`` would raise, and
    change nothing until it returns a result.
    """
    scanned = _scan_each(lines)
    if bulk is not None:
        scanned = list(scanned)
        values = [obj for _, obj, _ in scanned]
        if _INEXACT not in values and (result := bulk(values)) is not None:
            return result
    items = []
    for lineno, obj, line in scanned:
        try:
            if obj is _INEXACT:
                obj = json.loads(line)
            items.append(parse(lineno, obj))
        except KeyError as exc:
            raise ValidationError(f"line {lineno}: bad {what}: missing key {exc}") from exc
        except (ValidationError, TypeError, ValueError, IndexError, RecursionError) as exc:
            raise ValidationError(f"line {lineno}: bad {what}: {exc}") from exc
    return items


# The value ``_scan_each`` gives a line that is not exactly one JSON value.
_INEXACT: Any = object()


def _scan_each(lines: Iterable[str]) -> Iterator[tuple[int, Any, str]]:
    """``(lineno, value, line)`` for each non-blank line: the value one C
    call scans from a line that is exactly one JSON value, else ``_INEXACT``
    (edge whitespace, a BOM, extra data, bad JSON, nesting too deep). Both
    of ``read_jsonl``'s modes scan here, at the same call depth, so a line
    nested close to the recursion limit decodes in both or in neither."""
    scan = _DECODER.scan_once
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        try:  # the scanner raises StopIteration where no value starts
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        yield lineno, (obj if end == len(line) else _INEXACT), line


_REQUIRED: Any = object()

# The kinds json_field reads: the exact types each accepts, how an error
# names it, and the type every item must have (list[str] only).
_JSON_KINDS: dict[Any, tuple[tuple[type, ...], str, type | None]] = {
    str: ((str,), "a string", None),
    int: ((int,), "an integer", None),  # type(True) is bool, so never a bool
    float: ((int, float), "a number", None),
    bool: ((bool,), "a boolean", None),
    list: ((list,), "a list", None),
    list[str]: ((list,), "a list of strings", str),
    dict: ((dict,), "an object", None),
}


def json_field(obj: Any, key: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """``obj[key]``, checked to be exactly the JSON type ``kind`` names and
    never converted: str, int, float (any number), bool, list, list[str] or
    dict; a bool is never a number. A missing key gives ``default``, or
    KeyError without one; null is read only where the default is None.
    Anything else, or an ``obj`` that is not an object, raises
    ValidationError."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object, got {obj!r}")
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise KeyError(key)
    types, name, item = _JSON_KINDS[kind]
    if type(value) in types and (item is None or all(type(v) is item for v in value)):
        return value
    if value is None and default is None:
        return None
    raise ValidationError(f"{key} must be {name}, got {value!r}")


def offsets(begin: Any, end: Any) -> TextSpan:
    """The span [begin, end) of two JSON integers; any other bound raises."""
    if type(begin) is not int or type(end) is not int:
        raise ValidationError(f"span bounds must be integers, got [{begin!r}, {end!r}]")
    return TextSpan(begin, end)


# ---------------------------------------------------------------------------
# Record ingestion
# ---------------------------------------------------------------------------

def ingest_records(
    lines: Iterable[str],
    expects_keywords: Sequence[str] = (),
) -> Corpus:
    """Parse line-delimited survey records into a validated corpus.

    Each line is a JSON object with keys record_id, question_text,
    answer_text, field_type, preceding_questions (optional list) and
    expects_disease (optional bool). When expects_disease is absent and
    ``expects_keywords`` is given, the flag is derived by a case-insensitive
    keyword scan of the question text.
    """
    seen: set[str] = set()
    keywords = tuple(k.lower() for k in expects_keywords)

    def parse(_lineno: int, obj) -> SurveyRecord:
        record_id = json_field(obj, "record_id", str)
        if record_id in seen:
            raise ValidationError(f"duplicate record_id {record_id!r}")
        question_text = json_field(obj, "question_text", str)
        answer_text = json_field(obj, "answer_text", str)
        field_type = FieldType(json_field(obj, "field_type", str))
        preceding = json_field(obj, "preceding_questions", list[str], [])
        derived = any(k in question_text.lower() for k in keywords)
        expects = json_field(obj, "expects_disease", bool, derived)
        seen.add(record_id)
        return SurveyRecord(
            record_id=record_id,
            question_text=question_text,
            answer_text=answer_text,
            field_type=field_type,
            preceding_questions=tuple(preceding),
            expects_disease=expects,
        )

    return Corpus(read_jsonl(lines, "record", parse))


def load_records(path: str | Path, expects_keywords: Sequence[str] = ()) -> Corpus:
    return ingest_records(jsonl_lines(path), expects_keywords)


# ---------------------------------------------------------------------------
# Text normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreprocessConfig:
    """Which normalization steps run, plus their resources.

    Steps always apply in the fixed order: NFC, lowercase, acronym
    expansion, punctuation normalization, spelling correction, whitespace
    collapse. Spelling correction is off by default. Stemming never runs
    here; it would destroy the character offsets agreement scoring needs,
    so it lives in retrieval tokenization only.
    """

    nfc: bool = True
    lowercase: bool = True
    expand_acronyms: bool = True
    normalize_punctuation: bool = True
    correct_spelling: bool = False
    collapse_whitespace: bool = True
    acronyms: Mapping[str, str] = field(default_factory=dict)
    lexicon: tuple[str, ...] = ()

    @classmethod
    def only(cls, *steps: str, **resources) -> "PreprocessConfig":
        """Config with exactly the named steps enabled; the steps are the
        fields whose default is a bool."""
        flags = {f.name: f.name in steps for f in fields(cls) if type(f.default) is bool}
        unknown = set(steps) - set(flags)
        if unknown:
            raise ValueError(f"unknown preprocessing steps: {sorted(unknown)}")
        return cls(**flags, **resources)

    @functools.cached_property
    def _acronym_pattern(self) -> tuple[re.Pattern, list[str]] | None:
        """The acronym alternation and each group's expansion, built once per
        config, or None without acronyms. Longest key first so "b.i.d" style
        keys beat their prefixes. Each key is its own group because an
        IGNORECASE match need not be its key lowercased (the key "ſ" matches
        "s"); the alternative that matched names the key."""
        if not self.acronyms:
            return None
        keys = sorted(self.acronyms, key=lambda k: (-len(k), k))
        pattern = re.compile(
            r"\b(?:" + "|".join(f"({re.escape(k)})" for k in keys) + r")\b", re.IGNORECASE
        )
        return pattern, [self.acronyms[key] for key in keys]


def _expand_acronyms(text: str, config: PreprocessConfig) -> str:
    compiled = config._acronym_pattern
    if compiled is None:
        return text
    pattern, expansions = compiled
    return pattern.sub(lambda m: expansions[m.lastindex - 1], text)


_PUNCTUATION = str.maketrans({
    "‘": "'",
    "’": "'",
    "‚": "'",
    "‛": "'",
    "“": '"',
    "”": '"',
    "„": '"',
    "–": "-",
    "—": "-",
    "−": "-",
    "…": "...",
    "\u200b": "",
    "\u200c": "",
    "\u200d": "",
    "\ufeff": "",
})


def _within_distance_one(a: str, b: str) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    short, long = (a, b) if la < lb else (b, a)
    i = 0
    while i < len(short) and short[i] == long[i]:
        i += 1
    return short[i:] == long[i + 1 :]


def _correct_spelling(text: str, lexicon: Sequence[str]) -> str:
    if not lexicon:
        return text
    known = set(lexicon)

    def correct(m: re.Match) -> str:
        token = m.group(0)
        if token.isalpha() and token.lower() not in known:
            # Ties broken by lexicon order: first entry within distance 1 wins.
            for word in lexicon:
                if _within_distance_one(token.lower(), word):
                    return word
        return token

    return re.sub(r"\w+", correct, text)


def normalize_text(raw: str, config: PreprocessConfig | None = None) -> str:
    """Normalize ``raw`` per config. Every Unicode string is processable; no
    step can fail."""
    config = config or PreprocessConfig()
    text = raw
    if config.nfc:
        text = unicodedata.normalize("NFC", text)
    if config.lowercase:
        # Per character where it matters: str.lower() would give a word-final
        # sigma its final form ("ΟΔΟΣ" -> "οδος" rather than "οδοσ"), and
        # U+03A3 is the only character whose lowercase depends on context.
        text = "".join(c.lower() for c in text) if "\u03a3" in text else text.lower()
    if config.expand_acronyms:
        text = _expand_acronyms(text, config)
    if config.normalize_punctuation:
        text = text.translate(_PUNCTUATION)
    if config.correct_spelling:
        text = _correct_spelling(text, config.lexicon)
    if config.collapse_whitespace:
        text = " ".join(text.split())  # trims the edges, one space between words
    return text


def load_acronym_map(path: str | Path) -> dict[str, str]:
    """Read "acronym = expansion" lines; keys are folded to lowercase."""
    acronyms: dict[str, str] = {}
    for lineno, line in enumerate(jsonl_lines(path), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"line {lineno}: expected 'acronym = expansion'")
        key, _, value = stripped.partition("=")
        acronyms[key.strip().lower()] = value.strip()
    return acronyms


def load_lexicon(path: str | Path) -> tuple[str, ...]:
    """Read a one-word-per-line spelling lexicon, preserving file order."""
    words = []
    for line in jsonl_lines(path):
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.append(word)
    return tuple(words)


# ---------------------------------------------------------------------------
# Doccano import/export
# ---------------------------------------------------------------------------

def import_doccano(lines: Iterable[str]) -> tuple[AnnotationSet, dict[str, str]]:
    """Parse Doccano JSONL into human-sourced annotations plus record texts.

    Lines look like {"text": ..., "label": [[begin, end, "mesh:D..."], ...]}
    with an optional "record_id"; ids are synthesized from the line number
    when absent so files straight out of Doccano still load.
    """
    texts: dict[str, str] = {}

    def parse(lineno: int, obj) -> list[NormalizedAnnotation]:
        text = json_field(obj, "text", str)
        record_id = json_field(obj, "record_id", str, f"line-{lineno:06d}")
        if record_id in texts:
            raise ValidationError(f"duplicate record_id {record_id!r}")
        texts[record_id] = text
        annotations = []
        for entry in json_field(obj, "label", list, []):
            if not (type(entry) is list and len(entry) == 3):
                raise ValidationError(f"label entries must be [begin, end, label], got {entry!r}")
            begin, end, label = entry
            try:
                span = offsets(begin, end)
                span.check_bounds(text)
            except ValueError as exc:
                raise ValidationError(f"span out of bounds: {exc}") from exc
            annotations.append(
                NormalizedAnnotation(
                    record_id=record_id,
                    span=span,
                    surface=text[span.begin : span.end],
                    concept=ConceptId.parse(label),
                    source=Source.HUMAN,
                )
            )
        return annotations

    per_line = read_jsonl(lines, "Doccano line", parse)
    try:
        return AnnotationSet(a for annotations in per_line for a in annotations), texts
    except ValidationError as exc:
        raise ValidationError(f"duplicate spans in import: {exc}") from exc


def export_doccano(annotations: AnnotationSet, texts: Mapping[str, str]) -> list[str]:
    """Render one canonical Doccano JSON line per record.

    Records are ordered by record_id and serialized with sorted keys, so
    export∘import is byte-stable. Every annotated record must have a text.
    """
    for record_id in annotations.record_ids():
        if record_id not in texts:
            raise ValidationError(f"no text supplied for record {record_id!r}")
    lines = []
    for record_id in sorted(texts):
        text = texts[record_id]
        labels = []
        for ann in annotations.for_record(record_id):
            ann.check_against(text)
            labels.append([ann.span.begin, ann.span.end, ann.concept.render()])
        obj = {"record_id": record_id, "text": text, "label": labels}
        lines.append(jsonl_line(obj))
    return lines
