"""MeSH-style disease ontology store with retrieval support.

Loads concepts from line-delimited JSON, renders each one into a fixed
retrieval document, embeds documents with pluggable providers, and serves
exhaustive top-k cosine lookup. The built-in fallback provider is a hashed
bag of words: fully deterministic, no model downloads.

numpy is imported inside the functions that embed or rank, not at module
level, so commands that never embed (ingest, annotate, and eval without
retrieval or coherence tables) start without loading it.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

from . import __version__
from .config import atomic_write, atomic_write_text
from .corpus import ConceptId, json_field, jsonl_lines, read_jsonl
from .errors import BackendError, ValidationError
from .transport import call_with_retry, checked_endpoint, post_json, send, window_map

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OntologyConcept",
    "RagDocument",
    "OntologyStore",
    "load_ontology",
    "build_rag_document",
    "EmbeddingProvider",
    "HashedBagOfWordsProvider",
    "RemoteEmbeddingProvider",
    "cosine",
    "OntologyIndex",
    "INDEX_FILE",
    "INDEX_SIDECAR",
    "stem_token",
]


@dataclass(frozen=True)
class OntologyConcept:
    """One disease concept: id, preferred name, description, synonyms."""

    concept_id: ConceptId
    preferred_name: str
    description: str = ""
    synonyms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.concept_id.is_none:
            raise ValueError("ontology concepts need a real concept id")
        if not self.preferred_name:
            raise ValueError(f"{self.concept_id}: preferred_name must be non-empty")

    @classmethod
    def _unchecked(cls, concept_id: ConceptId, preferred_name: str, description: str,
                   synonyms: tuple[str, ...]) -> "OntologyConcept":
        """The concept of fields a bulk check already proved valid (a real
        id, a non-empty name), skipping ``__post_init__``'s second check."""
        concept = object.__new__(cls)
        object.__setattr__(concept, "concept_id", concept_id)
        object.__setattr__(concept, "preferred_name", preferred_name)
        object.__setattr__(concept, "description", description)
        object.__setattr__(concept, "synonyms", synonyms)
        return concept


@dataclass(frozen=True)
class RagDocument:
    """The rendered retrieval document for one concept."""

    concept_id: ConceptId
    body: str


def build_rag_document(concept: OntologyConcept) -> RagDocument:
    """Render the canonical four-field retrieval document for a concept."""
    return RagDocument(concept_id=concept.concept_id, body=_document_body(concept))


def _document_body(concept: OntologyConcept) -> str:
    """The body of ``build_rag_document(concept)``: the one renderer."""
    synonyms = "; ".join(concept.synonyms) if concept.synonyms else "(none)"
    return (
        f"NAME: {concept.preferred_name}\n"
        f"ID: {concept.concept_id.render()}\n"
        f"DESCRIPTION: {concept.description}\n"
        f"SYNONYMS: {synonyms}"
    )


_IDENTIFIER = operator.attrgetter("concept_id.identifier")


class OntologyStore:
    """Immutable set of concepts with unique ids."""

    def __init__(self, concepts: Iterable[OntologyConcept]):
        self._by_id: dict[ConceptId, OntologyConcept] = {}
        for concept in concepts:
            self._add(concept)

    def _add(self, concept: OntologyConcept) -> None:
        """Add ``concept``, rejecting an id the store already holds; the one
        duplicate check, shared with ``load_ontology``."""
        if concept.concept_id in self._by_id:
            raise ValidationError(f"duplicate concept_id {concept.concept_id}")
        self._by_id[concept.concept_id] = concept

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, concept_id: ConceptId) -> bool:
        return concept_id in self._by_id

    def get(self, concept_id: ConceptId) -> OntologyConcept:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise KeyError(f"unknown concept {concept_id}") from None

    def concepts(self) -> list[OntologyConcept]:
        """All concepts, ascending by canonical id rendering."""
        # Every id is real and renders as "mesh:" + identifier, so ascending
        # identifiers are ascending renderings.
        return sorted(self._by_id.values(), key=_IDENTIFIER)


def load_ontology(source: str | Path | Iterable[str]) -> OntologyStore:
    """Load an ontology from line-delimited JSON concept objects.

    Each line: {"concept_id": "mesh:D...", "preferred_name": ...,
    "description": ..., "synonyms": [...]}. A repeated concept id is
    rejected on the line that repeats it.
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = jsonl_lines(source)
    else:
        lines = source
    store = OntologyStore(())

    def parse(_lineno: int, obj) -> None:
        store._add(OntologyConcept(
            concept_id=ConceptId.parse(obj["concept_id"]),
            preferred_name=json_field(obj, "preferred_name", str, ""),
            description=json_field(obj, "description", str, ""),
            synonyms=tuple(json_field(obj, "synonyms", list[str], [])),
        ))

    def parse_all(entries: list) -> OntologyStore | None:
        # What parse builds, when every entry is an object (nothing else
        # takes a string key) with a canonical id, a non-empty string name,
        # a string description and a list of string synonyms, and no id
        # repeats; any other file goes to parse line by line.
        try:
            ids = [entry["concept_id"] for entry in entries]
            names = [entry["preferred_name"] for entry in entries]
            descriptions = [entry.get("description", "") for entry in entries]
            synonyms = [entry.get("synonyms", []) for entry in entries]
        except (KeyError, TypeError):
            return None
        if not (ConceptId.all_canonical(ids) and set(map(type, names)) == {str} and all(names)
                and set(map(type, descriptions)) == {str} and set(map(type, synonyms)) == {list}
                and set(map(type, itertools.chain.from_iterable(synonyms))) <= {str}):
            return None
        by_id = {}
        for text, name, description, words in zip(ids, names, descriptions, synonyms):
            concept_id = ConceptId._unchecked(text[len("mesh:"):])
            by_id[concept_id] = OntologyConcept._unchecked(
                concept_id, name, description, tuple(words))
        if len(by_id) != len(ids):
            return None
        store._by_id = by_id
        return store

    read_jsonl(lines, "concept", parse, parse_all)
    return store


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

_SUFFIX_RULES: tuple[tuple[str, str, int], ...] = (
    # (suffix, replacement, minimum stem length after stripping)
    ("sses", "ss", 2),
    ("ies", "y", 2),
    ("ing", "", 3),
    ("ed", "", 3),
    ("es", "", 3),
    ("s", "", 3),
)


def stem_token(token: str) -> str:
    """Crude suffix-stripping stemmer, applied identically at index and
    query time; it only has to be consistent, not linguistically right."""
    # Every rule's suffix ends in s, g or d, so no other token can change.
    if not token.endswith(("s", "g", "d")) or token.endswith("ss"):
        return token
    for suffix, replacement, min_stem in _SUFFIX_RULES:
        if token.endswith(suffix) and len(token) - len(suffix) >= min_stem:
            return token[: -len(suffix)] + replacement
    return token


_WORD = re.compile(r"\w+")
# On ASCII text, _WORD.findall(text.lower()) is text.translate(_ASCII_WORDS).split():
# A-Z lowercased, 0-9, a-z and _ kept, every other ASCII character a space.
# A 256-byte table, so bytes.translate takes the encoded text in one C pass;
# str.translate reads the same table (its entries are code points).
_ASCII_WORDS = bytes(
    ord(chr(code).lower()) if code < 128 and (chr(code).isalnum() or chr(code) == "_")
    else ord(" ")
    for code in range(256)
)


class EmbeddingProvider(Protocol):
    """Deterministic text-to-unit-vector provider."""

    name: str
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Row ``i`` is the same bytes as ``embed(texts[i])``; shape (n, dimension)."""
        ...


def _check_text(text: str) -> None:
    if not text.strip():
        raise ValidationError("cannot embed empty or whitespace-only text")


# The state of an empty 8-byte BLAKE2b: a copy of it updated with the
# token's bytes is ``hashlib.blake2b(data, digest_size=8)``, built without
# parsing the constructor's arguments per token.
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


def _bucket(token: str, dimension: int) -> int:
    digest = _BLAKE2B_8.copy()
    digest.update(token.encode("utf-8"))
    return int.from_bytes(digest.digest(), "big") % dimension


class HashedBagOfWordsProvider:
    """Fallback provider: stemmed tokens hashed into fixed buckets, counts
    L2-normalized. Seedless and stable across processes."""

    def __init__(self, dimension: int = 256, name: str = "default"):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.name = name
        self.dimension = dimension
        # Lowercased raw token -> bucket of its stem, so each distinct token
        # is stemmed and hashed once per provider.
        self._buckets: dict[str, int] = {}

    def _token_buckets(self, text: str) -> list[int]:
        """The bucket of each token's stem, in text order; the one tokenizer
        behind ``embed`` and ``embed_many``."""
        buckets = []
        if text.isascii():
            tokens = text.encode("ascii").translate(_ASCII_WORDS).decode("ascii").split()
        else:
            tokens = _WORD.findall(text.lower())
        for token in tokens:
            bucket = self._buckets.get(token)
            if bucket is None:
                bucket = self._buckets[token] = _bucket(stem_token(token), self.dimension)
            buckets.append(bucket)
        if not buckets:
            raise ValidationError("cannot embed empty or whitespace-only text")
        return buckets

    def embed(self, text: str) -> np.ndarray:
        import numpy as np

        buckets = self._token_buckets(text)
        # Counts are exact integers, so the vector is the same bytes whatever
        # order the tokens are counted in.
        vector = np.bincount(buckets, minlength=self.dimension).astype(np.float64)
        return vector / np.linalg.norm(vector)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One weighted bincount over every text's (row, bucket) cells, then
        each row divided by its norm in place. Counts and sums of squares are
        exact integers in float64 (below 2**53), so each row's norm and
        quotient are correctly rounded from the same exact values as in
        ``embed``: row ``i`` is the same bytes as ``embed(texts[i])``."""
        import numpy as np

        dimension = self.dimension
        if not texts:
            return np.zeros((0, dimension))
        flat: list[int] = []
        lengths: list[int] = []
        for text in texts:
            buckets = self._token_buckets(text)
            flat += buckets
            lengths.append(len(buckets))
        cells = np.repeat(np.arange(len(texts)) * dimension, lengths)
        cells += np.fromiter(flat, dtype=cells.dtype, count=len(flat))
        counts = np.bincount(
            cells, weights=np.ones(len(flat)), minlength=len(texts) * dimension
        ).reshape(len(texts), dimension)
        counts /= np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]
        return counts


class RemoteEmbeddingProvider:
    """Provider backed by an HTTP endpoint speaking the embedding wire:
    request {"texts": [...]} -> response {"vectors": [[...], ...]}.

    Each text is one request, made up to ``1 + retry_budget`` times. A
    transport fault (see ``transport.send``) and every wire fault (no
    ``vectors`` row, a row that is not a list of JSON numbers, a wrong
    shape, a non-finite or zero vector) is a BackendError and is retried;
    any other exception from the transport is a bug and propagates at once.
    ``embed_many`` keeps up to ``max_inflight`` requests in flight.
    """

    def __init__(
        self,
        name: str,
        endpoint: str,
        dimension: int,
        transport: Callable[[str, dict], dict] | None = None,
        timeout_ms: int = 30_000,
        max_inflight: int = 4,
        retry_budget: int = 2,
    ):
        self.name = name
        self.endpoint = endpoint if transport else checked_endpoint(endpoint, timeout_ms)
        self.dimension = dimension
        self.max_inflight = max_inflight
        self.retry_budget = retry_budget
        self._transport = transport or functools.partial(
            post_json, timeout_s=timeout_ms / 1000, token_env="PHENOTAG_EMBED_TOKEN"
        )

    def _request(self, text: str) -> np.ndarray:
        import numpy as np

        response = send(f"embedding provider {self.name!r}", self._transport, self.endpoint,
                        {"texts": [text]})
        malformed = f"embedding provider {self.name!r} returned a malformed response"
        try:
            row = response["vectors"][0]
            # JSON numbers only: asarray would convert strings and booleans.
            if not isinstance(row, list) or not set(map(type, row)) <= {int, float}:
                raise BackendError(f"{malformed}: vector entries must be JSON numbers")
            raw = np.asarray(row, dtype=np.float64)
        except (KeyError, IndexError, TypeError, OverflowError) as exc:
            raise BackendError(f"{malformed}: {exc}") from exc
        if raw.shape != (self.dimension,):
            raise BackendError(
                f"embedding provider {self.name!r} returned shape {raw.shape}, "
                f"expected ({self.dimension},)"
            )
        if not np.isfinite(raw).all():
            raise BackendError(f"embedding provider {self.name!r} returned a non-finite vector")
        norm = np.linalg.norm(raw)
        if norm == 0:
            raise BackendError(f"embedding provider {self.name!r} returned a zero vector")
        return raw / norm

    def embed(self, text: str) -> np.ndarray:
        _check_text(text)
        return call_with_retry(lambda: self._request(text), 1 + self.retry_budget)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Check every text, then ``embed`` each, at most ``max_inflight`` at
        a time. Once one text has failed, no further text is sent and the
        first failure in input order is raised."""
        import numpy as np

        for text in texts:
            _check_text(text)
        rows = window_map(self.embed, texts, self.max_inflight)
        return np.vstack(rows) if rows else np.zeros((0, self.dimension))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; the plain dot product for unit vectors."""
    import numpy as np

    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    if denom == 0:
        raise ValueError("cosine undefined for zero vectors")
    return float(np.dot(u, v) / denom)


# The cached index matrix in a cache directory, and its sidecar holding the
# cache key and the matrix's sha256.
INDEX_FILE = "ontology_index.npy"
INDEX_SIDECAR = INDEX_FILE + ".json"


def _index_key(provider: EmbeddingProvider, bodies: Sequence[str]) -> str:
    """sha256 over the package version, the provider's identity (class,
    name, dimension, and endpoint for a remote provider) and every document
    body in order, each part length-prefixed."""
    identity = json.dumps([
        __version__, type(provider).__name__, provider.name, provider.dimension,
        getattr(provider, "endpoint", None),
    ])
    digest = hashlib.sha256()
    for part in (identity, *bodies):
        data = part.encode("utf-8")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def _npy_header(shape: tuple[int, int]) -> bytes:
    """The header ``np.save`` writes before a C-order float64 matrix of ``shape``."""
    import numpy as np
    from numpy.lib import format as npy

    header = io.BytesIO()
    npy.write_array_header_1_0(header, {
        "descr": npy.dtype_to_descr(np.dtype(np.float64)), "fortran_order": False,
        "shape": shape,
    })
    return header.getvalue()


def _read_index(cache_dir: Path, key: str, shape: tuple[int, int]) -> np.ndarray | None:
    """The matrix cached in ``cache_dir``, or None unless the sidecar holds
    ``key``, the file is exactly what ``np.save`` writes for a float64
    matrix of ``shape``, and the sidecar holds that matrix's sha256."""
    import numpy as np

    try:
        sidecar = json.loads((cache_dir / INDEX_SIDECAR).read_text(encoding="utf-8"))
        if not isinstance(sidecar, dict) or sidecar.get("key") != key:
            return None
        header = _npy_header(shape)
        with open(cache_dir / INDEX_FILE, "rb") as handle:
            size = shape[0] * shape[1]
            if (os.fstat(handle.fileno()).st_size != len(header) + 8 * size
                    or handle.read(len(header)) != header):
                return None
            matrix = np.fromfile(handle, dtype=np.float64, count=size).reshape(shape)
    except (OSError, ValueError):
        return None
    if hashlib.sha256(matrix).hexdigest() != sidecar.get("sha256"):
        return None
    return matrix


def _write_index(cache_dir: Path, key: str, matrix: np.ndarray) -> None:
    """Write the matrix, then its sidecar, each atomically; a crash between
    the two leaves the old sidecar, which pins the old matrix's digest."""
    import numpy as np

    atomic_write(cache_dir / INDEX_FILE, lambda handle: np.save(handle, matrix), "wb")
    sidecar = {"key": key, "sha256": hashlib.sha256(matrix).hexdigest()}
    atomic_write_text(cache_dir / INDEX_SIDECAR, json.dumps(sidecar) + "\n")


class OntologyIndex:
    """Exhaustive-scan vector index over a store's retrieval documents.

    Immutable after build; rebuilding from the same store and provider
    yields identical vectors. Exhaustive scan is deliberate: at the
    disease-subset scale nothing fancier pays for itself. The index serves
    each concept's retrieval document (``document``) and ranks each
    distinct query vector once (``top_k``). It keeps each document's body,
    rendered by ``build_rag_document``'s renderer; a build or a cache read
    makes no ``RagDocument``.

    With ``cache_dir``, the matrix is read from ``INDEX_FILE`` there when
    its sidecar holds this store's and provider's key and the matrix's
    digest; otherwise it is built and both files are rewritten.
    ``cache_sidecar`` is then the sidecar's path and ``cache_read`` says
    whether the matrix came from it.
    """

    def __init__(self, store: OntologyStore, provider: EmbeddingProvider,
                 cache_dir: str | Path | None = None):
        self.provider = provider
        concepts = store.concepts()
        self._concept_ids: list[ConceptId] = [concept.concept_id for concept in concepts]
        self._rows = dict(zip(self._concept_ids, range(len(concepts))))
        # Bodies, not RagDocuments: a long-lived document object per concept
        # costs more in garbage-collector passes than one built per
        # ``document`` call.
        self._bodies = bodies = list(map(_document_body, concepts))
        # (k, query vector bytes) -> that query's ranking; see top_k.
        self._rankings: dict[tuple[int, bytes], tuple[tuple[ConceptId, float], ...]] = {}
        self.cache_sidecar: Path | None = None
        self.cache_read = False
        if cache_dir is None:
            self._matrix = provider.embed_many(bodies)
            return
        cache_dir = Path(cache_dir)
        self.cache_sidecar = cache_dir / INDEX_SIDECAR
        key = _index_key(provider, bodies)
        matrix = _read_index(cache_dir, key, (len(bodies), provider.dimension))
        self.cache_read = matrix is not None
        if matrix is None:
            matrix = provider.embed_many(bodies)
            _write_index(cache_dir, key, matrix)
        self._matrix = matrix

    def document(self, concept_id: ConceptId) -> RagDocument:
        """The retrieval document this index embedded for ``concept_id``."""
        return RagDocument(concept_id, self._bodies[self._rows[concept_id]])

    def top_k(self, query_text: str, k: int) -> list[tuple[ConceptId, float]]:
        """Concepts ranked by descending cosine against the query embedding;
        at most ``k`` results. Scores that are equal as the matrix-vector
        product rounds them rank by ascending concept id.

        Mathematically equal cosines can come out of the product a few ulps
        apart, so their order follows the product's summation order, and any
        change to that order can reorder them.

        Every query is embedded, but each distinct (``k``, query vector
        bytes) is ranked once per index: the same vector gives the same
        product bytes, so a repeat gets a copy of the first ranking, ties
        included, exactly as ranking it again would."""
        import numpy as np

        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if not query_text.strip():
            raise ValidationError("empty retrieval query")
        query = self.provider.embed(query_text)
        key = (k, query.tobytes())
        ranking = self._rankings.get(key)
        if ranking is not None:
            return list(ranking)
        scores = self._matrix @ query
        # Rows follow store.concepts(), which is ascending id rendering, so a
        # stable sort on -score ranks exactly as sorting on (-score, id) would.
        n = len(scores)
        if k < n:
            # Only rows scoring at least the k-th best can rank. They are a
            # prefix of the full stable order, and flatnonzero keeps them in
            # row order, so sorting just them ranks them identically.
            kth_best = np.partition(scores, n - k)[n - k]
            candidates = np.flatnonzero(scores >= kth_best)
            top = candidates[np.argsort(-scores[candidates], kind="stable")][:k]
        else:
            top = np.argsort(-scores, kind="stable")
        # Concurrent callers may both rank one miss; they store equal tuples.
        ranking = self._rankings[key] = tuple(
            (self._concept_ids[row], float(scores[row])) for row in top.tolist()
        )
        return list(ranking)
