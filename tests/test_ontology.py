import hashlib
import json
import math
import random
import re
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phenotag import ontology
from phenotag.corpus import ConceptId, read_jsonl
from phenotag.errors import BackendError, ValidationError
import phenotag
from phenotag.ontology import (
    INDEX_FILE,
    INDEX_SIDECAR,
    HashedBagOfWordsProvider,
    OntologyConcept,
    OntologyIndex,
    OntologyStore,
    RemoteEmbeddingProvider,
    build_rag_document,
    _ASCII_WORDS,
    _bucket,
    cosine,
    load_ontology,
    stem_token,
)

from conftest import LoopbackServer, concepts_to_jsonl, make_concepts, reply_after, tokenize


def concept_line(cid="mesh:D001249", name="asthma", desc="airway disease", syns=("wheeze",)):
    return json.dumps(
        {"concept_id": cid, "preferred_name": name, "description": desc, "synonyms": list(syns)}
    )


# --- load_ontology ----------------------------------------------------------

def test_load_three_concepts_and_lookup(tmp_path):
    path = tmp_path / "onto.jsonl"
    path.write_text(concepts_to_jsonl(make_concepts(3)), encoding="utf-8")
    store = load_ontology(path)
    assert len(store) == 3
    for concept in make_concepts(3):
        assert store.get(concept.concept_id).preferred_name == concept.preferred_name


def test_load_duplicate_id_rejected():
    lines = [concept_line(), concept_line(name="other")]
    with pytest.raises(ValidationError, match="D001249"):
        load_ontology(lines)


def test_load_duplicate_id_names_the_repeating_line():
    lines = [concept_line(), "", concept_line(cid="mesh:D000002"), concept_line(name="other")]
    with pytest.raises(ValidationError) as info:
        load_ontology(lines)
    assert str(info.value) == "line 4: bad concept: duplicate concept_id mesh:D001249"


def test_store_rejects_duplicate_ids_it_is_given():
    (concept,) = make_concepts(1)
    with pytest.raises(ValidationError, match="duplicate concept_id mesh:D000001"):
        OntologyStore([concept, concept])


def test_load_empty_name_rejected():
    with pytest.raises(ValidationError, match="line 1"):
        load_ontology([concept_line(name="")])


# --- build_rag_document -----------------------------------------------------

def test_rag_document_contains_all_four_fields():
    concept = OntologyConcept(
        ConceptId("D001249"), "asthma", "chronic airway disease", ("wheeze", "bronchial asthma")
    )
    body = build_rag_document(concept).body
    assert body.splitlines() == [
        "NAME: asthma",
        "ID: mesh:D001249",
        "DESCRIPTION: chronic airway disease",
        "SYNONYMS: wheeze; bronchial asthma",
    ]


def test_rag_document_empty_synonyms():
    concept = OntologyConcept(ConceptId("D000001"), "x disease")
    assert "SYNONYMS: (none)" in build_rag_document(concept).body


def test_rag_document_injective_on_id(store10):
    bodies = {build_rag_document(c).body for c in store10.concepts()}
    assert len(bodies) == len(store10)
    for c in store10.concepts():
        assert c.concept_id.render() in build_rag_document(c).body


# --- embeddings -------------------------------------------------------------

def test_fallback_embedding_deterministic():
    provider = HashedBagOfWordsProvider()
    a = provider.embed("child has asthma")
    b = provider.embed("child has asthma")
    assert np.array_equal(a, b)


def test_fallback_embedding_unit_norm():
    provider = HashedBagOfWordsProvider()
    for text in ("asthma", "a b c d e", "repeated repeated tokens"):
        assert abs(np.linalg.norm(provider.embed(text)) - 1.0) <= 1e-9


def test_fallback_embedding_order_invariant():
    provider = HashedBagOfWordsProvider()
    assert np.array_equal(provider.embed("a b"), provider.embed("b a"))


def test_embed_rejects_empty_text():
    provider = HashedBagOfWordsProvider()
    with pytest.raises(ValidationError):
        provider.embed("   ")


def test_remote_provider_wire_and_failure():
    calls = []

    def transport(url, payload):
        calls.append((url, payload))
        return {"vectors": [[3.0, 4.0]]}

    provider = RemoteEmbeddingProvider("jina", "http://emb.local/v1", 2, transport=transport)
    vector = provider.embed("asthma")
    assert calls == [("http://emb.local/v1", {"texts": ["asthma"]})]
    assert np.allclose(vector, [0.6, 0.8])

    def broken(url, payload):
        raise ConnectionError("boom")

    failing = RemoteEmbeddingProvider("pubmed", "http://emb.local/v1", 2, transport=broken)
    with pytest.raises(BackendError, match="pubmed"):
        failing.embed("asthma")


def test_remote_provider_default_transport_honours_timeout(monkeypatch):
    # The reply comes 0.4 s after the request: within a 2.5 s timeout, and
    # after a 0.1 s one, which every attempt then trips.
    monkeypatch.delenv("PHENOTAG_EMBED_TOKEN", raising=False)
    with LoopbackServer(lambda handler, body: reply_after(
            handler, 0.4, {"vectors": [[3.0, 4.0]]})) as server:
        provider = RemoteEmbeddingProvider("jina", server.url + "/v1", 2, timeout_ms=2_500)
        assert np.allclose(provider.embed("asthma"), [0.6, 0.8])
        assert server.seen == [("POST", "/v1", {"texts": ["asthma"]}, None)]
        hasty = RemoteEmbeddingProvider("jina", server.url + "/v1", 2, timeout_ms=100)
        started = time.monotonic()
        with pytest.raises(BackendError, match="timed out"):
            hasty.embed("asthma")
        assert time.monotonic() - started < 1.2
        assert server.seen == [("POST", "/v1", {"texts": ["asthma"]}, None)] * 4


@pytest.mark.parametrize("vector", [[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 0.0]])
def test_remote_provider_rejects_non_finite_vector(vector):
    provider = RemoteEmbeddingProvider(
        "jina", "http://emb.local/v1", 2, transport=lambda url, payload: {"vectors": [vector]}
    )
    with pytest.raises(BackendError, match="non-finite"):
        provider.embed("asthma")


# --- cosine -----------------------------------------------------------------

def test_cosine_identity_and_orthogonality():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert cosine(u, u) == pytest.approx(1.0)
    assert cosine(u, v) == pytest.approx(0.0)


def test_cosine_forty_five_degrees():
    u = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert cosine(u, w) == pytest.approx(0.7071, abs=1e-4)


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cosine(np.ones(2), np.ones(3))


def test_fallback_self_similarity_is_one():
    provider = HashedBagOfWordsProvider()
    for text in ("asthma", "the child has a cough", "x y z"):
        v = provider.embed(text)
        assert abs(cosine(v, v) - 1.0) <= 1e-9


# --- top_k ------------------------------------------------------------------

def brute_force_ranking(store, provider, query_text):
    """Independent oracle: recompute every document embedding and sort."""
    query = provider.embed(query_text)
    scored = []
    for concept in store.concepts():
        doc = provider.embed(build_rag_document(concept).body)
        scored.append((concept.concept_id, float(np.dot(query, doc))))
    scored.sort(key=lambda pair: (-pair[1], pair[0].render()))
    return scored


def test_exact_name_query_ranks_first_all_50(store50):
    provider = HashedBagOfWordsProvider()
    index = OntologyIndex(store50, provider)
    for concept in store50.concepts():
        ranked = index.top_k(concept.preferred_name, 1)
        assert ranked[0][0] == concept.concept_id
        oracle = brute_force_ranking(store50, provider, concept.preferred_name)
        assert oracle[0][0] == concept.concept_id


def test_top_k_matches_brute_force_ordering(store50):
    provider = HashedBagOfWordsProvider()
    index = OntologyIndex(store50, provider)
    for query in ("persistent disorder", "chronic bronchitis", "heart"):
        got = index.top_k(query, 10)
        expected = brute_force_ranking(store50, provider, query)[:10]
        assert [c.render() for c, _ in got] == [c.render() for c, _ in expected]
        assert np.allclose([s for _, s in got], [s for _, s in expected])


def test_top_k_prefix_property(store10):
    index = OntologyIndex(store10, HashedBagOfWordsProvider())
    for k in range(1, 10):
        shorter = index.top_k("disorder of the heart", k)
        longer = index.top_k("disorder of the heart", k + 1)
        assert longer[:k] == shorter


def test_top_k_truncates_at_store_size(store10):
    index = OntologyIndex(store10, HashedBagOfWordsProvider())
    assert len(index.top_k("anything persistent", 99)) == 10


def test_top_k_tie_break_ascending_id():
    # Two concepts embedding identically except for their ID line tokens;
    # craft an exact tie by giving them the same name/description/synonyms.
    twins = [
        OntologyConcept(ConceptId("D000200"), "twin disease", "same words here", ()),
        OntologyConcept(ConceptId("D000100"), "twin disease", "same words here", ()),
    ]
    provider = HashedBagOfWordsProvider()
    index = OntologyIndex(OntologyStore(twins), provider)
    ranked = index.top_k("twin", 2)
    scores = [s for _, s in ranked]
    if scores[0] == pytest.approx(scores[1]):
        assert [c.render() for c, _ in ranked] == ["mesh:D000100", "mesh:D000200"]


def test_top_k_input_validation(store10):
    index = OntologyIndex(store10, HashedBagOfWordsProvider())
    with pytest.raises(ValidationError):
        index.top_k("query", 0)
    with pytest.raises(ValidationError):
        index.top_k("  ", 3)


def test_rebuild_yields_identical_vectors(store10):
    provider = HashedBagOfWordsProvider()
    first = OntologyIndex(store10, provider)
    second = OntologyIndex(store10, provider)
    for concept in store10.concepts():
        query = concept.preferred_name
        assert first.top_k(query, len(store10)) == second.top_k(query, len(store10))


# --- properties against the seed implementation -----------------------------

def seed_embed(text, dimension):
    """The seed's fallback embedding: one float increment per stemmed token."""
    tokens = tokenize(text)
    if not tokens:
        raise ValidationError("cannot embed empty or whitespace-only text")
    vector = np.zeros(dimension, dtype=np.float64)
    for token in tokens:
        vector[_bucket(token, dimension)] += 1.0
    return vector / np.linalg.norm(vector)


def seed_top_k(store, query_text, k, dimension=256):
    """The seed's top_k: score every concept, then sort (-score, id) tuples."""
    concepts = store.concepts()
    matrix = np.vstack([seed_embed(build_rag_document(c).body, dimension) for c in concepts])
    scores = matrix @ seed_embed(query_text, dimension)
    ranked = sorted(
        zip([c.concept_id for c in concepts], scores.tolist()),
        key=lambda pair: (-pair[1], pair[0].render()),
    )
    return ranked[:k]


_DISEASE_WORDS = ("asthma", "eczema", "gout", "rash", "chronic")
_EMBED_WORDS = _DISEASE_WORDS + (
    "Asthma", "ASTHMA", "wheezing", "Wheezes", "allergies", "classes", "illness",
    "the", "of", "x", "_", "42", "naïve", "ÉCZEMA",
)
_SEPARATORS = (" ", "  ", ", ", "-", "\n", "'")

_word_texts = st.lists(
    st.tuples(st.sampled_from(_EMBED_WORDS), st.sampled_from(_SEPARATORS)), max_size=12
).map(lambda parts: "".join(word + sep for word, sep in parts))
_phrases = st.lists(st.sampled_from(_DISEASE_WORDS), min_size=1, max_size=3).map(" ".join)


@st.composite
def _tied_stores(draw):
    """Stores whose concepts share a few documents, so exact score ties
    (duplicate documents, rows sharing no word with the query) are common.
    Ids vary in width, so render order differs from numeric order."""
    documents = draw(st.lists(
        st.tuples(_phrases, st.sampled_from(("", "skin", "airway disease")),
                  st.lists(_phrases, max_size=2).map(tuple)),
        min_size=1, max_size=3,
    ))
    size = draw(st.integers(1, 40))  # past 16 rows, NumPy's default sort is no longer stable
    numbers = draw(st.lists(st.integers(1, 99_999), min_size=size, max_size=size, unique=True))
    return OntologyStore(
        OntologyConcept(ConceptId(f"D{number}"), *draw(st.sampled_from(documents)))
        for number in numbers
    )


@given(texts=st.lists(st.one_of(_word_texts, st.text(max_size=30)), min_size=1, max_size=8),
       dimension=st.sampled_from((1, 7, 256)))
def test_embed_matches_seed_loop_bytes(texts, dimension):
    warm = HashedBagOfWordsProvider(dimension=dimension)
    for text in texts:
        fresh = HashedBagOfWordsProvider(dimension=dimension)
        try:
            expected = seed_embed(text, dimension).tobytes()
        except ValidationError:
            for provider in (warm, fresh):
                with pytest.raises(ValidationError):
                    provider.embed(text)
            continue
        assert warm.embed(text).tobytes() == expected
        assert fresh.embed(text).tobytes() == expected


@given(store=_tied_stores(), query=st.lists(
    st.sampled_from(_DISEASE_WORDS + ("migraine", "fever")), min_size=1, max_size=4
).map(" ".join), data=st.data())
def test_top_k_matches_seed_sorted_ranking(store, query, data):
    index = OntologyIndex(store, HashedBagOfWordsProvider())
    k = data.draw(st.integers(1, len(store) + 2), label="k")
    assert index.top_k(query, k) == seed_top_k(store, query, k)


def test_top_k_matches_seed_ranking_with_more_than_k_tied_at_kth():
    # Two rows outscore a block of 28 identical documents, so for k >= 3 more
    # than k rows tie at the k-th score and only the id tie-break picks among
    # them. Ids vary in width, so render order differs from numeric order.
    numbers = [(n * 7919) % 100_000 + 1 for n in range(30)]
    concepts = [OntologyConcept(ConceptId(f"D{n}"), "asthma") for n in numbers[:2]]
    concepts += [OntologyConcept(ConceptId(f"D{n}"), "chronic asthma", "airway disease")
                 for n in numbers[2:]]
    store = OntologyStore(concepts)
    index = OntologyIndex(store, HashedBagOfWordsProvider())
    scores = [score for _, score in seed_top_k(store, "asthma", len(store))]
    assert scores.count(scores[4]) > 5
    for k in range(1, len(store) + 2):
        assert index.top_k("asthma", k) == seed_top_k(store, "asthma", k)


# --- the ranking memo -------------------------------------------------------

@st.composite
def _repeated_queries(draw, max_k):
    """(query, k) pairs over a few word lists, each rendered with its own
    case, separators and end punctuation, so many pairs embed alike."""
    bases = draw(st.lists(st.lists(
        st.sampled_from(_DISEASE_WORDS + ("migraine", "fever")), min_size=1, max_size=3,
    ), min_size=1, max_size=3))
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        case = draw(st.sampled_from((str.lower, str.upper, str.title)))
        separator = draw(st.sampled_from((" ", ", ", " - ", "\n", "; ")))
        words = separator.join(case(word) for word in draw(st.sampled_from(bases)))
        queries.append((words + draw(st.sampled_from(("", "?", " ."))),
                        draw(st.integers(1, max_k))))
    return queries


@given(store=_tied_stores(), data=st.data())
def test_repeated_queries_rank_as_on_a_fresh_index(store, data):
    index = OntologyIndex(store, HashedBagOfWordsProvider())
    for query, k in data.draw(_repeated_queries(len(store) + 2), label="queries"):
        got = index.top_k(query, k)
        assert got == OntologyIndex(store, HashedBagOfWordsProvider()).top_k(query, k)
        got.reverse()  # a caller's edits must not reach later answers
        got.pop()


class CountingMatrix:
    """Stands in for an index matrix and counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, query):
        self.products += 1
        return self.matrix @ query


def test_each_distinct_query_vector_is_ranked_once(store10):
    index = OntologyIndex(store10, HashedBagOfWordsProvider())
    index._matrix = CountingMatrix(index._matrix)
    first = index.top_k("chronic disorder", 3)
    for query in ("chronic disorder", "Chronic, DISORDER?", "disorder chronic"):
        assert index.top_k(query, 3) == first
    assert index._matrix.products == 1
    index.top_k("chronic disorder", 4)
    index.top_k("chronic heart disorder", 3)
    assert index._matrix.products == 3


def test_index_documents_are_the_rendered_documents(store10):
    index = OntologyIndex(store10, HashedBagOfWordsProvider())
    for concept in store10.concepts():
        assert index.document(concept.concept_id) == build_rag_document(concept)


# Concept fields with and without synonyms or a description, empty ones
# included, and names beyond ASCII.
_CONCEPT_FIELDS = st.fixed_dictionaries(
    {"preferred_name": st.text(min_size=1, max_size=5)},
    optional={"description": st.text(max_size=5),
              "synonyms": st.lists(st.text(max_size=4), max_size=2)},
)


@given(entries=st.lists(_CONCEPT_FIELDS, min_size=1, max_size=6))
@example(entries=[{"preferred_name": "asthma"}])
@example(entries=[{"preferred_name": "\u00e9cz\u00e9ma", "description": "", "synonyms": []},
                  {"preferred_name": "\u03a3\u2028x", "synonyms": ["\u0101"]}])
def test_bulk_built_concepts_and_index_bodies_equal_the_per_line_ones(entries):
    lines = [json.dumps({"concept_id": f"mesh:D{number:06d}", **entry}, ensure_ascii=False)
             for number, entry in enumerate(entries, start=1)]
    took = []

    def spying(lines, what, parse, bulk):
        def spy(objects):
            result = bulk(objects)
            took.append(result is not None)
            return result

        return read_jsonl(lines, what, parse, spy)

    with mock.patch.object(ontology, "read_jsonl", spying):
        bulk_store = load_ontology(lines)
    assert took == [True]
    with mock.patch.object(ontology, "read_jsonl",
                           lambda lines, what, parse, bulk: read_jsonl(lines, what, parse)):
        per_line_store = load_ontology(lines)
    for built, parsed in zip(bulk_store.concepts(), per_line_store.concepts(), strict=True):
        assert built == parsed
        assert hash(built) == hash(parsed)
        assert repr(built) == repr(parsed)
    index = OntologyIndex(bulk_store, HashedBagOfWordsProvider(dimension=16))
    for concept in bulk_store.concepts():
        assert index.document(concept.concept_id).body == build_rag_document(concept).body


@given(token=st.text(max_size=8), dimension=st.sampled_from((1, 16, 256, 1000)))
def test_bucket_is_the_one_call_blake2b_digest(token, dimension):
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    assert _bucket(token, dimension) == int.from_bytes(digest, "big") % dimension


def test_stemmer_consistency():
    assert stem_token("classes") == "class"
    assert stem_token("allergies") == "allergy"
    assert stem_token("wheezing") == stem_token("wheezing")
    assert stem_token("illness") == "illness"  # ss guarded
    assert stem_token("asthma") == "asthma"


# --- embed_many -------------------------------------------------------------

class HashedTransport:
    """Embedding wire fake answering with three times the hashed provider's
    vector. ``faults(text, attempt)`` may return an exception to raise
    instead; ``jitter`` seeds a random 0-2 ms sleep per call."""

    def __init__(self, dimension, faults=None, jitter=None):
        self._reference = HashedBagOfWordsProvider(dimension=dimension)
        self._faults = faults
        self._rng = None if jitter is None else random.Random(jitter)
        self._lock = threading.Lock()
        self._attempts = {}
        self._active = 0
        self.inflight_max = 0
        self.calls = 0

    def __call__(self, url, payload):
        (text,) = payload["texts"]
        with self._lock:
            self.calls += 1
            attempt = self._attempts[text] = self._attempts.get(text, 0) + 1
            self._active += 1
            self.inflight_max = max(self.inflight_max, self._active)
            delay = self._rng.uniform(0, 0.002) if self._rng else 0.0
        try:
            time.sleep(delay)
            fault = self._faults(text, attempt) if self._faults else None
            if fault is not None:
                raise fault
            return {"vectors": [(3 * self._reference.embed(text)).tolist()]}
        finally:
            with self._lock:
                self._active -= 1


def remote(transport, dimension=16, **kwargs):
    return RemoteEmbeddingProvider("remote", "fake://embed", dimension, transport=transport,
                                   **kwargs)


def numbered_store(n):
    return OntologyStore(
        OntologyConcept(ConceptId(f"D{i:06d}"), f"disease number {i}") for i in range(1, n + 1)
    )


@settings(max_examples=50)
@given(texts=st.lists(_word_texts.filter(tokenize), max_size=8),
       jitter=st.integers(0, 2**32 - 1))
def test_embed_many_rows_are_embed_bytes(texts, jitter):
    for provider in (HashedBagOfWordsProvider(dimension=16),
                     remote(HashedTransport(16, jitter=jitter), max_inflight=4)):
        rows = provider.embed_many(texts)
        assert rows.shape == (len(texts), 16)
        assert rows.tobytes() == b"".join(provider.embed(text).tobytes() for text in texts)


def test_embed_many_of_nothing_is_empty_matrix():
    for provider in (HashedBagOfWordsProvider(dimension=16), remote(HashedTransport(16))):
        assert provider.embed_many([]).shape == (0, 16)


def test_remote_embed_many_keeps_the_window(store50):
    transport = HashedTransport(16, jitter=5)
    OntologyIndex(store50, remote(transport, max_inflight=3))
    assert transport.calls == len(store50)
    assert 1 < transport.inflight_max <= 3


def test_remote_embed_many_validates_every_text_before_sending():
    transport = HashedTransport(16)
    with pytest.raises(ValidationError):
        remote(transport).embed_many(["asthma", "eczema", "  "])
    assert transport.calls == 0


def test_transient_faults_are_retried_into_an_identical_index(store50):
    def first_attempt_fails(text, attempt):
        return ConnectionError("transient") if attempt == 1 else None

    flaky = HashedTransport(16, faults=first_attempt_fails)
    clean = HashedTransport(16)
    flaky_index = OntologyIndex(store50, remote(flaky))
    clean_index = OntologyIndex(store50, remote(clean))
    assert flaky_index._matrix.tobytes() == clean_index._matrix.tobytes()
    assert flaky.calls == 2 * len(store50)
    assert clean.calls == len(store50)


def test_failed_text_stops_the_index_build():
    store = numbered_store(300)
    transport = HashedTransport(16, faults=lambda text, attempt: TimeoutError("down"))
    with pytest.raises(BackendError, match="down"):
        OntologyIndex(store, remote(transport, max_inflight=4, retry_budget=2))
    # Only the texts already in flight when the first one failed were sent.
    assert 3 <= transport.calls <= 4 * 3


def test_transport_programming_error_is_not_retried():
    transport = HashedTransport(16, faults=lambda text, attempt: TypeError("bug in transport"))
    with pytest.raises(TypeError, match="bug in transport"):
        OntologyIndex(numbered_store(300), remote(transport, max_inflight=1, retry_budget=2))
    assert transport.calls == 1


@pytest.mark.parametrize("response, detail", [
    ({"vector": [1.0] * 16}, "malformed"),
    ({"vectors": []}, "malformed"),
    ({"vectors": [[1.0] * 15]}, "shape"),
    ({"vectors": [[math.nan] + [1.0] * 15]}, "non-finite"),
    ({"vectors": [[0.0] * 16]}, "zero vector"),
    ({"vectors": [["0.5"] + [1.0] * 15]}, "malformed"),
    ({"vectors": [[True] + [1.0] * 15]}, "malformed"),
    ({"vectors": [[None] + [1.0] * 15]}, "malformed"),
    ({"vectors": [[[1.0]] + [1.0] * 15]}, "malformed"),
    ({"vectors": [[[1.0] * 16]]}, "malformed"),
    ({"vectors": ["1" * 16]}, "malformed"),
    ({"vectors": [[10**400] + [1.0] * 15]}, "malformed"),
])
def test_malformed_response_is_a_retried_backend_error(response, detail):
    calls = []

    def transport(url, payload):
        calls.append(payload)
        return response

    with pytest.raises(BackendError, match=detail):
        remote(transport, retry_budget=1).embed("asthma")
    assert len(calls) == 2


def test_remote_provider_embeds_every_top_k_call_when_queries_repeat():
    transport = HashedTransport(16)
    index = OntologyIndex(numbered_store(10), remote(transport))
    reference = OntologyIndex(numbered_store(10), remote(HashedTransport(16)))
    queries = ["disease number 3", "Disease, number 3?", "disease number 3", "number 7"] * 3
    for calls, query in enumerate(queries, start=11):
        assert index.top_k(query, 3) == reference.top_k(query, 3)
        assert transport.calls == calls


def test_interrupted_index_build_sends_no_queued_text(monkeypatch):
    transport = HashedTransport(16, faults=lambda text, attempt: time.sleep(0.01))

    def interrupted(future, timeout=None):
        raise KeyboardInterrupt  # Ctrl-C while waiting for the first row

    monkeypatch.setattr(Future, "result", interrupted)
    with pytest.raises(KeyboardInterrupt):
        OntologyIndex(numbered_store(300), remote(transport, max_inflight=2))
    # Only the texts in flight at the interrupt finish; 300 would mean the
    # pool drained its whole queue first.
    assert transport.calls < 50


def test_hashed_index_build_starts_no_thread(store50, monkeypatch):
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    OntologyIndex(store50, HashedBagOfWordsProvider())
    assert started == []


# --- one-pass hashed embed_many against the per-text loop --------------------

def loop_stem_token(token):
    """The stemmer before its early return for tokens ending in neither s, g
    nor d: every suffix rule is tried."""
    if token.endswith("ss"):
        return token
    for suffix, replacement, min_stem in (
        ("sses", "ss", 2), ("ies", "y", 2), ("ing", "", 3), ("ed", "", 3), ("es", "", 3),
        ("s", "", 3),
    ):
        if token.endswith(suffix) and len(token) - len(suffix) >= min_stem:
            return token[: -len(suffix)] + replacement
    return token


def loop_embed_many(texts, dimension):
    """``embed_many`` before the one-pass build: each text counted with its
    own bincount and normalized on its own, then the rows stacked."""
    rows = []
    for text in texts:
        buckets = [_bucket(loop_stem_token(token), dimension)
                   for token in re.findall(r"\w+", text.lower())]
        if not buckets:
            raise ValidationError("cannot embed empty or whitespace-only text")
        vector = np.bincount(buckets, minlength=dimension).astype(np.float64)
        rows.append(vector / np.linalg.norm(vector))
    return np.vstack(rows) if rows else np.zeros((0, dimension))


# Arbitrary stems, each followed by a suffix that a rule strips, a near
# miss of one, or nothing.
_suffixed_tokens = st.tuples(
    st.text(max_size=6),
    st.sampled_from(("", "s", "ss", "sses", "ies", "ing", "ed", "es", "d", "g", "ng", "é")),
).map("".join)


@given(token=st.one_of(st.text(), _suffixed_tokens))
@example(token="")
@example(token="ss")
@example(token="ies")
@example(token="ing")
@example(token="ed")
@example(token="wheezed")
@example(token="naïves")
@example(token="ÉCZEMAS")
def test_stem_token_matches_the_loop_stemmer(token):
    assert stem_token(token) == loop_stem_token(token)


_repeated_texts = st.lists(
    st.tuples(st.sampled_from(_EMBED_WORDS), st.integers(1, 400), st.sampled_from(_SEPARATORS)),
    min_size=1, max_size=6,
).map(lambda parts: "".join((word + sep) * times for word, times, sep in parts))


@settings(max_examples=50)
@given(texts=st.lists(_repeated_texts, max_size=6), dimension=st.sampled_from((1, 16)))
def test_embed_many_matches_the_per_text_loop_bytes(texts, dimension):
    provider = HashedBagOfWordsProvider(dimension=dimension)
    rows = provider.embed_many(texts)
    assert rows.shape == (len(texts), dimension)
    assert rows.tobytes() == loop_embed_many(texts, dimension).tobytes()


# Any ASCII text: controls, punctuation, "_", digits and both cases.
_ascii_texts = st.text(alphabet=st.characters(max_codepoint=127), max_size=40)


@given(texts=st.lists(st.one_of(_ascii_texts, _word_texts, st.text(max_size=20)),
                      min_size=1, max_size=6),
       dimension=st.sampled_from((1, 16, 256)))
@example(texts=["".join(map(chr, range(128)))], dimension=256)
def test_ascii_tokens_and_rows_are_the_regex_ones(texts, dimension):
    for text in texts:
        if text.isascii():
            assert text.translate(_ASCII_WORDS).split() == re.findall(r"\w+", text.lower())
    texts = [text for text in texts if tokenize(text)]
    rows = HashedBagOfWordsProvider(dimension=dimension).embed_many(texts)
    assert rows.tobytes() == loop_embed_many(texts, dimension).tobytes()


@pytest.mark.parametrize("blank", ["", "   ", "\n", "-- ,"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_embed_many_rejects_a_blank_text_anywhere(blank, position):
    texts = ["asthma", "eczema"]
    texts.insert(position, blank)
    with pytest.raises(ValidationError, match="empty or whitespace-only"):
        HashedBagOfWordsProvider(dimension=16).embed_many(texts)


def test_hashed_index_and_queries_match_golden_digests(store50):
    # sha256 of the little-endian float64 bytes, as every earlier build gave
    # them; a change to tokenizing, stemming or hashing that moves one bit
    # fails here.
    provider = HashedBagOfWordsProvider()
    matrix = OntologyIndex(store50, provider)._matrix.astype("<f8", copy=False)
    assert matrix.shape == (50, 256)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
        "c8ef3381e8ec89104d3e98ba4d90c74425b1064749e4b436553f465087f7cc7c"
    )
    queries = {
        "child has asthma":
            "6b3c0cf0e52a2c6c08e1c06c9a9f3275819bb73933ed68024291b5be673a7c46",
        "Wheezing allergies, classes of ÉCZEMA":
            "765f25ed4d7f7a057d8c72276ea48762228053ca85a08393ad6258faed2be0db",
        "persistent disorder of the heart":
            "afbf8b8ff44f3a74a4bdbba5512295ebb50d28ea7e53ed8de88ad750041f3f69",
    }
    for query, digest in queries.items():
        vector = provider.embed(query).astype("<f8", copy=False)
        assert hashlib.sha256(vector.tobytes()).hexdigest() == digest


# --- on-disk index cache ------------------------------------------------------

def cache_files(cache_dir):
    return {name: (cache_dir / name).read_bytes() for name in (INDEX_FILE, INDEX_SIDECAR)}


def test_index_cache_is_written_then_read(store50, tmp_path):
    cold_transport, warm_transport = HashedTransport(16), HashedTransport(16)
    cold = OntologyIndex(store50, remote(cold_transport), cache_dir=tmp_path / "out")
    assert (cold.cache_read, cold.cache_sidecar) == (False, tmp_path / "out" / INDEX_SIDECAR)
    assert cold_transport.calls == len(store50)
    warm = OntologyIndex(store50, remote(warm_transport), cache_dir=tmp_path / "out")
    assert warm.cache_read and warm_transport.calls == 0
    assert warm._matrix.tobytes() == cold._matrix.tobytes()
    # A plain .npy file, and a sidecar pinning exactly its matrix.
    assert np.load(tmp_path / "out" / INDEX_FILE).tobytes() == cold._matrix.tobytes()
    sidecar = json.loads((tmp_path / "out" / INDEX_SIDECAR).read_text())
    assert sidecar["sha256"] == hashlib.sha256(cold._matrix.tobytes()).hexdigest()
    for query in ("disease number 7", "persistent disorder"):
        assert warm.top_k(query, 5) == cold.top_k(query, 5)


_CORRUPTIONS = ("truncate", "flip", "other sidecar", "other matrix", "sidecar not json",
                "sidecar not an object", "no matrix", "no sidecar")


# Flipping a header padding space to a tab leaves a file np.load still reads
# as the same matrix; the cache must still refuse anything but the exact bytes.
@example(kind="flip", position=120, mask=0x29)
@settings(max_examples=80)
@given(kind=st.sampled_from(_CORRUPTIONS), position=st.integers(0, 2**32),
       mask=st.integers(1, 255))
def test_corrupt_or_mismatched_cache_is_rebuilt(kind, position, mask):
    store = OntologyStore(make_concepts(10))
    # Same shape, other documents: its matrix passes every check but the digest.
    other = OntologyStore(make_concepts(11)[1:])
    with tempfile.TemporaryDirectory() as tmp:
        cache, elsewhere = Path(tmp, "cache"), Path(tmp, "elsewhere")
        fresh = OntologyIndex(store, HashedBagOfWordsProvider(dimension=16), cache_dir=cache)
        written = cache_files(cache)
        OntologyIndex(other, HashedBagOfWordsProvider(dimension=16), cache_dir=elsewhere)
        data = written[INDEX_FILE]
        if kind == "truncate":
            (cache / INDEX_FILE).write_bytes(data[: position % len(data)])
        elif kind == "flip":
            at = position % len(data)
            (cache / INDEX_FILE).write_bytes(data[:at] + bytes([data[at] ^ mask]) + data[at + 1:])
        elif kind.startswith("other"):
            name = INDEX_SIDECAR if kind == "other sidecar" else INDEX_FILE
            shutil.copyfile(elsewhere / name, cache / name)
        elif kind == "sidecar not json":
            (cache / INDEX_SIDECAR).write_bytes(b"\xff{" + written[INDEX_SIDECAR])
        elif kind == "sidecar not an object":
            (cache / INDEX_SIDECAR).write_text(json.dumps([written[INDEX_SIDECAR].decode()]))
        else:
            (cache / (INDEX_FILE if kind == "no matrix" else INDEX_SIDECAR)).unlink()
        rebuilt = OntologyIndex(store, HashedBagOfWordsProvider(dimension=16), cache_dir=cache)
        assert not rebuilt.cache_read
        assert rebuilt._matrix.tobytes() == fresh._matrix.tobytes()
        assert cache_files(cache) == written


def _renamed_first_concept():
    first, *rest = make_concepts(10)
    return OntologyStore([OntologyConcept(first.concept_id, "renamed"), *rest])


@pytest.mark.parametrize("change", [
    "ontology", "dimension", "label", "endpoint", "provider class", "version",
])
def test_key_change_forces_rebuild(tmp_path, monkeypatch, change):
    store = OntologyStore(make_concepts(10))
    first = OntologyIndex(store, remote(HashedTransport(16)), cache_dir=tmp_path)
    sidecar = (tmp_path / INDEX_SIDECAR).read_bytes()
    transport = HashedTransport(32 if change == "dimension" else 16)
    provider = {
        "dimension": remote(transport, dimension=32),
        "label": RemoteEmbeddingProvider("other", "fake://embed", 16, transport=transport),
        "endpoint": RemoteEmbeddingProvider("remote", "fake://other", 16, transport=transport),
        "provider class": HashedBagOfWordsProvider(dimension=16, name="remote"),
    }.get(change, remote(transport))
    if change == "ontology":
        store = _renamed_first_concept()
    if change == "version":
        monkeypatch.setattr("phenotag.ontology.__version__", phenotag.__version__ + ".1")
    again = OntologyIndex(store, provider, cache_dir=tmp_path)
    assert not again.cache_read
    assert (tmp_path / INDEX_SIDECAR).read_bytes() != sidecar
    if change != "provider class":
        assert transport.calls == len(store)
    if change in ("label", "endpoint", "version"):  # same vectors, another key
        assert again._matrix.tobytes() == first._matrix.tobytes()
