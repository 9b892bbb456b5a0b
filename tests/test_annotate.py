import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, strategies as st

from phenotag.annotate import (
    AnnotationOutcome,
    BackendConfig,
    HttpNerBackend,
    MockNerBackend,
    annotate_batch,
    parse_backend_response,
    submitted_text,
)
from phenotag.corpus import ConceptId, FieldType, NONE_CONCEPT, Source, SurveyRecord
from phenotag.errors import BackendError, ValidationError


def record(record_id, answer, question=""):
    return SurveyRecord(record_id, question, answer, FieldType.DESCRIPTIVE)


ASTHMA = ConceptId("D001249")


# --- parse_backend_response -------------------------------------------------

def entry(mention, begin, end, obj="disease", ids=("mesh:D001249",)):
    return {"mention": mention, "span": {"begin": begin, "end": end}, "obj": obj, "id": list(ids)}


def test_parse_disease_entry_direct_mapping():
    payload = {"annotations": [entry("asthma", 0, 6)]}
    (ann,) = parse_backend_response(payload, "asthma attack", "r1")
    assert ann.concept == ASTHMA
    assert ann.surface == "asthma"
    assert ann.source is Source.NER_BACKEND


def test_parse_filters_non_disease_entities():
    payload = {"annotations": [entry("BRCA1", 0, 5, obj="gene")]}
    assert parse_backend_response(payload, "BRCA1 variant", "r1") == []


def test_parse_cui_less_maps_to_none():
    payload = {"annotations": [entry("asthma", 0, 6, ids=["CUI-less"])]}
    (ann,) = parse_backend_response(payload, "asthma attack", "r1")
    assert ann.concept is NONE_CONCEPT


def test_parse_first_mesh_id_wins():
    payload = {"annotations": [entry("asthma", 0, 6, ids=["omim:600807", "mesh:D001249", "mesh:D999999"])]}
    (ann,) = parse_backend_response(payload, "asthma attack", "r1")
    assert ann.concept == ASTHMA


@pytest.mark.parametrize("ids", [["NONE", "mesh:D001249"], ["omim:123", "mesh:D001249"]])
def test_parse_mesh_id_after_a_none_or_foreign_id_wins(ids):
    payload = {"annotations": [entry("asthma", 0, 6, ids=ids)]}
    (ann,) = parse_backend_response(payload, "asthma attack", "r1")
    assert ann.concept == ASTHMA


@pytest.mark.parametrize("ids, expected", [
    (["me\u017fh:D1", "mesh:D000002"], ConceptId("D000002")),  # U+017F LATIN SMALL LETTER LONG S
    (["me\u017fh:D1"], NONE_CONCEPT),
])
def test_parse_id_with_a_non_ascii_prefix_letter_is_not_mesh(ids, expected):
    payload = {"annotations": [entry("asthma", 0, 6, ids=ids)]}
    (ann,) = parse_backend_response(payload, "asthma attack", "r1")
    assert ann.concept == expected


def test_parse_all_none_ids_map_to_none():
    payload = {"annotations": [entry("asthma", 0, 6, ids=["NONE", " none ", "CUI-less"])]}
    (ann,) = parse_backend_response(payload, "asthma attack", "r1")
    assert ann.concept is NONE_CONCEPT


def test_parse_span_out_of_bounds_is_error():
    payload = {"annotations": [entry("asthma", 10, 20)]}
    with pytest.raises(ValidationError, match="span"):
        parse_backend_response(payload, "asthma", "r1")


def test_parse_mention_mismatch_is_error():
    payload = {"annotations": [entry("eczema", 0, 6)]}
    with pytest.raises(ValidationError, match="mention"):
        parse_backend_response(payload, "asthma attack", "r1")


# --- mock backend -----------------------------------------------------------

def test_mock_longest_match_wins():
    backend = MockNerBackend({"asthma": ASTHMA.render(), "asthma episodes": ASTHMA.render()})
    result = backend.submit(["asthma episodes daily"])
    (ann,) = result["results"][0]["annotations"]
    assert (ann["span"]["begin"], ann["span"]["end"]) == (0, 15)
    assert ann["mention"] == "asthma episodes"


def test_mock_no_term_no_annotations():
    backend = MockNerBackend({"asthma": ASTHMA.render()})
    assert backend.submit(["feeling fine"])["results"][0]["annotations"] == []


def test_mock_deterministic():
    backend = MockNerBackend({"asthma": ASTHMA.render(), "eczema": ConceptId("D004485").render()})
    text = "eczema then asthma then eczema"
    assert backend.submit([text]) == backend.submit([text])


def test_mock_is_case_insensitive_whole_token():
    backend = MockNerBackend({"asthma": ASTHMA.render()})
    result = backend.submit(["ASTHMA but not asthmatic"])
    anns = result["results"][0]["annotations"]
    assert len(anns) == 1
    assert anns[0]["mention"] == "ASTHMA"


def test_mock_rejects_bad_lexicon():
    with pytest.raises(ValueError):
        MockNerBackend({})
    with pytest.raises(ValueError):
        MockNerBackend({"Asthma": ASTHMA.render()})


def test_mock_rejects_whitespace_only_term():
    # split() gives no words: a term of length 0 would never advance the scan
    with pytest.raises(ValueError, match="non-empty lowercase"):
        MockNerBackend({"asthma": ASTHMA.render(), "   ": ASTHMA.render()})


@pytest.mark.parametrize("term", ["crohn's disease", "covid-19"])
def test_mock_rejects_term_with_non_word_characters(term):
    with pytest.raises(ValueError, match=term):
        MockNerBackend({"asthma": ASTHMA.render(), term: ASTHMA.render()})


def seed_term_error(term):
    """The seed's term check: split, then a ``\\w+`` fullmatch per word."""
    words = term.split()
    if not words or term != term.lower():
        return f"lexicon terms must be non-empty lowercase, got {term!r}"
    if not all(re.fullmatch(r"\w+", word) for word in words):
        return f"lexicon term {term!r} can never match: its words must be word characters only"
    return None


# Word characters (Latin, Greek, CJK, digits, "_", a combining mark), every
# kind of whitespace str.split knows (U+0085, U+2028, U+3000 among them) and
# characters that are neither, in both cases.
_TERM_ALPHABET = (
    "abzAZ\u00e9\u00c9\u03c3\u03a3\u4e2d09\u0663_\u0301"
    " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"
    "-'.,/\x00\u200b\ufeff\U0001f600"
)


@given(term=st.one_of(st.text(alphabet=_TERM_ALPHABET, max_size=12), st.text(max_size=12)))
def test_mock_term_check_matches_seed_check(term):
    try:
        MockNerBackend({term: ASTHMA.render()})
    except ValueError as exc:
        assert str(exc) == seed_term_error(term)
    else:
        assert seed_term_error(term) is None


def seed_build(lexicon):
    """The seed's term-by-term check and build, kept as an oracle: the
    first bad term's error, or the ``(_ids, _lengths)`` items in order."""
    ids, lengths = {}, {}
    for term, concept_id in lexicon.items():
        error = seed_term_error(term)
        if error is not None:
            return error
        words = tuple(term.split())
        ids.setdefault(words, concept_id)
        known = lengths.get(words[0])
        if known is None:
            lengths[words[0]] = (len(words),)
        elif len(words) not in known:
            lengths[words[0]] = tuple(sorted((*known, len(words)), reverse=True))
    return list(ids.items()), list(lengths.items())


# Uppercase (a capital sigma too, final or not), punctuation, empty, blank.
_BAD_TERMS = st.sampled_from(
    ["Asthma", "asthma Chronic", "οδοΣ", "Σ", "σΣσ", "a-b", "x.y", "a, b", "asthma!", "", " ",
     "\t\n", "\u2028"]
)


@given(data=st.data())
def test_mock_lexicon_checks_and_builds_as_term_by_term(data):
    lexicon = data.draw(_lexicons(), label="lexicon")
    items = [(term, concept.render()) for term, concept in lexicon.items()]
    for bad in data.draw(st.lists(_BAD_TERMS, unique=True, max_size=2), label="bad terms"):
        items.insert(data.draw(st.integers(0, len(items)), label="position"),
                     (bad, ASTHMA.render()))
    expected = seed_build(dict(items))
    try:
        backend = MockNerBackend(dict(items))
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert (list(backend._ids.items()), list(backend._lengths.items())) == expected


def test_mock_multiword_term_spans_any_non_word_run():
    backend = MockNerBackend({"asthma episodes": ASTHMA.render()})
    texts = ["asthma episodes", "Asthma, episodes", "asthma\n\nepisodes", "asthma-episodes"]
    results = backend.submit(texts)["results"]
    assert [[a["mention"] for a in r["annotations"]] for r in results] == [[t] for t in texts]


def seed_match_at(terms, tokens, i):
    for term_tokens, concept in terms:
        if i + len(term_tokens) > len(tokens):
            continue
        if all(tokens[i + j][0] == term_tokens[j] for j in range(len(term_tokens))):
            return len(term_tokens), concept
    return None


def seed_scan(lexicon, text):
    """The seed's scan, kept as an oracle: every term tried at every token."""
    terms = [(tuple(term.split()), concept) for term, concept in lexicon.items()]
    terms.sort(key=lambda item: (-len(item[0]), item[0]))
    tokens = [(m.group(0).lower(), m.start(), m.end()) for m in re.finditer(r"\w+", text)]
    annotations = []
    i = 0
    while i < len(tokens):
        match = seed_match_at(terms, tokens, i)
        if match is None:
            i += 1
            continue
        length, concept = match
        begin = tokens[i][1]
        end = tokens[i + length - 1][2]
        annotations.append(
            {
                "mention": text[begin:end],
                "span": {"begin": begin, "end": end},
                "obj": "disease",
                "id": [concept.render()],
            }
        )
        i += length
    return annotations


_LEXICON_WORDS = ("asthma", "chronic", "a", "b", "eczema", "x1")
_TEXT_WORDS = _LEXICON_WORDS + ("asthmatic", "and", "")


@st.composite
def _lexicons(draw):
    """Few words and few phrases, so terms share first words, are prefixes
    of each other and often split to the same tuple ("a  b" / "a b")."""
    phrases = draw(st.lists(
        st.lists(st.sampled_from(_LEXICON_WORDS), min_size=1, max_size=3), min_size=1, max_size=4
    ))
    entries = draw(st.lists(
        st.tuples(st.sampled_from(phrases), st.sampled_from((" ", "  ", "\t")), st.integers(1, 9)),
        min_size=1, max_size=8,
    ))
    return {sep.join(words): ConceptId(f"D{number:06d}") for words, sep, number in entries}


def _texts(pieces):
    """Pieces in mixed case with mixed separators; the last piece ends the text."""
    parts = st.lists(st.tuples(
        st.sampled_from(pieces),
        st.sampled_from((str.lower, str.upper, str.title)),
        st.sampled_from((" ", ", ", "\n", "-", "  ")),
    ), max_size=10)
    return parts.map(lambda ps: "".join(case(piece) + sep for piece, case, sep in ps[:-1])
                     + "".join(case(piece) for piece, case, _ in ps[-1:]))


@given(data=st.data())
def test_mock_scan_matches_seed_scan(data):
    lexicon = data.draw(_lexicons(), label="lexicon")
    texts = data.draw(st.lists(_texts(tuple(lexicon) + _TEXT_WORDS), min_size=1, max_size=4),
                      label="texts")
    rendered = {term: concept.render() for term, concept in lexicon.items()}
    results = MockNerBackend(rendered).submit(texts)["results"]
    assert [r["annotations"] for r in results] == [seed_scan(lexicon, t) for t in texts]


# --- submitted_text ---------------------------------------------------------

def test_submitted_text_concatenates_with_join_offset():
    rec = record("r1", "has asthma", question="Any conditions?")
    text, join = submitted_text(rec)
    assert text == "Any conditions? has asthma"
    assert join == 16
    assert text[join:] == "has asthma"


def test_submitted_text_empty_question_sends_answer_alone():
    assert submitted_text(record("r1", "child has asthma")) == ("child has asthma", 0)


# --- annotate_batch ---------------------------------------------------------

def test_empty_record_list():
    backend = MockNerBackend({"asthma": ASTHMA.render()})
    assert annotate_batch([], backend, BackendConfig()) == []


def test_lexicon_annotation_span_hand_counted():
    backend = MockNerBackend({"asthma": ASTHMA.render()})
    outcomes = annotate_batch([record("r1", "child has asthma")], backend, BackendConfig())
    (outcome,) = outcomes
    assert outcome.status == "ok"
    (ann,) = outcome.annotations
    assert (ann.span.begin, ann.span.end) == (10, 16)
    assert ann.concept == ASTHMA


class ErrorOnTextBackend:
    def __init__(self, inner, poison):
        self._inner = inner
        self._poison = poison

    def submit(self, texts):
        if any(self._poison in t for t in texts):
            raise BackendError("poisoned text")
        return self._inner.submit(texts)


def test_failure_isolation_ok_failed_ok():
    inner = MockNerBackend({"asthma": ASTHMA.render()})
    backend = ErrorOnTextBackend(inner, poison="BROKEN")
    records = [record("r1", "has asthma"), record("r2", "BROKEN"), record("r3", "no issues")]
    outcomes = annotate_batch(records, backend, BackendConfig(batch_size=1, retry_budget=1))
    assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
    assert "attempts" in outcomes[1].error
    assert [o.record_id for o in outcomes] == ["r1", "r2", "r3"]


class FlakyBackend:
    def __init__(self, inner, failures_before_success):
        self._inner = inner
        self._remaining = failures_before_success
        self.attempts = 0

    def submit(self, texts):
        self.attempts += 1
        if self._remaining > 0:
            self._remaining -= 1
            raise BackendError("transient")
        return self._inner.submit(texts)


def test_retry_budget_consumed_then_success():
    backend = FlakyBackend(MockNerBackend({"asthma": ASTHMA.render()}), failures_before_success=2)
    outcomes = annotate_batch([record("r1", "has asthma")], backend, BackendConfig(retry_budget=2))
    assert outcomes[0].status == "ok"
    assert backend.attempts == 3


def test_retry_budget_exhausted_fails_record():
    backend = FlakyBackend(MockNerBackend({"asthma": ASTHMA.render()}), failures_before_success=5)
    outcomes = annotate_batch([record("r1", "has asthma")], backend, BackendConfig(retry_budget=1))
    assert outcomes[0].status == "failed"
    assert backend.attempts == 2


def test_programming_error_is_not_retried():
    class Buggy:
        calls = 0

        def submit(self, texts):
            self.calls += 1
            raise TypeError("bug in backend")

    backend = Buggy()
    with pytest.raises(TypeError, match="bug in backend"):
        annotate_batch([record("r1", "has asthma")], backend, BackendConfig(retry_budget=2))
    assert backend.calls == 1


class JitterBackend:
    """Finishes later chunks first to scramble completion order."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self._count = 0

    def submit(self, texts):
        with self._lock:
            self._count += 1
            order = self._count
        time.sleep(0.002 * (8 - order % 8))
        return self._inner.submit(texts)


def test_output_order_matches_input_order_under_concurrency():
    records = [record(f"r{i:02d}", f"case {i} asthma") for i in range(16)]
    backend = JitterBackend(MockNerBackend({"asthma": ASTHMA.render()}))
    outcomes = annotate_batch(records, backend, BackendConfig(batch_size=1, max_inflight=8))
    assert [o.record_id for o in outcomes] == [r.record_id for r in records]
    assert all(o.status == "ok" for o in outcomes)


class InflightProbe:
    """Wraps a backend and records the high-water mark of concurrent calls."""

    def __init__(self, inner, delay_s=0.0):
        self._inner = inner
        self._delay_s = delay_s
        self._lock = threading.Lock()
        self._active = 0
        self.high_water = 0
        self.calls = 0

    def submit(self, texts):
        with self._lock:
            self._active += 1
            self.calls += 1
            self.high_water = max(self.high_water, self._active)
        try:
            if self._delay_s:
                time.sleep(self._delay_s)
            return self._inner.submit(texts)
        finally:
            with self._lock:
                self._active -= 1


def test_max_inflight_never_exceeded():
    records = [record(f"r{i:02d}", "has asthma") for i in range(12)]
    probe = InflightProbe(MockNerBackend({"asthma": ASTHMA.render()}), delay_s=0.01)
    annotate_batch(records, probe, BackendConfig(batch_size=1, max_inflight=3))
    assert probe.calls == 12
    assert probe.high_water <= 3


def test_batch_composition_in_submission_order():
    seen = []

    class Recorder:
        def submit(self, texts):
            seen.append(list(texts))
            return {"results": [{"annotations": []} for _ in texts]}

    records = [record(f"r{i}", f"answer {i}") for i in range(5)]
    annotate_batch(records, Recorder(), BackendConfig(batch_size=2, max_inflight=1))
    assert seen == [["answer 0", "answer 1"], ["answer 2", "answer 3"], ["answer 4"]]


def test_malformed_result_fails_only_that_record():
    class HalfBroken:
        def submit(self, texts):
            results = []
            for t in texts:
                if "bad" in t:
                    results.append({"annotations": [entry("zzz", 0, 3)]})  # mention mismatch
                else:
                    results.append({"annotations": []})
            return {"results": results}

    records = [record("r1", "fine"), record("r2", "bad text"), record("r3", "fine too")]
    outcomes = annotate_batch(records, HalfBroken(), BackendConfig(batch_size=3))
    assert [o.status for o in outcomes] == ["ok", "failed", "ok"]


@pytest.mark.parametrize("first_result, detail", [
    (None, "result for record 'r1' is not an object"),
    ({"annotations": ["junk"]}, "annotation for record 'r1' is not an object"),
    ({"annotations": [dict(entry("asthma", 4, 10), id="mesh:D001249")]},
     "id for record 'r1' is not a list"),
    ({"annotations": [entry("asthma", "4", 10.7)]},
     "span invalid for record 'r1': span bounds must be integers, got ['4', 10.7]"),
    ({"annotations": [entry("as", True, 3)]},
     "span invalid for record 'r1': span bounds must be integers, got [True, 3]"),
], ids=["result-not-object", "entry-not-object", "id-not-list", "span-string-and-float",
        "span-bool"])
def test_malformed_result_shape_fails_only_that_record(first_result, detail):
    class Malformed:
        def submit(self, texts):
            return {"results": [first_result, {"annotations": []}]}

    outcomes = annotate_batch([record("r1", "has asthma"), record("r2", "fine")], Malformed(),
                              BackendConfig(batch_size=2))
    assert [o.status for o in outcomes] == ["failed", "ok"]
    assert detail in outcomes[0].error


def test_misaligned_results_fail_whole_chunk():
    class Misaligned:
        def submit(self, texts):
            return {"results": []}

    outcomes = annotate_batch([record("r1", "x"), record("r2", "y")], Misaligned(), BackendConfig())
    assert all(o.status == "failed" for o in outcomes)
    assert all("misaligned" in o.error for o in outcomes)


def test_question_join_recorded_and_round_trips():
    from phenotag.annotate import read_outcomes, write_outcomes

    backend = MockNerBackend({"asthma": ASTHMA.render()})
    records = [
        record("r1", "has asthma", question="Any conditions?"),
        record("r2", "has asthma"),
    ]
    outcomes = annotate_batch(records, backend, BackendConfig())
    assert outcomes[0].question_join == len("Any conditions?") + 1
    assert outcomes[1].question_join == 0
    restored = read_outcomes(write_outcomes(outcomes), {o.record_id: o.text for o in outcomes})
    assert restored == list(outcomes)


def test_all_annotations_carry_backend_source():
    backend = MockNerBackend({"asthma": ASTHMA.render(), "eczema": ConceptId("D004485").render()})
    records = [record(f"r{i}", "asthma and eczema here") for i in range(4)]
    for outcome in annotate_batch(records, backend, BackendConfig(batch_size=2)):
        assert outcome.annotations
        for ann in outcome.annotations:
            assert ann.source is Source.NER_BACKEND


# --- HTTP backend over a real socket ----------------------------------------

class _WireHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        results = []
        for text in request["texts"]:
            anns = []
            idx = text.find("asthma")
            if idx >= 0:
                anns.append(entry("asthma", idx, idx + 6))
            results.append({"annotations": anns})
        body = json.dumps({"results": results}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def wire_server():
    server = HTTPServer(("127.0.0.1", 0), _WireHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/annotate"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_backend_round_trip(wire_server):
    backend = HttpNerBackend(wire_server)
    outcomes = annotate_batch(
        [record("r1", "child has asthma"), record("r2", "all clear")],
        backend,
        BackendConfig(batch_size=2),
    )
    assert outcomes[0].status == "ok"
    (ann,) = outcomes[0].annotations
    assert (ann.span.begin, ann.span.end) == (10, 16)
    assert outcomes[1].annotations == ()


def test_http_backend_unreachable_is_backend_error():
    backend = HttpNerBackend("http://127.0.0.1:1/annotate", timeout_ms=200)
    with pytest.raises(BackendError):
        backend.submit(["x"])


class _HeaderEchoHandler(BaseHTTPRequestHandler):
    seen_auth = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.rfile.read(length)
        type(self).seen_auth.append(self.headers.get("Authorization"))
        body = json.dumps({"results": [{"annotations": []}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_auth_token_travels_via_environment(monkeypatch):
    _HeaderEchoHandler.seen_auth = []
    server = HTTPServer(("127.0.0.1", 0), _HeaderEchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/annotate"
        monkeypatch.setenv("PHENOTAG_NER_TOKEN", "sekrit")
        HttpNerBackend(url).submit(["one text"])
        monkeypatch.delenv("PHENOTAG_NER_TOKEN")
        HttpNerBackend(url).submit(["one text"])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert _HeaderEchoHandler.seen_auth == ["Bearer sekrit", None]


def test_http_transport_programming_error_is_not_retried():
    calls = []

    def transport(url, payload, timeout_s):
        calls.append(payload)
        raise TypeError("bug in transport")

    with pytest.raises(TypeError, match="bug in transport"):
        annotate_batch([record("r1", "child has asthma")],
                       HttpNerBackend("http://x/ner", transport=transport),
                       BackendConfig(retry_budget=2))
    assert len(calls) == 1


@pytest.mark.parametrize("fault", [ConnectionError("refused"), TimeoutError("slow")])
def test_http_transport_faults_are_retried(fault):
    calls = []

    def transport(url, payload, timeout_s):
        calls.append(payload)
        raise fault

    (outcome,) = annotate_batch([record("r1", "child has asthma")],
                                HttpNerBackend("http://x/ner", transport=transport),
                                BackendConfig(retry_budget=2))
    assert len(calls) == 3
    assert outcome.status == "failed"
    assert outcome.error == (
        f"backend unreachable after 3 attempts: NER backend at http://x/ner failed: {fault}"
    )
