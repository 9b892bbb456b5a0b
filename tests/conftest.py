import gc
import json
import re
import select
import sys
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from phenotag.corpus import ConceptId
from phenotag.ontology import OntologyConcept, OntologyStore, stem_token

# Property tests replay the same examples on every run and have no time
# limit per example: tier-1 results must not depend on machine load.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
# New random examples, many of them: `pytest --hypothesis-profile=explore`,
# whose option the hypothesis plugin applies after this file has run.
settings.register_profile("explore", derandomize=False, max_examples=1000, deadline=None)

_PREFIXES = (
    "bronch", "cardi", "derm", "gastr", "hepat",
    "nephr", "neur", "oste", "pulmon", "rhin",
    "arthr", "myel", "phleb", "gloss", "cyst",
)
_SUFFIXES = ("itis", "osis", "algia", "opathy", "emia", "oma", "asis")
_ORGANS = (
    "airways", "heart", "skin", "stomach", "liver",
    "kidneys", "nerves", "bones", "lungs", "sinuses",
)


def tokenize(text):
    """Lowercased word tokens, each stemmed: the tokens whose buckets the
    hashed provider counts."""
    return [stem_token(t) for t in re.findall(r"\w+", text.lower())]


def _buckets(text):
    from phenotag.ontology import _bucket

    return {_bucket(token, 256) for token in tokenize(text)}


def _candidate_names():
    for suffix in _SUFFIXES:
        for prefix in _PREFIXES:
            yield prefix + suffix


def make_concepts(n):
    """Deterministic synthetic disease concepts whose single-token names
    occupy pairwise-distinct hash buckets, so exact-name retrieval under the
    256-bucket fallback provider has an unambiguous winner."""
    reserved = _buckets(
        "name id mesh description is a persistent disorder of the synonyms chronic syndrome "
        + " ".join(_ORGANS)
        + " "
        + " ".join(f"d{i + 1:06d}" for i in range(n))
    )
    names = []
    for name in _candidate_names():
        (bucket,) = _buckets(name)
        if bucket not in reserved:
            reserved.add(bucket)
            names.append(name)
        if len(names) == n:
            break
    if len(names) < n:
        raise RuntimeError(f"fixture generator exhausted at {len(names)} names")
    concepts = []
    for i, name in enumerate(names):
        organ = _ORGANS[i % len(_ORGANS)]
        concepts.append(
            OntologyConcept(
                concept_id=ConceptId(f"D{i + 1:06d}"),
                preferred_name=name,
                description=f"{name} is a persistent disorder of the {organ}.",
                synonyms=(f"chronic {name}", f"{name} syndrome"),
            )
        )
    return concepts


def concepts_to_jsonl(concepts):
    lines = []
    for c in concepts:
        lines.append(
            json.dumps(
                {
                    "concept_id": c.concept_id.render(),
                    "preferred_name": c.preferred_name,
                    "description": c.description,
                    "synonyms": list(c.synonyms),
                }
            )
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def store50():
    return OntologyStore(make_concepts(50))


@pytest.fixture
def store10():
    return OntologyStore(make_concepts(10))


E2E_LEXICON = {
    "asthma": "mesh:D001249",
    "eczema": "mesh:D004485",
    "diabetes": "mesh:D003920",
    "migraine": "mesh:D008881",
}


def e2e_fixture():
    """20 records + gold engineered to score tp=8, fp=2, fn=2, tn=8.

    Answers are already in normalized form (lowercase, single spaces) so the
    default preprocessing is the identity and gold spans stay valid. 8
    records match gold exactly, 2 carry gold the mock lexicon cannot find,
    2 carry lexicon terms the annotators rejected, 8 are clean.
    """
    records, gold_lines = [], []

    def add_record(rid, answer, labels, expects):
        records.append(
            {
                "record_id": rid,
                "question_text": "",
                "answer_text": answer,
                "field_type": "descriptive",
                "preceding_questions": [],
                "expects_disease": expects,
            }
        )
        gold_lines.append({"record_id": rid, "text": answer, "label": labels})

    for i, term in enumerate(["asthma", "eczema", "diabetes", "migraine"] * 2):
        answer = f"the child has {term} these days"
        begin = answer.index(term)
        add_record(f"tp{i:02d}", answer, [[begin, begin + len(term), E2E_LEXICON[term]]], True)
    for i in range(2):
        answer = "suffers from hay fever often"
        begin = answer.index("hay fever")
        add_record(f"fn{i:02d}", answer, [[begin, begin + 9, "mesh:D006255"]], True)
    for i in range(2):
        add_record(f"fp{i:02d}", "worried about asthma in the news", [], False)
    for i in range(8):
        add_record(f"tn{i:02d}", f"no concerns at all number {i}", [], False)
    return (
        [json.dumps(r) for r in records],
        [json.dumps(g) for g in gold_lines],
        [json.dumps({"term": t, "concept_id": c}) for t, c in E2E_LEXICON.items()],
    )


def write_e2e_workspace(root):
    """Materialize the end-to-end fixture plus a config file under ``root``."""
    record_lines, gold_lines, lexicon_lines = e2e_fixture()
    (root / "records.jsonl").write_text("\n".join(record_lines) + "\n", encoding="utf-8")
    (root / "gold.jsonl").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    (root / "mock_lexicon.jsonl").write_text("\n".join(lexicon_lines) + "\n", encoding="utf-8")
    (root / "ontology.jsonl").write_text(concepts_to_jsonl(make_concepts(50)), encoding="utf-8")
    examples = [
        json.dumps(
            {
                "question": f"Example question {i}?",
                "mention": f"mention{i}",
                "concept": f"concept{i} (mesh:D{i + 1:06d})",
                "verdict": "AGREE" if i % 2 == 0 else f"DISAGREE mesh:D{i + 1:06d}",
            }
        )
        for i in range(12)
    ]
    (root / "examples.jsonl").write_text("\n".join(examples) + "\n", encoding="utf-8")
    (root / "llm_rules.jsonl").write_text(
        json.dumps({"contains": "", "response": "AGREE"}) + "\n", encoding="utf-8"
    )
    (root / "config.ini").write_text(
        "[paths]\n"
        "corpus = records.jsonl\n"
        "ontology = ontology.jsonl\n"
        "gold = gold.jsonl\n"
        "example_pool = examples.jsonl\n"
        "output_dir = out\n"
        "\n"
        "[ner]\n"
        "mock_lexicon = mock_lexicon.jsonl\n"
        "batch_size = 4\n"
        "\n"
        "[llm]\n"
        "scripted = llm_rules.jsonl\n"
        "\n"
        "[run]\n"
        "seed = 7\n"
        "\n"
        "[eval]\n"
        "predictions = out/predictions.jsonl\n",
        encoding="utf-8",
    )
    return root / "config.ini"


# --- a loopback HTTP server for the default clients ----------------------------

class _LoopbackHandler(BaseHTTPRequestHandler):
    # Without this, a reply sent in two writes waits for a delayed ACK.
    disable_nagle_algorithm = True

    def do_POST(self):
        length = self.headers["Content-Length"]
        body = json.loads(self.rfile.read(int(length))) if length else None
        with self.server.lock:
            self.server.seen.append(
                (self.command, self.path, body, self.headers.get("Authorization"))
            )
        self.server.answer(self, body)

    do_GET = do_POST  # a followed 301, 302 or 303 arrives as a GET without a body

    def log_message(self, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    """A threading HTTP server on 127.0.0.1 that answers each POST or GET
    with ``answer(handler, body)`` and records it in ``seen`` as (method,
    path, JSON body or None, Authorization header).

    As a context manager it serves on a thread. On exit it shuts down and
    joins every handler thread, then asserts that no handler raised, that
    every connection it accepted is closed, and that no client socket was
    left for the garbage collector to close (a ResourceWarning)."""

    daemon_threads = False  # so server_close joins every handler thread

    def __init__(self, answer):
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.answer = answer
        self.lock = threading.Lock()
        self.seen: list[tuple] = []
        self.accepted: list = []
        self.errors: list[BaseException] = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}"

    def get_request(self):
        connection, address = super().get_request()
        self.accepted.append(connection)  # only the serving thread accepts
        return connection, address

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])

    def __enter__(self):
        self._catching = warnings.catch_warnings(record=True)
        self._warned = self._catching.__enter__()
        warnings.simplefilter("always", ResourceWarning)
        # A short poll interval: shutdown waits for the serving loop's next poll.
        self._thread = threading.Thread(target=self.serve_forever, args=(0.01,))
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        gc.collect()
        self._catching.__exit__(*exc_info)
        if exc_info[0] is None:
            assert self.errors == []
            assert all(connection.fileno() == -1 for connection in self.accepted)
            assert [w for w in self._warned if issubclass(w.category, ResourceWarning)] == []


def reply(handler, body: bytes, status: int = 200, length: int | None = None,
          headers: tuple[tuple[str, str], ...] = ()) -> None:
    """Send ``body`` with ``status``; ``length`` overrides its Content-Length."""
    handler.send_response(status)
    for name, value in headers:
        handler.send_header(name, value)
    handler.send_header("Content-Length", str(len(body) if length is None else length))
    handler.end_headers()
    handler.wfile.write(body)


def reply_json(handler, obj) -> None:
    reply(handler, json.dumps(obj).encode())


def client_closed_within(handler, seconds: float) -> bool:
    """Wait up to ``seconds`` for the client to close its end (it has sent
    its whole request, so the socket turns readable only at EOF)."""
    readable, _, _ = select.select([handler.connection], [], [], seconds)
    return bool(readable)


def reply_after(handler, seconds: float, obj) -> None:
    """Reply with ``obj`` after ``seconds``, unless the client gives up and
    closes first."""
    if not client_closed_within(handler, seconds):
        reply_json(handler, obj)
