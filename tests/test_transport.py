import os
import subprocess
import sys
from pathlib import Path

import pytest

import phenotag
from phenotag.annotate import HttpNerBackend
from phenotag.errors import BackendError
from phenotag.ontology import RemoteEmbeddingProvider
from phenotag.orchestrate import HttpLlmBackend, LlmParams
from phenotag.transport import call_with_retry


class FakeResponse:
    def __init__(self, body):
        self._body = body

    def raise_for_status(self):
        pass

    def json(self):
        return self._body


def test_each_default_transport_sends_its_own_token_and_timeout(monkeypatch):
    seen = []

    def post(url, json, timeout, headers):
        seen.append((url, timeout, headers))
        if url.endswith("/ner"):
            return FakeResponse({"results": [{"annotations": []}]})
        if url.endswith("/llm"):
            return FakeResponse({"text": "AGREE"})
        return FakeResponse({"vectors": [[1.0, 0.0]]})

    monkeypatch.setattr("requests.post", post)
    monkeypatch.setenv("PHENOTAG_NER_TOKEN", "ner-secret")
    monkeypatch.setenv("PHENOTAG_LLM_TOKEN", "llm-secret")
    monkeypatch.setenv("PHENOTAG_EMBED_TOKEN", "embed-secret")
    HttpNerBackend("http://x/ner", timeout_ms=1_500).submit(["text"])
    HttpLlmBackend("http://x/llm", timeout_ms=2_500).complete("prompt", LlmParams())
    RemoteEmbeddingProvider("e", "http://x/embed", 2, timeout_ms=3_500).embed("text")
    assert seen == [
        ("http://x/ner", 1.5, {"Authorization": "Bearer ner-secret"}),
        ("http://x/llm", 2.5, {"Authorization": "Bearer llm-secret"}),
        ("http://x/embed", 3.5, {"Authorization": "Bearer embed-secret"}),
    ]


def test_importing_the_cli_leaves_requests_unloaded():
    # requests costs about as much to import as the rest of the CLI start.
    env = dict(os.environ, PYTHONPATH=str(Path(phenotag.__file__).resolve().parents[1]))
    code = "import sys, phenotag.cli; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is most of the CLI's start-up cost, and only embedding needs it.
    env = dict(os.environ, PYTHONPATH=str(Path(phenotag.__file__).resolve().parents[1]))
    code = "import sys, phenotag.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_retry_stops_at_first_success():
    calls = []

    def call():
        calls.append(1)
        if len(calls) < 3:
            raise BackendError(f"down {len(calls)}")
        return "ok"

    assert call_with_retry(call, 3) == "ok"
    assert len(calls) == 3


def test_retry_reraises_last_backend_error():
    calls = []

    def call():
        calls.append(1)
        raise BackendError(f"down {len(calls)}")

    with pytest.raises(BackendError, match="down 2"):
        call_with_retry(call, 2)
    assert len(calls) == 2


def test_retry_needs_one_attempt():
    with pytest.raises(ValueError, match="attempts"):
        call_with_retry(lambda: "ok", 0)
