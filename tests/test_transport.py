import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import phenotag
from phenotag.annotate import BackendConfig, HttpNerBackend, annotate_batch
from phenotag.corpus import (
    NONE_CONCEPT, Corpus, FieldType, NormalizedAnnotation, Source, SurveyRecord, TextSpan,
)
from phenotag.errors import BackendError
from phenotag.ontology import OntologyStore, RemoteEmbeddingProvider
from phenotag.orchestrate import HttpLlmBackend, LlmParams, PromptSpec, Strategy, run_strategy
from phenotag.transport import call_with_retry, send, window_map

from conftest import make_concepts


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


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    # Only a window wider than 1 starts threads; ingest, eval and raft never do.
    env = dict(os.environ, PYTHONPATH=str(Path(phenotag.__file__).resolve().parents[1]))
    code = "import sys, phenotag.cli; sys.exit('concurrent.futures' in sys.modules)"
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


# --- send ---------------------------------------------------------------------

@pytest.mark.parametrize("fault", [ConnectionError("refused"), TimeoutError("slow"),
                                   BackendError("bad wire")])
def test_send_wraps_transport_faults_with_the_label(fault):
    def transport(url, payload):
        raise fault

    with pytest.raises(BackendError) as caught:
        send("NER backend at http://x/ner", transport, "http://x/ner", {})
    assert str(caught.value) == f"NER backend at http://x/ner failed: {fault}"
    assert caught.value.__cause__ is fault


def test_send_lets_a_bug_through_unchanged():
    bug = TypeError("bug in transport")

    def transport(url, payload):
        raise bug

    with pytest.raises(TypeError) as caught:
        send("LLM backend 'llm'", transport, "http://x/llm", {})
    assert caught.value is bug


def test_send_returns_what_the_transport_returns():
    assert send("label", lambda url, payload: {"url": url, **payload}, "u", {"a": 1}) == {
        "url": "u", "a": 1,
    }


# --- window_map ---------------------------------------------------------------

@settings(max_examples=40)
@given(width=st.integers(1, 5),
       delays_ms=st.lists(st.sampled_from([0, 1, 2]), max_size=12))
def test_window_map_is_the_list_comprehension_within_its_width(width, delays_ms):
    lock = threading.Lock()
    active = high_water = 0

    def fn(item):
        nonlocal active, high_water
        with lock:
            active += 1
            high_water = max(high_water, active)
        time.sleep(item[1] / 1000)
        with lock:
            active -= 1
        return (item[0] * 7, item[1])

    items = list(enumerate(delays_ms))
    started = []
    start = threading.Thread.start
    with mock.patch.object(threading.Thread, "start",
                           lambda thread: started.append(thread) or start(thread)):
        assert window_map(fn, items, width) == [(i * 7, d) for i, d in items]
    assert high_water <= width
    if width == 1:
        assert started == []


def test_window_map_under_frequent_thread_switches():
    lock = threading.Lock()
    active = high_water = 0
    started = []

    def fn(i):
        nonlocal active, high_water
        with lock:
            active += 1
            high_water = max(high_water, active)
            started.append(i)
        with lock:
            active -= 1
        if i == 100:
            raise ValueError("item 100")
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert window_map(fn, range(100), 8) == list(range(100))
        with pytest.raises(ValueError, match="item 100"):
            window_map(fn, range(400), 8)
    finally:
        sys.setswitchinterval(interval)
    assert high_water <= 8
    assert len(started) < 100 + 400


def test_window_map_raises_the_first_failure_in_input_order():
    def fn(i):
        if i == 3:
            time.sleep(0.05)
            raise ValueError("item 3")
        if i == 5:
            raise KeyError("item 5")  # fails first in time, later in input order
        return i

    with pytest.raises(ValueError, match="item 3"):
        window_map(fn, range(8), 4)


def test_window_map_rejects_width_below_one():
    with pytest.raises(ValueError, match="width"):
        window_map(str, [1], 0)


# --- a bug stops every remote stage at once -------------------------------------

def _buggy_on_first(calls, first, result):
    """A transport that raises TypeError for the payload naming ``first`` and
    answers every other payload with ``result`` after 50 ms."""
    lock = threading.Lock()

    def transport(url, payload, *timeout):
        with lock:
            calls.append(payload)
        if first in str(payload):
            raise TypeError("bug in transport")
        time.sleep(0.05)
        return result

    return transport


def _annotate_stage(calls):
    transport = _buggy_on_first(calls, "text 00", {"results": [{"annotations": []}]})
    records = [SurveyRecord(f"r{i}", "", f"text {i:02d}", FieldType.DESCRIPTIVE)
               for i in range(50)]
    annotate_batch(records, HttpNerBackend("fake://ner", transport=transport),
                   BackendConfig(batch_size=1, max_inflight=2))


def _embed_stage(calls):
    transport = _buggy_on_first(calls, "text 00", {"vectors": [[1.0, 0.0]]})
    provider = RemoteEmbeddingProvider("remote", "fake://embed", 2, transport=transport,
                                       max_inflight=2)
    provider.embed_many([f"text {i:02d}" for i in range(50)])


def _judge_stage(calls):
    transport = _buggy_on_first(calls, "text 00", {"text": "AGREE"})
    records = [SurveyRecord(f"r{i}", "", f"text {i:02d}", FieldType.DESCRIPTIVE)
               for i in range(50)]
    mentions = [NormalizedAnnotation(f"r{i}", TextSpan(0, 4), "text", NONE_CONCEPT,
                                     Source.NER_BACKEND) for i in range(50)]
    run_strategy(Corpus(records), mentions, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
                 HttpLlmBackend("fake://llm", transport=transport),
                 OntologyStore(make_concepts(10)), max_inflight=2)


# (stage, the most calls its window can have started: its width)
BUGGY_STAGES = {"annotate": (_annotate_stage, 2), "embed": (_embed_stage, 2),
                "judge": (_judge_stage, 3)}  # run_strategy's window is max_inflight + 1


@pytest.mark.parametrize("stage", list(BUGGY_STAGES))
def test_a_bug_on_the_first_item_starts_no_further_item(stage):
    run, width = BUGGY_STAGES[stage]
    calls = []
    with pytest.raises(TypeError, match="bug in transport"):
        run(calls)
    assert 1 <= len(calls) <= width
