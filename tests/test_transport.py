import collections
import json
import os
import re
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
from phenotag.transport import (
    call_with_retry, checked_endpoint, post_json, send, usable_cpus, window, window_map,
)

from conftest import (
    LoopbackServer, client_closed_within, make_concepts, reply, reply_after, reply_json,
)


DEFAULT_CLIENTS = {
    # path: (a call through that backend's default client with timeout_ms,
    #        the JSON body it sends, the reply, the token variable)
    "/ner": (lambda url, ms: HttpNerBackend(url, timeout_ms=ms).submit(["text"]),
             {"texts": ["text"]}, {"results": [{"annotations": []}]}, "PHENOTAG_NER_TOKEN"),
    "/llm": (lambda url, ms: HttpLlmBackend(url, timeout_ms=ms).complete("prompt", LlmParams()),
             {"prompt": "prompt", "max_tokens": 256, "temperature": 0.0}, {"text": "AGREE"},
             "PHENOTAG_LLM_TOKEN"),
    "/embed": (lambda url, ms: RemoteEmbeddingProvider("e", url, 2, timeout_ms=ms,
                                                       retry_budget=0).embed("text").tolist(),
               {"texts": ["text"]}, {"vectors": [[1.0, 0.0]]}, "PHENOTAG_EMBED_TOKEN"),
}


def test_each_default_transport_sends_its_own_token_and_timeout(monkeypatch):
    def answer(handler, body):
        path = handler.path.removeprefix("/slow")
        if path != handler.path:  # a reply slower than one timeout_ms and faster than the other
            reply_after(handler, 0.4, DEFAULT_CLIENTS[path][2])
        else:
            reply_json(handler, DEFAULT_CLIENTS[path][2])

    for path, (_, _, _, token_env) in DEFAULT_CLIENTS.items():
        monkeypatch.setenv(token_env, f"{path[1:]}-secret")
    with LoopbackServer(answer) as server:
        got = {path: call(server.url + path, 1_500) for path, (call, *_) in DEFAULT_CLIENTS.items()}
        for path, (call, *_) in DEFAULT_CLIENTS.items():
            started = time.monotonic()
            with pytest.raises(BackendError, match="timed out"):
                call(server.url + "/slow" + path, 100)
            assert time.monotonic() - started < 0.4
            assert call(server.url + "/slow" + path, 5_000) == got[path]
    assert got == {"/ner": {"results": [{"annotations": []}]}, "/llm": "AGREE",
                   "/embed": [1.0, 0.0]}
    sent = [("POST", path, body, f"Bearer {path[1:]}-secret")
            for path, (_, body, *_) in DEFAULT_CLIENTS.items()]
    slow = [("POST", "/slow" + path, body, auth) for _, path, body, auth in sent]
    assert server.seen == sent + [call for pair in zip(slow, slow) for call in pair]


@pytest.mark.parametrize("status", [301, 302, 303])
@pytest.mark.parametrize("elsewhere", [True, False])
def test_the_token_never_follows_a_redirect(monkeypatch, status, elsewhere):
    # urllib copies a request's headers onto the redirected one; the token
    # must not go with them, neither to another host nor to the same one.
    for path, (_, _, _, token_env) in DEFAULT_CLIENTS.items():
        monkeypatch.setenv(token_env, f"{path[1:]}-secret")

    def moved(handler, body):
        if handler.path.startswith("/moved"):
            reply_json(handler, DEFAULT_CLIENTS[handler.path.removeprefix("/moved")][2])
        else:
            target = (landing.url if elsewhere else server.url) + "/moved" + handler.path
            reply(handler, b"", status=status, headers=(("Location", target),))

    with LoopbackServer(moved) as landing, LoopbackServer(moved) as server:
        got = [call(server.url + path, 1_500) for path, (call, *_) in DEFAULT_CLIENTS.items()]
    assert got == [{"results": [{"annotations": []}]}, "AGREE", [1.0, 0.0]]
    first = [("POST", path, body, f"Bearer {path[1:]}-secret")
             for path, (_, body, *_) in DEFAULT_CLIENTS.items()]
    followed = [("GET", "/moved" + path, None, None) for path in DEFAULT_CLIENTS]
    if elsewhere:
        assert (server.seen, landing.seen) == (first, followed)
    else:
        assert (server.seen, landing.seen) == ([c for pair in zip(first, followed) for c in pair],
                                               [])


def test_a_token_http_cannot_carry_is_a_bug_not_a_transport_fault(monkeypatch):
    # A header value cannot hold a line break; that ValueError must stop the
    # command before anything is sent, not be retried, and not show the token.
    monkeypatch.setenv("PHENOTAG_LLM_TOKEN", "llm-secret\n")
    with LoopbackServer(lambda handler, body: reply_json(handler, {"text": "AGREE"})) as server:
        with pytest.raises(ValueError, match="PHENOTAG_LLM_TOKEN must hold only visible ASCII") \
                as info:
            HttpLlmBackend(server.url + "/llm").complete("prompt", LlmParams())
    assert "llm-secret" not in str(info.value)
    assert server.seen == [] and server.accepted == []


@pytest.mark.parametrize("token", ["secret\rx", "sec ret", "sec\tret", "s\u00e9cret", "secret\x1b",
                                   "secret\x7f"])
def test_a_token_with_other_than_visible_ascii_is_named_not_shown(monkeypatch, token):
    monkeypatch.setenv("PHENOTAG_EMBED_TOKEN", token)
    with pytest.raises(ValueError) as info:
        post_json("http://127.0.0.1:9/embed", {"texts": ["x"]}, 1.0, "PHENOTAG_EMBED_TOKEN")
    assert str(info.value).startswith("PHENOTAG_EMBED_TOKEN must hold only visible ASCII")
    assert token not in str(info.value)


def test_importing_the_cli_leaves_urllib_request_unloaded():
    # urllib.request (with http.client, email and ssl under it) costs a
    # quarter to a third as much to import as phenotag.cli, and only a remote
    # backend's call needs it.
    env = dict(os.environ, PYTHONPATH=str(Path(phenotag.__file__).resolve().parents[1]))
    code = "import sys, phenotag.cli; sys.exit('urllib.request' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# Run in a fresh interpreter in which ``import requests`` raises ImportError.
NO_REQUESTS_SCRIPT = """
import json, sys
sys.modules["requests"] = None
from phenotag.annotate import HttpNerBackend
from phenotag.ontology import RemoteEmbeddingProvider
from phenotag.orchestrate import HttpLlmBackend, LlmParams
url = sys.argv[1]
print(json.dumps([
    HttpNerBackend(url + "/ner").submit(["text"]),
    HttpLlmBackend(url + "/llm").complete("prompt", LlmParams()),
    RemoteEmbeddingProvider("e", url + "/embed", 2).embed("text").tolist(),
]))
"""


def test_the_default_clients_run_without_requests():
    env = dict(os.environ, PYTHONPATH=str(Path(phenotag.__file__).resolve().parents[1]))
    for path, (_, _, _, token_env) in DEFAULT_CLIENTS.items():
        env[token_env] = f"{path[1:]}-secret"
    with LoopbackServer(lambda handler, body: reply_json(
            handler, DEFAULT_CLIENTS[handler.path][2])) as server:
        result = subprocess.run([sys.executable, "-c", NO_REQUESTS_SCRIPT, server.url], env=env,
                                capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [{"results": [{"annotations": []}]}, "AGREE", [1.0, 0.0]]
    assert server.seen == [("POST", path, body, f"Bearer {path[1:]}-secret")
                           for path, (_, body, *_) in DEFAULT_CLIENTS.items()]


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


@pytest.mark.parametrize("url", ["http://h/x", "https://h:8443/x", "HTTP://h", "http://[::1]:80/"])
def test_checked_endpoint_returns_a_url_post_json_can_send_to(url):
    assert checked_endpoint(url, 1) == url


@pytest.mark.parametrize("url, timeout_ms, detail", [
    ("llm.host/complete", 1, "endpoint must be an http or https URL with a host"),
    ("ftp://h/x", 1, "endpoint must be an http or https URL with a host"),
    ("http:///x", 1, "endpoint must be an http or https URL with a host"),
    ("http://h:0/x", 1, "endpoint must be an http or https URL with a host"),
    ("http://h:abc/x", 1, "Port could not be cast to integer value"),
    ("http://h:65536/x", 1, "Port out of range"),
    ("http://h/x", 0, "timeout_ms must be >= 1, got 0"),
    ("http://h/x", -5, "timeout_ms must be >= 1, got -5"),
])
def test_checked_endpoint_rejects_what_post_json_cannot_send(url, timeout_ms, detail):
    with pytest.raises(ValueError, match=re.escape(detail)):
        checked_endpoint(url, timeout_ms)


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


class Recorder:
    """``fn`` for a window: records each item it starts, under a lock."""

    def __init__(self, fail_at=None):
        self.started = []
        self.lock = threading.Lock()
        self.fail_at = fail_at

    def __call__(self, item):
        with self.lock:
            self.started.append(item)
        if item == self.fail_at:
            raise ValueError(f"item {item}")
        time.sleep(0.001)
        return item

    def settled(self, n):
        """The items started, once at least ``n`` have started and no
        further one has for a few milliseconds."""
        deadline = time.monotonic() + 10
        while len(self.started) < n and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.005)
        with self.lock:
            return sorted(self.started)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_window_starts_item_i_plus_width_plus_1_only_once_result_i_is_taken(width):
    fn = Recorder()
    pulled = []

    def items():
        for i in range(20):
            pulled.append(i)
            yield i

    results = window(fn, items(), width)
    for i in range(20):
        assert next(results) == i
        # Items 0 to i + width + 1 have started; inline, items 0 to i.
        ahead = min(20, i + 1 + (width + 1 if width > 1 else 0))
        assert fn.settled(ahead) == list(range(ahead))
        assert len(pulled) == ahead
    assert list(results) == []


def test_a_window_fed_by_a_window_does_not_drain_it():
    inner_fn, outer_fn = Recorder(), Recorder()
    outer = window(outer_fn, window(inner_fn, range(100), 3), 2)
    assert next(outer) == 0
    # Taking outer result 0 started outer item 3, so the outer window has
    # taken inner results 0 to 3; on taking inner result i the inner window
    # started item i + 4.
    assert inner_fn.settled(8) == list(range(8))
    outer.close()


def test_a_window_fed_by_a_window_under_frequent_thread_switches():
    lock = threading.Lock()
    active = collections.Counter()
    high_water = collections.Counter()

    def stage(name):
        def fn(item):
            with lock:
                active[name] += 1
                high_water[name] = max(high_water[name], active[name])
            with lock:
                active[name] -= 1
            return item * 3 if name == "inner" else item + 1
        return fn

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # More workers than this machine's processors, in two windows.
        inner = window(stage("inner"), range(300), usable_cpus() + 3)
        assert window_map(stage("outer"), inner, 4) == [i * 3 + 1 for i in range(300)]
    finally:
        sys.setswitchinterval(interval)
    assert high_water["inner"] <= usable_cpus() + 3 and high_water["outer"] <= 4


def test_window_raises_an_input_failure_after_the_results_before_it():
    def items():
        yield from range(3)
        raise KeyError("input 3")

    fn = Recorder()
    results = window(fn, items(), 2)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(KeyError, match="input 3"):
        next(results)
    assert fn.started == [0, 1, 2]


def test_window_raises_the_earlier_of_a_call_failure_and_an_input_failure():
    def items():
        yield from range(3)
        raise KeyError("input 3")

    with pytest.raises(ValueError, match="item 1"):
        window_map(Recorder(fail_at=1), items(), 4)


def test_closing_a_window_starts_no_further_item_and_waits_for_the_running_ones():
    fn = Recorder()
    results = window(fn, range(100), 4)
    assert next(results) == 0
    results.close()
    # Close cancels each item still waiting for a worker: here at most 4 and 5.
    started = list(fn.started)
    assert set(range(1)) <= set(started) <= set(range(6))
    time.sleep(0.01)
    assert fn.started == started


def test_usable_cpus_is_the_affinity_set_or_the_cpu_count():
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert usable_cpus() == expected
    with mock.patch.object(os, "sched_getaffinity", create=True, side_effect=AttributeError):
        with mock.patch.object(os, "cpu_count", return_value=None):
            assert usable_cpus() == 1


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


# --- the default clients against a faulty loopback server ---------------------------

FAULTS = ("500", "503", "307", "drop", "truncate", "not-json", "slow")
FAULT_TIMEOUT_MS = 100  # every other reply on loopback takes a few ms


def _faulty_server(plans, item_of, good):
    """A LoopbackServer whose n-th request for item ``item_of(body)`` meets
    the fault ``plans[item][n]`` while the plan lasts, and then gets
    ``good(item)`` as its JSON reply; also returns the attempts per item."""
    attempts = collections.Counter()
    lock = threading.Lock()

    def answer(handler, body):
        item = item_of(body)
        with lock:
            n = attempts[item]
            attempts[item] += 1
        fault = plans[item][n] if n < len(plans[item]) else None
        data = json.dumps(good(item)).encode()
        if fault in ("500", "503"):
            reply(handler, b'{"error": "busy"}', status=int(fault))
        elif fault == "307":
            reply(handler, b"", status=307, headers=(("Location", "/elsewhere"),))
        elif fault == "truncate":
            reply(handler, data[: len(data) // 2], length=len(data))
        elif fault == "not-json":
            reply(handler, b"<html>busy</html>")
        elif fault == "slow":
            # Reply only once the client has given up and closed its end.
            client_closed_within(handler, 10)
            try:
                reply(handler, data)
            except OSError:
                pass
        elif fault is None:
            reply(handler, data)
        # "drop": the connection closes with no reply.

    return LoopbackServer(answer), attempts


def _ner_chunks(url, n, retry_budget, width):
    """Item i is the chunk of records ri-a and ri-b; a record's outcome is
    its status."""
    records = [SurveyRecord(f"r{i}-{part}", "", f"item {i} {part}", FieldType.DESCRIPTIVE)
               for i in range(n) for part in "ab"]
    outcomes = annotate_batch(
        records, HttpNerBackend(url + "/ner", timeout_ms=FAULT_TIMEOUT_MS),
        BackendConfig(batch_size=2, max_inflight=width, retry_budget=retry_budget),
    )
    return [(o.record_id, o.status) for o in outcomes]


def _llm_calls(url, n, retry_budget, width):
    """Item i is the judgment of record ri's mention; its outcome is the verdict kind."""
    records = [SurveyRecord(f"r{i}", "", f"item {i}", FieldType.DESCRIPTIVE) for i in range(n)]
    mentions = [NormalizedAnnotation(f"r{i}", TextSpan(0, 4), "item", NONE_CONCEPT,
                                     Source.NER_BACKEND) for i in range(n)]
    judged = run_strategy(Corpus(records), mentions,
                          PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
                          HttpLlmBackend(url + "/llm", timeout_ms=FAULT_TIMEOUT_MS),
                          OntologyStore(make_concepts(10)), retry_budget=retry_budget,
                          max_inflight=width)
    return [(a.record_id, v.kind.value) for a, v in judged]


def _embedded_texts(url, n, retry_budget, width):
    """Item i is the text "item i"; its outcome is its unit vector, the i-th
    of the 4 axes."""
    provider = RemoteEmbeddingProvider("remote", url + "/embed", 4, timeout_ms=FAULT_TIMEOUT_MS,
                                       max_inflight=width, retry_budget=retry_budget)
    return provider.embed_many([f"item {i}" for i in range(n)]).tolist()


# stage: (run it, the item a request names, the item's good reply, the
# outcomes when every item in ``ok`` succeeds)
FAULTY_STAGES = {
    "ner-chunk": (_ner_chunks, lambda body: int(body["texts"][0].split()[1]),
                  lambda i: {"results": [{"annotations": []}] * 2},
                  lambda ok: [(f"r{i}-{part}", "ok" if good else "failed")
                              for i, good in enumerate(ok) for part in "ab"]),
    "llm-call": (_llm_calls, lambda body: int(re.search(r"Answer: item (\d+)", body["prompt"])[1]),
                 lambda i: {"text": "AGREE"},
                 lambda ok: [(f"r{i}", "agree" if good else "unparseable")
                             for i, good in enumerate(ok)]),
    "embedding-text": (_embedded_texts, lambda body: int(body["texts"][0].split()[1]),
                       lambda i: {"vectors": [[i + 1.0 if j == i else 0.0 for j in range(4)]]},
                       lambda ok: [[1.0 if j == i else 0.0 for j in range(4)]
                                   for i in range(len(ok))]),
}


@pytest.mark.parametrize("stage", list(FAULTY_STAGES))
@settings(max_examples=20)
@given(retry_budget=st.integers(0, 2), width=st.integers(1, 3),
       plans=st.lists(st.lists(st.sampled_from(FAULTS), max_size=3), min_size=1, max_size=4))
def test_every_http_fault_costs_one_attempt_and_fails_only_its_item(stage, retry_budget, width,
                                                                      plans):
    run, item_of, good, expected = FAULTY_STAGES[stage]
    ok = [len(plan) <= retry_budget for plan in plans]
    # An item that succeeds is sent once per fault and once more; one that
    # fails is sent 1 + retry_budget times.
    needed = [min(len(plan) + 1, 1 + retry_budget) for plan in plans]
    server, attempts = _faulty_server(plans, item_of, good)
    with server:
        if stage == "embedding-text" and not all(ok):
            # The first text to fail stops the window: no further text
            # starts, and each text that started made all of its attempts.
            with pytest.raises(BackendError, match="embedding provider 'remote' failed"):
                run(server.url, len(plans), retry_budget, width)
            sent = [attempts[i] for i in range(len(plans))]
            first = ok.index(False)
            if width == 1:
                assert sent == needed[: first + 1] + [0] * (len(plans) - first - 1)
            assert all(count in (0, need) for count, need in zip(sent, needed))
            assert any(count == 1 + retry_budget for count, good in zip(sent, ok) if not good)
        else:
            assert run(server.url, len(plans), retry_budget, width) == expected(ok)
            assert [attempts[i] for i in range(len(plans))] == needed
    assert len(server.seen) == sum(attempts.values())
