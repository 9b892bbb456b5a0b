"""Fake NER, embedding and LLM transports for the ``transport=`` seams.

Each fake sleeps a fixed latency per call and answers from the generator's
planted truth. Faults are keyed by request content, never by call order, so
the same inputs fail the same way whatever the thread interleaving:

- NER: a batch holding a "transient" text fails on its first attempt only;
  one holding a "permanent" text always fails; one holding a "misaligned"
  text returns one result too few; a "malformed" text gets a mention that
  does not match its span.
- LLM: a "transient" prompt fails on its first attempt, a "permanent" one
  always, a "malformed" one answers without the ``text`` key.

Call and attempt counts are kept under a lock so the benchmark can check
retries exactly.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import Counter

import numpy as np

_MENTION_LINE = re.compile(r'Detected mention: "(.*)"')
_WORD = re.compile(r"\w+")


class FakeNerTransport:
    """``(url, payload, timeout_s) -> {"results": [...]}`` in BERN2 shape."""

    def __init__(self, truth: dict, latency_s: float):
        self._answers = dict(zip(truth["texts"], truth["ner_answers"]))
        self._fault: dict[str, str] = truth["ner_fault"]
        self._latency_s = latency_s
        self._lock = threading.Lock()
        self._attempts: Counter = Counter()
        self.calls = 0

    def __call__(self, url: str, payload: dict, timeout_s: float) -> dict:
        texts = payload["texts"]
        faults = {self._fault[t] for t in texts if t in self._fault}
        with self._lock:
            self.calls += 1
            first_try = any(
                self._attempts[t] == 0 for t in texts if self._fault.get(t) == "transient"
            )
            self._attempts.update(t for t in texts if t in self._fault)
        time.sleep(self._latency_s)
        if "permanent" in faults:
            raise ConnectionError("injected permanent NER fault")
        if first_try:
            raise TimeoutError("injected transient NER fault")
        results = [{"annotations": self._annotations(t)} for t in texts]
        if "misaligned" in faults:
            results.pop()
        return {"results": results}

    def _annotations(self, text: str) -> list[dict]:
        entries = self._answers[text]
        if self._fault.get(text) != "malformed":
            return entries
        broken = dict(entries[0], mention=entries[0]["mention"] + "x")
        return [broken, *entries[1:]]


class FakeEmbeddingTransport:
    """``(url, payload) -> {"vectors": [[...]]}``: hashed token counts."""

    def __init__(self, dimension: int, latency_s: float):
        self._dimension = dimension
        self._latency_s = latency_s
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, url: str, payload: dict) -> dict:
        with self._lock:
            self.calls += 1
        vectors = []
        for text in payload["texts"]:
            vector = np.zeros(self._dimension)
            for token in _WORD.findall(text.lower()):
                digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                vector[int.from_bytes(digest, "big") % self._dimension] += 1.0
            vectors.append(vector.tolist())
        time.sleep(self._latency_s)
        return {"vectors": vectors}


class FakeLlmTransport:
    """``(url, payload, timeout_s) -> {"text": ...}`` keyed by the prompt's
    ``Detected mention`` line."""

    def __init__(self, truth: dict, latency_s: float):
        self._class: dict[str, str] = truth["llm_class"]
        self._fault: dict[str, str] = truth["llm_fault"]
        self._responses = {
            "agree": "AGREE",
            "disagree": f"DISAGREE {truth['proposal_ok']}",
            "hallucinated": "DISAGREE mesh:D9999999",
            "unparseable": "I cannot tell from this answer.",
        }
        self._latency_s = latency_s
        self._lock = threading.Lock()
        self._attempts: Counter = Counter()
        self.calls = 0

    def __call__(self, url: str, payload: dict, timeout_s: float) -> dict:
        prompt = payload["prompt"]
        mention = _MENTION_LINE.search(prompt).group(1)
        fault = self._fault.get(mention)
        with self._lock:
            self.calls += 1
            self._attempts[prompt] += 1
            attempt = self._attempts[prompt]
        time.sleep(self._latency_s)
        if fault == "permanent" or (fault == "transient" and attempt == 1):
            raise ConnectionError(f"injected {fault} LLM fault")
        if fault == "malformed":
            return {"answer": self._responses[self._class[mention]]}
        return {"text": self._responses[self._class[mention]]}
