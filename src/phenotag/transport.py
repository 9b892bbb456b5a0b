"""The HTTP client, the transport-fault rule, the retry policy and the
in-flight window shared by every remote backend.

The NER, embedding and LLM backends all POST JSON and read JSON back; each
binds its own bearer-token variable into ``post_json`` and sends through
``send``, which turns a transport fault into a BackendError. Only
BackendError is retried, so any other exception is a programming error: it
propagates from the first call, and ``window_map`` starts no further item.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import Callable, Iterable, TypeVar
from urllib.parse import urlsplit

from .errors import BackendError

T = TypeVar("T")
R = TypeVar("R")

# A bearer token: visible ASCII, "!" to "~".
_TOKEN = re.compile(r"[!-~]+")


def post_json(url: str, payload: dict, timeout_s: float, token_env: str) -> dict:
    """POST ``payload`` as JSON and return the decoded JSON response. The bearer
    token comes from ``token_env`` on every call, never from a config file, and
    goes to ``url`` alone, never on after a redirect; a token that is not
    visible ASCII raises ValueError, which names ``token_env`` and never the
    token. A non-2xx status raises HTTPError, an OSError; a broken reply or a
    non-JSON body, BackendError."""
    # Imported here: at module level it would add ~30 ms to every CLI start.
    import http.client
    import urllib.request

    token = os.environ.get(token_env)
    # Checked first: http.client's own "Invalid header value" error quotes
    # the header, so the token would reach stderr.
    if token and not _TOKEN.fullmatch(token):
        raise ValueError(f"{token_env} must hold only visible ASCII characters "
                         "(no space, line break or other control character)")
    request = urllib.request.Request(url, json.dumps(payload, allow_nan=False).encode(),
                                     {"Content-Type": "application/json"})
    if token:
        request.add_unredirected_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            body = response.read()
    except http.client.HTTPException as exc:
        raise BackendError(repr(exc)) from exc
    try:
        return json.loads(body)
    except ValueError as exc:
        raise BackendError(repr(exc)) from exc


def checked_endpoint(url: str, timeout_ms: int) -> str:
    """``url``, if ``post_json`` can send to it within ``timeout_ms``; else ValueError."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
        raise ValueError(f"endpoint must be an http or https URL with a host, got {url!r}")
    if timeout_ms < 1:
        raise ValueError(f"timeout_ms must be >= 1, got {timeout_ms}")
    return url


def send(label: str, transport: Callable[..., T], *args) -> T:
    """Return ``transport(*args)``. A transport fault (an OSError or a
    BackendError) is re-raised as ``BackendError("<label> failed: ...")``;
    any other exception is a bug and propagates unchanged."""
    try:
        return transport(*args)
    except (OSError, BackendError) as exc:
        raise BackendError(f"{label} failed: {exc}") from exc


def call_with_retry(call: Callable[[], T], attempts: int) -> T:
    """Return ``call()``, calling it again after each BackendError up to
    ``attempts`` calls in all; the last BackendError is re-raised."""
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    for _ in range(attempts - 1):
        try:
            return call()
        except BackendError:
            pass
    return call()


def window_map(fn: Callable[[T], R], items: Iterable[T], width: int) -> list[R]:
    """``[fn(item) for item in items]`` in input order, with at most
    ``width`` calls running at once; a width of 1 runs inline on the calling
    thread.

    Once any call has raised, no further item starts, and the first
    exception in input order is raised. A Ctrl-C while waiting cancels
    every queued item; only the calls already running finish.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width == 1:
        return [fn(item) for item in items]
    # Imported here: a width of 1 starts no thread, and at module level it
    # would load concurrent.futures and logging on every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()

    def one(item: T) -> R | None:
        if failed.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=width) as pool:
        # An item is skipped only after some call has raised, and map raises
        # that exception before the list is complete, so a skipped item's
        # None is never returned. When map raises, it cancels every queued
        # item; the pool then waits only for the calls in flight.
        return list(pool.map(one, items))
