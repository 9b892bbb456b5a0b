"""The HTTP client, the transport-fault rule, the retry policy and the
in-flight window shared by every remote backend.

The NER, embedding and LLM backends all POST JSON and read JSON back; each
binds its own bearer-token variable into ``post_json`` and sends through
``send``, which turns a transport fault into a BackendError. Only
BackendError is retried, so any other exception is a programming error: it
propagates from the first call, and ``window`` starts no further item.
"""

from __future__ import annotations

import collections
import json
import os
import re
import threading
from typing import Callable, Iterable, Iterator, TypeVar
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


def usable_cpus() -> int:
    """The number of processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def window(fn: Callable[[T], R], items: Iterable[T], width: int) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in input order, with at most
    ``width`` calls running at once; a width of 1 runs each call inline on
    the consuming thread, when its result is asked for.

    The window reads ahead a bounded distance. Beside the ``width`` items
    it runs, it keeps one more started, for the first worker that frees up,
    so a call that outlasts later ones stalls no worker; item
    ``i + width + 1`` starts only once result ``i`` is taken, so a window
    fed by another window's output never drains it. ``items`` is read on
    the consuming thread; an exception from reading it counts as the
    failure of the item it would have given.

    Once a call has raised, no later item starts, and the first exception
    in input order is raised. Closing the iterator, or a Ctrl-C while it
    waits, lets only the calls already running finish.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width == 1:
        for item in items:
            yield fn(item)
        return
    # Imported here: a width of 1 starts no thread, and at module level it
    # would load concurrent.futures and logging on every CLI start.
    from concurrent.futures import Future, ThreadPoolExecutor

    lock = threading.Lock()
    failed_at: int | None = None  # the earliest item whose call has raised

    def one(index: int, item: T) -> R | None:
        nonlocal failed_at
        # An item after one that raised is skipped; the consumer raises that
        # failure first, so a skipped item's None is never handed out. An
        # earlier item still runs: it may hold the first failure.
        if failed_at is not None and index > failed_at:
            return None
        try:
            return fn(item)
        except BaseException:
            with lock:
                failed_at = index if failed_at is None else min(failed_at, index)
            raise

    source = enumerate(items)
    started: collections.deque[Future] = collections.deque()

    def start_next() -> None:
        nonlocal source
        if failed_at is not None:
            return
        try:
            index, item = next(source)
        except StopIteration:
            return
        except Exception as exc:
            # Raised in its place, after the results of every item started.
            source = enumerate(())
            future: Future = Future()
            future.set_exception(exc)
            started.append(future)
            return
        started.append(pool.submit(one, index, item))

    pool = ThreadPoolExecutor(max_workers=width)
    try:
        for _ in range(width + 1):
            start_next()
        while started:
            result = started.popleft().result()
            start_next()
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def window_map(fn: Callable[[T], R], items: Iterable[T], width: int) -> list[R]:
    """``[fn(item) for item in items]``: the list form of ``window``, with
    its width-1 inline path and its first-failure-in-input-order rule."""
    return list(window(fn, items, width))
