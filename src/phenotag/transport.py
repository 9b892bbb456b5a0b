"""The HTTP client and the retry policy shared by every remote backend.

The NER, embedding and LLM backends all POST JSON and read JSON back; each
binds its own bearer-token variable into ``post_json``. Only BackendError
is retried: the backends raise it for every transport or wire fault, so any
other exception is a programming error and propagates from the first call.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

from .errors import BackendError

T = TypeVar("T")


def post_json(url: str, payload: dict, timeout_s: float, token_env: str) -> dict:
    """POST ``payload`` as JSON and return the decoded JSON response.

    Secrets travel in the environment only, never in config files: the
    bearer token is read from ``token_env`` on every call.
    """
    # Imported here: at module level it would add ~0.2 s to every CLI start.
    import requests

    token = os.environ.get(token_env)
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    response = requests.post(url, json=payload, timeout=timeout_s, headers=headers)
    response.raise_for_status()
    return response.json()


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
