"""Reference retrieval: what the run and raft stages must retrieve.

A frozen copy of the seed's retrieval, written against the generator's
plain concept dicts and calling no phenotag code, so a change to the
program's embedding, document rendering, query construction or ``top_k``
cannot move the reference with it. The seed's rules:

- a concept's retrieval document is its ``NAME:``, ``ID:``,
  ``DESCRIPTION:`` and ``SYNONYMS:`` lines (synonyms joined by ``"; "``);
- text is embedded as stemmed ``\\w+`` tokens of the lower-cased text,
  hashed (8-byte blake2b) into 256 buckets, counted and L2-normalised;
- a run-stage query is the mention's surface, a space, the record's
  survey question; a RAFT query is the question itself;
- concepts rank by descending cosine, ties by ascending concept id.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

DIMENSION = 256
# Scores within this of each other count as tied: the order of a tie may
# legitimately differ with the floating-point order of a matrix product.
TOLERANCE = 1e-9
_SUFFIX_RULES = (
    ("sses", "ss", 2), ("ies", "y", 2), ("ing", "", 3),
    ("ed", "", 3), ("es", "", 3), ("s", "", 3),
)


def _stem(token: str) -> str:
    if token.endswith("ss"):
        return token
    for suffix, replacement, min_stem in _SUFFIX_RULES:
        if token.endswith(suffix) and len(token) - len(suffix) >= min_stem:
            return token[: -len(suffix)] + replacement
    return token


def embed(text: str) -> np.ndarray:
    vector = np.zeros(DIMENSION)
    for token in re.findall(r"\w+", text.lower()):
        digest = hashlib.blake2b(_stem(token).encode("utf-8"), digest_size=8).digest()
        vector[int.from_bytes(digest, "big") % DIMENSION] += 1.0
    return vector / np.linalg.norm(vector)


def document(concept: dict) -> str:
    synonyms = "; ".join(concept["synonyms"]) if concept["synonyms"] else "(none)"
    return (
        f"NAME: {concept['preferred_name']}\n"
        f"ID: {concept['concept_id']}\n"
        f"DESCRIPTION: {concept['description']}\n"
        f"SYNONYMS: {synonyms}"
    )


class Retrieval:
    """Reference index over the generated ontology."""

    def __init__(self, concepts: list[dict]):
        ordered = sorted(concepts, key=lambda c: c["concept_id"])
        self.ids = [c["concept_id"] for c in ordered]
        self.position = {cid: i for i, cid in enumerate(self.ids)}
        self.bodies = {c["concept_id"]: document(c) for c in ordered}
        self._matrix = np.vstack([embed(self.bodies[cid]) for cid in self.ids])

    def problem(self, query: str, got: list[str], k: int, exclude: str | None = None) -> str:
        """Why ``got`` is not the top ``k`` for ``query`` (skipping the
        concept ``exclude``), or "" when it is, up to ties."""
        if len(got) != k or len(set(got)) != k or exclude in got:
            return f"{len(got)} documents, want {k} distinct ones"
        if any(cid not in self.position for cid in got):
            return "a retrieved id is not in the ontology"
        scores = self._matrix @ embed(query)
        if exclude is not None:
            scores[self.position[exclude]] = -np.inf
        kth_best = -np.partition(-scores, k - 1)[k - 1]
        got_scores = [scores[self.position[cid]] for cid in got]
        if min(got_scores) < kth_best - TOLERANCE:
            return "not the nearest concepts"
        if any(a < b - TOLERANCE for a, b in zip(got_scores, got_scores[1:])):
            return "not in descending score order"
        return ""
