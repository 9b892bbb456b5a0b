"""Per-run correctness gate: outputs against the generator's planted truth.

Each check returns a list of problems; an empty list means the chain run's
outputs are what a correct pipeline must write for these inputs.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

from reference import Retrieval

_TOLERANCE = 1e-9


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _table1(out: Path) -> dict:
    with open(out / "table1_ner_nen.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != 1:
        return {}
    return rows[0]


def _check_counts(out: Path, expected: dict) -> list[str]:
    row = _table1(out)
    got = {k: int(row[k]) for k in ("tp", "fp", "fn", "tn")} if row else {}
    return [] if got == expected else [f"eval confusion counts {got} != planted {expected}"]


def check_ner_scan(truth: dict, out: Path) -> list[str]:
    problems = _check_counts(out, truth["counts"])
    predictions = _jsonl(out / "predictions.jsonl")
    if len(predictions) != truth["records"] or any(p["status"] != "ok" for p in predictions):
        problems.append("predictions: wrong record count or failed records")
    found = [[p["record_id"], a["begin"], a["end"], a["concept"]]
             for p in predictions for a in p["annotations"]]
    if found != truth["predictions"]:
        problems.append(f"mock NER found {len(found)} mentions, planted "
                        f"{len(truth['predictions'])} (or offsets/concepts differ)")
    tp = truth["counts"]["tp"]
    accuracy = float(_table1(out).get("nen_accuracy", "nan"))
    if tp and abs(accuracy - truth["concept_correct"] / tp) > _TOLERANCE:
        problems.append(f"NEN accuracy {accuracy} != planted {truth['concept_correct']}/{tp}")
    return problems


_DOCUMENT = re.compile(r"NAME: [^\n]*\nID: (mesh:D\d+)\nDESCRIPTION: [^\n]*\nSYNONYMS: [^\n]*")


def _retrieval_problems(truth: dict, out: Path, reference: Retrieval) -> list[str]:
    """Each run-stage prompt carries the reference top-k documents for its
    query, rendered exactly as the reference renders them."""
    prompts = _jsonl(out / "prompts.jsonl")
    if len(prompts) != len(truth["verdicts"]):
        return [f"{len(prompts)} prompts dumped for {len(truth['verdicts'])} mentions"]
    problems = []
    for prompt, verdict, query in zip(prompts, truth["verdicts"], truth["queries"]):
        where = f"run prompt for {verdict['record_id']} {verdict['span']}"
        if [prompt["record_id"], prompt["span"]] != [verdict["record_id"], verdict["span"]]:
            problems.append(f"{where}: prompts out of mention order")
            break
        documents = list(_DOCUMENT.finditer(prompt["prompt"]))
        got = [m.group(1) for m in documents]
        why = reference.problem(query, got, truth["retrieval_k"])
        if not why and any(m.group(0) != reference.bodies[cid] for m, cid in zip(documents, got)):
            why = "a document differs from its reference rendering"
        if why:
            problems.append(f"{where}: retrieved documents {got}: {why}")
        if len(problems) >= 5:
            break
    return problems


def _raft_problems(truth: dict, out: Path, reference: Retrieval) -> list[str]:
    """RAFT invariants, and that distractors are the reference's nearest
    non-oracle concepts."""
    body_id = {body: cid for cid, body in reference.bodies.items()}
    n = truth["n_distractors"]
    lines = _jsonl(out / "raft.jsonl")
    if len(lines) != len(truth["questions"]):
        return [f"raft: {len(lines)} datapoints for {len(truth['questions'])} questions"]
    problems = []
    for line, question in zip(lines, truth["questions"]):
        gold = question["concept_id"]
        chosen = [body_id.get(body) for body in line["distractors"]]
        if line["question"] != question["question"] or line["oracle"] != reference.bodies[gold]:
            problems.append(f"raft: wrong question or oracle for {gold}")
        elif None in chosen:
            problems.append(f"raft: a distractor for {gold} differs from its reference rendering")
        elif not line["cot_answer"].endswith(f"ANSWER: {gold}"):
            problems.append(f"raft: cot_answer for {gold} does not end with its id")
        elif why := reference.problem(question["question"], chosen, n, exclude=gold):
            problems.append(f"raft: distractors for {gold}: {why}")
        if len(problems) >= 5:
            break
    return problems


def check_rag_verify(truth: dict, out: Path) -> list[str]:
    problems = _check_counts(out, truth["counts"])
    verdicts = _jsonl(out / "verdicts.jsonl")
    if verdicts != truth["verdicts"]:
        bad = sum(a != b for a, b in zip(verdicts, truth["verdicts"]))
        problems.append(f"verdicts: {len(verdicts)} written, {len(truth['verdicts'])} planted, "
                        f"{bad} differ from the scripted rules")
    reference = Retrieval(truth["concepts"])
    return problems + _retrieval_problems(truth, out, reference) + _raft_problems(
        truth, out, reference
    )


def check_remote(truth: dict, out: Path) -> list[str]:
    failed = set(truth["failed_records"])
    predictions = _jsonl(out / "predictions.jsonl")
    problems = [] if len(predictions) == truth["records"] else ["predictions: wrong record count"]
    for record, answer in zip(predictions, truth["ner_answers"]):
        expected = [
            [e["span"]["begin"], e["span"]["end"], e["mention"],
             "NONE" if e["id"][0] == "CUI-less" else e["id"][0]]
            for e in answer if e["obj"] == "disease"
        ]
        got = [[a["begin"], a["end"], a["surface"], a["concept"]] for a in record["annotations"]]
        if (record["status"] == "failed") != (record["record_id"] in failed):
            problems.append(f"record {record['record_id']}: status {record['status']}")
        elif record["status"] == "ok" and got != expected:
            problems.append(f"record {record['record_id']}: annotations differ from the backend's")
    if _jsonl(out / "verdicts.jsonl") != truth["verdicts"]:
        problems.append("verdicts differ from the planted LLM answers and faults")
    return problems[:10]


CHECKS = {
    "ner_scan": check_ner_scan,
    "rag_verify": check_rag_verify,
    "remote_backends": check_remote,
}


def check_every_run(workload: str, truth: dict, run, operations: int) -> list[str]:
    """Checks that hold for each chain run, not only the first one."""
    problems = []
    expected = truth["failed_ratio"] if workload == "remote_backends" else 0.0
    if run.failed_ops / operations != expected:
        problems.append(f"failed ratio {run.failed_ops}/{operations} != injected {expected}")
    if run.calls and run.calls != truth["calls"]:
        problems.append(f"backend calls {run.calls} != expected {truth['calls']}")
    return problems
