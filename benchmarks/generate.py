"""Seeded synthetic inputs for the phenotag benchmark, with planted truth.

Every input file a workload needs is written from ``random.Random(seed)``,
together with ``truth.json``: what a correct pipeline must produce from
those inputs. The same seed gives byte-identical files.

Vocabulary. Disease terms are made of pseudo-words (three consonant-vowel
syllables) drawn without replacement, so every concept name and synonym is
unique however large the ontology is; filler text uses a fixed list of
English words that shares no token with them. A mock-lexicon scan can
therefore only match where a term was planted, and the planted offsets are
the exact expected output.

Cost is kept independent of the seed: answer lengths, mention counts and
question use are fixed multisets that the seed only permutes, so runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FILLER = (
    "about after again also always and any around at back because been before "
    "being better bit both but by child come could day days did does doing down "
    "during each even every family feel felt few first for from get getting good "
    "had has have having her here him his home how into just keep know last later "
    "life like little long made make many more most much never new night no none "
    "not now often once only other our out over past quite really right same school "
    "seems since some still such than that the their them then there these they "
    "thing think this those though through time too under until very was week well "
    "went were what when where which while will with work would year years yet"
).split()
ORGANS = (
    "airways", "heart", "skin", "stomach", "liver", "kidneys", "nerves", "bones",
    "lungs", "sinuses", "joints", "eyes", "ears", "blood", "muscles", "bowel",
)
QUESTION_TOKENS = 9
ANSWER_TOKENS = (15, 40)  # answer length range, in tokens
_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


@dataclass(frozen=True)
class Sizes:
    """Size knobs of one generated workload."""

    records: int  # N
    lexicon: int  # L, mock-lexicon terms (ner_scan)
    concepts: int  # C, ontology concepts (rag_verify, remote_backends)
    mentions_per_record: float  # mention density
    zipf_s: float  # skew of the mention-term distribution
    question_pool: int  # distinct survey questions the records share
    raft_questions: int  # RAFT datapoints (rag_verify)


def pseudo_words(rng: random.Random, n: int) -> list[str]:
    words: list[str] = []
    seen = set(FILLER) | set(ORGANS)
    while len(words) < n:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def disease_terms(rng: random.Random, n: int) -> list[str]:
    """n distinct terms of 1-3 pseudo-word tokens, a third of each length."""
    tokens = iter(pseudo_words(rng, 2 * n))
    return [" ".join(next(tokens) for _ in range(1 + i % 3)) for i in range(n)]


def _zipf_picker(rng: random.Random, items: list, s: float):
    order = list(items)
    rng.shuffle(order)
    cum, total = [], 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** s
        cum.append(total)
    return lambda: rng.choices(order, cum_weights=cum)[0]


def _fixed_multiset(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """n integers spread evenly over [low, high], in seeded order."""
    values = [low + (i * (high - low + 1)) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _question_pool(rng: random.Random, n: int) -> list[str]:
    pool: list[str] = []
    while len(pool) < n:
        question = " ".join(rng.choice(FILLER) for _ in range(QUESTION_TOKENS)) + "?"
        if question not in pool:
            pool.append(question)
    return pool


def _mention_counts(rng: random.Random, n: int, density: float) -> list[int]:
    """Per-record mention counts with a fixed total and a fixed zero share."""
    counts = [0] * n
    for i in range(round(n * density)):
        counts[i % max(1, (n * 3) // 4)] += 1  # a quarter stay mention-free
    rng.shuffle(counts)
    return counts


def _compose(rng: random.Random, length: int, mentions: list[str]) -> tuple[str, list[int]]:
    """An answer of ``length`` tokens with each mention separated by filler.

    Returns the text and each mention's character offset in it.
    """
    mention_tokens = sum(len(m.split()) for m in mentions)
    filler_count = max(length - mention_tokens, len(mentions) + 1)
    slots = sorted(rng.sample(range(1, filler_count), len(mentions)))
    parts: list[str] = []
    offsets: list[int] = []
    cursor = 0
    queue = list(zip(slots, mentions))
    for i in range(filler_count):
        if queue and queue[0][0] == i:
            offsets.append(cursor)
            parts.append(queue.pop(0)[1])
            cursor += len(parts[-1]) + 1
        parts.append(rng.choice(FILLER))
        cursor += len(parts[-1]) + 1
    return " ".join(parts), offsets


def _record(rid: str, question: str, answer: str, i: int, preceding: list[str]) -> dict:
    return {
        "record_id": rid,
        "question_text": question,
        "answer_text": answer,
        "field_type": ("descriptive", "checkbox", "dropdown", "binary")[i % 4],
        "preceding_questions": preceding,
        "expects_disease": i % 2 == 0,
    }


def _jsonl(path: Path, rows: list) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows),
        encoding="utf-8",
    )


def _mesh(i: int) -> str:
    return f"mesh:D{i:06d}"


def _ontology(rng: random.Random, c: int) -> list[dict]:
    """C concepts with unique names and synonyms; fixed description length."""
    words = pseudo_words(rng, 3 * c)
    concepts = []
    for i in range(c):
        name, syn1, syn2 = words[3 * i], words[3 * i + 1], words[3 * i + 2]
        organ = ORGANS[rng.randrange(len(ORGANS))]
        detail = " ".join(rng.choice(FILLER) for _ in range(6))
        concepts.append({
            "concept_id": _mesh(i + 1),
            "preferred_name": name,
            "description": f"{name} is a persistent disorder of the {organ} {detail}.",
            "synonyms": [f"chronic {syn1}", syn2],
        })
    return concepts


def _examples() -> list[dict]:
    return [
        {
            "question": f"example question {i}?",
            "mention": f"mention{i}",
            "concept": f"concept{i} ({_mesh(i + 1)})",
            "verdict": "AGREE" if i % 2 == 0 else f"DISAGREE {_mesh(i + 1)}",
        }
        for i in range(12)
    ]


def _records_with_mentions(rng, sizes: Sizes, pick_surface, prefix: str):
    """Records whose answers carry planted surfaces.

    Returns (records, submitted texts, [(record index, surface, begin, end)]).
    """
    pool = _question_pool(rng, sizes.question_pool)
    questions = [pool[i % len(pool)] for i in range(sizes.records)]
    rng.shuffle(questions)
    lengths = _fixed_multiset(rng, sizes.records, *ANSWER_TOKENS)
    counts = _mention_counts(rng, sizes.records, sizes.mentions_per_record)
    records, texts, mentions = [], [], []
    for i in range(sizes.records):
        surfaces = [pick_surface() for _ in range(counts[i])]
        answer, offsets = _compose(rng, lengths[i], surfaces)
        preceding = [pool[(i + j) % len(pool)] for j in range(i % 3)]
        records.append(_record(f"{prefix}{i:05d}", questions[i], answer, i, preceding))
        join = len(questions[i]) + 1
        texts.append(f"{questions[i]} {answer}")
        for surface, offset in zip(surfaces, offsets):
            mentions.append((i, surface, join + offset, join + offset + len(surface)))
    return records, texts, mentions


def _gold_lines(records, texts, labels_by_record) -> list[dict]:
    return [
        {"record_id": r["record_id"], "text": t, "label": labels_by_record.get(i, [])}
        for i, (r, t) in enumerate(zip(records, texts))
    ]


def _confusion(n_records: int, predicted: dict, gold: dict) -> dict:
    """Expected strict-span confusion counts from planted spans per record."""
    tp = fp = fn = tn = 0
    for i in range(n_records):
        p, g = set(predicted.get(i, ())), set(gold.get(i, ()))
        if not p and not g:
            tn += 1
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def _write_config(path: Path, sections: dict[str, dict[str, str]]) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# ner_scan: mock-lexicon NER over Zipf-distributed mentions
# ---------------------------------------------------------------------------

def generate_ner_scan(out: Path, seed: int, sizes: Sizes) -> dict:
    rng = random.Random(f"ner_scan:{seed}")
    terms = disease_terms(rng, sizes.lexicon + 64)
    lexicon = {t: _mesh(i + 1) for i, t in enumerate(terms[: sizes.lexicon])}
    unknown = terms[sizes.lexicon :]  # gold-only terms the lexicon cannot find
    zipf = _zipf_picker(rng, list(lexicon), sizes.zipf_s)
    kinds: list[str] = []

    def pick():
        # 70% accepted lexicon hits, 15% rejected hits, 15% gold-only terms.
        roll = rng.random()
        kinds.append("tp" if roll < 0.70 else "fp" if roll < 0.85 else "fn")
        return rng.choice(unknown) if kinds[-1] == "fn" else zipf()

    records, texts, mentions = _records_with_mentions(rng, sizes, pick, "ner")
    predicted, gold, labels, expected_predictions = {}, {}, {}, []
    concept_correct = 0
    for (i, surface, begin, end), kind in zip(mentions, kinds):
        if kind != "fn":
            predicted.setdefault(i, []).append((begin, end))
            expected_predictions.append([records[i]["record_id"], begin, end, lexicon[surface]])
        if kind != "fp":
            gold.setdefault(i, []).append((begin, end))
            concept = lexicon.get(surface, _mesh(900_000 + i))
            if kind == "tp" and rng.random() < 0.1:
                concept = _mesh(800_000 + i)  # annotators normalised it differently
            concept_correct += kind == "tp" and concept == lexicon[surface]
            labels.setdefault(i, []).append([begin, end, concept])
    _jsonl(out / "records.jsonl", records)
    _jsonl(out / "gold.jsonl", _gold_lines(records, texts, labels))
    _jsonl(out / "mock_lexicon.jsonl",
           [{"term": t, "concept_id": c} for t, c in lexicon.items()])
    counts = _confusion(len(records), predicted, gold)
    truth = {
        "records": len(records),
        "tokens": sum(len(t.split()) for t in texts),
        "predictions": expected_predictions,
        "counts": counts,
        "concept_correct": concept_correct,
    }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return truth


# ---------------------------------------------------------------------------
# rag_verify: retrieval-augmented verification plus RAFT export
# ---------------------------------------------------------------------------

# Scripted-LLM rules keyed on the last digit of the proposed concept id in
# the case's "Proposed concept: ... (mesh:D...)" line; order matters, the
# first match answers.
RAG_RULES = (
    ("[0-4]", "AGREE"),
    ("[56]", "DISAGREE, the better concept is mesh:D000001"),
    ("7", "DISAGREE mesh:D9999999"),
    ("8", "I cannot tell from this answer."),
)


def rag_rules() -> list[dict]:
    rules = [
        {"regex": r"Proposed concept: [^\n]*\(mesh:D\d*" + digits + r"\)", "response": text}
        for digits, text in RAG_RULES
    ]
    rules.append({"contains": "", "response": "AGREE"})
    return rules


def expected_rag_verdict(concept: str) -> tuple[str, str | None, bool]:
    """(kind, proposal, hallucinated) the rules give for a backend concept."""
    digit = concept[-1] if concept.startswith("mesh:") else ""
    if digit in "01234" and digit:
        return "agree", None, False
    if digit in ("5", "6"):
        return "disagree", "mesh:D000001", False
    if digit == "7":
        return "disagree", "mesh:D9999999", True
    if digit == "8":
        return "unparseable", None, False
    return "agree", None, False


def generate_rag_verify(out: Path, seed: int, sizes: Sizes) -> dict:
    rng = random.Random(f"rag_verify:{seed}")
    concepts = _ontology(rng, sizes.concepts)
    term_concept = {}
    for c in concepts:
        for term in (c["preferred_name"], *c["synonyms"]):
            term_concept[term] = c["concept_id"]
    gold_only = pseudo_words(rng, 64)
    zipf = _zipf_picker(rng, sorted(term_concept), sizes.zipf_s)
    kinds: list[str] = []

    def pick():
        roll = rng.random()
        kinds.append("tp" if roll < 0.75 else "fp" if roll < 0.9 else "fn")
        return rng.choice(gold_only) if kinds[-1] == "fn" else zipf()

    records, texts, mentions = _records_with_mentions(rng, sizes, pick, "rag")
    annotations: dict[int, list[dict]] = {}
    predicted, gold, labels, verdicts, queries = {}, {}, {}, [], []
    for (i, surface, begin, end), kind in zip(mentions, kinds):
        if kind != "fn":
            queries.append(f"{surface} {records[i]['question_text']}")
            roll = rng.random()
            concept = (
                term_concept[surface] if roll < 0.8
                else "NONE" if roll < 0.9
                else rng.choice(concepts)["concept_id"]
            )
            annotations.setdefault(i, []).append({
                "begin": begin, "end": end, "surface": surface,
                "concept": concept, "confidence": None,
            })
            predicted.setdefault(i, []).append((begin, end))
            kind_, proposal, hallucinated = expected_rag_verdict(concept)
            verdicts.append({
                "record_id": records[i]["record_id"], "span": [begin, end],
                "backend_concept": concept, "kind": kind_, "proposal": proposal,
                "hallucinated": hallucinated,
            })
        if kind != "fp":
            gold.setdefault(i, []).append((begin, end))
            labels.setdefault(i, []).append(
                [begin, end, term_concept.get(surface, _mesh(900_000 + i))]
            )
    predictions = [
        {
            "record_id": r["record_id"], "text": t, "status": "ok",
            "question_join": len(r["question_text"]) + 1,
            "annotations": annotations.get(i, []), "error": None,
        }
        for i, (r, t) in enumerate(zip(records, texts))
    ]
    gold_ids = rng.sample([c["concept_id"] for c in concepts], sizes.raft_questions)
    by_id = {c["concept_id"]: c for c in concepts}
    questions = []
    for n, cid in enumerate(gold_ids):
        c = by_id[cid]
        organ = c["description"].split(" of the ")[1].split()[0]
        questions.append({
            "question": f"respondent {n} reports {c['synonyms'][1]} affecting the {organ}, "
                        f"which condition is it?",
            "concept_id": cid,
        })
    _jsonl(out / "records.jsonl", records)
    _jsonl(out / "predictions.jsonl", predictions)
    _jsonl(out / "gold.jsonl", _gold_lines(records, texts, labels))
    _jsonl(out / "ontology.jsonl", concepts)
    _jsonl(out / "examples.jsonl", _examples())
    _jsonl(out / "llm_rules.jsonl", rag_rules())
    _jsonl(out / "questions.jsonl", questions)
    truth = {
        "records": len(records),
        "verdicts": verdicts,
        "queries": queries,  # the run-stage retrieval query of each verdict
        "counts": _confusion(len(records), predicted, gold),
        "questions": questions,
        "concepts": concepts,
        "retrieval_k": 3,
        "n_distractors": 3,
    }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return truth


# ---------------------------------------------------------------------------
# remote_backends: HTTP backends behind fake transports with planted faults
# ---------------------------------------------------------------------------

REMOTE_BATCH_SIZE = 8
REMOTE_NER_RETRY_BUDGET = 2
REMOTE_LLM_RETRY_BUDGET = 1
# Fault counts are fixed, so the failed share is the same for every seed.
NER_FAULTS = {"transient": 2, "permanent": 1, "misaligned": 1}
NER_MALFORMED_RECORDS = 3
LLM_FAULTS = {"transient": 6, "permanent": 3, "malformed": 2}
LLM_CLASSES = (("agree", 0.6), ("disagree", 0.2), ("hallucinated", 0.08), ("unparseable", 0.12))


def generate_remote(out: Path, seed: int, sizes: Sizes) -> dict:
    """Inputs plus the fake backends' knowledge: what each text is answered
    with and which texts fault. Every record carries the same number of
    mentions and no mention repeats, so no two prompts or texts repeat and
    the failed share is the same for every seed."""
    rng = random.Random(f"remote_backends:{seed}")
    concepts = _ontology(rng, sizes.concepts)
    terms = []
    for c in concepts:
        terms.extend((c["preferred_name"], *c["synonyms"]))
    term_concept = {t: c["concept_id"] for c in concepts
                    for t in (c["preferred_name"], *c["synonyms"])}
    per_record = round(sizes.mentions_per_record)
    surfaces = iter(rng.sample(terms, per_record * sizes.records))
    pool = _question_pool(rng, sizes.question_pool)
    lengths = _fixed_multiset(rng, sizes.records, *ANSWER_TOKENS)
    records, texts, ner_answers = [], [], []
    for i in range(sizes.records):
        question = pool[i % len(pool)]
        picked = [next(surfaces) for _ in range(per_record)]
        answer, offsets = _compose(rng, lengths[i], picked)
        records.append(_record(f"rem{i:05d}", question, answer, i, []))
        text = f"{question} {answer}"
        texts.append(text)
        join = len(question) + 1
        entries = []
        for surface, offset in zip(picked, offsets):
            begin = join + offset
            concept = term_concept[surface] if rng.random() < 0.9 else "CUI-less"
            entries.append({"mention": surface, "span": {"begin": begin, "end": begin + len(surface)},
                            "obj": "disease", "id": [concept]})
        # A non-disease entry the client must drop.
        entries.append({"mention": text[:1], "span": {"begin": 0, "end": 1}, "obj": "gene",
                        "id": ["NCBIGene:1"]})
        ner_answers.append(entries)

    n_chunks = (sizes.records + REMOTE_BATCH_SIZE - 1) // REMOTE_BATCH_SIZE
    chunk_order = list(range(n_chunks))
    rng.shuffle(chunk_order)
    ner_fault: dict[str, str] = {}
    chunk_fault: dict[int, str] = {}
    for kind, count in NER_FAULTS.items():
        for _ in range(count):
            chunk = chunk_order.pop()
            chunk_fault[chunk] = kind
            first = chunk * REMOTE_BATCH_SIZE
            victim = rng.randrange(first, min(first + REMOTE_BATCH_SIZE, sizes.records))
            ner_fault[texts[victim]] = kind
    clean = [i for i in range(sizes.records) if texts[i] not in ner_fault
             and chunk_fault.get(i // REMOTE_BATCH_SIZE, "transient") == "transient"]
    for i in rng.sample(clean, NER_MALFORMED_RECORDS):
        ner_fault[texts[i]] = "malformed"
    failed = sorted(
        i for i in range(sizes.records)
        if chunk_fault.get(i // REMOTE_BATCH_SIZE) in ("permanent", "misaligned")
        or ner_fault.get(texts[i]) == "malformed"
    )
    failed_set = set(failed)

    # Every mention of a record that annotates cleanly reaches the LLM.
    judged = []
    for i in range(sizes.records):
        if i in failed_set:
            continue
        for entry in ner_answers[i]:
            if entry["obj"] == "disease":
                concept = entry["id"][0] if entry["id"][0] != "CUI-less" else "NONE"
                judged.append((i, entry, concept))
    llm_class: dict[str, str] = {}
    llm_fault: dict[str, str] = {}
    order = list(range(len(judged)))
    rng.shuffle(order)
    for kind, count in LLM_FAULTS.items():
        for _ in range(count):
            llm_fault[judged[order.pop()][1]["mention"]] = kind
    verdicts = []
    labels, weights = zip(*LLM_CLASSES)
    for i, entry, concept in judged:
        surface = entry["mention"]
        cls = rng.choices(labels, weights=weights)[0]
        llm_class[surface] = cls
        if llm_fault.get(surface) in ("permanent", "malformed"):
            kind, proposal, hallucinated = "unparseable", None, False
        elif cls == "agree":
            kind, proposal, hallucinated = "agree", None, False
        elif cls == "disagree":
            kind, proposal, hallucinated = "disagree", concepts[0]["concept_id"], False
        elif cls == "hallucinated":
            kind, proposal, hallucinated = "disagree", "mesh:D9999999", True
        else:
            kind, proposal, hallucinated = "unparseable", None, False
        verdicts.append({
            "record_id": records[i]["record_id"],
            "span": [entry["span"]["begin"], entry["span"]["end"]],
            "backend_concept": concept, "kind": kind, "proposal": proposal,
            "hallucinated": hallucinated,
        })
    backend_errors = sum(1 for f in llm_fault.values() if f in ("permanent", "malformed"))
    ner_attempts = sum(
        {"transient": 2, "permanent": 1 + REMOTE_NER_RETRY_BUDGET}.get(chunk_fault.get(c), 1)
        for c in range(n_chunks)
    )
    llm_attempts = len(judged) + sum(
        1 if f == "transient" else REMOTE_LLM_RETRY_BUDGET for f in llm_fault.values()
    )
    _jsonl(out / "records.jsonl", records)
    _jsonl(out / "ontology.jsonl", concepts)
    _jsonl(out / "examples.jsonl", _examples())
    truth = {
        "records": sizes.records,
        "texts": texts,
        "ner_answers": ner_answers,
        "ner_fault": ner_fault,
        "failed_records": [records[i]["record_id"] for i in failed],
        "llm_class": llm_class,
        "llm_fault": llm_fault,
        "proposal_ok": concepts[0]["concept_id"],
        "verdicts": verdicts,
        "backend_error_verdicts": backend_errors,
        "calls": {"ner": ner_attempts, "llm": llm_attempts,
                  "embed": len(concepts) + len(judged)},
        "failed_ratio": (len(failed) + backend_errors) / (sizes.records + len(judged)),
    }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return truth


def write_config(path: Path, workload: str, inputs: Path) -> None:
    """INI config for one chain run, outputs under the config's directory."""
    def rel(name: str) -> str:
        return str(inputs / name)

    sections: dict[str, dict[str, str]] = {
        "paths": {"corpus": rel("records.jsonl"), "gold": rel("gold.jsonl"),
                  "output_dir": "out"},
        "run": {"seed": "7"},
        "eval": {"predictions": "out/predictions.jsonl"},
    }
    if workload == "ner_scan":
        # The mock backend is CPU-bound Python: under the interpreter lock a
        # second in-flight chunk only adds lock hand-offs between processors.
        sections["ner"] = {"mock_lexicon": rel("mock_lexicon.jsonl"), "batch_size": "4",
                           "max_inflight": "1"}
    else:
        sections["paths"].update(ontology=rel("ontology.jsonl"),
                                 example_pool=rel("examples.jsonl"))
        sections["llm"] = {"scripted": rel("llm_rules.jsonl"), "max_inflight": "1"}
        sections["eval"]["predictions"] = rel("predictions.jsonl")
    _write_config(path, sections)
