"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its runtime (visible under ``pytest -s``). Every tolerance and
runtime budget is pinned here; nothing is deferred to later calibration.
"""

import json
import random
import re
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from phenotag.cli import main as cli_main
from phenotag.corpus import (
    AnnotationSet,
    ConceptId,
    NONE_CONCEPT,
    NormalizedAnnotation,
    Source,
    TextSpan,
    export_doccano,
    import_doccano,
)
from phenotag.evaluate import (
    ConfusionCounts,
    compute_metrics,
    match_mentions,
    rouge_n,
)
from phenotag.ontology import (
    HashedBagOfWordsProvider,
    OntologyIndex,
    OntologyStore,
    build_rag_document,
)
from phenotag.orchestrate import (
    FewShotExample,
    PromptContext,
    PromptSpec,
    Strategy,
    VerdictKind,
    build_prompt,
    build_raft_dataset,
    parse_verdict,
    raft_to_jsonl,
)
from phenotag.corpus import FieldType, SurveyRecord
from phenotag.report import normalised_performance

from conftest import make_concepts, write_e2e_workspace


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL (runtime {elapsed:.2f}s > {budget_s}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_s}s runtime budget")
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_normalised_performance_reproduces_table6():
    published_tprs = [82.60, 81.10, 79.50, 72.00, 58.30, 67.40, 75.00, 68.20]
    published_normalised = [1.00, 0.98, 0.96, 0.87, 0.71, 0.82, 0.91, 0.83]
    with criterion(1, "normalised-performance vs published column", 1.0):
        labeled = [(f"variant-{i}", tpr) for i, tpr in enumerate(published_tprs)]
        result = normalised_performance(labeled)
        assert [round(value, 2) for _, value in result] == published_normalised


def test_criterion_02_metric_identities():
    with criterion(2, "metric identities over 1000 random confusions", 1.0):
        rng = random.Random(1202)
        for _ in range(1000):
            counts = ConfusionCounts(
                tp=rng.randrange(0, 60), tn=rng.randrange(0, 60),
                fp=rng.randrange(0, 60), fn=rng.randrange(0, 60),
            )
            report = compute_metrics(counts)
            if report.recall is not None:
                assert abs(report.recall + report.fnr - 1.0) <= 1e-12
            if report.tnr is not None:
                assert abs(report.tnr + report.fpr - 1.0) <= 1e-12
            if report.f1 is not None:
                p, r = report.precision, report.recall
                assert abs(report.f1 - 2.0 * p * r / (p + r)) <= 1e-12


def test_criterion_03_mention_agreement_strictness():
    with criterion(3, "exact-span agreement incl. published example", 1.0):
        text = "asthma episodes"
        predicted = AnnotationSet([
            NormalizedAnnotation("r1", TextSpan(0, 6), text[0:6], NONE_CONCEPT, Source.NER_BACKEND)
        ])
        gold = AnnotationSet([
            NormalizedAnnotation("r1", TextSpan(0, 15), text, NONE_CONCEPT, Source.HUMAN)
        ])
        _, counts = match_mentions(predicted, gold)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

        rng = random.Random(303)
        for _ in range(500):
            pb = rng.randrange(0, 40)
            pe = pb + rng.randrange(1, 10)
            gb = rng.randrange(0, 40)
            ge = gb + rng.randrange(1, 10)
            pred_set = AnnotationSet([
                NormalizedAnnotation("r", TextSpan(pb, pe), "", NONE_CONCEPT, Source.NER_BACKEND)
            ])
            gold_set = AnnotationSet([
                NormalizedAnnotation("r", TextSpan(gb, ge), "", NONE_CONCEPT, Source.HUMAN)
            ])
            _, got = match_mentions(pred_set, gold_set)
            if (pb, pe) == (gb, ge):
                assert (got.tp, got.fp, got.fn) == (1, 0, 0)
            else:
                assert (got.tp, got.fp, got.fn) == (0, 1, 1)


def _brute_force_rouge(candidate_tokens, reference_tokens, n):
    cand = [tuple(candidate_tokens[i : i + n]) for i in range(len(candidate_tokens) - n + 1)]
    ref = [tuple(reference_tokens[i : i + n]) for i in range(len(reference_tokens) - n + 1)]
    if not cand or not ref:
        return (0.0, 0.0, 0.0)
    overlap = 0
    for gram in set(cand):
        overlap += min(sum(1 for g in cand if g == gram), sum(1 for g in ref if g == gram))
    precision = overlap / len(cand)
    recall = overlap / len(ref)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)


def test_criterion_04_rouge_oracle_equivalence():
    with criterion(4, "rouge matches brute-force clipped counting", 5.0):
        rng = random.Random(404)
        vocabulary = ["asthma", "child", "the", "has", "report", "daily", "summary", "of"]
        for _ in range(200):
            cand = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 13))]
            ref = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 13))]
            for n in (1, 2):
                score = rouge_n(" ".join(cand), " ".join(ref), n)
                expected = _brute_force_rouge(cand, ref, n)
                assert score.precision == pytest.approx(expected[0], abs=1e-12)
                assert score.recall == pytest.approx(expected[1], abs=1e-12)
                assert score.f1 == pytest.approx(expected[2], abs=1e-12)


def test_criterion_05_end_to_end_mock_pipeline(tmp_path):
    with criterion(5, "ingest->annotate->eval on engineered 20-record fixture", 5.0):
        config = write_e2e_workspace(tmp_path)
        runner = CliRunner()
        assert runner.invoke(cli_main, ["ingest", "-c", str(config)]).exit_code == 0
        assert runner.invoke(cli_main, ["annotate", "-c", str(config)]).exit_code == 0
        result = runner.invoke(cli_main, ["eval", "-c", str(config)])
        assert result.exit_code == 0, result.output
        assert "mentions: tp=8 fp=2 fn=2 tn=8" in result.output
        assert "precision 0.800 recall 0.800 F1 0.800 accuracy 0.800" in result.output


def test_criterion_06_retrieval_sanity():
    with criterion(6, "exact-name retrieval rank-1 in 50/50 vs brute force", 5.0):
        store = OntologyStore(make_concepts(50))
        provider = HashedBagOfWordsProvider()
        index = OntologyIndex(store, provider)
        hits = 0
        for concept in store.concepts():
            query = provider.embed(concept.preferred_name)
            # brute-force oracle: recompute every document similarity
            best_id, best_score = None, -2.0
            for other in store.concepts():
                doc = provider.embed(build_rag_document(other).body)
                score = float(query @ doc)
                if score > best_score or (score == best_score and other.concept_id.render() < best_id.render()):
                    best_id, best_score = other.concept_id, score
            ranked = index.top_k(concept.preferred_name, 1)
            assert ranked[0][0] == best_id, "index disagrees with brute force"
            if ranked[0][0] == concept.concept_id:
                hits += 1
        assert hits == 50


def test_criterion_07_raft_invariants():
    with criterion(7, "100 RAFT datapoints: invariants + byte-identical regen", 5.0):
        store = OntologyStore(make_concepts(50))
        concepts = store.concepts()
        questions = [
            (f"Which condition affects patient {i}?", concepts[i % 50].concept_id)
            for i in range(100)
        ]
        index = OntologyIndex(store, HashedBagOfWordsProvider())
        points = build_raft_dataset(store, questions, 3, index=index)
        assert len(points) == 100
        for point in points:
            ids = [d.concept_id for d in point.distractor_docs]
            assert len(ids) == 3
            assert len(set(ids)) == 3
            assert point.oracle_doc.concept_id not in ids
        again = build_raft_dataset(store, questions, 3, index=index)
        assert "\n".join(raft_to_jsonl(points)) == "\n".join(raft_to_jsonl(again))


def _reference_verdict_scan(text):
    lowered = text.lower()

    def word_char(c):
        return c.isalnum() or c == "_"

    best = None
    for token, kind in (("agree", VerdictKind.AGREE), ("disagree", VerdictKind.DISAGREE)):
        at = 0
        while True:
            found = lowered.find(token, at)
            if found == -1:
                break
            before_ok = found == 0 or not word_char(lowered[found - 1])
            after = found + len(token)
            after_ok = after == len(lowered) or not word_char(lowered[after])
            if before_ok and after_ok:
                if best is None or found < best[0]:
                    best = (found, kind)
                break
            at = found + 1
    return best[1] if best else VerdictKind.UNPARSEABLE


def _reference_proposal_scan(text):
    match = re.search(r"[mM][eE][sS][hH]:[dD][0-9]+", text)
    return ConceptId.parse(match.group(0)) if match else None


def test_criterion_08_verdict_parser_totality():
    with criterion(8, "verdict parser totality over 1000 fuzzed strings", 2.0):
        rng = random.Random(808)
        pieces = [
            "AGREE", "agree", "Disagree", "DISAGREE", "disagreement", "agreed",
            "mesh:D001249", "MESH:d99", "mesh:", "D123", " ", "\n", "\t", ".", "!",
            "the", "concept", "-", "xxagreexx", "",
        ]
        for _ in range(1000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 12)))
            verdict = parse_verdict(text)  # must never raise
            expected_kind = _reference_verdict_scan(text)
            assert verdict.kind is expected_kind
            if verdict.kind is VerdictKind.DISAGREE:
                assert verdict.proposal == _reference_proposal_scan(text)
            else:
                assert verdict.proposal is None


def test_criterion_09_binary_flag_collapse():
    with criterion(9, "flags-off prompt equals zero-shot prompt on 20 contexts", 1.0):
        rng = random.Random(909)
        words = ["asthma", "eczema", "wheeze", "daily", "child", "severe", "ongoing"]
        for i in range(20):
            question = " ".join(rng.choice(words) for _ in range(4)) + "?"
            answer = " ".join(rng.choice(words) for _ in range(6))
            mention = rng.choice(words)
            preceding = tuple(
                " ".join(rng.choice(words) for _ in range(3))
                for _ in range(rng.randrange(0, 3))
            )
            record = SurveyRecord(f"r{i}", question, answer, FieldType.DESCRIPTIVE, preceding)
            concept = ConceptId(f"D{rng.randrange(1, 999999):06d}")
            mention_ann = NormalizedAnnotation(
                f"r{i}", TextSpan(0, len(mention)), mention, concept, Source.NER_BACKEND
            )
            ctx = PromptContext(
                record=record, mention=mention_ann, backend_concept=concept,
                backend_concept_name=rng.choice(words),
                examples=(FewShotExample("q?", "m", "c (mesh:D000001)", "AGREE"),),
            )
            flags_off = build_prompt(
                PromptSpec(Strategy.RAG_FSI_FLAGS, use_rag=False, use_fsi=False), ctx
            )
            zero_shot = build_prompt(PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT), ctx)
            assert flags_off == zero_shot


def test_criterion_10_report_shape(tmp_path):
    with criterion(10, "full synthetic run emits all seven tables", 5.0):
        config = write_e2e_workspace(tmp_path)
        runner = CliRunner()
        assert runner.invoke(cli_main, ["ingest", "-c", str(config)]).exit_code == 0
        assert runner.invoke(cli_main, ["annotate", "-c", str(config)]).exit_code == 0
        assert runner.invoke(cli_main, ["run", "-c", str(config), "--strategy", "zero-shot-cvc"]).exit_code == 0
        summaries = [
            json.dumps({"candidate": "child has asthma daily", "reference": "asthma daily report"}),
            json.dumps({"candidate": "eczema flare summary", "reference": "eczema flare summary"}),
        ]
        (tmp_path / "summaries.jsonl").write_text("\n".join(summaries) + "\n")
        (tmp_path / "summaries_empty.jsonl").write_text("")
        plan = {
            "zero_shot": [
                {"group": "Concept vs Concept Prompt", "model": "scripted-a", "verdicts": "out/verdicts.jsonl"},
                {"group": "Concept vs Mention Prompt", "model": "scripted-b", "verdicts": "out/verdicts.jsonl"},
            ],
            "finetuned": [
                {"group": "FTM (Zero-Shot)", "model": "scripted-a", "verdicts": "out/verdicts.jsonl"},
            ],
            "rag_fsi": [
                {"model": "scripted-a", "verdicts": "out/verdicts.jsonl", "summaries": "summaries.jsonl"},
            ],
            "flags": [
                {"model": "scripted-a", "verdicts": "out/verdicts.jsonl"},
            ],
            "cot": [
                {"model": "scripted-a", "prompt": "No CoT", "verdicts": "out/verdicts.jsonl"},
                {"model": "scripted-a", "prompt": "Simple CoT", "verdicts": "out/verdicts.jsonl"},
            ],
            "embeddings": [
                {"embedding": "default", "summaries": "summaries.jsonl"},
                {"embedding": "pubmed", "summaries": "summaries_empty.jsonl"},
            ],
        }
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        result = runner.invoke(
            cli_main, ["eval", "-c", str(config), "--report-plan", str(tmp_path / "plan.json")]
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "out" / "report.md").read_text()
        for header in (
            "NER F1 (%)", "NEN accuracy (%)",
            "correct answers (%)", "hallucination rate (%)",
            "BERN2 alignment F1 (%)", "BERN2 alignment P (%)", "BERN2 alignment R (%)",
            "BERN2 alignment A (%)", "GT alignment F1 (%)",
            "ROUGE-1 F1", "ROUGE-1 P", "ROUGE-1 R", "Coherence",
            "BERN2 alignment accuracy", "GT alignment accuracy",
            "normalised performance", "true positive (%)", "false negative (%)",
            "coherence",
        ):
            assert header in report, f"missing header {header!r}"
        for i in range(1, 8):
            assert f"## Table {i}" in report
        pubmed_row = next(l for l in report.splitlines() if l.startswith("| pubmed"))
        assert "NR" in pubmed_row
        for i in range(1, 8):
            assert list((tmp_path / "out").glob(f"table{i}_*.csv"))


def test_criterion_11_doccano_round_trip():
    with criterion(11, "doccano export/import identity on 25 records", 1.0):
        rng = random.Random(1111)
        concepts = [ConceptId(f"D{i:06d}") for i in range(1, 6)] + [NONE_CONCEPT]
        annotations = []
        texts = {}
        words = ["asthma", "eczema", "fever", "cough", "rash", "calm", "fine"]
        for i in range(25):
            rid = f"rec{i:03d}"
            text = " ".join(rng.choice(words) for _ in range(8))
            texts[rid] = text
            spans = set()
            for _ in range(rng.randrange(0, 4)):
                begin = rng.randrange(0, len(text) - 4)
                end = begin + rng.randrange(2, 5)
                if (begin, end) in spans:
                    continue
                spans.add((begin, end))
                annotations.append(
                    NormalizedAnnotation(
                        rid, TextSpan(begin, end), text[begin:end],
                        rng.choice(concepts), Source.HUMAN,
                    )
                )
        original = AnnotationSet(annotations)
        lines = export_doccano(original, texts)
        reimported, retexts = import_doccano(lines)
        assert reimported == original
        assert retexts == texts
        assert "\n".join(export_doccano(reimported, retexts)) == "\n".join(lines)
