import json
import random

import pytest
from hypothesis import given, strategies as st

from phenotag.corpus import (
    AnnotationSet,
    ConceptId,
    NONE_CONCEPT,
    NormalizedAnnotation,
    Source,
    TextSpan,
)
from phenotag.errors import ValidationError
from phenotag.evaluate import (
    AlignmentReport,
    ConceptAccuracy,
    ConfusionCounts,
    alignment_accuracy,
    alignment_confusions,
    alignment_stats,
    compute_metrics,
    hallucination_rate,
    match_concepts,
    match_mentions,
    mean_coherence,
    read_verdicts,
    rouge_n,
    write_verdicts,
)
from phenotag.ontology import HashedBagOfWordsProvider, RemoteEmbeddingProvider, cosine
from phenotag.orchestrate import LlmVerdict, VerdictKind, parse_verdict
from phenotag.report import normalised_performance

ASTHMA = ConceptId("D001249")
ECZEMA = ConceptId("D004485")
DIABETES = ConceptId("D003920")


def pred(record_id, begin, end, concept=ASTHMA, surface=""):
    return NormalizedAnnotation(record_id, TextSpan(begin, end), surface, concept, Source.NER_BACKEND)


def gold(record_id, begin, end, concept=ASTHMA, surface=""):
    return NormalizedAnnotation(record_id, TextSpan(begin, end), surface, concept, Source.HUMAN)


# --- match_mentions -----------------------------------------------------------

def test_exact_span_is_tp():
    pairs, counts = match_mentions(
        AnnotationSet([pred("r1", 5, 11)]), AnnotationSet([gold("r1", 5, 11)])
    )
    assert counts == ConfusionCounts(tp=1)
    assert len(pairs) == 1


def test_partial_overlap_is_fp_plus_fn():
    # "asthma" (0,6) predicted against gold "asthma episodes" (0,15)
    pairs, counts = match_mentions(
        AnnotationSet([pred("r1", 0, 6, surface="asthma")]),
        AnnotationSet([gold("r1", 0, 15, surface="asthma episodes")]),
    )
    assert counts == ConfusionCounts(tp=0, fp=1, fn=1)
    assert pairs == []


def test_empty_record_contributes_one_tn():
    _, counts = match_mentions(
        AnnotationSet(), AnnotationSet(), record_ids=["r1", "r2fine"]
    )
    assert counts == ConfusionCounts(tn=2)


def test_unknown_predicted_record_is_error():
    with pytest.raises(ValidationError, match="ghost"):
        match_mentions(
            AnnotationSet([pred("ghost", 0, 3)]),
            AnnotationSet([gold("r1", 0, 3)]),
        )


def test_duplicate_predicted_spans_match_at_most_one_gold():
    predicted = AnnotationSet([pred("r1", 0, 6), pred("r1", 0, 6, concept=ECZEMA)])
    pairs, counts = match_mentions(predicted, AnnotationSet([gold("r1", 0, 6)]))
    assert counts == ConfusionCounts(tp=1, fp=1)
    assert len(pairs) == 1


def test_count_conservation_property():
    rng = random.Random(7)
    for _ in range(50):
        preds, golds, universe = [], [], []
        for r in range(rng.randrange(1, 6)):
            rid = f"r{r}"
            universe.append(rid)
            for _ in range(rng.randrange(0, 4)):
                b = rng.randrange(0, 30)
                preds.append(pred(rid, b, b + rng.randrange(1, 6)))
            for _ in range(rng.randrange(0, 4)):
                b = rng.randrange(0, 30)
                golds.append(gold(rid, b, b + rng.randrange(1, 6), concept=ECZEMA))
        gold_set = AnnotationSet()
        try:
            gold_set = AnnotationSet(golds)
        except ValidationError:
            continue  # duplicate human spans: skip this draw
        pairs, counts = match_mentions(AnnotationSet(preds), gold_set, record_ids=universe)
        assert counts.tp + counts.fn == len(golds)
        assert counts.tp + counts.fp == len(preds)
        assert counts.tp == len(pairs)


# --- match_concepts -----------------------------------------------------------

def make_pairs(spec):
    pairs = []
    for i, (pc, gc) in enumerate(spec):
        pairs.append((pred("r", i * 10, i * 10 + 5, concept=pc), gold("r", i * 10, i * 10 + 5, concept=gc)))
    return pairs


def test_concept_accuracy_two_of_three():
    accuracy = match_concepts(make_pairs([(ASTHMA, ASTHMA), (ECZEMA, ECZEMA), (ASTHMA, DIABETES)]))
    assert accuracy.accuracy == pytest.approx(0.6667, abs=1e-4)


def test_concept_accuracy_empty_is_absent():
    assert match_concepts([]).accuracy is None


def test_concept_accuracy_all_correct_and_none_equals_none():
    accuracy = match_concepts(make_pairs([(ASTHMA, ASTHMA), (NONE_CONCEPT, NONE_CONCEPT)]))
    assert accuracy.accuracy == 1.0


# --- compute_metrics ------------------------------------------------------------

def test_metrics_hand_computed_8_2_2_8():
    report = compute_metrics(ConfusionCounts(tp=8, fp=2, fn=2, tn=8))
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(0.8)
    assert report.f1 == pytest.approx(0.8)
    assert report.accuracy == pytest.approx(0.8)


def test_metrics_zero_denominators_absent():
    report = compute_metrics(ConfusionCounts(tn=5))
    assert report.precision is None
    assert report.recall is None
    assert report.fnr is None
    assert report.f1 is None
    assert report.accuracy == 1.0


def test_metrics_perfect_single_positive():
    report = compute_metrics(ConfusionCounts(tp=1))
    assert (report.precision, report.recall, report.f1, report.accuracy) == (1.0, 1.0, 1.0, 1.0)


def test_metric_identities_property():
    rng = random.Random(3)
    for _ in range(400):
        counts = ConfusionCounts(
            tp=rng.randrange(0, 40), tn=rng.randrange(0, 40),
            fp=rng.randrange(0, 40), fn=rng.randrange(0, 40),
        )
        report = compute_metrics(counts)
        if report.recall is not None:
            assert abs(report.recall + report.fnr - 1.0) <= 1e-12
        if report.tnr is not None:
            assert abs(report.tnr + report.fpr - 1.0) <= 1e-12
        if report.f1 is not None:
            p, r = report.precision, report.recall
            assert abs(report.f1 - 2 * p * r / (p + r)) <= 1e-12


# --- rouge_n ---------------------------------------------------------------------

def test_rouge_identity():
    score = rouge_n("the child has asthma", "the child has asthma", 1)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_hand_counted_unigrams():
    score = rouge_n("the child has asthma", "child asthma diagnosis", 1)
    assert score.precision == pytest.approx(0.5)
    assert score.recall == pytest.approx(0.6667, abs=1e-4)
    assert score.f1 == pytest.approx(0.5714, abs=1e-4)


def test_rouge_disjoint_all_zero():
    score = rouge_n("alpha beta", "gamma delta", 1)
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_invalid_n():
    with pytest.raises(ValidationError):
        rouge_n("a", "b", 0)


def brute_force_rouge(candidate_tokens, reference_tokens, n):
    """Nested-loop clipped counting, independent of the Counter path."""
    cand = [tuple(candidate_tokens[i : i + n]) for i in range(len(candidate_tokens) - n + 1)]
    ref = [tuple(reference_tokens[i : i + n]) for i in range(len(reference_tokens) - n + 1)]
    overlap = 0
    for gram in set(cand):
        in_candidate = sum(1 for g in cand if g == gram)
        in_reference = sum(1 for g in ref if g == gram)
        overlap += min(in_candidate, in_reference)
    if not cand or not ref:
        return (0.0, 0.0, 0.0)
    precision = overlap / len(cand)
    recall = overlap / len(ref)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)


def test_rouge_matches_brute_force_oracle():
    rng = random.Random(17)
    vocabulary = ["asthma", "child", "the", "has", "eczema", "report", "daily"]
    for _ in range(80):
        cand_tokens = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 12))]
        ref_tokens = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 12))]
        for n in (1, 2):
            score = rouge_n(" ".join(cand_tokens), " ".join(ref_tokens), n)
            expected = brute_force_rouge(cand_tokens, ref_tokens, n)
            assert score.precision == pytest.approx(expected[0])
            assert score.recall == pytest.approx(expected[1])
            assert score.f1 == pytest.approx(expected[2])


def test_rouge_swap_symmetry():
    a, b = "asthma attack daily report", "daily asthma checkup"
    for n in (1, 2):
        forward = rouge_n(a, b, n)
        backward = rouge_n(b, a, n)
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)
        assert forward.f1 == pytest.approx(backward.f1)


# --- coherence ---------------------------------------------------------------------

def test_coherence_identity():
    provider = HashedBagOfWordsProvider()
    pair = ("asthma summary", "asthma summary")
    assert mean_coherence([pair], provider) == pytest.approx(1.0, abs=1e-9)


def test_coherence_disjoint_tokens_orthogonal():
    provider = HashedBagOfWordsProvider()
    score = mean_coherence([("alpha beta", "gamma delta")], provider)
    assert score == pytest.approx(0.0, abs=1e-9)


def test_mean_coherence():
    provider = HashedBagOfWordsProvider()
    pairs = [("same text", "same text"), ("alpha beta", "gamma delta")]
    assert mean_coherence(pairs, provider) == pytest.approx(0.5, abs=1e-9)
    assert mean_coherence([], provider) is None


def test_mean_coherence_is_the_mean_of_pair_scores():
    reference = HashedBagOfWordsProvider(dimension=32)

    def transport(url, payload):
        return {"vectors": [(2 * reference.embed(text)).tolist() for text in payload["texts"]]}

    pairs = [("asthma and eczema", "eczema"), ("gout", "chronic gout flare"),
             ("alpha beta", "gamma delta"), ("same text", "same text")]
    for provider in (reference, RemoteEmbeddingProvider("r", "fake://embed", 32, transport)):
        scores = [cosine(provider.embed(c), provider.embed(r)) for c, r in pairs]
        assert mean_coherence(pairs, provider) == sum(scores) / len(scores)


# --- alignment -----------------------------------------------------------------------

def agree():
    return parse_verdict("AGREE")


def disagree(concept_id=None):
    text = "DISAGREE" if concept_id is None else f"DISAGREE {concept_id.render()}"
    return parse_verdict(text)


def unparseable():
    return parse_verdict("hmm")


def test_alignment_all_agree_all_correct():
    annotations = [pred("r1", 0, 6), pred("r2", 0, 6)]
    gold_set = AnnotationSet([gold("r1", 0, 6), gold("r2", 0, 6)])
    report = alignment_accuracy([agree(), agree()], annotations, gold_set)
    assert report.bern2_alignment_accuracy == 1.0
    assert report.gt_alignment_accuracy == 1.0


def test_alignment_four_case_enumeration():
    # 1) Agree, backend correct  2) Agree, backend wrong
    # 3) Disagree with the correct proposal, backend wrong  4) Unparseable
    annotations = [
        pred("r1", 0, 6, concept=ASTHMA),
        pred("r2", 0, 6, concept=ECZEMA),
        pred("r3", 0, 6, concept=ECZEMA),
        pred("r4", 0, 6, concept=ASTHMA),
    ]
    gold_set = AnnotationSet([
        gold("r1", 0, 6, concept=ASTHMA),
        gold("r2", 0, 6, concept=ASTHMA),
        gold("r3", 0, 6, concept=DIABETES),
        gold("r4", 0, 6, concept=ASTHMA),
    ])
    verdicts = [agree(), agree(), disagree(DIABETES), unparseable()]
    report = alignment_accuracy(verdicts, annotations, gold_set)
    assert report.bern2_alignment_accuracy == pytest.approx(0.5)
    assert report.gt_alignment_accuracy == pytest.approx(0.5)


def test_alignment_empty_is_error():
    with pytest.raises(ValidationError, match="empty"):
        alignment_accuracy([], [], AnnotationSet())


def test_alignment_length_mismatch_is_error():
    with pytest.raises(ValidationError, match="1 verdicts for 2"):
        alignment_accuracy([agree()], [pred("r1", 0, 6), pred("r2", 0, 6)], AnnotationSet())


def test_alignment_order_invariant():
    annotations = [
        pred("r1", 0, 6, concept=ASTHMA),
        pred("r2", 0, 6, concept=ECZEMA),
        pred("r3", 0, 6, concept=ASTHMA),
    ]
    gold_set = AnnotationSet([
        gold("r1", 0, 6, concept=ASTHMA),
        gold("r2", 0, 6, concept=ASTHMA),
        gold("r3", 0, 6, concept=ASTHMA),
    ])
    verdicts = [agree(), disagree(ASTHMA), agree()]
    forward = alignment_accuracy(verdicts, annotations, gold_set)
    shuffled = alignment_accuracy(
        [verdicts[2], verdicts[0], verdicts[1]],
        [annotations[2], annotations[0], annotations[1]],
        gold_set,
    )
    assert forward == shuffled


def test_alignment_stats_accuracy_matches_alignment_accuracy():
    annotations = [
        pred("r1", 0, 6, concept=ASTHMA),
        pred("r2", 0, 6, concept=ECZEMA),
        pred("r3", 0, 6, concept=ECZEMA),
        pred("r4", 0, 6, concept=ASTHMA),
    ]
    gold_set = AnnotationSet([
        gold("r1", 0, 6, concept=ASTHMA),
        gold("r2", 0, 6, concept=ASTHMA),
        gold("r3", 0, 6, concept=DIABETES),
        gold("r4", 0, 6, concept=ASTHMA),
    ])
    verdicts = [agree(), agree(), disagree(DIABETES), unparseable()]
    bern2, gt = alignment_stats(verdicts, annotations, gold_set)
    report = alignment_accuracy(verdicts, annotations, gold_set)
    assert bern2.accuracy == pytest.approx(report.bern2_alignment_accuracy)
    assert gt.accuracy == pytest.approx(report.gt_alignment_accuracy)
    assert bern2.precision is not None and gt.f1 is not None


def test_alignment_confusions_length_mismatch_is_error():
    with pytest.raises(ValidationError, match="1 verdicts for 2"):
        alignment_confusions([agree()], [pred("r1", 0, 6), pred("r2", 0, 6)], AnnotationSet())


def test_alignment_confusions_empty_is_zero_counts():
    assert alignment_confusions([], [], AnnotationSet()) == (ConfusionCounts(), ConfusionCounts())


# The two alignment walks as they were before they were merged into one:
# the property below holds the merged walk to them exactly.

def seed_gold_concept_at(gold_set, annotation):
    for entry in gold_set.for_record(annotation.record_id):
        if entry.span == annotation.span:
            return entry.concept
    return None


def seed_final_concept(verdict, annotation):
    if verdict.kind is VerdictKind.DISAGREE and verdict.proposal is not None:
        return verdict.proposal
    return annotation.concept


def seed_alignment_accuracy(verdicts, backend_annotations, gold_set):
    bern2_correct = 0
    gt_correct = 0
    for verdict, annotation in zip(verdicts, backend_annotations):
        gold_concept = seed_gold_concept_at(gold_set, annotation)
        backend_matches = gold_concept is not None and annotation.concept == gold_concept
        if verdict.kind is VerdictKind.AGREE:
            bern2_correct += backend_matches
        elif verdict.kind is VerdictKind.DISAGREE:
            bern2_correct += not backend_matches
        if verdict.kind is not VerdictKind.UNPARSEABLE:
            if gold_concept is not None and seed_final_concept(verdict, annotation) == gold_concept:
                gt_correct += 1
    count = len(verdicts)
    return AlignmentReport(
        bern2_alignment_accuracy=bern2_correct / count,
        gt_alignment_accuracy=gt_correct / count,
    )


def seed_alignment_confusions(verdicts, backend_annotations, gold_set):
    b_tp = b_fp = b_tn = b_fn = 0
    g_tp = g_fp = g_tn = g_fn = 0
    for verdict, annotation in zip(verdicts, backend_annotations):
        gold_concept = seed_gold_concept_at(gold_set, annotation)
        backend_matches = gold_concept is not None and annotation.concept == gold_concept
        if verdict.kind is VerdictKind.AGREE:
            if backend_matches:
                b_tp += 1
            else:
                b_fp += 1
        elif verdict.kind is VerdictKind.DISAGREE:
            if backend_matches:
                b_fn += 1
            else:
                b_tn += 1
        else:
            if backend_matches:
                b_fn += 1
            else:
                b_fp += 1
        final = seed_final_concept(verdict, annotation)
        asserts_concept = verdict.kind is not VerdictKind.UNPARSEABLE and not final.is_none
        gold_positive = gold_concept is not None and not gold_concept.is_none
        correct = (
            verdict.kind is not VerdictKind.UNPARSEABLE
            and gold_concept is not None
            and final == gold_concept
        )
        if asserts_concept and gold_positive and correct:
            g_tp += 1
        elif asserts_concept:
            g_fp += 1
        elif gold_positive:
            g_fn += 1
        else:
            g_tn += 1
    return (
        ConfusionCounts(b_tp, b_tn, b_fp, b_fn),
        ConfusionCounts(g_tp, g_tn, g_fp, g_fn),
    )


_CONCEPTS = (ASTHMA, ECZEMA, DIABETES, NONE_CONCEPT)
# A few records and overlapping spans, so annotations often share a gold
# span, often have none, and a record often holds several gold spans.
_ENTRY = st.tuples(
    st.sampled_from(("r1", "r2", "r3")),
    st.sampled_from((TextSpan(0, 3), TextSpan(0, 6), TextSpan(4, 6), TextSpan(2, 9))),
    st.sampled_from(_CONCEPTS),
)
_VERDICT = st.one_of(
    st.just(agree()),
    st.just(unparseable()),
    st.just(disagree()),
    st.sampled_from(_CONCEPTS).map(
        lambda c: LlmVerdict(VerdictKind.DISAGREE, raw_text="", proposal=c)
    ),
)


@given(
    gold_entries=st.lists(_ENTRY, max_size=8),
    judged=st.lists(st.tuples(_ENTRY, _VERDICT), max_size=10),
)
def test_alignment_walk_matches_seed_walks(gold_entries, judged):
    # Model-sourced gold may repeat a span; the first entry at a span counts.
    gold_set = AnnotationSet(
        NormalizedAnnotation(rid, span, "", concept, Source.NER_BACKEND)
        for rid, span, concept in gold_entries
    )
    annotations = [pred(rid, span.begin, span.end, concept) for (rid, span, concept), _ in judged]
    verdicts = [verdict for _, verdict in judged]
    confusions = seed_alignment_confusions(verdicts, annotations, gold_set)
    assert alignment_confusions(verdicts, annotations, gold_set) == confusions
    if not verdicts:
        with pytest.raises(ValidationError, match="empty"):
            alignment_stats(verdicts, annotations, gold_set)
        return
    expected = seed_alignment_accuracy(verdicts, annotations, gold_set)
    assert alignment_accuracy(verdicts, annotations, gold_set) == expected
    bern2, gt = alignment_stats(verdicts, annotations, gold_set)
    assert bern2.accuracy == expected.bern2_alignment_accuracy
    assert gt.accuracy == expected.gt_alignment_accuracy
    for stats, counts in ((bern2, confusions[0]), (gt, confusions[1])):
        metrics = compute_metrics(counts)
        assert (stats.f1, stats.precision, stats.recall) == (
            metrics.f1, metrics.precision, metrics.recall
        )


# --- hallucination rate -----------------------------------------------------------

def test_hallucination_rate_basic():
    flagged = LlmVerdict(VerdictKind.DISAGREE, "x", proposal=ConceptId("D999999"), hallucinated=True)
    clean = agree()
    assert hallucination_rate([flagged, flagged] + [clean] * 8) == pytest.approx(0.2)
    assert hallucination_rate([clean] * 4) == 0.0
    assert hallucination_rate([]) is None


# --- normalised performance --------------------------------------------------------

TABLE6_TPRS = [
    ("llama3-8b/no-cot", 82.60), ("llama3-8b/simple", 81.10),
    ("llama3-8b/strong", 79.50), ("llama3-8b/hybrid", 72.00),
    ("llama3-70b/no-cot", 58.30), ("llama3-70b/simple", 67.40),
    ("llama3-70b/strong", 75.00), ("llama3-70b/hybrid", 68.20),
]
TABLE6_PUBLISHED = [1.00, 0.98, 0.96, 0.87, 0.71, 0.82, 0.91, 0.83]


def test_normalised_performance_reproduces_published_column():
    normalised = normalised_performance(TABLE6_TPRS)
    assert [round(value, 2) for _, value in normalised] == TABLE6_PUBLISHED


def test_normalised_single_value():
    assert normalised_performance([("only", 42.0)]) == [("only", 1.0)]


def test_normalised_simple_ratio():
    result = dict(normalised_performance([("a", 50.0), ("b", 100.0)]))
    assert result == {"a": 0.5, "b": 1.0}


def test_normalised_all_zero_is_error():
    with pytest.raises(ValidationError):
        normalised_performance([("a", 0.0), ("b", 0.0)])


def test_normalised_scale_invariance_and_max_one():
    rng = random.Random(5)
    for _ in range(50):
        values = [(f"v{i}", rng.uniform(0.1, 99.0)) for i in range(rng.randrange(1, 9))]
        base = normalised_performance(values)
        scaled = normalised_performance([(l, 3.7 * v) for l, v in values])
        assert max(v for _, v in base) == 1.0
        for (_, x), (_, y) in zip(base, scaled):
            assert x == pytest.approx(y)


# --- verdict file round trip --------------------------------------------------------

def test_verdict_lines_round_trip():
    annotations = [
        pred("r1", 0, 6, concept=ASTHMA, surface="asthma"),
        pred("r2", 3, 9, concept=NONE_CONCEPT, surface="something"[3:9]),
    ]
    verdicts = [
        LlmVerdict(VerdictKind.DISAGREE, "raw", proposal=ConceptId("D999999"), hallucinated=True),
        agree(),
    ]
    lines = write_verdicts(list(zip(annotations, verdicts)))
    read_v, read_a = read_verdicts(lines, texts={"r1": "asthma attack", "r2": "something"})
    assert [v.kind for v in read_v] == [VerdictKind.DISAGREE, VerdictKind.AGREE]
    assert read_v[0].proposal == ConceptId("D999999")
    assert read_v[0].hallucinated is True
    assert [a.concept for a in read_a] == [ASTHMA, NONE_CONCEPT]
    assert read_a[0].surface == "asthma"
    assert read_a[0].span == TextSpan(0, 6)


@pytest.mark.parametrize("record_id, span, detail", [
    ("r9", [0, 6], "line 2: bad verdict record: unknown record_id 'r9'"),
    ("r1", [7, 14], "line 2: bad verdict record: span (7, 14) exceeds text of length 13"),
])
def test_verdict_must_link_to_texts(record_id, span, detail):
    lines = write_verdicts([(pred("r1", 0, 6, concept=ASTHMA, surface="asthma"), agree())])
    lines.append(json.dumps({"record_id": record_id, "span": span,
                             "backend_concept": "NONE", "kind": "agree"}))
    with pytest.raises(ValidationError) as info:
        read_verdicts(lines, texts={"r1": "asthma attack"})
    assert str(info.value) == detail


def test_verdict_surfaces_come_from_texts():
    lines = write_verdicts([(pred("r9", 0, 6, concept=ASTHMA, surface="asthma"), agree())])
    assert read_verdicts(lines, {"r9": "Asthma attack"})[1][0].surface == "Asthma"
    with pytest.raises(ValidationError, match="unknown record_id 'r9'"):
        read_verdicts(lines, texts={})


def test_verdict_bad_line_is_error():
    with pytest.raises(ValidationError, match="line 1"):
        read_verdicts(['{"record_id": "r1"}'], {"r1": "asthma attack"})
