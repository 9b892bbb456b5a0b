"""Scoring model output against human ground truth.

Mention agreement is strict: a predicted mention counts as a true positive
only when a gold mention in the same record has identical start and end
offsets; any partial overlap scores as one false positive plus one false
negative. Concept agreement requires an exact concept-id match on a
mention-matched pair (NONE == NONE counts as correct, so unnormalizable
mentions are still scored).

The true-negative unit is one per record with zero gold and zero predicted
mentions, matching a sampled corpus where half the records expect no
disease mention at all.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import (
    AnnotationSet, ConceptId, NormalizedAnnotation, Source, TextSpan, json_field, jsonl_line,
    offsets, read_jsonl,
)
from .errors import ValidationError
from .ontology import EmbeddingProvider, cosine
from .orchestrate import LlmVerdict, VerdictKind
from .report import AlignmentStats

__all__ = [
    "ConfusionCounts",
    "MetricsReport",
    "RougeScore",
    "AlignmentReport",
    "ConceptAccuracy",
    "match_mentions",
    "match_concepts",
    "compute_metrics",
    "rouge_n",
    "mean_coherence",
    "alignment_accuracy",
    "alignment_confusions",
    "alignment_stats",
    "hallucination_rate",
    "mean_rouge",
    "write_verdicts",
    "read_verdicts",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Each metric is absent (None) when its denominator is zero; reports
    render absent values as "NR"."""

    recall: float | None
    fpr: float | None
    tnr: float | None
    fnr: float | None
    precision: float | None
    f1: float | None
    accuracy: float | None


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    """Confusion ratios: recall TP/(TP+FN), FPR FP/(TN+FP), TNR TN/(TN+FP),
    FNR FN/(TP+FN), precision TP/(TP+FP), F1 2PR/(P+R), accuracy
    (TP+TN)/total."""
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    positives = tp + fn
    negatives = tn + fp
    predicted = tp + fp
    recall = tp / positives if positives else None
    fpr = fp / negatives if negatives else None
    tnr = tn / negatives if negatives else None
    fnr = fn / positives if positives else None
    precision = tp / predicted if predicted else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    accuracy = (tp + tn) / counts.total if counts.total else None
    return MetricsReport(
        recall=recall, fpr=fpr, tnr=tnr, fnr=fnr,
        precision=precision, f1=f1, accuracy=accuracy,
    )


# ---------------------------------------------------------------------------
# Mention and concept agreement
# ---------------------------------------------------------------------------

MatchedPair = tuple[NormalizedAnnotation, NormalizedAnnotation]


def match_mentions(
    predicted: AnnotationSet,
    gold: AnnotationSet,
    record_ids: Iterable[str] | None = None,
) -> tuple[list[MatchedPair], ConfusionCounts]:
    """One-to-one exact-span matching of predictions against gold.

    ``record_ids`` fixes the record universe (normally every record in the
    gold file, including mention-free ones); it defaults to the gold set's
    annotated records. A predicted record outside the universe is an error.
    """
    universe = list(record_ids) if record_ids is not None else list(gold.record_ids())
    known = set(universe)
    unknown = [rid for rid in predicted.record_ids() if rid not in known]
    if unknown:
        raise ValidationError(
            f"records present in predictions but absent from gold: {unknown}"
        )
    pairs: list[MatchedPair] = []
    tp = tn = fp = fn = 0
    for rid in universe:
        preds = predicted.for_record(rid)
        golds = list(gold.for_record(rid))
        if not preds and not golds:
            tn += 1
            continue
        for pred in preds:
            index = next((i for i, g in enumerate(golds) if g.span == pred.span), None)
            if index is None:
                fp += 1
            else:
                pairs.append((pred, golds.pop(index)))
                tp += 1
        fn += len(golds)
    return pairs, ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


@dataclass(frozen=True)
class ConceptAccuracy:
    correct: int
    total: int

    def __post_init__(self) -> None:
        if self.correct > self.total:
            raise ValueError("correct cannot exceed total")

    @property
    def accuracy(self) -> float | None:
        return self.correct / self.total if self.total else None


def match_concepts(pairs: Sequence[MatchedPair]) -> ConceptAccuracy:
    """Exact concept-id agreement over mention-matched pairs."""
    correct = sum(1 for pred, gold in pairs if pred.concept == gold.concept)
    return ConceptAccuracy(correct=correct, total=len(pairs))


# ---------------------------------------------------------------------------
# ROUGE-n and coherence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RougeScore:
    n: int
    precision: float
    recall: float
    f1: float


_WORD = re.compile(r"\w+")


def _word_tokens(text: str) -> list[str]:
    return [t.lower() for t in _WORD.findall(text)]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap: for each distinct n-gram the contribution is
    min(count in candidate, count in reference)."""
    if n <= 0:
        raise ValidationError(f"gram order must be positive, got {n}")
    candidate_grams = _ngram_counts(_word_tokens(candidate), n)
    reference_grams = _ngram_counts(_word_tokens(reference), n)
    candidate_total = sum(candidate_grams.values())
    reference_total = sum(reference_grams.values())
    if candidate_total == 0 or reference_total == 0:
        return RougeScore(n=n, precision=0.0, recall=0.0, f1=0.0)
    overlap = sum(min(count, reference_grams[gram]) for gram, count in candidate_grams.items())
    precision = overlap / candidate_total
    recall = overlap / reference_total
    f1 = 0.0 if precision + recall == 0 else 2.0 * precision * recall / (precision + recall)
    return RougeScore(n=n, precision=precision, recall=recall, f1=f1)


def mean_rouge(pairs: Sequence[tuple[str, str]], n: int) -> RougeScore | None:
    """Per-pair ROUGE-n averaged arithmetically over a dataset."""
    if not pairs:
        return None
    scores = [rouge_n(candidate, reference, n) for candidate, reference in pairs]
    count = len(scores)
    return RougeScore(
        n=n,
        precision=sum(s.precision for s in scores) / count,
        recall=sum(s.recall for s in scores) / count,
        f1=sum(s.f1 for s in scores) / count,
    )


def mean_coherence(
    pairs: Sequence[tuple[str, str]], provider: EmbeddingProvider
) -> float | None:
    """Dataset-level coherence: arithmetic mean over candidate/reference pairs."""
    if not pairs:
        return None
    # One embed_many call, so a remote provider keeps its window of requests full.
    vectors = provider.embed_many([text for pair in pairs for text in pair])
    scores = [cosine(vectors[i], vectors[i + 1]) for i in range(0, len(vectors), 2)]
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# Verdict alignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentReport:
    bern2_alignment_accuracy: float
    gt_alignment_accuracy: float


def _final_concept(verdict: LlmVerdict, annotation: NormalizedAnnotation) -> ConceptId:
    if verdict.kind is VerdictKind.DISAGREE and verdict.proposal is not None:
        return verdict.proposal
    return annotation.concept


def _align(
    verdicts: Sequence[LlmVerdict],
    backend_annotations: Sequence[NormalizedAnnotation],
    gold: AnnotationSet,
) -> tuple[ConfusionCounts, ConfusionCounts, int]:
    """One walk over the verdict/annotation pairs: the BERN2 and GT
    confusion counts, plus how many final concepts equal gold."""
    if len(verdicts) != len(backend_annotations):
        raise ValidationError(
            f"{len(verdicts)} verdicts for {len(backend_annotations)} annotations"
        )
    gold_at: dict[tuple[str, TextSpan], ConceptId] = {}
    for entry in gold:  # of two gold entries at one span, the first counts
        gold_at.setdefault((entry.record_id, entry.span), entry.concept)
    bern2: Counter = Counter()
    gt: Counter = Counter()
    gt_correct = 0
    for verdict, annotation in zip(verdicts, backend_annotations):
        gold_concept = gold_at.get((annotation.record_id, annotation.span))
        if gold_concept is not None and annotation.concept == gold_concept:
            bern2["tp" if verdict.kind is VerdictKind.AGREE else "fn"] += 1
        else:
            bern2["tn" if verdict.kind is VerdictKind.DISAGREE else "fp"] += 1
        parsed = verdict.kind is not VerdictKind.UNPARSEABLE
        final = _final_concept(verdict, annotation)
        correct = parsed and gold_concept is not None and final == gold_concept
        gt_correct += correct
        if parsed and not final.is_none:
            # A correct non-NONE final concept equals gold, so gold is positive too.
            gt["tp" if correct else "fp"] += 1
        elif gold_concept is not None and not gold_concept.is_none:
            gt["fn"] += 1
        else:
            gt["tn"] += 1
    return ConfusionCounts(**bern2), ConfusionCounts(**gt), gt_correct


def _alignment_report(bern2: ConfusionCounts, gt_correct: int, count: int) -> AlignmentReport:
    if not count:
        raise ValidationError("empty evaluation: no verdicts to align")
    return AlignmentReport(
        bern2_alignment_accuracy=(bern2.tp + bern2.tn) / count,
        gt_alignment_accuracy=gt_correct / count,
    )


def alignment_accuracy(
    verdicts: Sequence[LlmVerdict],
    backend_annotations: Sequence[NormalizedAnnotation],
    gold: AnnotationSet,
) -> AlignmentReport:
    """BERN2 alignment: the verdict is the right judgment of the backend
    (Agree when the backend concept equals gold, Disagree when it differs).
    GT alignment: the post-verdict concept equals gold. Unparseable verdicts
    count as incorrect in both; a backend mention with no exact-span gold
    counterpart has no gold concept and can never satisfy GT alignment."""
    bern2, _, gt_correct = _align(verdicts, backend_annotations, gold)
    return _alignment_report(bern2, gt_correct, len(verdicts))


def alignment_confusions(
    verdicts: Sequence[LlmVerdict],
    backend_annotations: Sequence[NormalizedAnnotation],
    gold: AnnotationSet,
) -> tuple[ConfusionCounts, ConfusionCounts]:
    """Confusion matrices backing the Table-3/Table-6 style columns.

    BERN2 side: Agree is the positive prediction, "backend equals gold" the
    positive class. GT side: a non-NONE final concept is the positive
    prediction, a non-NONE gold concept the positive class, with exact-id
    agreement required for a true positive. Unparseable verdicts count
    against whichever class they failed.
    """
    bern2, gt, _ = _align(verdicts, backend_annotations, gold)
    return bern2, gt


def alignment_stats(
    verdicts: Sequence[LlmVerdict],
    backend_annotations: Sequence[NormalizedAnnotation],
    gold: AnnotationSet,
) -> tuple[AlignmentStats, AlignmentStats]:
    """F1/P/R from the alignment confusions plus the alignment_accuracy
    rates, so the A column always matches the headline rate."""
    bern2_counts, gt_counts, gt_correct = _align(verdicts, backend_annotations, gold)
    report = _alignment_report(bern2_counts, gt_correct, len(verdicts))
    bern2_metrics = compute_metrics(bern2_counts)
    gt_metrics = compute_metrics(gt_counts)
    return (
        AlignmentStats(
            f1=bern2_metrics.f1,
            precision=bern2_metrics.precision,
            recall=bern2_metrics.recall,
            accuracy=report.bern2_alignment_accuracy,
        ),
        AlignmentStats(
            f1=gt_metrics.f1,
            precision=gt_metrics.precision,
            recall=gt_metrics.recall,
            accuracy=report.gt_alignment_accuracy,
        ),
    )


def hallucination_rate(verdicts: Sequence[LlmVerdict]) -> float | None:
    """Flagged fraction; absent (None, rendered "NR") for empty input."""
    if not verdicts:
        return None
    return sum(1 for v in verdicts if v.hallucinated) / len(verdicts)


# ---------------------------------------------------------------------------
# Verdict file interface (re-scoring externally produced runs)
# ---------------------------------------------------------------------------

def write_verdicts(
    results: Sequence[tuple[NormalizedAnnotation, LlmVerdict]]
) -> list[str]:
    """Serialize (annotation, verdict) pairs to the line format
    {"record_id", "span", "backend_concept", "kind", "proposal",
    "hallucinated"}."""
    lines = []
    for annotation, verdict in results:
        obj = {
            "record_id": annotation.record_id,
            "span": [annotation.span.begin, annotation.span.end],
            "backend_concept": annotation.concept.render(),
            "kind": verdict.kind.value,
            "proposal": verdict.proposal.render() if verdict.proposal else None,
            "hallucinated": verdict.hallucinated,
        }
        lines.append(jsonl_line(obj))
    return lines


def read_verdicts(
    lines: Iterable[str],
    texts: Mapping[str, str],
    predicted: Iterable[NormalizedAnnotation] | None = None,
) -> tuple[list[LlmVerdict], list[NormalizedAnnotation]]:
    """Parse verdict lines back into aligned (verdicts, backend annotations).

    Each verdict's record must be in ``texts`` and its span must fit that
    record's text, which gives the surface. With ``predicted``, each
    verdict's (record_id, span, backend_concept) must be one of those
    annotations. Raw model text is not persisted in this format.
    """
    judged = None if predicted is None else {(a.record_id, a.span, a.concept) for a in predicted}

    def parse(_lineno: int, obj) -> tuple[LlmVerdict, NormalizedAnnotation]:
        record_id = json_field(obj, "record_id", str)
        begin, end = json_field(obj, "span", list)
        span = offsets(begin, end)
        if record_id not in texts:
            raise ValidationError(f"unknown record_id {record_id!r}")
        span.check_bounds(texts[record_id])
        annotation = NormalizedAnnotation(
            record_id=record_id,
            span=span,
            surface=texts[record_id][span.begin : span.end],
            concept=ConceptId.parse(obj["backend_concept"]),
            source=Source.NER_BACKEND,
        )
        if judged is not None and (record_id, span, annotation.concept) not in judged:
            raise ValidationError(
                f"record {record_id!r} span ({span.begin}, {span.end}) "
                f"{annotation.concept} is not an annotation of a scored prediction"
            )
        proposal = json_field(obj, "proposal", str, None)
        verdict = LlmVerdict(
            kind=VerdictKind(json_field(obj, "kind", str)),
            raw_text="",
            proposal=None if proposal is None else ConceptId.parse(proposal),
            hallucinated=json_field(obj, "hallucinated", bool, False),
        )
        return verdict, annotation

    pairs = read_jsonl(lines, "verdict record", parse)
    return [verdict for verdict, _ in pairs], [annotation for _, annotation in pairs]
