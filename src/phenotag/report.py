"""Rendering the seven evaluation tables as markdown plus per-table CSVs.

Markdown cells round to report precision (2 decimals; percentage columns
are scaled by 100); the CSVs keep full double precision. Absent metrics
render as "NR". ``render_report`` returns the texts; it writes nothing.
"""

from __future__ import annotations

import csv
import io
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Sequence, TypeVar

from .errors import ValidationError

__all__ = [
    "AlignmentStats",
    "NerNenRow",
    "ZeroShotRow",
    "FinetunedRow",
    "RagFsiRow",
    "FlagsRow",
    "CotRow",
    "EmbeddingRow",
    "ReportBundle",
    "normalised_performance",
    "render_report",
]

L = TypeVar("L")


@dataclass(frozen=True)
class AlignmentStats:
    f1: float | None = None
    precision: float | None = None
    recall: float | None = None
    accuracy: float | None = None


@dataclass(frozen=True)
class NerNenRow:
    task: str
    ner: "object"  # MetricsReport
    nen_accuracy: float | None
    counts: "object"  # ConfusionCounts, for the raw-count CSV columns


@dataclass(frozen=True)
class ZeroShotRow:
    prompt_group: str
    model: str
    correct_rate: float | None
    hallucination_rate: float | None


@dataclass(frozen=True)
class FinetunedRow:
    group: str
    model: str
    bern2: AlignmentStats
    gt: AlignmentStats


@dataclass(frozen=True)
class RagFsiRow:
    model: str
    rouge1: "object | None"  # RougeScore
    coherence: float | None
    bern2_alignment: float | None
    gt_alignment: float | None


@dataclass(frozen=True)
class FlagsRow:
    model: str
    bern2_alignment: float | None
    gt_alignment: float | None


@dataclass(frozen=True)
class CotRow:
    model: str
    prompt: str
    tpr: float | None
    fnr: float | None


@dataclass(frozen=True)
class EmbeddingRow:
    embedding: str
    rouge1: "object | None"
    coherence: float | None


@dataclass
class ReportBundle:
    """Everything render_report needs; empty lists still emit their section."""

    ner_nen: list[NerNenRow] = field(default_factory=list)
    zero_shot: list[ZeroShotRow] = field(default_factory=list)
    finetuned: list[FinetunedRow] = field(default_factory=list)
    rag_fsi: list[RagFsiRow] = field(default_factory=list)
    flags: list[FlagsRow] = field(default_factory=list)
    cot: list[CotRow] = field(default_factory=list)
    embeddings: list[EmbeddingRow] = field(default_factory=list)


def _pct(value: float | None) -> str:
    return "NR" if value is None else f"{100.0 * value:.2f}"


def _frac(value: float | None) -> str:
    return "NR" if value is None else f"{value:.2f}"


def _raw(value) -> str:
    return "NR" if value is None else repr(value)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def normalised_performance(labeled_values: Sequence[tuple[L, float]]) -> list[tuple[L, float]]:
    """Divide every value by the maximum across the whole comparison group,
    so the best variant maps to exactly 1.0."""
    items = list(labeled_values)
    if not items:
        raise ValidationError("nothing to normalise")
    maximum = max(value for _, value in items)
    if maximum <= 0:
        raise ValidationError("cannot normalise: no value is positive")
    return [(label, value / maximum) for label, value in items]


def _rouge(score) -> tuple:
    return (None, None, None) if score is None else (score.f1, score.precision, score.recall)


def render_report(bundle: ReportBundle, out_dir: str | Path) -> dict[Path, str]:
    """The ``{path: text}`` of one CSV per table, then report.md, in
    ``out_dir``; nothing is written."""
    out = Path(out_dir)
    files: dict[Path, str] = {}
    sections: list[str] = ["# Evaluation report", ""]

    def table(title: str, name: str, headers: Sequence[str], formats: Sequence,
              csv_headers: Sequence[str], rows: Sequence[Sequence], grouped: bool = False):
        """Render one table both ways. Markdown cell i is ``formats[i]`` of
        value i; values past the last format appear only in the CSV, which
        keeps labels as they are and every other value through ``_raw``.
        ``grouped`` rows lead with a group label: the CSV keeps it as a
        column, the markdown turns each new one into a header row."""
        md_rows, group = [], None
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(csv_headers)
        for values in rows:
            writer.writerow([v if isinstance(v, str) else _raw(v) for v in values])
            if grouped:
                if values[0] != group:
                    group = values[0]
                    md_rows.append([f"**{group}**"] + [""] * (len(headers) - 1))
                values = values[1:]
            md_rows.append([fmt(value) for fmt, value in zip(formats, values)])
        sections.extend([f"## {title}", "", _md_table(headers, md_rows), ""])
        files[out / name] = buffer.getvalue()

    table(
        "Table 1 — NER and NEN performance", "table1_ner_nen.csv",
        ["Task", "NER F1 (%)", "NER accuracy (%)", "NER true positive (%)",
         "NER true negative (%)", "NER false positive (%)", "NER false negative (%)",
         "NEN accuracy (%)"],
        [str] + [_pct] * 7,
        ["task", "ner_f1", "ner_accuracy", "ner_tp_rate", "ner_tn_rate", "ner_fp_rate",
         "ner_fn_rate", "nen_accuracy", "tp", "tn", "fp", "fn"],
        [
            (row.task, row.ner.f1, row.ner.accuracy, row.ner.recall, row.ner.tnr, row.ner.fpr,
             row.ner.fnr, row.nen_accuracy,
             row.counts.tp, row.counts.tn, row.counts.fp, row.counts.fn)
            for row in bundle.ner_nen
        ],
    )
    table(
        "Table 2 — Zero-shot prompting", "table2_zero_shot.csv",
        ["Prompt / Model", "correct answers (%)", "hallucination rate (%)"],
        [str, _pct, _pct],
        ["prompt_group", "model", "correct_answers", "hallucination_rate"],
        [(row.prompt_group, row.model, row.correct_rate, row.hallucination_rate)
         for row in bundle.zero_shot],
        grouped=True,
    )
    table(
        "Table 3 — Fine-tuned model alignment", "table3_finetuned.csv",
        ["Group", "Model",
         "BERN2 alignment F1 (%)", "BERN2 alignment P (%)", "BERN2 alignment R (%)",
         "BERN2 alignment A (%)",
         "GT alignment F1 (%)", "GT alignment P (%)", "GT alignment R (%)",
         "GT alignment A (%)"],
        [str, str] + [_pct] * 8,
        ["group", "model", "bern2_f1", "bern2_precision", "bern2_recall", "bern2_accuracy",
         "gt_f1", "gt_precision", "gt_recall", "gt_accuracy"],
        [(row.group, row.model, *astuple(row.bern2), *astuple(row.gt))
         for row in bundle.finetuned],
    )
    table(
        "Table 4 — Few-shot inference with retrieval-augmented generation",
        "table4_rag_fsi.csv",
        ["Model", "ROUGE-1 F1", "ROUGE-1 P", "ROUGE-1 R", "Coherence",
         "BERN2 alignment accuracy", "GT alignment accuracy"],
        [str] + [_frac] * 6,
        ["model", "rouge1_f1", "rouge1_precision", "rouge1_recall", "coherence",
         "bern2_alignment_accuracy", "gt_alignment_accuracy"],
        [(row.model, *_rouge(row.rouge1), row.coherence, row.bern2_alignment, row.gt_alignment)
         for row in bundle.rag_fsi],
    )
    table(
        "Table 5 — RAG FSI with binary flags", "table5_binary_flags.csv",
        ["Model", "BERN2 alignment accuracy", "GT alignment accuracy"],
        [str, _frac, _frac],
        ["model", "bern2_alignment_accuracy", "gt_alignment_accuracy"],
        [(row.model, row.bern2_alignment, row.gt_alignment) for row in bundle.flags],
    )

    normalised: list[float | None] = [None] * len(bundle.cot)
    present = [(i, row.tpr) for i, row in enumerate(bundle.cot) if row.tpr is not None]
    try:
        for i, value in normalised_performance(present):
            normalised[i] = value
    except ValidationError:  # no TPR, or none positive: the column reads NR
        pass
    table(
        "Table 6 — Chain-of-thought prompting", "table6_cot.csv",
        ["Model", "Prompt", "normalised performance", "true positive (%)",
         "false negative (%)"],
        [str, str, _frac, _pct, _pct],
        ["model", "prompt", "normalised_performance", "true_positive_rate",
         "false_negative_rate"],
        [(row.model, row.prompt, norm, row.tpr, row.fnr)
         for row, norm in zip(bundle.cot, normalised)],
    )
    table(
        "Table 7 — Embeddings", "table7_embeddings.csv",
        ["Embedding", "ROUGE-1 F1", "ROUGE-1 P", "ROUGE-1 R", "coherence"],
        [str] + [_frac] * 4,
        ["embedding", "rouge1_f1", "rouge1_precision", "rouge1_recall", "coherence"],
        [(row.embedding, *_rouge(row.rouge1), row.coherence) for row in bundle.embeddings],
    )

    files[out / "report.md"] = "\n".join(sections)
    return files
