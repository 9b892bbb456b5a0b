"""Rendering the seven evaluation tables as markdown plus per-table CSVs.

Markdown cells round to report precision (2 decimals; percentage columns
are scaled by 100); the CSVs keep full double precision. Absent metrics
render as "NR".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
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
    counts: "object | None" = None  # ConfusionCounts, for the raw-count CSV columns


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


def _write_csv(path: Path, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)


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


def render_report(bundle: ReportBundle, out_dir: str | Path) -> dict[str, Path]:
    """Write report.md plus one CSV per table; returns the emitted paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    sections: list[str] = ["# Evaluation report", ""]

    # Table 1 — NER/NEN against ground truth
    headers = [
        "Task", "NER F1 (%)", "NER accuracy (%)", "NER true positive (%)",
        "NER true negative (%)", "NER false positive (%)", "NER false negative (%)",
        "NEN accuracy (%)",
    ]
    md_rows, csv_rows = [], []
    for row in bundle.ner_nen:
        metrics = row.ner
        md_rows.append([
            row.task, _pct(metrics.f1), _pct(metrics.accuracy), _pct(metrics.recall),
            _pct(metrics.tnr), _pct(metrics.fpr), _pct(metrics.fnr), _pct(row.nen_accuracy),
        ])
        counts = row.counts
        csv_rows.append([
            row.task, _raw(metrics.f1), _raw(metrics.accuracy), _raw(metrics.recall),
            _raw(metrics.tnr), _raw(metrics.fpr), _raw(metrics.fnr), _raw(row.nen_accuracy),
            _raw(counts.tp if counts else None), _raw(counts.tn if counts else None),
            _raw(counts.fp if counts else None), _raw(counts.fn if counts else None),
        ])
    sections += ["## Table 1 — NER and NEN performance", "", _md_table(headers, md_rows), ""]
    paths["table1"] = out / "table1_ner_nen.csv"
    _write_csv(
        paths["table1"],
        ["task", "ner_f1", "ner_accuracy", "ner_tp_rate", "ner_tn_rate", "ner_fp_rate",
         "ner_fn_rate", "nen_accuracy", "tp", "tn", "fp", "fn"],
        csv_rows,
    )

    # Table 2 — Zero-shot prompting
    headers = ["Prompt / Model", "correct answers (%)", "hallucination rate (%)"]
    md_rows, csv_rows = [], []
    last_group = None
    for row in bundle.zero_shot:
        if row.prompt_group != last_group:
            md_rows.append([f"**{row.prompt_group}**", "", ""])
            last_group = row.prompt_group
        md_rows.append([row.model, _pct(row.correct_rate), _pct(row.hallucination_rate)])
        csv_rows.append([
            row.prompt_group, row.model, _raw(row.correct_rate), _raw(row.hallucination_rate),
        ])
    sections += ["## Table 2 — Zero-shot prompting", "", _md_table(headers, md_rows), ""]
    paths["table2"] = out / "table2_zero_shot.csv"
    _write_csv(
        paths["table2"],
        ["prompt_group", "model", "correct_answers", "hallucination_rate"],
        csv_rows,
    )

    # Table 3 — Fine-tuned model alignment
    headers = [
        "Group", "Model",
        "BERN2 alignment F1 (%)", "BERN2 alignment P (%)", "BERN2 alignment R (%)",
        "BERN2 alignment A (%)",
        "GT alignment F1 (%)", "GT alignment P (%)", "GT alignment R (%)",
        "GT alignment A (%)",
    ]
    md_rows, csv_rows = [], []
    for row in bundle.finetuned:
        md_rows.append([
            row.group, row.model,
            _pct(row.bern2.f1), _pct(row.bern2.precision), _pct(row.bern2.recall),
            _pct(row.bern2.accuracy),
            _pct(row.gt.f1), _pct(row.gt.precision), _pct(row.gt.recall), _pct(row.gt.accuracy),
        ])
        csv_rows.append([
            row.group, row.model,
            _raw(row.bern2.f1), _raw(row.bern2.precision), _raw(row.bern2.recall),
            _raw(row.bern2.accuracy),
            _raw(row.gt.f1), _raw(row.gt.precision), _raw(row.gt.recall), _raw(row.gt.accuracy),
        ])
    sections += ["## Table 3 — Fine-tuned model alignment", "", _md_table(headers, md_rows), ""]
    paths["table3"] = out / "table3_finetuned.csv"
    _write_csv(
        paths["table3"],
        ["group", "model", "bern2_f1", "bern2_precision", "bern2_recall", "bern2_accuracy",
         "gt_f1", "gt_precision", "gt_recall", "gt_accuracy"],
        csv_rows,
    )

    # Table 4 — RAG FSI
    headers = [
        "Model", "ROUGE-1 F1", "ROUGE-1 P", "ROUGE-1 R", "Coherence",
        "BERN2 alignment accuracy", "GT alignment accuracy",
    ]
    md_rows, csv_rows = [], []
    for row in bundle.rag_fsi:
        rouge = row.rouge1
        md_rows.append([
            row.model,
            _frac(rouge.f1 if rouge else None), _frac(rouge.precision if rouge else None),
            _frac(rouge.recall if rouge else None), _frac(row.coherence),
            _frac(row.bern2_alignment), _frac(row.gt_alignment),
        ])
        csv_rows.append([
            row.model,
            _raw(rouge.f1 if rouge else None), _raw(rouge.precision if rouge else None),
            _raw(rouge.recall if rouge else None), _raw(row.coherence),
            _raw(row.bern2_alignment), _raw(row.gt_alignment),
        ])
    sections += [
        "## Table 4 — Few-shot inference with retrieval-augmented generation", "",
        _md_table(headers, md_rows), "",
    ]
    paths["table4"] = out / "table4_rag_fsi.csv"
    _write_csv(
        paths["table4"],
        ["model", "rouge1_f1", "rouge1_precision", "rouge1_recall", "coherence",
         "bern2_alignment_accuracy", "gt_alignment_accuracy"],
        csv_rows,
    )

    # Table 5 — RAG FSI with binary flags
    headers = ["Model", "BERN2 alignment accuracy", "GT alignment accuracy"]
    md_rows = [
        [row.model, _frac(row.bern2_alignment), _frac(row.gt_alignment)]
        for row in bundle.flags
    ]
    csv_rows = [
        [row.model, _raw(row.bern2_alignment), _raw(row.gt_alignment)]
        for row in bundle.flags
    ]
    sections += ["## Table 5 — RAG FSI with binary flags", "", _md_table(headers, md_rows), ""]
    paths["table5"] = out / "table5_binary_flags.csv"
    _write_csv(
        paths["table5"],
        ["model", "bern2_alignment_accuracy", "gt_alignment_accuracy"],
        csv_rows,
    )

    # Table 6 — Chain-of-thought prompting
    headers = ["Model", "Prompt", "normalised performance", "true positive (%)",
               "false negative (%)"]
    normalised: list[float | None] = [None] * len(bundle.cot)
    present = [(i, row.tpr) for i, row in enumerate(bundle.cot) if row.tpr is not None]
    try:
        for i, value in normalised_performance(present):
            normalised[i] = value
    except ValidationError:  # no TPR, or none positive: the column reads NR
        pass
    md_rows, csv_rows = [], []
    for row, norm in zip(bundle.cot, normalised):
        md_rows.append([row.model, row.prompt, _frac(norm), _pct(row.tpr), _pct(row.fnr)])
        csv_rows.append([row.model, row.prompt, _raw(norm), _raw(row.tpr), _raw(row.fnr)])
    sections += ["## Table 6 — Chain-of-thought prompting", "", _md_table(headers, md_rows), ""]
    paths["table6"] = out / "table6_cot.csv"
    _write_csv(
        paths["table6"],
        ["model", "prompt", "normalised_performance", "true_positive_rate",
         "false_negative_rate"],
        csv_rows,
    )

    # Table 7 — Embeddings
    headers = ["Embedding", "ROUGE-1 F1", "ROUGE-1 P", "ROUGE-1 R", "coherence"]
    md_rows, csv_rows = [], []
    for row in bundle.embeddings:
        rouge = row.rouge1
        md_rows.append([
            row.embedding,
            _frac(rouge.f1 if rouge else None), _frac(rouge.precision if rouge else None),
            _frac(rouge.recall if rouge else None), _frac(row.coherence),
        ])
        csv_rows.append([
            row.embedding,
            _raw(rouge.f1 if rouge else None), _raw(rouge.precision if rouge else None),
            _raw(rouge.recall if rouge else None), _raw(row.coherence),
        ])
    sections += ["## Table 7 — Embeddings", "", _md_table(headers, md_rows), ""]
    paths["table7"] = out / "table7_embeddings.csv"
    _write_csv(
        paths["table7"],
        ["embedding", "rouge1_f1", "rouge1_precision", "rouge1_recall", "coherence"],
        csv_rows,
    )

    report_path = out / "report.md"
    report_path.write_text("\n".join(sections), encoding="utf-8")
    paths["report"] = report_path
    return paths
