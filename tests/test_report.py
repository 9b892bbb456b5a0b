import csv
import hashlib

import pytest

from phenotag.evaluate import ConfusionCounts, compute_metrics, rouge_n
from phenotag.report import (
    AlignmentStats,
    CotRow,
    EmbeddingRow,
    FinetunedRow,
    FlagsRow,
    NerNenRow,
    RagFsiRow,
    ReportBundle,
    ZeroShotRow,
    render_report,
)


def full_bundle():
    counts = ConfusionCounts(tp=8, fp=2, fn=2, tn=8)
    stats = AlignmentStats(f1=0.8, precision=0.75, recall=0.86, accuracy=0.64)
    rouge = rouge_n("summary of asthma care", "asthma care summary", 1)
    return ReportBundle(
        ner_nen=[NerNenRow("BERN2", compute_metrics(counts), 0.792, counts=counts)],
        zero_shot=[
            ZeroShotRow("Concept vs Concept Prompt", "model-a", 0.712, 0.288),
            ZeroShotRow("Concept vs Concept Prompt", "model-b", 0.833, 0.167),
            ZeroShotRow("Concept vs Mention Prompt", "model-a", 0.585, None),
        ],
        finetuned=[FinetunedRow("FTM (Zero-Shot)", "model-a", stats, stats)],
        rag_fsi=[RagFsiRow("model-a", rouge, 0.83, 0.74, 0.66)],
        flags=[FlagsRow("model-a", 0.70, 0.63)],
        cot=[
            CotRow("model-a", "No CoT", 0.826, 0.045),
            CotRow("model-a", "Simple CoT", 0.811, 0.061),
            CotRow("model-b", "No CoT", 0.583, 0.288),
        ],
        embeddings=[EmbeddingRow("default", rouge, 0.84), EmbeddingRow("pubmed", None, None)],
    )


def write_report(bundle, out_dir):
    """Write the texts render_report returns, as eval does; return their
    paths keyed table1 ... table7 and report."""
    paths = {}
    for path, text in render_report(bundle, out_dir).items():
        path.write_text(text, encoding="utf-8")
        paths[path.stem.partition("_")[0]] = path
    return paths


EXPECTED_HEADERS = {
    "Table 1": ["NER F1 (%)", "NEN accuracy (%)", "NER true positive (%)"],
    "Table 2": ["correct answers (%)", "hallucination rate (%)"],
    "Table 3": ["BERN2 alignment F1 (%)", "GT alignment A (%)"],
    "Table 4": ["ROUGE-1 F1", "Coherence", "BERN2 alignment accuracy", "GT alignment accuracy"],
    "Table 5": ["BERN2 alignment accuracy", "GT alignment accuracy"],
    "Table 6": ["normalised performance", "true positive (%)", "false negative (%)"],
    "Table 7": ["ROUGE-1 F1", "coherence"],
}


def test_report_emits_all_seven_sections(tmp_path):
    paths = write_report(full_bundle(), tmp_path)
    report = paths["report"].read_text(encoding="utf-8")
    for table, headers in EXPECTED_HEADERS.items():
        section_at = report.index(f"## {table}")
        section = report[section_at : report.find("## Table", section_at + 1) if table != "Table 7" else len(report)]
        for header in headers:
            assert header in section, f"{table} missing header {header!r}"
    for key in ("table1", "table2", "table3", "table4", "table5", "table6", "table7"):
        assert paths[key].is_file()


def test_zero_denominator_cells_render_nr(tmp_path):
    paths = write_report(full_bundle(), tmp_path)
    report = paths["report"].read_text(encoding="utf-8")
    mention_row = next(l for l in report.splitlines() if l.startswith("| model-a | 58.50"))
    assert "NR" in mention_row
    pubmed_row = next(l for l in report.splitlines() if l.startswith("| pubmed"))
    assert pubmed_row.count("NR") == 4


def test_table6_normalised_column_global_max(tmp_path):
    paths = write_report(full_bundle(), tmp_path)
    with open(paths["table6"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    normalised = [float(r["normalised_performance"]) for r in rows]
    assert normalised[0] == 1.0
    assert normalised[1] == 0.811 / 0.826
    assert normalised[2] == 0.583 / 0.826  # divided by the global max, not per model


@pytest.mark.parametrize("tprs", [(0.0, 0.0), (None, None), (0.0, None)])
def test_table6_normalised_column_reads_nr_without_a_positive_tpr(tmp_path, tprs):
    bundle = ReportBundle(cot=[CotRow("model-a", f"prompt {i}", tpr, 0.5)
                               for i, tpr in enumerate(tprs)])
    paths = write_report(bundle, tmp_path)
    with open(paths["table6"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["normalised_performance"] for r in rows] == ["NR", "NR"]
    report = paths["report"].read_text(encoding="utf-8")
    assert "| model-a | prompt 0 | NR |" in report


def test_percentages_rounded_in_markdown_full_precision_in_csv(tmp_path):
    paths = write_report(full_bundle(), tmp_path)
    report = paths["report"].read_text(encoding="utf-8")
    assert "| BERN2 | 80.00 | 80.00 |" in report
    with open(paths["table1"], newline="") as handle:
        row = next(csv.DictReader(handle))
    assert row["ner_f1"] == repr(0.8000000000000002) or float(row["ner_f1"]) == 0.8000000000000002
    assert row["tp"] == "8"


def test_empty_bundle_still_emits_sections(tmp_path):
    paths = write_report(ReportBundle(), tmp_path)
    report = paths["report"].read_text(encoding="utf-8")
    for i in range(1, 8):
        assert f"## Table {i}" in report


# sha256 of every file render_report renders: the report's bytes are part of
# the reproducibility contract, so any change to them must be deliberate.
GOLDEN_DIGESTS = {
    "full": {
        "table1": "d7c513ea8eb2fa4030c6dd72a2cbc0a3bb998afc6ba2b8e4e5de09932310f5e9",
        "table2": "cde4eeb2416a89a84c9ea62d0ee29c029e601cb93ae5682ca6c52607e2f34cac",
        "table3": "d6a7f902a64d60acc6f18402c588a984da7eec398c710b8a5e9347a9a8110e3e",
        "table4": "da06650a0c6e3d033844334cb3cceadc56c58139ab7c42436780a2da37f05530",
        "table5": "4a1a85b19403e595dcebdc03ba28b85eb20d1a929b0f9a11f0e6e0a03a42f470",
        "table6": "fc659b8fabd7802bc2a0d1dec87cb7ac5661f2cff5efd18561c4e90807dfba61",
        "table7": "388f712a7db18d54a7d3148239ded816b3c4b8d0f7e40ff5a37a7407af33a35e",
        "report": "eb5f3420d811177baedeb2c38b15ec4cfb590162df14bb66ee247577f9449304",
    },
    "empty": {
        "table1": "06f5cd4a0561dd9056a9db2696972a5f68da8500196552cf31e4b27ceab98f98",
        "table2": "3424d71d86bf7346639a15be30ae6e55fa5c3704ff2e1790f51a848c88ea996f",
        "table3": "b9fe8ac26f2d21188c2f6a7f58f54a9af78a4a2409add30bb95803c34274c906",
        "table4": "d49b571310522d2dbc0e176e1bad1708a50175076c36cf210a30bebcb058177e",
        "table5": "b3aeb5d38145c86fe04ee400fa6dbc84bc44aa328794c7c4a6409e44e46531fd",
        "table6": "a4e9c86d9a3c43f61d5dafcd2f0253585018831833b54b257a813b63fb8221b9",
        "table7": "62bb70b784a7c18c056cdbb4f272e3ec72e791828cc7113764bd9909189b6027",
        "report": "10ed1141911403577f06979e3127c269b46debc4230278f5b9e7fcd39e2a55e3",
    },
}


@pytest.mark.parametrize("name, bundle", [("full", full_bundle), ("empty", ReportBundle)])
def test_report_files_match_golden_digests(tmp_path, name, bundle):
    paths = write_report(bundle(), tmp_path)
    digests = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert digests == GOLDEN_DIGESTS[name]
    empty = tmp_path / "empty"
    empty.mkdir()
    rendered = render_report(bundle(), empty)
    assert [path.stem.partition("_")[0] for path in rendered] == list(GOLDEN_DIGESTS[name])
    assert not any(empty.iterdir())
