"""The whole CLI chain on the end-to-end fixture, pinned byte for byte:
ingest, annotate, all nine strategies with ``--dump-prompts``, raft, and
eval with ``--verdicts`` and a report plan that fills all six sections of
Tables 2-7. The scripted rules disagree on some mentions and propose a
concept, so the BERN2 and GT columns differ.

Every retrieval query on the fixture is a single token, so retrieval scores
are exact whatever the BLAS. Coherence goes through ``np.dot``, whose last
bit can follow the BLAS kernel, so the coherence cells of tables 4 and 7 and
of report.md are checked against values computed here, then masked before
the digest is taken."""

import hashlib
import json

from click.testing import CliRunner

from phenotag.cli import main
from phenotag.evaluate import mean_coherence
from phenotag.ontology import INDEX_FILE, INDEX_SIDECAR, HashedBagOfWordsProvider

from conftest import make_concepts, write_e2e_workspace

RULES = [
    {"contains": "Work through each stage", "response": "AGREE"},  # cot:strong, cot:hybrid
    {"contains": "worried", "response": "DISAGREE"},  # the fp records, when the answer is shown
    {"contains": '"eczema"', "response": "DISAGREE, it is mesh:D000003"},
    {"regex": r'"migr\w+"', "response": "DISAGREE mesh:D999999"},  # not in the ontology
    {"contains": "", "response": "AGREE"},
]
STRATEGIES = [
    ("zero-shot-cvc",), ("zero-shot-cvm",), ("few-shot", "--k", "3"), ("cot:none",),
    ("cot:simple",), ("cot:strong",), ("cot:hybrid",), ("rag-fsi", "--retrieval-k", "2"),
    ("rag-fsi-flags", "--flags", "rag=on,fsi=off"),
]
RAFT_CONCEPTS = (0, 7, 21)
SUMMARIES = [
    ("child has migraine daily", "knee pain daily report"),
    ("gout", "chronic gout"),
    ("the child has asthma these days", "asthma in a child"),
]


def _verdicts(strategy):
    return f"out/verdicts_{strategy.replace(':', '-')}.jsonl"


PLAN = {
    "zero_shot": [
        {"verdicts": _verdicts(f"zero-shot-{kind}"), "group": group, "model": "scripted"}
        for kind, group in (("cvc", "concept vs concept"), ("cvm", "concept vs mention"))
    ],
    "finetuned": [{"verdicts": _verdicts("few-shot"), "group": "RAFT", "model": "scripted"}],
    "rag_fsi": [{"verdicts": _verdicts("rag-fsi"), "summaries": "summaries.jsonl",
                 "model": "scripted"}],
    "flags": [{"verdicts": _verdicts("rag-fsi-flags"), "model": "scripted"}],
    "cot": [{"verdicts": _verdicts(f"cot:{variant}"), "model": "scripted", "prompt": variant}
            for variant in ("none", "simple", "strong", "hybrid")],
    "embeddings": [{"summaries": "summaries.jsonl", "embedding": "hashed-64", "dimension": 64},
                   {"summaries": "summaries.jsonl"}],
}

GOLDEN_DIGESTS = {
    "corpus.jsonl":
        "899331f3641526e964408863dba3ea5de72965bb99c1378b58ce64d7c5c4df37",
    "predictions.jsonl":
        "2614e82309f72a091cc0c6e9127e15b4ec4214aa59215a9ac03b0d5b9dcbcef3",
    "prompts_cot-hybrid.jsonl":
        "8b0acac0bfcc1614c8d83f358e387669f4fe167f802515bd0b4bfa32a856bfd3",
    "prompts_cot-none.jsonl":
        "6a63d23e620e1857537173f42934fe0c2963849d0e4adae9182a34356b2c2a0d",
    "prompts_cot-simple.jsonl":
        "4357be18949bb25324a40a0661531e6d77bab7015432daa8d42bac616a14f3f4",
    "prompts_cot-strong.jsonl":
        "29605e732ad65fb10380c07d8a3cfcf38b36a58a25ae2d00926289140be3abb6",
    "prompts_few-shot.jsonl":
        "70d73558afc3f21b637314602ed49f4d37ebffb9df47dd6d3ecf792f1a9ae723",
    "prompts_rag-fsi-flags.jsonl":
        "7ef1e5dc33618abb703b6e8482d64c0719599a9ddabb84f8c1719a8db47cb157",
    "prompts_rag-fsi.jsonl":
        "53075ac1dd26570e6495bd5fdd566fd5603f5ab84a4b08dbceb2c7b447ad595d",
    "prompts_zero-shot-cvc.jsonl":
        "6a63d23e620e1857537173f42934fe0c2963849d0e4adae9182a34356b2c2a0d",
    "prompts_zero-shot-cvm.jsonl":
        "c02aad37896f728ebd000deedace1dcddbdf51b8769514ff02661c0d15e7a292",
    "raft.jsonl":
        "9968be3ddf07113830d090d23b57117c7e37fdeb5057ae86b9159c66eb4bc484",
    "report.md":
        "2a6333dc216bd414e8c3792764c01184bd5df4c0ba1197340b95a7361c56f9a6",
    "table1_ner_nen.csv":
        "fd80654593117042ca3ee7238e94161c297932771925235fd2a39b9dcbb3c954",
    "table2_zero_shot.csv":
        "c5f0135aff343b21f4ef7d5f10dfd54cb9731ad5a4a939242074807a91185480",
    "table3_finetuned.csv":
        "5ef480633a0d1b4e813e50b6be26e31105395d5b9b51afb4cbf27e6f5e6cd624",
    "table4_rag_fsi.csv":
        "e3dce905bb352e0e18c77ec6e4dc9da2d922c35f502df1bb4077b18adcb514a9",
    "table5_binary_flags.csv":
        "2943252e9fba98875d67136f30b766e4089def83adbb31ead18e3d74026ca47b",
    "table6_cot.csv":
        "e932c7835fb47229c1617042adb67827408f8654295708b626170691cacbf912",
    "table7_embeddings.csv":
        "a110cd56595c6eadca4cb22389c8a37b3b6cb60777265520d32faa9c8237ae6e",
    "verdicts_cot-hybrid.jsonl":
        "90bcf9575bba2ac9ed860c948076fe0912c49180d2edfd99b191d6f62be44fa5",
    "verdicts_cot-none.jsonl":
        "b60abadbd49ea7ba82327a604418737c438e03e34ab7aee94797954d691d0dd3",
    "verdicts_cot-simple.jsonl":
        "b60abadbd49ea7ba82327a604418737c438e03e34ab7aee94797954d691d0dd3",
    "verdicts_cot-strong.jsonl":
        "90bcf9575bba2ac9ed860c948076fe0912c49180d2edfd99b191d6f62be44fa5",
    "verdicts_few-shot.jsonl":
        "b60abadbd49ea7ba82327a604418737c438e03e34ab7aee94797954d691d0dd3",
    "verdicts_rag-fsi-flags.jsonl":
        "b60abadbd49ea7ba82327a604418737c438e03e34ab7aee94797954d691d0dd3",
    "verdicts_rag-fsi.jsonl":
        "b60abadbd49ea7ba82327a604418737c438e03e34ab7aee94797954d691d0dd3",
    "verdicts_zero-shot-cvc.jsonl":
        "b60abadbd49ea7ba82327a604418737c438e03e34ab7aee94797954d691d0dd3",
    "verdicts_zero-shot-cvm.jsonl":
        "9ce562edb2d69322b70d68c2a803d29a92c12d1173e1c348dc116d0373458b1b",
}


def _invoke(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, (args, result.output, result.stderr)


def _jsonl(objects):
    return "".join(json.dumps(obj) + "\n" for obj in objects)


def _masked(text, newline, sep, column, first_row, expected):
    """``text`` with cell ``column`` of the rows from ``first_row`` on
    checked against ``expected`` and replaced."""
    lines = text.split(newline)
    for i, value in enumerate(expected, first_row):
        cells = lines[i].split(sep)
        assert cells[column] == value, (lines[i], value)
        cells[column] = "<coherence>"
        lines[i] = sep.join(cells)
    return newline.join(lines)


def test_chain_result_files_match_golden_digests(tmp_path):
    config = write_e2e_workspace(tmp_path)
    (tmp_path / "llm_rules.jsonl").write_text(_jsonl(RULES))
    concepts = make_concepts(50)
    (tmp_path / "questions.jsonl").write_text(_jsonl(
        {"question": concepts[i].preferred_name, "concept_id": concepts[i].concept_id.render()}
        for i in RAFT_CONCEPTS
    ))
    (tmp_path / "summaries.jsonl").write_text(_jsonl(
        {"candidate": candidate, "reference": reference} for candidate, reference in SUMMARIES
    ))
    (tmp_path / "plan.json").write_text(json.dumps(PLAN))
    _invoke("ingest", "-c", config)
    _invoke("annotate", "-c", config)
    for strategy, *options in STRATEGIES:
        _invoke("run", "-c", config, "--strategy", strategy, *options,
                "--out", tmp_path / _verdicts(strategy),
                "--dump-prompts", tmp_path / _verdicts(strategy).replace("verdicts", "prompts"))
    _invoke("raft", "-c", config, "--questions", tmp_path / "questions.jsonl")
    _invoke("eval", "-c", config, "--verdicts", tmp_path / _verdicts("zero-shot-cvc"),
            "--report-plan", tmp_path / "plan.json")

    # Manifests and the index cache are not result files.
    texts = {
        path.name: path.read_bytes().decode("utf-8")
        for path in (tmp_path / "out").iterdir()
        if not path.name.endswith("_manifest.json")
        and path.name not in (INDEX_FILE, INDEX_SIDECAR)
    }
    default = mean_coherence(SUMMARIES, HashedBagOfWordsProvider())
    narrow = mean_coherence(SUMMARIES, HashedBagOfWordsProvider(64))
    texts["table4_rag_fsi.csv"] = _masked(texts["table4_rag_fsi.csv"], "\r\n", ",", 4, 1,
                                          [repr(default)])
    texts["table7_embeddings.csv"] = _masked(texts["table7_embeddings.csv"], "\r\n", ",", 4, 1,
                                             [repr(narrow), repr(default)])
    report = texts["report.md"]
    lines = report.split("\n")
    for title, expected in (("## Table 4 — Few-shot inference with retrieval-augmented "
                             "generation", [default]),
                            ("## Table 7 — Embeddings", [narrow, default])):
        report = _masked(report, "\n", "|", 5, lines.index(title) + 4,
                         [f" {value:.2f} " for value in expected])
    texts["report.md"] = report
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in sorted(texts.items())}
    assert digests == GOLDEN_DIGESTS
