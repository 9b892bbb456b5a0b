import configparser
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import phenotag
from phenotag.cli import _PLAN_SECTIONS, _write_results, main
from phenotag.config import (
    RunConfig, atomic_write, atomic_write_text, derive_seed, load_config, sha256_of,
)
from phenotag.errors import ValidationError
from phenotag.evaluate import mean_coherence
from phenotag.ontology import INDEX_FILE, INDEX_SIDECAR, HashedBagOfWordsProvider
from phenotag.orchestrate import _TEMPLATE_FIELDS, ScriptedLlmBackend, TemplateRegistry

from conftest import LoopbackServer, reply_json, write_e2e_workspace


@pytest.fixture
def workspace(tmp_path):
    config = write_e2e_workspace(tmp_path)
    return tmp_path, config


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def numpy_loaded_after(*commands):
    """Run CLI commands in order in one fresh interpreter, each of which must
    exit 0; return whether numpy was imported by the end."""
    script = (
        "import json, sys\n"
        "from phenotag.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exc:\n"
        "        if exc.code:\n"
        "            raise\n"
        "print('numpy' in sys.modules)\n"
    )
    argv = json.dumps([[str(a) for a in command] for command in commands])
    env = dict(os.environ, PYTHONPATH=str(Path(phenotag.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script, argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


# --- ingest -------------------------------------------------------------------

def test_ingest_prints_stats(workspace):
    root, config = workspace
    result = invoke("ingest", "-c", config)
    assert result.exit_code == 0, result.output + str(result.stderr_bytes)
    assert "20 records" in result.output
    assert "descriptive: 20" in result.output
    assert (root / "out" / "corpus.jsonl").is_file()
    assert (root / "out" / "ingest_manifest.json").is_file()


def test_ingest_missing_file_exits_2(workspace):
    _, config = workspace
    result = invoke("ingest", "-c", config, "--records", "nowhere.jsonl")
    assert result.exit_code == 2


def test_ingest_duplicate_id_exits_1(workspace):
    root, config = workspace
    lines = (root / "records.jsonl").read_text().splitlines()
    (root / "records.jsonl").write_text("\n".join(lines + [lines[0]]) + "\n")
    result = invoke("ingest", "-c", config)
    assert result.exit_code == 1
    assert "tp00" in result.stderr


def test_ingest_non_string_question_exits_1(workspace):
    root, config = workspace
    lines = (root / "records.jsonl").read_text().splitlines()
    bad = dict(json.loads(lines[1]), question_text=None)
    (root / "records.jsonl").write_text("\n".join([lines[0], json.dumps(bad)]) + "\n")
    result = invoke("ingest", "-c", config)
    assert result.exit_code == 1
    assert "line 2: bad record: question_text must be a string" in result.stderr


def test_ingest_text_utf8_cannot_encode_exits_1_writing_nothing(workspace):
    root, config = workspace
    with open(root / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"record_id":"s1","question_text":"q","answer_text":"a \\ud800",'
                     '"field_type":"descriptive"}\n')
    result = invoke("ingest", "-c", config)
    assert result.exit_code == 1
    assert "surrogates not allowed" in result.stderr
    assert not (root / "out").exists()


def test_missing_config_exits_2(tmp_path):
    result = invoke("ingest", "-c", tmp_path / "none.ini")
    assert result.exit_code == 2


def test_config_values_are_read_as_written(workspace):
    root, config = workspace
    config.write_text(config.read_text()
                      + "\n[embedding]\nendpoint = http://x/a%20b\nlabel = %(endpoint)s\n")
    result = invoke("ingest", "-c", config)
    assert result.exit_code == 0, result.output + repr(result.exception)
    manifest = json.loads((root / "out" / "ingest_manifest.json").read_text())
    assert manifest["config"]["embedding"] == {"endpoint": "http://x/a%20b",
                                               "label": "%(endpoint)s"}


# --- annotate -----------------------------------------------------------------

def test_annotate_mock_deterministic(workspace):
    root, config = workspace
    first = invoke("annotate", "-c", config)
    assert first.exit_code == 0, first.output
    predictions = (root / "out" / "predictions.jsonl").read_bytes()
    second = invoke("annotate", "-c", config)
    assert second.exit_code == 0
    assert (root / "out" / "predictions.jsonl").read_bytes() == predictions
    assert "20 records annotated, 0 failed" in first.output


def test_annotate_out_naming_its_corpus_exits_1(workspace):
    root, config = workspace
    corpus = (root / "records.jsonl").read_bytes()
    result = invoke("annotate", "-c", config, "--out", root / "records.jsonl")
    assert result.exit_code == 1
    assert (f"error: result file {root / 'records.jsonl'} would overwrite an input"
            in result.stderr)
    assert (root / "records.jsonl").read_bytes() == corpus
    assert not (root / "out" / "annotate_manifest.json").exists()


def test_annotate_mock_lexicon_flag(workspace, tmp_path):
    root, config = workspace
    moved = tmp_path / "lex2.jsonl"
    moved.write_text((root / "mock_lexicon.jsonl").read_text())
    result = invoke("annotate", "-c", config, "--mock-lexicon", moved)
    assert result.exit_code == 0


def test_annotate_duplicate_lexicon_term_exits_1(workspace):
    root, config = workspace
    lexicon = root / "mock_lexicon.jsonl"
    duplicate = json.dumps({"term": "asthma", "concept_id": "mesh:D000002"})
    lexicon.write_text(lexicon.read_text() + duplicate + "\n")
    result = invoke("annotate", "-c", config)
    assert result.exit_code == 1
    assert "line 5" in result.stderr and "duplicate term 'asthma'" in result.stderr
    assert not (root / "out" / "predictions.jsonl").exists()


def write_lexicon(path, ids):
    path.write_text("".join(json.dumps({"term": term, "concept_id": concept_id}) + "\n"
                            for term, concept_id in ids.items()))


def test_annotate_lexicon_ids_in_any_accepted_form_give_the_same_predictions(workspace):
    root, config = workspace
    lexicon, predictions = root / "mock_lexicon.jsonl", root / "out" / "predictions.jsonl"
    written = {"asthma": "MESH:d001249", "eczema": " mesh:D004485 ", "migraine": "none"}
    canonical = {"asthma": "mesh:D001249", "eczema": "mesh:D004485", "migraine": "NONE"}
    outputs = []
    for ids in (written, canonical):
        write_lexicon(lexicon, ids)
        result = invoke("annotate", "-c", config)
        assert result.exit_code == 0, result.output
        outputs.append(predictions.read_bytes())
    assert outputs[0] == outputs[1]
    concepts = {annotation["concept"] for line in outputs[1].decode().splitlines()
                for annotation in json.loads(line)["annotations"]}
    assert concepts == set(canonical.values())


def test_annotate_malformed_lexicon_id_exits_1_naming_its_line(workspace):
    root, config = workspace
    write_lexicon(root / "mock_lexicon.jsonl", {"asthma": "mesh:D001249", "croup": "mesh:X"})
    result = invoke("annotate", "-c", config)
    assert result.exit_code == 1
    assert "line 2: bad lexicon entry: cannot parse concept id 'mesh:X'" in result.stderr
    assert not (root / "out" / "predictions.jsonl").exists()


def test_annotate_unknown_preprocess_step_exits_1(workspace):
    root, config = workspace
    config.write_text(config.read_text() + "\n[preprocess]\nsteps = nfc, stemming\n")
    result = invoke("annotate", "-c", config)
    assert result.exit_code == 1
    assert "error: [preprocess] unknown preprocessing steps: ['stemming']" in result.stderr
    assert not (root / "out" / "predictions.jsonl").exists()


def test_annotate_acronym_key_matching_another_letter(workspace):
    root, config = workspace
    (root / "acronyms.txt").write_text("ſ = long s\n", encoding="utf-8")
    config.write_text(config.read_text() + "\n[preprocess]\nacronym_map = acronyms.txt\n")
    lines = (root / "records.jsonl").read_text().splitlines()
    record = dict(json.loads(lines[0]), answer_text="my mum's asthma")
    (root / "records.jsonl").write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    result = invoke("annotate", "-c", config)
    assert result.exit_code == 0, result.output + repr(result.exception)
    first = json.loads((root / "out" / "predictions.jsonl").read_text().splitlines()[0])
    assert first["text"] == "my mum'long s asthma"


def test_annotate_no_backend_exits_1(workspace):
    root, config = workspace
    config_text = config.read_text().replace("mock_lexicon = mock_lexicon.jsonl\n", "")
    config.write_text(config_text)
    result = invoke("annotate", "-c", config)
    assert result.exit_code == 1
    assert "backend" in result.stderr


def test_annotate_total_outage_exits_3_with_partial_results(workspace):
    root, config = workspace
    config_text = config.read_text().replace(
        "mock_lexicon = mock_lexicon.jsonl\n",
        "endpoint = http://127.0.0.1:1/annotate\ntimeout_ms = 150\nretry_budget = 0\n",
    )
    config.write_text(config_text)
    result = invoke("annotate", "-c", config)
    assert result.exit_code == 3
    lines = (root / "out" / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 20
    assert all(json.loads(l)["status"] == "failed" for l in lines)
    # the manifest is written before any result file
    assert (root / "out" / "annotate_manifest.json").is_file()


@pytest.mark.parametrize("key, value, detail", [
    ("max_inflight", "0", "max_inflight must be >= 1"),
    ("batch_size", "0", "batch_size must be >= 1"),
    ("retry_budget", "-1", "retry_budget must be >= 0"),
])
def test_annotate_rejected_window_settings_write_nothing(workspace, key, value, detail):
    root, config = workspace
    assert invoke("ingest", "-c", config).exit_code == 0
    set_config_key(config, "ner", key, value)
    result = invoke("annotate", "-c", config)
    assert result.exit_code == 1, result.output + repr(result.exception)
    assert detail in result.stderr
    assert not (root / "out" / "annotate_manifest.json").exists()
    assert not (root / "out" / "predictions.jsonl").exists()


# --- run ----------------------------------------------------------------------

def run_pipeline_through_annotate(config):
    assert invoke("ingest", "-c", config).exit_code == 0
    assert invoke("annotate", "-c", config).exit_code == 0


def test_run_scripted_deterministic(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    first = invoke("run", "-c", config, "--strategy", "rag-fsi", "--retrieval-k", "3", "--seed", "7")
    assert first.exit_code == 0, first.output + repr(first.stderr)
    verdicts = (root / "out" / "verdicts.jsonl").read_bytes()
    second = invoke("run", "-c", config, "--strategy", "rag-fsi", "--retrieval-k", "3", "--seed", "7")
    assert second.exit_code == 0
    assert (root / "out" / "verdicts.jsonl").read_bytes() == verdicts
    assert "verdicts" in first.output


def test_run_unknown_strategy_lists_names(workspace):
    _, config = workspace
    run_pipeline_through_annotate(config)
    result = invoke("run", "-c", config, "--strategy", "mystery")
    assert result.exit_code == 1
    assert "rag-fsi" in result.stderr and "zero-shot-cvc" in result.stderr


def test_run_dump_prompts_cot_strong(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    prompts_path = root / "prompts.jsonl"
    result = invoke("run", "-c", config, "--strategy", "cot:strong", "--dump-prompts", prompts_path)
    assert result.exit_code == 0
    dumped = [json.loads(l) for l in prompts_path.read_text().splitlines()]
    assert dumped and all("Let's think step by step" in d["prompt"] for d in dumped)
    assert all("4. State your verdict." in d["prompt"] for d in dumped)


def test_run_flags_off_equals_zero_shot(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    a = root / "prompts_flags.jsonl"
    b = root / "prompts_zero.jsonl"
    assert invoke(
        "run", "-c", config, "--strategy", "rag-fsi-flags", "--flags", "rag=off,fsi=off",
        "--dump-prompts", a, "--out", root / "out" / "v1.jsonl",
    ).exit_code == 0
    assert invoke(
        "run", "-c", config, "--strategy", "zero-shot-cvc",
        "--dump-prompts", b, "--out", root / "out" / "v2.jsonl",
    ).exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (root / "out" / "v1.jsonl").read_bytes() == (root / "out" / "v2.jsonl").read_bytes()


def test_run_max_inflight_zero_exits_1(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    text = config.read_text().replace("[llm]\n", "[llm]\nmax_inflight = 0\n")
    config.write_text(text)
    result = invoke("run", "-c", config, "--strategy", "zero-shot-cvc")
    assert result.exit_code == 1
    assert "max_inflight must be >= 1" in result.stderr


@pytest.mark.parametrize("llm_setting, pool_size, detail", [
    ("max_inflight = 0", 12, "max_inflight must be >= 1"),
    ("retry_budget = -1", 12, "retry_budget must be >= 0"),
    ("", 3, "example pool has 3 entries, 5 required"),
    # An HTTP backend could not encode a non-finite temperature as JSON.
    ("temperature = nan", 12, "[llm] temperature must be a finite number, got 'nan'"),
    ("temperature = -inf", 12, "[llm] temperature must be a finite number, got '-inf'"),
])
def test_run_rejected_settings_keep_earlier_manifest(workspace, llm_setting, pool_size, detail):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("run", "-c", config, "--strategy", "few-shot").exit_code == 0
    manifest = (root / "out" / "run_manifest.json").read_bytes()
    verdicts = (root / "out" / "verdicts.jsonl").read_bytes()
    config.write_text(config.read_text().replace("[llm]\n", f"[llm]\n{llm_setting}\n"))
    pool = (root / "examples.jsonl").read_text().splitlines()
    (root / "examples.jsonl").write_text("\n".join(pool[:pool_size]) + "\n")
    result = invoke("run", "-c", config, "--strategy", "few-shot")
    assert result.exit_code == 1
    assert detail in result.stderr
    assert (root / "out" / "run_manifest.json").read_bytes() == manifest
    assert (root / "out" / "verdicts.jsonl").read_bytes() == verdicts


@pytest.mark.parametrize("strategy", ["cot:hybrid", "rag-fsi-flags"])
def test_run_zero_shots_with_examples_exits_1_before_manifest(workspace, strategy):
    root, config = workspace
    run_pipeline_through_annotate(config)
    result = invoke("run", "-c", config, "--strategy", strategy, "--k", "0")
    assert result.exit_code == 1, result.output + repr(result.exception)
    assert "k must be >= 1" in result.stderr
    assert not (root / "out" / "run_manifest.json").exists()


def test_run_index_build_failure_keeps_earlier_manifest(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("run", "-c", config, "--strategy", "rag-fsi").exit_code == 0
    manifest = (root / "out" / "run_manifest.json").read_bytes()
    verdicts = (root / "out" / "verdicts.jsonl").read_bytes()
    config.write_text(config.read_text() + "\n[embedding]\nendpoint = http://127.0.0.1:1/embed\n")
    result = invoke("run", "-c", config, "--strategy", "rag-fsi")
    assert result.exit_code == 3
    assert (root / "out" / "run_manifest.json").read_bytes() == manifest
    assert (root / "out" / "verdicts.jsonl").read_bytes() == verdicts


# (command and arguments, config keys set over the e2e workspace's, with
# None removing a key, and the message) for remote settings the default
# HTTP client could never send with.
UNSENDABLE_REMOTE_SETTINGS = {
    "ner-endpoint-without-scheme": (
        ["annotate"], {("ner", "mock_lexicon"): None, ("ner", "endpoint"): "bern2.host/annotate"},
        "endpoint must be an http or https URL with a host, got 'bern2.host/annotate'"),
    "llm-endpoint-without-scheme": (
        ["run", "--strategy", "rag-fsi"],
        {("llm", "scripted"): None, ("llm", "endpoint"): "llm.host/complete"},
        "endpoint must be an http or https URL with a host, got 'llm.host/complete'"),
    "embedding-endpoint-without-host": (
        ["run", "--strategy", "rag-fsi"], {("embedding", "endpoint"): "http:///embed"},
        "endpoint must be an http or https URL with a host, got 'http:///embed'"),
    "llm-timeout-zero": (
        ["run", "--strategy", "rag-fsi"],
        {("llm", "scripted"): None, ("llm", "endpoint"): "http://127.0.0.1:1/complete",
         ("llm", "timeout_ms"): "0"},
        "timeout_ms must be >= 1, got 0"),
    "llm-max-tokens-zero": (
        ["run", "--strategy", "rag-fsi"], {("llm", "max_tokens"): "0"},
        "max_tokens must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", list(UNSENDABLE_REMOTE_SETTINGS))
def test_unsendable_remote_setting_exits_1_before_sending_or_writing(workspace, case):
    root, config = workspace
    args, keys, detail = UNSENDABLE_REMOTE_SETTINGS[case]
    run_pipeline_through_annotate(config)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    for (section, key), value in keys.items():
        if value is None:
            config.write_text(re.sub(rf"(?m)^{key} = .*\n", "", config.read_text()))
        else:
            set_config_key(config, section, key, value)
    result = invoke(args[0], "-c", config, *args[1:])
    assert result.exit_code == 1, result.output + repr(result.exception)
    assert f"error: {detail}" in result.stderr
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


@pytest.mark.parametrize("record_id, answer, detail", [
    ("tp03", "the child has migraine most days",
     "bad prediction record: record 'tp03': text differs from the upstream text"),
    # tn00 has no annotations, so only its id still ties it to the corpus.
    ("tn00", None, "bad prediction record: unknown record_id 'tn00'"),
], ids=["text-changed", "record-removed"])
def test_run_stale_predictions_exit_1(workspace, record_id, answer, detail):
    root, config = workspace
    run_pipeline_through_annotate(config)
    records = [json.loads(l) for l in (root / "records.jsonl").read_text().splitlines()]
    kept = [dict(r, answer_text=answer) if r["record_id"] == record_id else r
            for r in records if answer is not None or r["record_id"] != record_id]
    (root / "records.jsonl").write_text("".join(json.dumps(r) + "\n" for r in kept))
    result = invoke("run", "-c", config, "--strategy", "zero-shot-cvc")
    assert result.exit_code == 1
    assert detail in result.stderr
    assert not (root / "out" / "verdicts.jsonl").exists()


def test_run_with_retrieval_loads_numpy(workspace):
    _, config = workspace
    run_pipeline_through_annotate(config)
    assert numpy_loaded_after(["run", "-c", config, "--strategy", "rag-fsi"])


# --- eval ----------------------------------------------------------------------

def test_eval_reports_hand_derived_metrics(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    result = invoke("eval", "-c", config)
    assert result.exit_code == 0, result.output + repr(result.stderr)
    assert "precision 0.800 recall 0.800 F1 0.800 accuracy 0.800" in result.output
    assert "mentions: tp=8 fp=2 fn=2 tn=8" in result.output
    assert "concept accuracy (NEN): 1.000" in result.output
    report = (root / "out" / "report.md").read_text()
    for i in range(1, 8):
        assert f"## Table {i}" in report


def test_eval_missing_gold_exits_2(workspace):
    _, config = workspace
    run_pipeline_through_annotate(config)
    result = invoke("eval", "-c", config, "--gold", "missing.jsonl")
    assert result.exit_code == 2


@pytest.mark.parametrize("option", ["--verdicts", "--report-plan"])
def test_eval_explicit_missing_input_exits_2(workspace, option):
    root, config = workspace
    run_pipeline_through_annotate(config)
    result = invoke("eval", "-c", config, option, root / "nowhere.json")
    assert result.exit_code == 2
    assert "no such file" in result.stderr
    assert not (root / "out" / "eval_manifest.json").exists()


def test_eval_skips_missing_config_defaults(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    config.write_text(config.read_text().replace(
        "[eval]\n", "[eval]\nverdicts = nowhere.jsonl\nreport_plan = nowhere.json\n"
    ))
    result = invoke("eval", "-c", config)
    assert result.exit_code == 0, result.output + repr(result.stderr)
    assert "BERN2 alignment" not in result.output


# (command, its extra arguments, config section, key)
CONFIGURED_INPUTS = {
    "templates": ("run", ["--strategy", "zero-shot-cvc"], "paths", "templates"),
    "acronym-map": ("annotate", [], "preprocess", "acronym_map"),
    "lexicon": ("annotate", [], "preprocess", "lexicon"),
    "mock-lexicon": ("annotate", [], "ner", "mock_lexicon"),
    "scripted-llm": ("run", ["--strategy", "zero-shot-cvc"], "llm", "scripted"),
}


def set_config_key(config, section, key, value):
    text = config.read_text()
    if f"[{section}]\n" not in text:
        text += f"\n[{section}]\n"
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    text = "\n".join(lines) + "\n"
    config.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))


@pytest.mark.parametrize("case", list(CONFIGURED_INPUTS))
def test_configured_input_that_is_missing_exits_2(workspace, case):
    root, config = workspace
    command, args, section, key = CONFIGURED_INPUTS[case]
    run_pipeline_through_annotate(config)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    set_config_key(config, section, key, "nowhere")
    result = invoke(command, "-c", config, *args)
    assert result.exit_code == 2, result.output + repr(result.exception)
    assert f"[{section}] {key}: no such file {root / 'nowhere'}" in result.stderr
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


# Each configured input that names a file: CONFIGURED_INPUTS but the
# templates directory, and the corpus.
CONFIGURED_FILES = {
    "corpus": ("annotate", [], "paths", "corpus"),
    **{case: entry for case, entry in CONFIGURED_INPUTS.items() if case != "templates"},
}


@pytest.mark.parametrize("case", list(CONFIGURED_FILES))
def test_configured_file_that_is_a_directory_exits_2_writing_nothing(workspace, case):
    root, config = workspace
    command, args, section, key = CONFIGURED_FILES[case]
    run_pipeline_through_annotate(config)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    (root / "sub").mkdir()
    set_config_key(config, section, key, "sub")
    result = invoke(command, "-c", config, *args)
    assert result.exit_code == 2, result.output + repr(result.exception)
    assert f"error: [{section}] {key}: {root / 'sub'} is a directory, not a file" in result.stderr
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


@pytest.mark.parametrize("section, entry", [
    ("embeddings", {"summaries": "sub"}),
    ("flags", {"verdicts": "sub"}),
], ids=["summaries", "verdicts"])
def test_report_plan_file_that_is_a_directory_exits_2_writing_nothing(workspace, section, entry):
    root, config = workspace
    run_pipeline_through_annotate(config)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    (root / "sub").mkdir()
    (root / "plan.json").write_text(json.dumps({section: [entry]}))
    result = invoke("eval", "-c", config, "--report-plan", root / "plan.json")
    assert result.exit_code == 2, result.output + repr(result.exception)
    assert f"error: report plan references {root / 'sub'}, a directory" in result.stderr
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def test_run_out_and_dump_prompts_naming_one_file_exits_1(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    same = root / "same.jsonl"
    result = invoke("run", "-c", config, "--strategy", "zero-shot-cvc",
                    "--out", same, "--dump-prompts", same)
    assert result.exit_code == 1
    assert f"error: result file {same} would overwrite another result file" in result.stderr
    assert not same.exists()
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def make_guard_layout(root):
    """Files and directories under ``root``, reached through relative and
    absolute symlinks to directories and files, a link to a link, a link to
    ".." and a dangling link."""
    (root / "d" / "sub").mkdir(parents=True)
    for name in ("a.txt", "b.txt", INDEX_FILE, INDEX_SIDECAR):
        (root / "d" / name).write_text(name)
    (root / "d" / "sub" / "c.txt").write_text("c")
    (root / "ld").symlink_to("d")
    (root / "la").symlink_to(root / "d" / "a.txt")
    (root / "d" / "lb").symlink_to("b.txt")
    (root / "d" / "sub" / "lc").symlink_to("../lb")
    (root / "d" / "sub" / "up").symlink_to("..")
    (root / "dangling").symlink_to(root / "d" / "missing.txt")


# Spellings of the layout's directories and files, so that results often
# collide with inputs, the cache or each other, and any path at all.
_GUARD_DIRS = st.sampled_from(["d", "ld", "d/sub/up", "ld/sub/up", "d/sub/..", "la/.."])
_GUARD_FILE_LINKS = ["la", "d/lb", "d/sub/lc", "ld/sub/lc", "d/sub/up/lb"]
_GUARD_INPUTS = st.one_of(
    st.tuples(_GUARD_DIRS, st.sampled_from(["a.txt", "b.txt", "sub/c.txt"])).map("/".join),
    st.sampled_from(_GUARD_FILE_LINKS),
)
_GUARD_RESULTS = st.one_of(
    st.tuples(_GUARD_DIRS, st.sampled_from(
        ["a.txt", "b.txt", "missing.txt", "new.txt", INDEX_FILE, INDEX_SIDECAR, "."]
    )).map("/".join),
    st.sampled_from([*_GUARD_FILE_LINKS, "dangling"]),
    _GUARD_DIRS,
    st.lists(st.sampled_from(["d", "ld", "sub", "up", ".", "..", "a.txt", "la", "lc",
                              "dangling", "new.txt"]), min_size=1, max_size=4).map("/".join),
)


def resolve_guard(inputs, sidecar, manifest_path, results):
    """The overwrite guard with one Path.resolve() per path, kept as an
    oracle: the refusal message, or None."""
    taken = {path.resolve(): "an input" for path in inputs}
    if sidecar is not None:
        for path in (sidecar, sidecar.with_name(INDEX_FILE)):
            taken[path.resolve()] = "the ontology index cache"
    for path in [manifest_path, *results]:
        resolved = path.resolve()
        if resolved in taken:
            return f"result file {path} would overwrite {taken[resolved]}"
        taken[resolved] = "another result file"
    return None


@settings(max_examples=150)
@given(data=st.data())
def test_overwrite_guard_refuses_what_path_resolve_says_collides(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        make_guard_layout(root)
        inputs = [root / path for path in data.draw(st.lists(_GUARD_INPUTS, max_size=3),
                                                    label="inputs")]
        sidecar_dir = data.draw(st.none() | _GUARD_DIRS, label="sidecar directory")
        sidecar = None if sidecar_dir is None else root / sidecar_dir / INDEX_SIDECAR
        out_dir = root / data.draw(_GUARD_DIRS, label="output directory")
        results = [root / path for path in data.draw(st.lists(_GUARD_RESULTS, max_size=4),
                                                     label="results")]
        index = None if sidecar is None else SimpleNamespace(
            cache_sidecar=sidecar, cache_read=data.draw(st.booleans(), label="cache read"))
        cfg = RunConfig(configparser.ConfigParser(), root)
        cfg.inputs = inputs
        expected = resolve_guard(inputs, sidecar, out_dir / "guard_manifest.json", results)
        try:
            _write_results("guard", cfg, out_dir, [(path, "x") for path in results], index)
        except ValidationError as exc:
            assert str(exc) == expected
        except OSError:  # a result path through a file, or naming a directory
            assert expected is None
        else:
            assert expected is None


@pytest.mark.parametrize("cache_file", [INDEX_FILE, INDEX_SIDECAR])
@pytest.mark.parametrize("command", [["run", "--strategy", "rag-fsi"], ["raft"]])
def test_out_naming_the_index_cache_exits_1(workspace, command, cache_file):
    root, config = workspace
    run_pipeline_through_annotate(config)
    raft_setup(root, config)
    assert invoke(command[0], "-c", config, *command[1:]).exit_code == 0
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    target = root / "out" / cache_file
    result = invoke(command[0], "-c", config, *command[1:], "--out", target)
    assert result.exit_code == 1
    assert (f"error: result file {target} would overwrite the ontology index cache"
            in result.stderr)
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def test_eval_record_mismatch_exits_1_naming_ids(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    gold_lines = (root / "gold.jsonl").read_text().splitlines()
    (root / "gold.jsonl").write_text("\n".join(gold_lines[:-1]) + "\n")  # drop tn07
    result = invoke("eval", "-c", config)
    assert result.exit_code == 1
    assert "tn07" in result.stderr


def test_eval_tables_all_emits_seven_csvs(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    result = invoke("eval", "-c", config)
    assert result.exit_code == 0
    for i in range(1, 8):
        matches = list((root / "out").glob(f"table{i}_*.csv"))
        assert len(matches) == 1, f"table{i} missing"


def test_eval_outputs_byte_identical_on_rerun(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("eval", "-c", config).exit_code == 0
    report = (root / "out" / "report.md").read_bytes()
    table1 = (root / "out" / "table1_ner_nen.csv").read_bytes()
    assert invoke("eval", "-c", config).exit_code == 0
    assert (root / "out" / "report.md").read_bytes() == report
    assert (root / "out" / "table1_ner_nen.csv").read_bytes() == table1


def test_eval_with_verdicts_prints_alignment(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("run", "-c", config, "--strategy", "zero-shot-cvc").exit_code == 0
    result = invoke("eval", "-c", config, "--verdicts", root / "out" / "verdicts.jsonl")
    assert result.exit_code == 0
    assert "BERN2 alignment" in result.output


@pytest.mark.parametrize("change, detail", [
    ({"record_id": "zz99"}, "unknown record_id 'zz99'"),
    ({"span": [0, 99]}, "span (0, 99) exceeds text of length"),
], ids=["unknown-record", "span-past-text"])
def test_eval_rejects_verdict_not_linked_to_gold(workspace, change, detail):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("run", "-c", config, "--strategy", "zero-shot-cvc").exit_code == 0
    verdicts = root / "out" / "verdicts.jsonl"
    lines = verdicts.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), **change})
    verdicts.write_text("\n".join(lines) + "\n")
    result = invoke("eval", "-c", config, "--verdicts", verdicts)
    assert result.exit_code == 1
    assert f"error: line 2: bad verdict record: {detail}" in result.stderr


@pytest.mark.parametrize("via", ["flag", "config"])
def test_eval_rejects_verdict_of_no_scored_annotation(workspace, via):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("run", "-c", config, "--strategy", "zero-shot-cvc").exit_code == 0
    assert invoke("eval", "-c", config).exit_code == 0
    manifest = (root / "out" / "eval_manifest.json").read_bytes()
    verdicts = root / "out" / "verdicts.jsonl"
    lines = verdicts.read_text().splitlines()
    changed = dict(json.loads(lines[1]), backend_concept="mesh:D999999")
    lines[1] = json.dumps(changed)
    verdicts.write_text("\n".join(lines) + "\n")
    args = ["--verdicts", verdicts]
    if via == "config":
        set_config_key(config, "eval", "verdicts", "out/verdicts.jsonl")
        args = []
    result = invoke("eval", "-c", config, *args)
    assert result.exit_code == 1
    begin, end = changed["span"]
    assert (f"error: line 2: bad verdict record: record {changed['record_id']!r} span "
            f"({begin}, {end}) mesh:D999999 is not an annotation of a scored prediction"
            in result.stderr)
    assert (root / "out" / "eval_manifest.json").read_bytes() == manifest
    # A report plan's verdict files are only checked against gold.
    (root / "plan.json").write_text(json.dumps({"zero_shot": [{"verdicts": "out/verdicts.jsonl"}]}))
    set_config_key(config, "eval", "verdicts", "nowhere.jsonl")
    result = invoke("eval", "-c", config, "--report-plan", root / "plan.json")
    assert result.exit_code == 0, result.output + repr(result.stderr)


def test_chain_keeps_unicode_line_separators_in_texts(workspace):
    # Without the whitespace step, U+2028, U+2029 and U+0085 stay in the
    # texts, and every JSONL file written with them raw must read back.
    root, config = workspace
    config.write_text(config.read_text() + "\n[preprocess]\n"
                      "steps = nfc, lowercase, expand_acronyms, normalize_punctuation\n")
    answer = "the child has asthma\u2028and eczema\u2029since\x85birth"
    record = {"record_id": "ls00", "question_text": "", "answer_text": answer,
              "field_type": "descriptive", "expects_disease": True}
    gold = {"record_id": "ls00", "text": answer, "label": [[14, 20, "mesh:D001249"]]}
    for name, obj in (("records.jsonl", record), ("gold.jsonl", gold)):
        with open(root / name, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    run_pipeline_through_annotate(config)
    assert "\u2028" in (root / "out" / "predictions.jsonl").read_text(encoding="utf-8")
    result = invoke("run", "-c", config, "--strategy", "zero-shot-cvc")
    assert result.exit_code == 0, result.output + result.stderr
    result = invoke("eval", "-c", config, "--verdicts", root / "out" / "verdicts.jsonl")
    assert result.exit_code == 0, result.output + result.stderr
    assert "mentions: tp=9 fp=3 fn=2 tn=8" in result.output


@pytest.mark.parametrize("plan, detail", [
    ([1, 2], "top level must be an object"),
    ({"zero_shot": {"verdicts": "out/verdicts.jsonl"}}, "'zero_shot' must be a list of objects"),
    ({"cot": [3]}, "'cot' must be a list of objects"),
    ({"flags": [{"model": "m"}]}, "needs a 'verdicts' path"),
    ({"embeddings": [{"embedding": "default"}]}, "needs a 'summaries' path"),
    ({"zero-shot": [{"verdicts": "out/verdicts.jsonl"}]},
     "unknown section 'zero-shot'; known sections: zero_shot, finetuned, rag_fsi, flags, cot,"
     " embeddings"),
    ({"cot": [{"verdicts": "out/verdicts.jsonl", "modle": "gpt"}]},
     "unknown key 'modle'; allowed keys: verdicts, model, prompt"),
    ({"flags": [{"verdicts": "out/verdicts.jsonl", "group": "g"}]}, "unknown key 'group'"),
    ({"embeddings": [{"summaries": "s.jsonl", "verdicts": "v.jsonl"}]},
     "unknown key 'verdicts'"),
    ({"zero_shot": [{"verdicts": "out/verdicts.jsonl", "model": 5}]}, "'model' must be a string"),
    ({"finetuned": [{"verdicts": "out/verdicts.jsonl", "group": None}]},
     "'group' must be a string"),
    ({"cot": [{"verdicts": "out/verdicts.jsonl", "prompt": ["No CoT"]}]},
     "'prompt' must be a string"),
    ({"embeddings": [{"summaries": "s.jsonl", "embedding": 1}]}, "'embedding' must be a string"),
    ({"embeddings": [{"summaries": "s.jsonl", "endpoint": False}]},
     "'endpoint' must be a string"),
    ({"embeddings": [{"summaries": "s.jsonl", "dimension": None}]},
     "'dimension' must be an integer >= 1"),
    ({"embeddings": [{"summaries": "s.jsonl", "dimension": "wide"}]},
     "'dimension' must be an integer >= 1"),
    ({"embeddings": [{"summaries": "s.jsonl", "dimension": 0}]},
     "'dimension' must be an integer >= 1"),
    ({"embeddings": [{"summaries": "s.jsonl", "dimension": True}]},
     "'dimension' must be an integer >= 1"),
    ({"embeddings": [{"summaries": "s.jsonl", "dimension": "8"}]},
     "'dimension' must be an integer >= 1"),
    ({"embeddings": [{"summaries": "s.jsonl", "dimension": 8.5}]},
     "'dimension' must be an integer >= 1"),
])
def test_eval_malformed_report_plan_exits_1(workspace, plan, detail):
    root, config = workspace
    run_pipeline_through_annotate(config)
    (root / "plan.json").write_text(json.dumps(plan))
    result = invoke("eval", "-c", config, "--report-plan", root / "plan.json")
    assert result.exit_code == 1
    assert "error: bad report plan: " in result.stderr
    assert detail in result.stderr


@pytest.mark.parametrize("option, content, code", [
    ("--report-plan", json.dumps({"zero-shot": []}), 1),
    ("--report-plan", json.dumps({"cot": [{"verdicts": "nowhere.jsonl"}]}), 2),
    ("--verdicts", "{not json\n", 1),
], ids=["unknown-plan-section", "plan-names-missing-file", "malformed-verdicts"])
def test_eval_rejected_input_keeps_earlier_manifest(workspace, option, content, code):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("eval", "-c", config).exit_code == 0
    manifest = (root / "out" / "eval_manifest.json").read_bytes()
    (root / "input.json").write_text(content)
    result = invoke("eval", "-c", config, option, root / "input.json")
    assert result.exit_code == code
    assert (root / "out" / "eval_manifest.json").read_bytes() == manifest


def test_ingest_annotate_eval_never_load_numpy(workspace):
    # Only commands that embed pay for importing numpy.
    _, config = workspace
    assert not numpy_loaded_after(
        ["ingest", "-c", config], ["annotate", "-c", config], ["eval", "-c", config]
    )


def test_manifest_written_with_config_and_checksums(workspace):
    root, config = workspace
    assert invoke("ingest", "-c", config).exit_code == 0
    manifest = json.loads((root / "out" / "ingest_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["run"]["seed"] == "7"
    assert manifest["inputs"] and manifest["outputs"]
    assert all(len(v) == 64 for v in manifest["inputs"].values())


def test_manifest_output_checksums_are_of_the_files_written(workspace):
    # Without the whitespace step, U+2028 stays in the texts; "é" and the
    # Greek letters are two UTF-8 bytes each.
    root, config = workspace
    config.write_text(config.read_text() + "\n[preprocess]\n"
                      "steps = nfc, lowercase, expand_acronyms, normalize_punctuation\n")
    answer = "the child has asthma\u2028and eczema, café ΟΔΟΣ"
    record = {"record_id": "na00", "question_text": "", "answer_text": answer,
              "field_type": "descriptive", "expects_disease": True}
    gold = {"record_id": "na00", "text": answer.replace("ΟΔΟΣ", "οδοσ"),
            "label": [[14, 20, "mesh:D001249"]]}
    for name, obj in (("records.jsonl", record), ("gold.jsonl", gold)):
        with open(root / name, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    raft_setup(root, config)
    out = root / "out"
    for command in (["ingest"], ["annotate"],
                    ["run", "--strategy", "rag-fsi", "--dump-prompts", out / "prompts.jsonl"],
                    ["raft"], ["eval", "--verdicts", out / "verdicts.jsonl"]):
        result = invoke(command[0], "-c", config, *command[1:])
        assert result.exit_code == 0, result.output + result.stderr
    assert "\u2028" in (out / "prompts.jsonl").read_text(encoding="utf-8")
    assert "café οδοσ" in (out / "predictions.jsonl").read_text(encoding="utf-8")
    checked = 0
    for manifest_path in out.glob("*_manifest.json"):
        outputs = json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]
        assert outputs, manifest_path.name
        for path, digest in outputs.items():
            assert digest == sha256_of(path), path
            checked += 1
    # ingest 1, annotate 1, run 3 (the index sidecar too), raft 1, eval 8 (the
    # report and its tables)
    assert checked == 14


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_writes_get_a_plain_creates_permissions(tmp_path, umask):
    previous = os.umask(umask)
    try:
        (tmp_path / "plain.txt").write_text("x")
        atomic_write_text(tmp_path / "atomic.txt", "x")
        atomic_write(tmp_path / "atomic.bin", lambda handle: handle.write(b"x"), "wb")
    finally:
        os.umask(previous)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["plain.txt", "atomic.txt", "atomic.bin"], 0o666 & ~umask)


def test_failed_atomic_write_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "result.txt"
    target.write_text("before")

    def fail(handle):
        handle.write("partial")
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        atomic_write(target, fail)
    assert [p.name for p in tmp_path.iterdir()] == ["result.txt"]
    assert target.read_text() == "before"


# --- raft ----------------------------------------------------------------------

def raft_setup(root, config):
    questions = [
        json.dumps({"question": f"What causes condition {i}?", "concept_id": f"mesh:D{i + 1:06d}"})
        for i in range(10)
    ]
    (root / "questions.jsonl").write_text("\n".join(questions) + "\n")
    config.write_text(config.read_text() + "\n[raft]\nquestions = questions.jsonl\n")


def test_raft_structural_and_reproducible(workspace):
    root, config = workspace
    raft_setup(root, config)
    result = invoke("raft", "-c", config, "--n-distractors", "3")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    lines = (root / "out" / "raft.jsonl").read_text().splitlines()
    assert len(lines) == 10
    for line in lines:
        obj = json.loads(line)
        assert len(obj["distractors"]) == 3
        assert obj["oracle"] not in obj["distractors"]
        assert obj["cot_answer"].splitlines()[-1].startswith("ANSWER: mesh:D")
    first = (root / "out" / "raft.jsonl").read_bytes()
    assert invoke("raft", "-c", config, "--n-distractors", "3").exit_code == 0
    assert (root / "out" / "raft.jsonl").read_bytes() == first


def test_raft_sends_embedding_timeout_from_config(workspace, monkeypatch):
    root, config = workspace
    raft_setup(root, config)
    config.write_text(config.read_text()
                      + "\n[embedding]\nendpoint = http://x/embed\ntimeout_ms = 4500\n")
    reference = HashedBagOfWordsProvider()
    timeouts = []

    def post_json(url, payload, timeout_s, token_env):
        timeouts.append(timeout_s)
        return {"vectors": [reference.embed(text).tolist() for text in payload["texts"]]}

    monkeypatch.setattr("phenotag.ontology.post_json", post_json)
    result = invoke("raft", "-c", config, "--n-distractors", "3")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    assert timeouts and set(timeouts) == {4.5}


def result_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith("_manifest.json")}


def test_results_identical_with_cold_and_warm_index_cache(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    raft_setup(root, config)
    out = root / "out"
    commands = [
        ("run", "-c", config, "--strategy", "rag-fsi", "--dump-prompts", out / "prompts.jsonl"),
        ("run", "-c", config, "--strategy", "rag-fsi-flags", "--out", out / "flags.jsonl"),
        ("raft", "-c", config, "--n-distractors", "3"),
    ]
    for command in commands:  # cold: every command builds the index
        for name in (INDEX_FILE, INDEX_SIDECAR):
            (out / name).unlink(missing_ok=True)
        assert invoke(*command).exit_code == 0
        manifest = json.loads((out / f"{command[0]}_manifest.json").read_text())
        assert str(out / INDEX_SIDECAR) in manifest["outputs"]
    cold = result_files(out)
    for command in commands:  # warm: every command reads the cached index
        assert invoke(*command).exit_code == 0
        manifest = json.loads((out / f"{command[0]}_manifest.json").read_text())
        assert str(out / INDEX_SIDECAR) in manifest["inputs"]
        assert str(out / INDEX_SIDECAR) not in manifest["outputs"]
    assert result_files(out) == cold
    assert {INDEX_FILE, INDEX_SIDECAR, "verdicts.jsonl", "raft.jsonl"} <= set(cold)


def test_remote_index_documents_are_sent_once_for_run_and_raft(workspace, monkeypatch):
    root, config = workspace
    run_pipeline_through_annotate(config)
    raft_setup(root, config)
    config.write_text(config.read_text() + "\n[embedding]\nendpoint = http://x/embed\n")
    reference = HashedBagOfWordsProvider()
    documents = []

    def post_json(url, payload, timeout_s, token_env):
        documents.extend(text for text in payload["texts"] if text.startswith("NAME: "))
        return {"vectors": [reference.embed(text).tolist() for text in payload["texts"]]}

    monkeypatch.setattr("phenotag.ontology.post_json", post_json)
    result = invoke("run", "-c", config, "--strategy", "rag-fsi")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    assert len(documents) == 50
    documents.clear()
    result = invoke("raft", "-c", config, "--n-distractors", "3")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    assert documents == []


@pytest.mark.parametrize("section, expected", [("\ntimeout_ms = 4500\n", 4.5), ("", 30.0)])
def test_report_plan_embeddings_send_timeout_from_config(workspace, monkeypatch, section,
                                                         expected):
    root, config = workspace
    run_pipeline_through_annotate(config)
    config.write_text(config.read_text() + "\n[embedding]" + section)
    summary = {"candidate": "child has asthma daily", "reference": "asthma daily report"}
    (root / "summaries.jsonl").write_text(json.dumps(summary) + "\n")
    plan = {"embeddings": [{"embedding": "remote", "endpoint": "http://x/embed",
                            "summaries": "summaries.jsonl"}]}
    (root / "plan.json").write_text(json.dumps(plan))
    reference = HashedBagOfWordsProvider()
    timeouts = []

    def post_json(url, payload, timeout_s, token_env):
        timeouts.append(timeout_s)
        return {"vectors": [reference.embed(text).tolist() for text in payload["texts"]]}

    monkeypatch.setattr("phenotag.ontology.post_json", post_json)
    result = invoke("eval", "-c", config, "--report-plan", root / "plan.json")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    assert timeouts and set(timeouts) == {expected}


def test_report_plan_bad_endpoint_stops_before_any_embedding_request(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    summary = {"candidate": "child has asthma daily", "reference": "asthma daily report"}
    (root / "summaries.jsonl").write_text(json.dumps(summary) + "\n")
    reference = HashedBagOfWordsProvider()
    answer = lambda handler, body: reply_json(  # noqa: E731
        handler, {"vectors": [reference.embed(text).tolist() for text in body["texts"]]}
    )
    with LoopbackServer(answer) as server:
        plan = {"embeddings": [
            {"embedding": "loopback", "endpoint": server.url + "/e", "summaries": "summaries.jsonl"},
            {"embedding": "bad", "endpoint": "embed.host/e", "summaries": "summaries.jsonl"},
        ]}
        (root / "plan.json").write_text(json.dumps(plan))
        result = invoke("eval", "-c", config, "--report-plan", root / "plan.json")
    assert result.exit_code == 1
    assert "endpoint must be an http or https URL with a host, got 'embed.host/e'" in result.stderr
    assert server.seen == []


@pytest.mark.parametrize("later_file, exit_code, detail", [
    (None, 2, "report plan references missing file"),
    ("{not json\n", 1, "line 1: bad summary pair"),
], ids=["missing", "malformed"])
def test_report_plan_bad_later_file_stops_before_any_embedding_request(
        workspace, later_file, exit_code, detail):
    root, config = workspace
    run_pipeline_through_annotate(config)
    summary = {"candidate": "child has asthma daily", "reference": "asthma daily report"}
    (root / "summaries.jsonl").write_text(json.dumps(summary) + "\n")
    if later_file is not None:
        (root / "later.jsonl").write_text(later_file)
    reference = HashedBagOfWordsProvider()
    answer = lambda handler, body: reply_json(  # noqa: E731
        handler, {"vectors": [reference.embed(text).tolist() for text in body["texts"]]}
    )
    with LoopbackServer(answer) as server:
        plan = {"embeddings": [
            {"embedding": "loopback", "endpoint": server.url + "/e", "summaries": "summaries.jsonl"},
            {"embedding": "default", "summaries": "later.jsonl"},
        ]}
        (root / "plan.json").write_text(json.dumps(plan))
        result = invoke("eval", "-c", config, "--report-plan", root / "plan.json")
    assert result.exit_code == exit_code
    assert detail in result.stderr
    assert server.seen == []


@pytest.mark.parametrize("question, n_distractors, detail", [
    ({"question": "What is it?", "concept_id": "mesh:D999999"}, 3,
     "gold concept mesh:D999999 not in the ontology store"),
    (None, 50, "store has 50 concepts, need at least 51"),
], ids=["unknown-gold-concept", "ontology-too-small"])
def test_raft_rejected_input_builds_no_index(workspace, question, n_distractors, detail):
    root, config = workspace
    raft_setup(root, config)
    if question is not None:
        with open(root / "questions.jsonl", "a") as handle:
            handle.write(json.dumps(question) + "\n")
    result = invoke("raft", "-c", config, "--n-distractors", n_distractors)
    assert result.exit_code == 1
    assert detail in result.stderr
    assert not (root / "out").exists()


@pytest.mark.parametrize("command", [["run", "--strategy", "rag-fsi"], ["raft"]])
def test_duplicate_ontology_concept_exits_1_naming_its_line(workspace, command):
    root, config = workspace
    run_pipeline_through_annotate(config)
    raft_setup(root, config)
    duplicate_first_line(root / "ontology.jsonl")
    result = invoke(command[0], "-c", config, *command[1:])
    assert result.exit_code == 1
    assert "line 51: bad concept: duplicate concept_id mesh:D000001" in result.stderr


def test_raft_zero_distractors_exits_1(workspace):
    root, config = workspace
    raft_setup(root, config)
    result = invoke("raft", "-c", config, "--n-distractors", "0")
    assert result.exit_code == 1
    assert "n_distractors must be >= 1" in result.stderr



# --- every command: rejected input writes nothing ---------------------------------

def duplicate_first_line(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[:1]) + "\n")


def add_llm_setting(root, setting):
    config = root / "config.ini"
    config.write_text(config.read_text().replace("[llm]\n", f"[llm]\n{setting}\n"))


def unknown_plan_section(root):
    (root / "plan.json").write_text(json.dumps({"zero-shot": []}))
    return ["--report-plan", root / "plan.json"]


# (command, its extra arguments, how to break its input -> extra arguments, exit code)
REJECTED_INPUTS = {
    "ingest": ([], lambda root: duplicate_first_line(root / "records.jsonl"), 1),
    "annotate": ([], lambda root: duplicate_first_line(root / "mock_lexicon.jsonl"), 1),
    "run": (["--strategy", "zero-shot-cvc"],
            lambda root: add_llm_setting(root, "max_inflight = 0"), 1),
    "eval": ([], unknown_plan_section, 1),
    "raft": (["--n-distractors", "3"], lambda root: ["--n-distractors", "0"], 1),
}


@pytest.mark.parametrize("command", list(REJECTED_INPUTS))
def test_rejected_input_leaves_manifest_and_results_untouched(workspace, command):
    root, config = workspace
    args, break_input, code = REJECTED_INPUTS[command]
    run_pipeline_through_annotate(config)
    raft_setup(root, config)
    result = invoke(command, "-c", config, *args)
    assert result.exit_code == 0, result.output + repr(result.stderr)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    assert f"{command}_manifest.json" in before
    extra = break_input(root) or []
    result = invoke(command, "-c", config, *args, *extra)
    assert result.exit_code == code, result.output + repr(result.stderr)
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def prediction_line(begin, end, surface):
    """Record tp00's prediction, its one annotation moved to (begin, end)."""
    annotation = {"begin": begin, "end": end, "surface": surface, "concept": "mesh:D001249"}
    return json.dumps({"record_id": "tp00", "text": "the child has asthma these days",
                       "status": "ok", "annotations": [annotation]})


# (command, its extra arguments, the input file, the bad line appended to it)
BAD_INPUT_LINES = {
    "rule-is-a-string": ("run", ["--strategy", "zero-shot-cvc"], "llm_rules.jsonl", '"AGREE"'),
    "rule-is-a-number": ("run", ["--strategy", "zero-shot-cvc"], "llm_rules.jsonl", "5"),
    "rule-invalid-regex": ("run", ["--strategy", "zero-shot-cvc"], "llm_rules.jsonl",
                           json.dumps({"regex": "(", "response": "AGREE"})),
    "lexicon-term-not-string": ("annotate", [], "mock_lexicon.jsonl",
                                json.dumps({"term": 5, "concept_id": "mesh:D000001"})),
    "lexicon-id-not-string": ("annotate", [], "mock_lexicon.jsonl",
                              json.dumps({"term": "croup", "concept_id": 5})),
    "nested-too-deep": ("annotate", [], "mock_lexicon.jsonl", "[" * 100_000 + "]" * 100_000),
    "prediction-surface-differs": ("run", ["--strategy", "zero-shot-cvc"], "out/predictions.jsonl",
                                   prediction_line(14, 20, "zzzplague")),
    "prediction-span-past-text": ("eval", [], "out/predictions.jsonl",
                                  prediction_line(54, 60, "asthma")),
    "concept-synonyms-string": ("run", ["--strategy", "zero-shot-cvc"], "ontology.jsonl",
                                json.dumps({"concept_id": "mesh:D000051", "preferred_name": "x",
                                            "synonyms": "wheezing"})),
}


@pytest.mark.parametrize("case", list(BAD_INPUT_LINES))
def test_bad_input_line_exits_1_naming_the_line(workspace, case):
    root, config = workspace
    command, args, name, bad_line = BAD_INPUT_LINES[case]
    run_pipeline_through_annotate(config)
    assert invoke(command, "-c", config, *args).exit_code == 0
    path = root / name
    lineno = len(path.read_text().splitlines()) + 1
    path.write_text(path.read_text() + bad_line + "\n")
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    result = invoke(command, "-c", config, *args)
    assert result.exit_code == 1, result.output + repr(result.exception)
    assert f"line {lineno}: bad" in result.stderr
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def edited_text(line):
    obj = json.loads(line)
    return json.dumps({**obj, "text": obj["text"] + " and more"})


# Predictions that no longer follow their upstream texts: (how the lines
# change, the bad line's number, its detail). Each line alone is well formed.
STALE_PREDICTIONS = {
    "repeated-line": (lambda lines: lines + lines[:1], 21,
                      "record 'tp00' repeats an earlier line"),
    "unknown-record": (lambda lines: lines + [lines[0].replace('"tp00"', '"zz99"')], 21,
                       "unknown record_id 'zz99'"),
    "ok-text-changed": (lambda lines: [edited_text(lines[0]), *lines[1:]], 1,
                        "record 'tp00': text differs from the upstream text"),
}


@pytest.mark.parametrize("command, args", [("run", ["--strategy", "zero-shot-cvc"]),
                                           ("eval", [])], ids=["run", "eval"])
@pytest.mark.parametrize("case", list(STALE_PREDICTIONS))
def test_stale_predictions_exit_1_naming_the_line(workspace, command, args, case):
    root, config = workspace
    change, lineno, detail = STALE_PREDICTIONS[case]
    run_pipeline_through_annotate(config)
    assert invoke(command, "-c", config, *args).exit_code == 0
    path = root / "out" / "predictions.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) == 20 and json.loads(lines[0])["record_id"] == "tp00"
    path.write_text("\n".join(change(lines)) + "\n")
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    result = invoke(command, "-c", config, *args)
    assert result.exit_code == 1, result.output + repr(result.exception)
    assert f"line {lineno}: bad prediction record: {detail}" in result.stderr
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def raising(exc):
    def call(*args, **kwargs):
        raise exc

    return call


def remote_embeddings(config, monkeypatch):
    set_config_key(config, "embedding", "endpoint", "http://embed.test/")
    reference = HashedBagOfWordsProvider()
    monkeypatch.setattr("phenotag.ontology.post_json", lambda url, payload, timeout_s, token_env: {
        "vectors": [reference.embed(text).tolist() for text in payload["texts"]]
    })


def ner_endpoint_raising_type_error(config, monkeypatch):
    config.write_text(config.read_text().replace(
        "mock_lexicon = mock_lexicon.jsonl\n", "endpoint = http://ner.test/\n"
    ))
    monkeypatch.setattr("phenotag.annotate.post_json", raising(TypeError("transport bug")))


# (command and its arguments, set up before the first run or None, the fault
# injected into the second run's computation, the second run's exit code)
FAULTS_DURING_COMPUTATION = {
    # The second run reads the index from the cache, then its first query fails.
    "embedding-query-outage": (
        ["run", "--strategy", "rag-fsi"], remote_embeddings,
        lambda config, monkeypatch: monkeypatch.setattr(
            "phenotag.ontology.post_json", raising(OSError("connection refused"))),
        3,
    ),
    "ner-transport-type-error": (["annotate"], None, ner_endpoint_raising_type_error, 1),
    "llm-interrupted": (
        ["run", "--strategy", "zero-shot-cvc"], None,
        lambda config, monkeypatch: monkeypatch.setattr(
            ScriptedLlmBackend, "complete", raising(KeyboardInterrupt())),
        1,
    ),
}


@pytest.mark.parametrize("case", list(FAULTS_DURING_COMPUTATION))
def test_fault_during_computation_leaves_every_output_as_it_was(workspace, monkeypatch, case):
    root, config = workspace
    args, prepare, inject, code = FAULTS_DURING_COMPUTATION[case]
    run_pipeline_through_annotate(config)
    if prepare is not None:
        prepare(config, monkeypatch)
    result = invoke(args[0], "-c", config, *args[1:])
    assert result.exit_code == 0, result.output + repr(result.stderr)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    assert f"{args[0]}_manifest.json" in before
    inject(config, monkeypatch)
    result = invoke(args[0], "-c", config, *args[1:])
    assert result.exit_code == code, result.output + repr(result.exception)
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def test_eval_manifest_names_every_file_it_read(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    assert invoke("run", "-c", config, "--strategy", "zero-shot-cvc").exit_code == 0
    summary = {"candidate": "child has asthma daily", "reference": "asthma daily report"}
    (root / "summaries.jsonl").write_text(json.dumps(summary) + "\n")
    plan = {
        "rag_fsi": [{"verdicts": "out/verdicts.jsonl", "summaries": "summaries.jsonl"}],
        "embeddings": [{"summaries": "summaries.jsonl"}],
    }
    (root / "plan.json").write_text(json.dumps(plan))
    (root / "empty.jsonl").write_text("")
    result = invoke("eval", "-c", config, "--verdicts", root / "empty.jsonl",
                    "--report-plan", root / "plan.json")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    manifest = json.loads((root / "out" / "eval_manifest.json").read_text())
    read = [root / "out" / "predictions.jsonl", root / "gold.jsonl", root / "empty.jsonl",
            root / "plan.json", root / "out" / "verdicts.jsonl", root / "summaries.jsonl"]
    assert {Path(p).resolve() for p in manifest["inputs"]} == {p.resolve() for p in read}
    assert len(manifest["outputs"]) == 8


def write_preprocess_and_templates(root, config):
    """Point the config at an acronym map, a spelling lexicon and a copy of
    the built-in templates; return every file they add."""
    (root / "acronyms.txt").write_text("xqz = never in the fixture\n")
    (root / "spelling.txt").write_text("asthma\n")
    templates = root / "templates"
    templates.mkdir()
    for source in (Path(phenotag.__file__).parent / "templates").glob("*.txt"):
        (templates / source.name).write_text(source.read_text())
    set_config_key(config, "preprocess", "acronym_map", "acronyms.txt")
    set_config_key(config, "preprocess", "lexicon", "spelling.txt")
    set_config_key(config, "paths", "templates", "templates")
    return [root / "acronyms.txt", root / "spelling.txt"], sorted(templates.glob("*.txt"))


@pytest.mark.parametrize("command", ["annotate", "run", "raft"])
def test_manifest_names_every_file_its_command_read(workspace, command):
    root, config = workspace
    preprocess, templates = write_preprocess_and_templates(root, config)
    run_pipeline_through_annotate(config)
    read = [root / "records.jsonl", *preprocess]
    if command == "annotate":
        read.append(root / "mock_lexicon.jsonl")
    elif command == "raft":
        raft_setup(root, config)
        result = invoke("raft", "-c", config, "--n-distractors", "3")
        assert result.exit_code == 0, result.output + repr(result.stderr)
        read = [root / "ontology.jsonl", root / "questions.jsonl", *templates]
        assert len(templates) == 11
    else:
        result = invoke("run", "-c", config, "--strategy", "few-shot", "--k", "3")
        assert result.exit_code == 0, result.output + repr(result.stderr)
        read += [root / "out" / "predictions.jsonl", root / "ontology.jsonl",
                 root / "llm_rules.jsonl", root / "examples.jsonl", *templates]
        assert len(templates) == 11
    manifest = json.loads((root / "out" / f"{command}_manifest.json").read_text())
    assert {Path(p).resolve() for p in manifest["inputs"]} == {p.resolve() for p in read}


@pytest.mark.parametrize("name, text", [
    ("answer_format", "Answer {verdict_word}."),
    ("answer_format", "Answer {}."),
    ("answer_format", "Answer AGREE {"),
    ("case_concept_vs_mention", 'Detected mention: "{mention.upper}"'),
])
def test_bad_custom_template_exits_1_at_load(workspace, name, text):
    root, config = workspace
    write_preprocess_and_templates(root, config)
    run_pipeline_through_annotate(config)
    before = {p.name: p.read_bytes() for p in (root / "out").iterdir()}
    (root / "templates" / f"{name}.txt").write_text(text + "\n")
    with pytest.raises(ValidationError, match=f"^template {name!r}"):
        TemplateRegistry(root / "templates")
    result = invoke("run", "-c", config, "--strategy", "rag-fsi")
    assert result.exit_code == 1, result.output + repr(result.exception)
    assert f"error: template {name!r}" in result.stderr
    assert {p.name: p.read_bytes() for p in (root / "out").iterdir()} == before


def test_raft_renders_the_configured_templates(workspace):
    root, config = workspace
    write_preprocess_and_templates(root, config)
    cot_answer = root / "templates" / "cot_answer.txt"
    cot_answer.write_text("CUSTOM " + cot_answer.read_text())
    raft_setup(root, config)
    result = invoke("raft", "-c", config, "--n-distractors", "3")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    lines = (root / "out" / "raft.jsonl").read_text().splitlines()
    assert lines and all(json.loads(line)["cot_answer"].startswith("CUSTOM ") for line in lines)


def test_run_manifest_records_flag_settings(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    result = invoke("run", "-c", config, "--strategy", "few-shot", "--k", "3", "--seed", "9")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    manifest = json.loads((root / "out" / "run_manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["config"]["run"]["seed"] == "9"
    assert manifest["config"]["strategy"] == {"name": "few-shot", "k": "3"}


def test_path_flag_resolves_against_working_directory(workspace, monkeypatch):
    root, config = workspace
    elsewhere = root / "elsewhere"
    elsewhere.mkdir()
    corpus = elsewhere / "records 100%.jsonl"
    corpus.write_bytes((root / "records.jsonl").read_bytes())
    monkeypatch.chdir(elsewhere)
    result = invoke("annotate", "-c", config, "--corpus", corpus.name)
    assert result.exit_code == 0, result.output + repr(result.stderr)
    manifest = json.loads((root / "out" / "annotate_manifest.json").read_text())
    assert str(corpus.resolve()) in manifest["inputs"]
    assert manifest["config"]["paths"]["corpus"] == str(corpus.resolve())


def test_missing_flag_path_exits_2_before_other_validation(workspace):
    root, config = workspace
    result = invoke("run", "-c", config, "--strategy", "mystery", "--predictions", "nowhere")
    assert result.exit_code == 2
    assert "error: no such file: nowhere" in result.stderr
    assert not (root / "out").exists()


def test_load_config_lays_flags_over_the_file(workspace):
    root, config = workspace
    cfg = load_config(config, {
        ("run", "seed"): 9,
        ("paths", "corpus"): "",
        ("ner", "endpoint"): None,
        ("llm", "endpoint"): "http://host/complete?q=100%",
        ("raft", "questions"): root / "gold.jsonl",
    })
    assert cfg.seed == 9
    assert cfg.require_path("paths", "corpus") == (root / "records.jsonl").resolve()
    assert cfg.get("ner", "endpoint") is None
    assert cfg.get("llm", "endpoint") == "http://host/complete?q=100%"
    assert cfg.snapshot()["raft"] == {"questions": str((root / "gold.jsonl").resolve())}
    with pytest.raises(FileNotFoundError, match="no such file: nowhere"):
        load_config(config, {("paths", "gold"): Path("nowhere")})


def test_report_plan_hashed_entry_honours_dimension(workspace):
    root, config = workspace
    run_pipeline_through_annotate(config)
    # "migraine" and "knee" share a bucket at dimension 64, not at 256.
    pairs = [("child has migraine daily", "knee pain daily report"), ("gout", "chronic gout")]
    (root / "summaries.jsonl").write_text(
        "".join(json.dumps({"candidate": c, "reference": r}) + "\n" for c, r in pairs)
    )
    plan = {"embeddings": [{"embedding": "h64", "dimension": 64, "summaries": "summaries.jsonl"},
                           {"embedding": "h", "summaries": "summaries.jsonl"}]}
    (root / "plan.json").write_text(json.dumps(plan))
    result = invoke("eval", "-c", config, "--report-plan", root / "plan.json")
    assert result.exit_code == 0, result.output + repr(result.stderr)
    rows = (root / "out" / "table7_embeddings.csv").read_text().splitlines()[1:]
    coherence = {row.split(",")[0]: float(row.split(",")[-1]) for row in rows}
    assert coherence == {
        "h64": mean_coherence(pairs, HashedBagOfWordsProvider(64)),
        "h": mean_coherence(pairs, HashedBagOfWordsProvider()),
    }
    assert coherence["h64"] != coherence["h"]


def test_readme_flags_are_parameters_of_their_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    checked = 0
    for block in re.findall(r"```bash\n(.*?)```", readme, re.DOTALL):
        for line in block.splitlines():
            words = line.split("#")[0].split()
            if words[:1] != ["phenotag"]:
                continue
            command = main.commands[words[1]]
            known = {opt for param in command.params for opt in param.opts}
            for word in words[2:]:
                if word.startswith("-"):
                    assert word in known, f"README: {word} is not an option of {words[1]!r}"
                    checked += 1
    assert checked


def test_readme_report_plan_table_lists_each_sections_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Section | Keys |\n|---------|------|\n")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines():
        section, keys = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        documented[section] = tuple(re.findall(r"`(\w+)`", keys))
    assert list(documented.items()) == [
        (section, keys) for section, (keys, _) in _PLAN_SECTIONS.items()
    ]


def test_readme_template_table_lists_each_templates_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Template | Fields |\n|----------|--------|\n")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines():
        name, fields = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        documented[name] = tuple(re.findall(r"`(\w+)`", fields))
    assert list(documented.items()) == list(_TEMPLATE_FIELDS.items())


def test_readme_quick_start_config_loads_as_written(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start")[1].split("```ini\n")[1].split("```")[0]
    (tmp_path / "config.ini").write_text(block, encoding="utf-8")
    cfg = load_config(tmp_path / "config.ini")
    assert cfg.get("ner", "mock_lexicon") == "mock_lexicon.jsonl"
    assert cfg.get("llm", "scripted") == "llm_rules.jsonl"


# --- seed derivation -------------------------------------------------------------

def test_derive_seed_stable_and_stage_separated():
    assert derive_seed(7, "run") == derive_seed(7, "run")
    assert derive_seed(7, "run") != derive_seed(7, "raft")
    assert derive_seed(7, "run") != derive_seed(8, "run")


def test_load_config_resolves_relative_paths(workspace):
    root, config = workspace
    cfg = load_config(config)
    assert cfg.require_path("paths", "corpus") == (root / "records.jsonl").resolve()
    assert cfg.seed == 7
