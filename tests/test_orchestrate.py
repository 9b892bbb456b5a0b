import json
import random
import re
import threading
import time
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phenotag.corpus import ConceptId, Corpus, FieldType, NormalizedAnnotation, Source, SurveyRecord, TextSpan
from phenotag.errors import BackendError, ValidationError
from phenotag.ontology import HashedBagOfWordsProvider, OntologyIndex
from phenotag.orchestrate import (
    CotVariant,
    FewShotExample,
    LlmParams,
    LlmVerdict,
    PromptContext,
    PromptSpec,
    RaftDatapoint,
    ScriptedLlmBackend,
    Strategy,
    TemplateRegistry,
    VerdictKind,
    _TEMPLATE_FIELDS,
    build_prompt,
    build_raft_dataset,
    detect_hallucination,
    flag_hallucination,
    parse_verdict,
    raft_to_jsonl,
    render_cot_answer,
    run_strategy,
    select_few_shot,
)

from conftest import make_concepts
from test_ontology import _phrases, _tied_stores


ASTHMA = ConceptId("D001249")


def make_record(record_id="r1", question="Any breathing issues?", answer="child has asthma",
                preceding=("Does your child take medication?",)):
    return SurveyRecord(record_id, question, answer, FieldType.DESCRIPTIVE, tuple(preceding))


def make_mention(record_id="r1", concept=ASTHMA, begin=10, end=16, surface="asthma"):
    return NormalizedAnnotation(record_id, TextSpan(begin, end), surface, concept, Source.NER_BACKEND)


def make_ctx(**overrides):
    defaults = dict(
        record=make_record(),
        mention=make_mention(),
        backend_concept=ASTHMA,
        backend_concept_name="asthma",
    )
    defaults.update(overrides)
    return PromptContext(**defaults)


def example_pool(n=20):
    return [
        FewShotExample(
            question=f"Question {i}?",
            mention=f"mention{i}",
            concept=f"concept{i} (mesh:D{i + 1:06d})",
            verdict="AGREE" if i % 2 == 0 else f"DISAGREE mesh:D{i + 1:06d}",
        )
        for i in range(n)
    ]


# --- build_prompt ------------------------------------------------------------

def test_zero_shot_cvc_prompt_contents():
    spec = PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT)
    prompt = build_prompt(spec, make_ctx())
    assert "Does your child take medication?" in prompt
    assert "asthma (mesh:D001249)" in prompt
    assert "Answer AGREE or DISAGREE; if DISAGREE, give the correct concept as mesh:Dxxxxxx." in prompt
    assert "Worked examples" not in prompt
    assert "Reference documents" not in prompt
    assert "step by step" not in prompt


def test_cot_simple_contains_literal_directive():
    spec = PromptSpec(Strategy.COT, cot_variant=CotVariant.SIMPLE)
    assert "Let's think step by step" in build_prompt(spec, make_ctx())


def test_cot_strong_contains_four_step_scaffold():
    spec = PromptSpec(Strategy.COT, cot_variant=CotVariant.STRONG)
    prompt = build_prompt(spec, make_ctx())
    assert "Let's think step by step" in prompt
    for step in ("1. Restate the mention", "2. Restate the definition",
                 "3. Compare the mention", "4. State your verdict"):
        assert step in prompt


def test_cot_hybrid_requires_and_renders_examples():
    spec = PromptSpec(Strategy.COT, cot_variant=CotVariant.HYBRID, k=2)
    with pytest.raises(ValidationError, match="examples"):
        build_prompt(spec, make_ctx())
    prompt = build_prompt(spec, make_ctx(examples=tuple(example_pool(2))))
    assert "Worked examples" in prompt
    assert "Let's think step by step" in prompt


def test_flags_off_collapses_to_zero_shot_bytes():
    ctx = make_ctx()
    flagged = build_prompt(
        PromptSpec(Strategy.RAG_FSI_FLAGS, use_rag=False, use_fsi=False), ctx
    )
    zero_shot = build_prompt(PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT), ctx)
    assert flagged == zero_shot


def test_flag_sections_add_and_remove_cleanly(store10):
    from phenotag.ontology import build_rag_document

    docs = tuple(build_rag_document(c) for c in store10.concepts()[:2])
    examples = tuple(example_pool(2))
    ctx = make_ctx(retrieved_docs=docs, examples=examples)
    base = build_prompt(PromptSpec(Strategy.RAG_FSI_FLAGS), ctx)
    with_rag = build_prompt(PromptSpec(Strategy.RAG_FSI_FLAGS, use_rag=True), ctx)
    with_both = build_prompt(PromptSpec(Strategy.RAG_FSI_FLAGS, use_rag=True, use_fsi=True, k=2), ctx)
    registry = TemplateRegistry()
    docs_section = registry.render("documents_section", documents="\n\n".join(d.body for d in docs))
    assert with_rag == base.replace(
        base.split("\n\n", 1)[0], base.split("\n\n", 1)[0] + "\n\n" + docs_section, 1
    )
    assert docs_section in with_both
    assert with_both.replace(docs_section + "\n\n", "", 1) == build_prompt(
        PromptSpec(Strategy.RAG_FSI_FLAGS, use_fsi=True, k=2), ctx
    )


def test_missing_docs_section_is_named_error():
    spec = PromptSpec(Strategy.RAG_FSI, k=0)
    with pytest.raises(ValidationError, match="retrieved_docs"):
        build_prompt(spec, make_ctx())


def test_prompt_deterministic():
    spec = PromptSpec(Strategy.FEW_SHOT, k=3)
    ctx = make_ctx(examples=tuple(example_pool(3)))
    assert build_prompt(spec, ctx) == build_prompt(spec, ctx)


def test_concept_vs_mention_prompt_omits_answer_text():
    spec = PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_MENTION)
    prompt = build_prompt(spec, make_ctx())
    assert "mention text" in prompt
    assert "child has asthma" not in prompt
    assert '"asthma"' in prompt


def test_template_directory_override(tmp_path):
    import shutil
    from importlib import resources

    src = resources.files("phenotag").joinpath("templates")
    for item in src.iterdir():
        shutil.copy(str(item), tmp_path / item.name)
    (tmp_path / "cot_simple.txt").write_text("Think carefully now.\n", encoding="utf-8")
    registry = TemplateRegistry(tmp_path)
    spec = PromptSpec(Strategy.COT, cot_variant=CotVariant.SIMPLE)
    assert "Think carefully now." in build_prompt(spec, make_ctx(), registry)


def test_template_directory_with_the_eleven_prompt_templates_renders(tmp_path):
    from importlib import resources

    names = [
        "task_concept_vs_concept", "task_concept_vs_mention", "documents_section",
        "examples_section", "example_item", "cot_simple", "cot_strong",
        "case_concept_vs_concept", "case_concept_vs_mention", "answer_format", "cot_answer",
    ]
    src = resources.files("phenotag").joinpath("templates")
    for name in names:
        (tmp_path / f"{name}.txt").write_text(src.joinpath(f"{name}.txt").read_text("utf-8"),
                                              encoding="utf-8")
    registry = TemplateRegistry(tmp_path)
    spec = PromptSpec(Strategy.COT, cot_variant=CotVariant.STRONG)
    assert build_prompt(spec, make_ctx(), registry) == build_prompt(spec, make_ctx())


def test_template_directory_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="task_concept_vs_concept"):
        TemplateRegistry(tmp_path)


def test_package_templates_are_the_tables_templates():
    from importlib import resources

    names = {item.name for item in (resources.files("phenotag") / "templates").iterdir()}
    assert names == {f"{name}.txt" for name in _TEMPLATE_FIELDS}


def test_spec_validation():
    with pytest.raises(ValueError, match="shot count"):
        PromptSpec(Strategy.FEW_SHOT, k=4)
    with pytest.raises(ValueError, match="retrieval_k"):
        PromptSpec(Strategy.RAG_FSI, retrieval_k=0)
    with pytest.raises(ValueError, match="use_fsi"):
        PromptSpec(Strategy.RAG_FSI_FLAGS, use_fsi=True, k=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        PromptSpec(Strategy.COT, cot_variant=CotVariant.HYBRID, k=0)


# --- select_few_shot ----------------------------------------------------------

def test_select_five_distinct_from_twenty():
    pool = example_pool(20)
    picked = select_few_shot(pool, 5, seed=13)
    assert len(picked) == 5
    assert len(set(id(e) for e in picked)) == 5
    assert len({e.question for e in picked}) == 5


def test_select_zero_gives_empty():
    assert select_few_shot(example_pool(5), 0, seed=1) == []


def test_select_deterministic():
    pool = example_pool(20)
    assert select_few_shot(pool, 5, seed=7) == select_few_shot(pool, 5, seed=7)
    assert select_few_shot(pool, 5, seed=7) != select_few_shot(pool, 5, seed=8)


def test_select_pool_too_small():
    with pytest.raises(ValidationError, match="3 entries, 5 required"):
        select_few_shot(example_pool(3), 5, seed=0)


# --- parse_verdict ------------------------------------------------------------

def test_parse_agree():
    verdict = parse_verdict("AGREE — the concept matches.")
    assert verdict.kind is VerdictKind.AGREE
    assert verdict.proposal is None


def test_parse_disagree_with_proposal():
    verdict = parse_verdict("Disagree. Correct concept: mesh:D003920.")
    assert verdict.kind is VerdictKind.DISAGREE
    assert verdict.proposal == ConceptId("D003920")
    assert verdict.raw_text.startswith("Disagree")


@pytest.mark.parametrize("digit", ["\u0663", "\u0966", "\uff19"])  # Arabic-Indic, Devanagari, fullwidth
def test_parse_disagree_proposes_only_ascii_digit_ids(digit):
    assert parse_verdict(f"DISAGREE mesh:D{digit}").proposal is None
    assert parse_verdict(f"DISAGREE mesh:D7{digit}").proposal == ConceptId("D7")


def test_parse_unparseable():
    assert parse_verdict("Possibly related to breathing.").kind is VerdictKind.UNPARSEABLE


def test_parse_stable_under_whitespace_and_case():
    for text in ("  agree  ", "AgReE!", "\n\tAGREE\n"):
        assert parse_verdict(text).kind is VerdictKind.AGREE
    for text in ("  disagree mesh:d000001 ", "DISAGREE."):
        assert parse_verdict(text).kind is VerdictKind.DISAGREE


def test_parse_standalone_token_only():
    assert parse_verdict("disagreement brewing").kind is VerdictKind.UNPARSEABLE
    assert parse_verdict("they agreed").kind is VerdictKind.UNPARSEABLE
    assert parse_verdict("I agree fully").kind is VerdictKind.AGREE


def test_parse_first_token_wins():
    assert parse_verdict("agree... no wait, disagree").kind is VerdictKind.AGREE
    assert parse_verdict("disagree, though some agree").kind is VerdictKind.DISAGREE


def test_parse_totality_fuzz():
    rng = random.Random(99)
    alphabet = "aA gG rR eE dD iI sS mesh:D0123 \t\n.!-"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        verdict = parse_verdict(text)
        assert verdict.kind in VerdictKind
        assert verdict.raw_text == text


@pytest.mark.parametrize("text", ["DISAGREE me\u017fh:D1", "disagree ME\u017fH:d1"])
def test_parse_disagree_with_a_non_ascii_prefix_letter_has_no_proposal(text):
    verdict = parse_verdict(text)  # U+017F LATIN SMALL LETTER LONG S
    assert verdict.kind is VerdictKind.DISAGREE
    assert verdict.proposal is None


# Pieces of verdicts and ids, with letters that Unicode case folding takes
# for ASCII ones ("ſ" for s, "ı" and "İ" for i, the Kelvin sign for k) and
# non-ASCII digits.
_VERDICT_PIECES = st.sampled_from([
    "disagree", "DISAGREE", "di\u017fagree", "d\u0131sagree", "D\u0130SAGREE", "agree", " ",
    "mesh:", "MESH:", "me\u017fh:", "ME\u017fH:", "mesh", ":", "D", "d", "0", "1", "42",
    "\u0661", "\u0966", "\uff19", "\u212a", "\u017f", "\u0131", "\u0130", ".", "\n",
])


def _first_ascii_mesh_id(text):
    """The first "mesh:D" (ASCII letters, any case) plus ASCII digits in
    ``text``, rendered canonically; found without a regex."""
    for i in range(len(text)):
        head = text[i : i + 6]
        if head.isascii() and head.lower() == "mesh:d":
            end = i + 6
            while end < len(text) and text[end] in "0123456789":
                end += 1
            if end > i + 6:
                return "mesh:D" + text[i + 6 : end]
    return None


@settings(max_examples=300)
@given(text=st.one_of(st.lists(_VERDICT_PIECES, max_size=12).map("".join), st.text(max_size=30)))
@example(text="DISAGREE me\u017fh:D1 mesh:D2")
@example(text="disagree ME\u017fH:d1")
def test_parse_verdict_proposals_are_canonical_ascii_mesh_ids(text):
    verdict = parse_verdict(text)
    assert verdict.raw_text == text
    proposal = None if verdict.proposal is None else verdict.proposal.render()
    if proposal is not None:
        assert proposal.isascii() and re.fullmatch(r"mesh:D[0-9]+", proposal)
    if verdict.kind is VerdictKind.DISAGREE:
        assert proposal == _first_ascii_mesh_id(text)


# --- detect_hallucination ------------------------------------------------------

def test_hallucination_known_unknown_and_agree(store10):
    known = parse_verdict("DISAGREE mesh:D000001")
    unknown = parse_verdict("DISAGREE mesh:D999999")
    agree = parse_verdict("AGREE")
    assert detect_hallucination(known, store10) is False
    assert detect_hallucination(unknown, store10) is True
    assert detect_hallucination(agree, store10) is False
    assert flag_hallucination(unknown, store10).hallucinated is True


def test_verdict_invariants():
    with pytest.raises(ValueError):
        LlmVerdict(VerdictKind.AGREE, raw_text="x", proposal=ASTHMA)
    with pytest.raises(ValueError):
        LlmVerdict(VerdictKind.DISAGREE, raw_text="x", hallucinated=True)


# --- run_strategy ---------------------------------------------------------------

def corpus_with_annotations(store, n=10):
    records = []
    annotations = []
    concepts = store.concepts()
    for i in range(n):
        name = concepts[i % len(concepts)].preferred_name
        answer = f"the patient reports {name} daily"
        records.append(
            SurveyRecord(f"r{i:03d}", f"Condition {i}?", answer, FieldType.DESCRIPTIVE)
        )
        begin = answer.index(name)
        annotations.append(
            NormalizedAnnotation(
                f"r{i:03d}",
                TextSpan(begin, begin + len(name)),
                name,
                concepts[i % len(concepts)].concept_id,
                Source.NER_BACKEND,
            )
        )
    return Corpus(records), annotations


def test_scripted_agree_run_has_zero_hallucinations(store10):
    corpus, annotations = corpus_with_annotations(store10, 10)
    llm = ScriptedLlmBackend([{"contains": "", "response": "AGREE"}])
    results = run_strategy(
        corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
        llm, store10, seed=1,
    )
    assert len(results) == 10
    assert all(v.kind is VerdictKind.AGREE for _, v in results)
    assert sum(v.hallucinated for _, v in results) == 0


def test_rag_prompts_contain_exactly_three_documents(store10):
    corpus, annotations = corpus_with_annotations(store10, 4)
    prompts = []
    llm = ScriptedLlmBackend([{"contains": "", "response": "AGREE"}])
    run_strategy(
        corpus, annotations, PromptSpec(Strategy.RAG_FSI, k=2, retrieval_k=3),
        llm, store10, provider=HashedBagOfWordsProvider(), seed=3,
        example_pool=example_pool(10),
        prompt_sink=lambda ann, p: prompts.append(p),
    )
    assert len(prompts) == 4
    for prompt in prompts:
        assert prompt.count("NAME: ") == 3
        assert "Worked examples" in prompt


def test_unknown_proposals_all_flagged(store10):
    corpus, annotations = corpus_with_annotations(store10, 6)
    llm = ScriptedLlmBackend([{"contains": "", "response": "DISAGREE mesh:D999999"}])
    results = run_strategy(
        corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
        llm, store10, seed=1,
    )
    assert all(v.hallucinated for _, v in results)


def test_llm_failure_becomes_unparseable_and_run_continues(store10):
    corpus, annotations = corpus_with_annotations(store10, 3)

    class FailsOnSecond:
        name = "flaky"

        def __init__(self):
            self.count = 0

        def complete(self, prompt, params):
            self.count += 1
            if "r001" in prompt or "Condition 1?" in prompt:
                raise BackendError("down")
            return "AGREE"

    results = run_strategy(
        corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
        FailsOnSecond(), store10, seed=1, retry_budget=1,
    )
    kinds = [v.kind for _, v in results]
    assert kinds == [VerdictKind.AGREE, VerdictKind.UNPARSEABLE, VerdictKind.AGREE]
    assert "llm error" in results[1][1].raw_text


@pytest.mark.parametrize("max_inflight", [1, 2])
def test_llm_programming_error_is_not_retried(store10, max_inflight):
    corpus, annotations = corpus_with_annotations(store10, 2)

    class Buggy:
        name = "buggy"

        def __init__(self):
            self.prompts = []

        def complete(self, prompt, params):
            self.prompts.append(prompt)
            raise TypeError("bug in backend")

    llm = Buggy()
    with pytest.raises(TypeError, match="bug in backend"):
        run_strategy(
            corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
            llm, store10, seed=1, retry_budget=2, max_inflight=max_inflight,
        )
    assert llm.prompts
    assert len(llm.prompts) == len(set(llm.prompts))


def test_scripted_rule_response_must_be_string():
    with pytest.raises(ValidationError, match="must be a string"):
        ScriptedLlmBackend([{"contains": "", "response": None}])


def test_run_strategy_order_preserved_under_concurrency(store10):
    corpus, annotations = corpus_with_annotations(store10, 10)
    llm = ScriptedLlmBackend([{"contains": "", "response": "AGREE"}])
    results = run_strategy(
        corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
        llm, store10, seed=1, max_inflight=4,
    )
    assert [a.record_id for a, _ in results] == [a.record_id for a in annotations]


class ConcurrencyProbe:
    """LLM whose calls meet at a barrier of ``width`` parties, recording the
    most calls in flight at once. Fewer than ``width`` concurrent calls
    break the barrier, which fails the run."""

    name = "probe"

    def __init__(self, width):
        self._barrier = threading.Barrier(width, timeout=10)
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0

    def complete(self, prompt, params):
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        try:
            self._barrier.wait()
        finally:
            with self._lock:
                self._active -= 1
        return "AGREE"


@pytest.mark.parametrize("max_inflight", [1, 2, 4])
def test_llm_calls_in_flight_reach_but_never_exceed_max_inflight(store10, max_inflight):
    corpus, annotations = corpus_with_annotations(store10, 8)
    probe = ConcurrencyProbe(max_inflight)
    results = run_strategy(
        corpus, annotations, PromptSpec(Strategy.RAG_FSI, k=0, retrieval_k=3),
        probe, store10, provider=HashedBagOfWordsProvider(), seed=1, max_inflight=max_inflight,
    )
    assert len(results) == 8
    assert probe.peak == max_inflight


def test_next_prompt_is_retrieved_while_llm_slots_are_busy(store10):
    corpus, annotations = corpus_with_annotations(store10, 3)
    third_retrieval = threading.Event()

    class SignallingIndex(OntologyIndex):
        def top_k(self, query_text, k):
            if query_text.endswith("Condition 2?"):
                third_retrieval.set()
            return super().top_k(query_text, k)

    class WaitsForThirdRetrieval:
        name = "waits"

        def __init__(self):
            self.saw_retrieval = []

        def complete(self, prompt, params):
            self.saw_retrieval.append(third_retrieval.wait(timeout=5))
            return "AGREE"

    llm = WaitsForThirdRetrieval()
    run_strategy(
        corpus, annotations, PromptSpec(Strategy.RAG_FSI, k=0, retrieval_k=3), llm, store10,
        index=SignallingIndex(store10, HashedBagOfWordsProvider()), seed=1, max_inflight=2,
    )
    assert llm.saw_retrieval == [True, True, True]


def test_prompt_sink_follows_annotation_order_under_concurrency(store10):
    corpus, annotations = corpus_with_annotations(store10, 40)

    def pause(key):
        time.sleep(random.Random(key).uniform(0, 0.005))

    class RandomLatencyIndex(OntologyIndex):
        def top_k(self, query_text, k):
            pause(f"{run}:{query_text}")
            return super().top_k(query_text, k)

    class RandomLatencyLlm:
        name = "random-latency"

        def complete(self, prompt, params):
            pause(f"{run}:{prompt}")
            return "AGREE"

    index = RandomLatencyIndex(store10, HashedBagOfWordsProvider())
    for run in range(5):
        sunk = []
        run_strategy(
            corpus, annotations, PromptSpec(Strategy.RAG_FSI, k=0, retrieval_k=3),
            RandomLatencyLlm(), store10, index=index, seed=1, max_inflight=4,
            prompt_sink=lambda annotation, prompt: sunk.append(annotation),
        )
        assert sunk == annotations


def test_repeated_mentions_judge_alike_under_concurrent_retrieval(store10):
    # Every record asks one question and mentions one of three concepts, so
    # retrieval queries repeat; embedding sleeps, so workers race on a query.
    concepts = store10.concepts()[:3]
    records, annotations = [], []
    for i in range(30):
        name = concepts[i % 3].preferred_name
        answer = f"the patient reports {name} daily"
        records.append(SurveyRecord(f"r{i:03d}", "Any conditions?", answer, FieldType.DESCRIPTIVE))
        begin = answer.index(name)
        annotations.append(NormalizedAnnotation(
            f"r{i:03d}", TextSpan(begin, begin + len(name)), name, concepts[i % 3].concept_id,
            Source.NER_BACKEND,
        ))

    class SlowProvider(HashedBagOfWordsProvider):
        def embed(self, text):
            time.sleep(random.uniform(0, 0.002))
            return super().embed(text)

    llm = ScriptedLlmBackend([
        {"contains": f"ID: {concepts[1].concept_id.render()}",
         "response": f"DISAGREE {concepts[2].concept_id.render()}"},
        {"contains": "", "response": "AGREE"},
    ])

    def run(max_inflight):
        prompts = []
        results = run_strategy(
            Corpus(records), annotations, PromptSpec(Strategy.RAG_FSI, k=0, retrieval_k=2),
            llm, store10, index=OntologyIndex(store10, SlowProvider()), seed=1,
            max_inflight=max_inflight, prompt_sink=lambda a, p: prompts.append(p),
        )
        return results, prompts

    serial = run(1)
    assert {verdict.kind for _, verdict in serial[0]} == {VerdictKind.AGREE, VerdictKind.DISAGREE}
    for _ in range(3):
        assert run(4) == serial


class RecordingLlm:
    """Answers AGREE to every prompt and keeps each prompt it was sent."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def complete(self, prompt, params):
        self.calls.append(prompt)
        return "AGREE"


@pytest.mark.parametrize("max_inflight", [0, -1])
def test_run_strategy_rejects_max_inflight_below_one(store10, max_inflight):
    corpus, annotations = corpus_with_annotations(store10, 2)
    llm = RecordingLlm()
    with pytest.raises(ValidationError, match="max_inflight must be >= 1"):
        run_strategy(
            corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
            llm, store10, seed=1, max_inflight=max_inflight,
        )
    assert llm.calls == []


def test_run_strategy_deterministic_with_seed(store10):
    corpus, annotations = corpus_with_annotations(store10, 5)
    spec = PromptSpec(Strategy.FEW_SHOT, k=3)
    pool = example_pool(12)

    def run():
        prompts = []
        llm = ScriptedLlmBackend([{"contains": "", "response": "AGREE"}])
        run_strategy(corpus, annotations, spec, llm, store10, seed=42,
                     example_pool=pool, prompt_sink=lambda a, p: prompts.append(p))
        return prompts

    assert run() == run()


# --- RAFT -------------------------------------------------------------------------

def raft_questions(store, n):
    concepts = store.concepts()
    return [
        (f"What condition involves {concepts[i % len(concepts)].preferred_name}?",
         concepts[i % len(concepts)].concept_id)
        for i in range(n)
    ]


def hashed_index(store):
    return OntologyIndex(store, HashedBagOfWordsProvider())


def test_raft_three_distractors_none_oracle(store10):
    points = build_raft_dataset(store10, raft_questions(store10, 10), 3,
                                index=hashed_index(store10))
    assert len(points) == 10
    for point in points:
        assert len(point.distractor_docs) == 3
        ids = {d.concept_id for d in point.distractor_docs}
        assert len(ids) == 3
        assert point.oracle_doc.concept_id not in ids


def test_raft_exhaustion_uses_all_non_oracle(store10):
    points = build_raft_dataset(store10, raft_questions(store10, 2), 9,
                                index=hashed_index(store10))
    for point in points:
        assert len(point.distractor_docs) == 9


def test_raft_deterministic(store10):
    questions = raft_questions(store10, 8)
    a = raft_to_jsonl(build_raft_dataset(store10, questions, 3, index=hashed_index(store10)))
    b = raft_to_jsonl(build_raft_dataset(store10, questions, 3, index=hashed_index(store10)))
    assert a == b


def test_raft_errors(store10):
    index = hashed_index(store10)
    with pytest.raises(ValidationError, match="n_distractors"):
        build_raft_dataset(store10, raft_questions(store10, 1), 0, index=index)
    with pytest.raises(ValidationError, match="at least 11"):
        build_raft_dataset(store10, raft_questions(store10, 1), 10, index=index)
    with pytest.raises(ValidationError, match="not in the ontology"):
        build_raft_dataset(store10, [("q?", ConceptId("D999999"))], 2, index=index)


# --- the retrieval window ---------------------------------------------------------

class FirstDocumentLlm:
    """Disagrees, proposing the first retrieved document's concept, so each
    verdict shows which ranking its prompt got."""

    name = "first-document"

    def complete(self, prompt, params):
        return "DISAGREE " + re.search(r"^ID: (\S+)$", prompt, re.MULTILINE)[1]


def serial_judgments(corpus, annotations, spec, store):
    """The verdicts and sunk prompts ``run_strategy`` gives when each query
    is ranked on its own, in annotation order, on a fresh index."""
    index = OntologyIndex(store, HashedBagOfWordsProvider())
    verdicts, prompts = [], []
    for annotation in annotations:
        record = corpus.get(annotation.record_id)
        ranked = index.top_k(f"{annotation.surface} {record.question_text}", spec.retrieval_k)
        prompt = build_prompt(spec, PromptContext(
            record, annotation, annotation.concept, store.get(annotation.concept).preferred_name,
            tuple(index.document(cid) for cid, _ in ranked),
        ))
        verdict = parse_verdict(FirstDocumentLlm().complete(prompt, LlmParams()))
        verdicts.append((annotation, flag_hallucination(verdict, store)))
        prompts.append((annotation, prompt))
    return verdicts, prompts


def serial_raft(store, questions, n_distractors):
    """The datapoints ``build_raft_dataset`` gives when each question is
    ranked on its own, in order, on a fresh index."""
    index = OntologyIndex(store, HashedBagOfWordsProvider())
    points = []
    for question, gold_id in questions:
        ranked = index.top_k(question, n_distractors + 1)
        distractors = [cid for cid, _ in ranked if cid != gold_id][:n_distractors]
        points.append(RaftDatapoint(
            question, index.document(gold_id), tuple(index.document(cid) for cid in distractors),
            render_cot_answer(store.get(gold_id), question),
        ))
    return points


@given(store=_tied_stores(), max_inflight=st.sampled_from((1, 2, 4)),
       cpus=st.sampled_from((1, 2, 4)), data=st.data())
def test_windowed_retrieval_gives_the_serial_rankings(store, max_inflight, cpus, data):
    # Mentions and questions are drawn from the tied stores' few words, so
    # queries repeat and tie exactly or within a few ulps.
    ids = [concept.concept_id for concept in store.concepts()]
    cases = data.draw(st.lists(st.tuples(_phrases, _phrases, st.sampled_from(ids)),
                               min_size=1, max_size=10), label="mentions")
    records = [SurveyRecord(f"r{i}", f"any {question}?", f"{surface} daily",
                            FieldType.DESCRIPTIVE) for i, (surface, question, _) in enumerate(cases)]
    annotations = [NormalizedAnnotation(f"r{i}", TextSpan(0, len(surface)), surface, concept,
                                        Source.NER_BACKEND)
                   for i, (surface, _, concept) in enumerate(cases)]
    spec = PromptSpec(Strategy.RAG_FSI, k=0,
                      retrieval_k=data.draw(st.integers(1, len(store) + 1), label="retrieval_k"))
    questions = [(f"{question}?", concept) for _, question, concept in cases]
    with mock.patch("phenotag.orchestrate.usable_cpus", return_value=cpus):
        sunk = []
        verdicts = run_strategy(
            Corpus(records), annotations, spec, FirstDocumentLlm(), store,
            index=OntologyIndex(store, HashedBagOfWordsProvider()), max_inflight=max_inflight,
            prompt_sink=lambda annotation, prompt: sunk.append((annotation, prompt)),
        )
        assert (verdicts, sunk) == serial_judgments(Corpus(records), annotations, spec, store)
        if len(store) >= 2:
            n_distractors = data.draw(st.integers(1, len(store) - 1), label="n_distractors")
            points = build_raft_dataset(store, questions, n_distractors,
                                        OntologyIndex(store, HashedBagOfWordsProvider()))
            assert points == serial_raft(store, questions, n_distractors)


def item_of(text):
    """The item number in a "Condition N?" question."""
    return int(re.search(r"Condition (\d+)\?", text)[1])


class FailingIndex(OntologyIndex):
    """Ranks as OntologyIndex does after a short pause, and records the item
    of each query it starts; item ``fail_at``'s query raises a bug."""

    def __init__(self, store, fail_at):
        super().__init__(store, HashedBagOfWordsProvider())
        self.fail_at = fail_at
        self.started = []
        self._lock = threading.Lock()

    def top_k(self, query_text, k):
        item = item_of(query_text)
        with self._lock:
            self.started.append(item)
        if item == self.fail_at:
            raise TypeError(f"bug in retrieval at item {item}")
        time.sleep(0.001)
        return super().top_k(query_text, k)


class FailingLlm:
    """Agrees after a pause, recording each item it is asked about; item
    ``fail_at``'s prompt raises a bug at once. The pause is long beside the
    bug, so the bug is seen before any later verdict is taken."""

    name = "failing"

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.started = []
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        item = item_of(prompt)
        with self._lock:
            self.started.append(item)
        if item == self.fail_at:
            raise TypeError(f"bug in LLM at item {item}")
        time.sleep(0.01)
        return "AGREE"


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("max_inflight", [1, 2, 4])
@pytest.mark.parametrize("retrieval_fails, llm_fails", [(6, None), (None, 6), (9, 4), (4, 9)],
                         ids=["retrieval", "llm", "llm-first", "retrieval-first"])
def test_a_bug_stops_retrieval_within_the_window(store10, cpus, max_inflight, retrieval_fails,
                                                 llm_fails):
    corpus, annotations = corpus_with_annotations(store10, 60)
    index, llm = FailingIndex(store10, retrieval_fails), FailingLlm(llm_fails)
    first = min(item for item in (retrieval_fails, llm_fails) if item is not None)
    culprit = "retrieval" if first == retrieval_fails else "LLM"
    with mock.patch("phenotag.orchestrate.usable_cpus", return_value=cpus):
        with pytest.raises(TypeError, match=f"bug in {culprit} at item {first}$"):
            run_strategy(corpus, annotations, PromptSpec(Strategy.RAG_FSI, k=0, retrieval_k=3),
                         llm, store10, index=index, max_inflight=max_inflight)
    width = max(cpus, max_inflight + 1)
    # Retrieval starts in annotation order and stops within its window.
    assert sorted(index.started) == list(range(len(index.started)))
    assert first <= max(index.started) <= first + width + max_inflight
    assert max(llm.started) <= first + max_inflight
    started = len(index.started)
    time.sleep(0.01)
    assert len(index.started) == started  # no retrieval runs on after the raise


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_a_bug_stops_raft_ranking_within_the_window(store10, cpus):
    concepts = store10.concepts()
    questions = [(f"Condition {i}?", concepts[i % 10].concept_id) for i in range(40)]
    index = FailingIndex(store10, 6)
    with mock.patch("phenotag.orchestrate.usable_cpus", return_value=cpus):
        with pytest.raises(TypeError, match="bug in retrieval at item 6$"):
            build_raft_dataset(store10, questions, 3, index)
    assert sorted(index.started) == list(range(len(index.started)))
    assert 6 <= max(index.started) <= 6 + cpus


def test_render_cot_answer_shape(store10):
    concept = store10.concepts()[0]
    answer = render_cot_answer(concept, "What ails the patient?")
    assert answer.splitlines()[-1] == f"ANSWER: {concept.concept_id.render()}"
    assert concept.preferred_name in answer
    other = render_cot_answer(store10.concepts()[1], "What ails the patient?")
    assert answer != other


def test_scripted_backend_from_file(tmp_path):
    import json as _json

    path = tmp_path / "rules.jsonl"
    path.write_text(
        _json.dumps({"contains": "asthma", "response": "AGREE"})
        + "\n"
        + _json.dumps({"contains": "", "response": "DISAGREE mesh:D000001"})
        + "\n",
        encoding="utf-8",
    )
    backend = ScriptedLlmBackend.from_file(path)
    assert backend.complete("about asthma", LlmParams()) == "AGREE"
    assert backend.complete("about eczema", LlmParams()).startswith("DISAGREE")


def test_scripted_regex_dot_matches_a_newline_and_a_needle_is_literal():
    backend = ScriptedLlmBackend([{"contains": "a.b", "response": "literal"},
                                  {"regex": "a.b", "response": "regex"}])
    assert backend.complete("xa.by", LlmParams()) == "literal"
    assert backend.complete("xa\nby", LlmParams()) == "regex"


# Needles, patterns and prompts drawn from regex metacharacters and a few
# plain characters, so a "contains" needle is often not a valid regex and a
# prompt often holds one.
_RULE_TEXT = st.text(alphabet=".*(\\$|)[]+?^abA \n", max_size=4)


def _compiles(pattern: str) -> bool:
    """Whether ``pattern`` compiles without a warning (such as a "[[" that a
    later Python may read as a nested set)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            re.compile(pattern)
        except (re.error, FutureWarning):
            return False
    return True


_SCRIPTED_RULE = st.one_of(
    st.builds(lambda needle: {"contains": needle}, _RULE_TEXT),
    st.builds(lambda pattern: {"regex": pattern}, _RULE_TEXT.filter(_compiles)),
)


def first_rule_response(rules: list[dict], prompt: str) -> str | None:
    """The oracle: the response of the first rule whose needle is a
    substring of the prompt or whose regex searches it."""
    for rule in rules:
        if ("regex" in rule and re.search(rule["regex"], prompt, re.DOTALL)
                or "contains" in rule and rule["contains"] in prompt):
            return rule["response"]
    return None


@given(data=st.data())
def test_scripted_backend_answers_with_the_first_matching_rule(tmp_path_factory, data):
    drawn = data.draw(st.lists(_SCRIPTED_RULE, max_size=5), label="rules")
    rules = [{**rule, "response": f"response {i}"} for i, rule in enumerate(drawn)]
    # A prompt made of plain text and the rules' own needles and patterns,
    # each also with its dots as newlines (a regex dot matches one) and with
    # its case swapped (no rule ignores case).
    pieces = [piece for rule in drawn for text in rule.values()
              for piece in (text, text.replace(".", "\n"), text.swapcase())]
    prompt = "".join(data.draw(st.lists(
        _RULE_TEXT | st.sampled_from(pieces) if pieces else _RULE_TEXT, max_size=4
    ), label="prompt pieces"))
    path = tmp_path_factory.mktemp("rules") / "rules.jsonl"
    path.write_text("".join(json.dumps(rule) + "\n" for rule in rules), encoding="utf-8")
    expected = first_rule_response(rules, prompt)
    for backend in (ScriptedLlmBackend(rules), ScriptedLlmBackend.from_file(path)):
        if expected is None:
            with pytest.raises(BackendError, match="no rule matched the prompt"):
                backend.complete(prompt, LlmParams())
        else:
            assert backend.complete(prompt, LlmParams()) == expected


def test_http_llm_backend_wire():
    from phenotag.orchestrate import HttpLlmBackend

    calls = []

    def transport(url, payload, timeout):
        calls.append((url, payload))
        return {"text": "AGREE"}

    backend = HttpLlmBackend("http://llm.local/complete", transport=transport)
    out = backend.complete("judge this", LlmParams(max_tokens=64, temperature=0.0))
    assert out == "AGREE"
    assert calls == [
        ("http://llm.local/complete",
         {"prompt": "judge this", "max_tokens": 64, "temperature": 0.0}),
    ]


@pytest.mark.parametrize("max_inflight", [1, 2])
def test_http_llm_transport_programming_error_is_not_retried(store10, max_inflight):
    from phenotag.orchestrate import HttpLlmBackend

    corpus, annotations = corpus_with_annotations(store10, 1)
    calls = []

    def transport(url, payload, timeout):
        calls.append(payload)
        raise TypeError("bug in transport")

    with pytest.raises(TypeError, match="bug in transport"):
        run_strategy(
            corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
            HttpLlmBackend("http://llm.local/complete", transport=transport), store10,
            seed=1, retry_budget=2, max_inflight=max_inflight,
        )
    assert len(calls) == 1


@pytest.mark.parametrize("fault, detail", [
    (ConnectionError("refused"), "refused"),
    (TimeoutError("slow"), "slow"),
    ({"txt": "AGREE"}, "'text'"),
    (["AGREE"], "list indices"),
    ({"text": ["AGREE"]}, "text must be a string, got ['AGREE']"),
    ({"text": None}, "text must be a string, got None"),
    ({"text": 7}, "text must be a string, got 7"),
])
def test_http_llm_transport_faults_are_retried(store10, fault, detail):
    from phenotag.orchestrate import HttpLlmBackend

    corpus, annotations = corpus_with_annotations(store10, 1)
    calls = []

    def transport(url, payload, timeout):
        calls.append(payload)
        if isinstance(fault, Exception):
            raise fault
        return fault

    ((_, verdict),) = run_strategy(
        corpus, annotations, PromptSpec(Strategy.ZERO_SHOT_CONCEPT_VS_CONCEPT),
        HttpLlmBackend("http://llm.local/complete", name="remote", transport=transport),
        store10, seed=1, retry_budget=2,
    )
    assert len(calls) == 3
    assert verdict.kind is VerdictKind.UNPARSEABLE
    assert verdict.raw_text.startswith("<llm error: LLM backend 'remote' failed: ")
    assert detail in verdict.raw_text
