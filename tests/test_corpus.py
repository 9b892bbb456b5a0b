import difflib
import json
import re
import sys
import unicodedata
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phenotag import annotate, cli, ontology
from phenotag.annotate import AnnotationOutcome, read_outcomes, write_outcomes
from phenotag.corpus import (
    _DECODER,
    AnnotationSet,
    ConceptId,
    FieldType,
    NONE_CONCEPT,
    NormalizedAnnotation,
    PreprocessConfig,
    Source,
    TextSpan,
    export_doccano,
    import_doccano,
    ingest_records,
    jsonl_lines,
    load_acronym_map,
    load_lexicon,
    load_records,
    normalize_text,
    read_jsonl,
)
from phenotag.errors import ValidationError
from phenotag.evaluate import read_verdicts
from phenotag.ontology import load_ontology
from phenotag.orchestrate import LlmParams, ScriptedLlmBackend, load_example_pool

from conftest import write_e2e_workspace


def record_line(record_id, field_type="binary", question="Any asthma?", answer="yes",
                preceding=(), expects=None):
    obj = {
        "record_id": record_id,
        "question_text": question,
        "answer_text": answer,
        "field_type": field_type,
        "preceding_questions": list(preceding),
    }
    if expects is not None:
        obj["expects_disease"] = expects
    return json.dumps(obj)


# --- ingest_records ---------------------------------------------------------

def test_ingest_single_binary_record():
    corpus = ingest_records([record_line("r1", field_type="binary")])
    assert len(corpus) == 1
    assert corpus.get("r1").field_type is FieldType.BINARY


def test_ingest_duplicate_id_names_offender():
    lines = [record_line("r1"), record_line("r1")]
    with pytest.raises(ValidationError, match="'r1'"):
        ingest_records(lines)


def test_ingest_unknown_field_type_names_line():
    lines = [record_line("r1"), record_line("r2", field_type="matrix")]
    with pytest.raises(ValidationError, match="line 2.*matrix"):
        ingest_records(lines)


def test_ingest_malformed_line_names_line():
    with pytest.raises(ValidationError, match="line 1"):
        ingest_records(["{not json"])


def test_ingest_expects_disease_defaults_false_and_keyword_derivation():
    corpus = ingest_records(
        [record_line("r1", question="Any wheeze or illness?"), record_line("r2", question="Postcode?")],
        expects_keywords=["illness"],
    )
    assert corpus.get("r1").expects_disease is True
    assert corpus.get("r2").expects_disease is False


def test_ingest_explicit_flag_wins_over_keywords():
    corpus = ingest_records(
        [record_line("r1", question="Any illness?", expects=False)],
        expects_keywords=["illness"],
    )
    assert corpus.get("r1").expects_disease is False


@pytest.mark.parametrize("keywords", [(), ("illness",)])
@pytest.mark.parametrize("value", [None, 5])
@pytest.mark.parametrize("field", ["question_text", "answer_text"])
def test_ingest_rejects_non_string_text(field, value, keywords):
    obj = json.loads(record_line("r1", question="Any illness?"))
    obj[field] = value
    with pytest.raises(ValidationError, match=f"line 1: bad record: {field} must be a string"):
        ingest_records([json.dumps(obj)], expects_keywords=keywords)


# --- normalize_text ---------------------------------------------------------

def test_lowercase_only_is_identity_mapped():
    assert normalize_text("ASTHMA?", PreprocessConfig.only("lowercase")) == "asthma?"


def test_acronym_expansion_offsets_hand_traced():
    config = PreprocessConfig.only(
        "lowercase", "expand_acronyms", acronyms={"dx": "diagnosis"}
    )
    assert normalize_text("dx of RSV", config) == "diagnosis of rsv"


def test_empty_input():
    assert normalize_text("", PreprocessConfig()) == ""


def test_nfc_composes_combining_marks():
    decomposed = "résume"  # e + combining acute
    assert normalize_text(decomposed, PreprocessConfig.only("nfc")) == "résume"


def test_punctuation_normalization():
    result = normalize_text(
        "“flu” — maybe…", PreprocessConfig.only("normalize_punctuation")
    )
    assert result == '"flu" - maybe...'


def test_whitespace_collapse_and_trim():
    assert normalize_text("  a\t\tb ", PreprocessConfig.only("collapse_whitespace")) == "a b"


def test_spelling_correction_distance_one_lexicon_order():
    config = PreprocessConfig.only(
        "correct_spelling", lexicon=("asthma", "eczema", "astma")
    )
    # "asthm" is distance 1 from both "asthma" and "astma"; lexicon order wins.
    assert normalize_text("asthm", config) == "asthma"
    # Known words and non-alpha tokens are untouched.
    assert normalize_text("eczema 12q", config) == "eczema 12q"


def test_spelling_correction_off_by_default():
    assert "asthm" in normalize_text("asthm", PreprocessConfig(lexicon=("asthma",)))


def test_full_pipeline_acronym_then_collapse():
    config = PreprocessConfig(acronyms={"rsv": "respiratory syncytial virus"})
    result = normalize_text("  Had  RSV twice.", config)
    assert result == "had respiratory syncytial virus twice."


@pytest.mark.parametrize("acronyms, raw, expected", [
    # Under IGNORECASE the key "ſ" (long s) matches "s", and "ı" (dotless i)
    # matches "i"; neither match lowercases back to its key.
    ({"ſ": "long s"}, "Mum's", "mum'long s"),
    ({"ı": "dotless i"}, "I think", "dotless i think"),
    # A key given in upper case through the config, not the map file.
    ({"RSV": "respiratory syncytial virus"}, "Had RSV", "had respiratory syncytial virus"),
])
def test_acronym_expansion_of_a_key_that_is_not_the_match_lowercased(acronyms, raw, expected):
    assert normalize_text(raw, PreprocessConfig(acronyms=acronyms)) == expected


def test_acronym_pattern_is_built_once_per_config():
    config = PreprocessConfig(acronyms={f"a{i}": f"expansion {i}" for i in range(40)})
    with mock.patch.object(re, "compile", wraps=re.compile) as compiled:
        texts = [normalize_text(f"A{i} and a{i + 1}?", config) for i in range(40)]
    assert compiled.call_count == 1
    assert texts[:2] == ["expansion 0 and expansion 1?", "expansion 1 and expansion 2?"]
    assert texts[-1] == "expansion 39 and a40?"  # a40 is past the map's last key


# The normalization of the parent implementation, which spliced per-step
# edit lists (and carried raw offsets through them, dropped here because the
# text never depended on them). normalize_text must return the same text.

_SEED_PUNCT_REPLACEMENTS = {
    "‘": "'", "’": "'", "‚": "'", "‛": "'", "“": '"', "”": '"', "„": '"',
    "–": "-", "—": "-", "−": "-", "…": "...",
    "\u200b": "", "\u200c": "", "\u200d": "", "\ufeff": "",
}


def _seed_apply_edits(text, edits):
    pieces, pos = [], 0
    for start, end, replacement in edits:
        pieces.append(text[pos:start])
        pieces.append(replacement)
        pos = end
    pieces.append(text[pos:])
    return "".join(pieces)


def _seed_nfc_edits(text):
    composed = unicodedata.normalize("NFC", text)
    if composed == text:
        return []
    matcher = difflib.SequenceMatcher(a=text, b=composed, autojunk=False)
    return [
        (i1, i2, composed[j1:j2])
        for tag, i1, i2, j1, j2 in matcher.get_opcodes()
        if tag != "equal"
    ]


def _seed_lowercase_edits(text):
    return [(i, i + 1, c.lower()) for i, c in enumerate(text) if c.lower() != c]


def _seed_acronym_edits(text, acronyms):
    if not acronyms:
        return []
    keys = sorted(acronyms, key=lambda k: (-len(k), k))
    pattern = re.compile(
        r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b", re.IGNORECASE
    )
    return [
        (m.start(), m.end(), acronyms[m.group(0).lower()]) for m in pattern.finditer(text)
    ]


def _seed_punctuation_edits(text):
    return [
        (i, i + 1, _SEED_PUNCT_REPLACEMENTS[c])
        for i, c in enumerate(text)
        if c in _SEED_PUNCT_REPLACEMENTS
    ]


def _seed_within_distance_one(a, b):
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    short, long = (a, b) if la < lb else (b, a)
    i = 0
    while i < len(short) and short[i] == long[i]:
        i += 1
    return short[i:] == long[i + 1 :]


def _seed_spelling_edits(text, lexicon):
    if not lexicon:
        return []
    known = set(lexicon)
    edits = []
    for m in re.finditer(r"\w+", text):
        token = m.group(0)
        if not token.isalpha() or token.lower() in known:
            continue
        for word in lexicon:
            if _seed_within_distance_one(token.lower(), word):
                edits.append((m.start(), m.end(), word))
                break
    return edits


def _seed_whitespace_edits(text):
    edits = []
    for m in re.finditer(r"\s+", text):
        start, end = m.span()
        at_edge = start == 0 or end == len(text)
        if at_edge or m.group(0) != " ":
            edits.append((start, end, "" if at_edge else " "))
    return edits


def seed_normalize(raw, config):
    text = raw
    steps = (
        (config.nfc, _seed_nfc_edits),
        (config.lowercase, _seed_lowercase_edits),
        (config.expand_acronyms, lambda t: _seed_acronym_edits(t, config.acronyms)),
        (config.normalize_punctuation, _seed_punctuation_edits),
        (config.correct_spelling, lambda t: _seed_spelling_edits(t, config.lexicon)),
        (config.collapse_whitespace, _seed_whitespace_edits),
    )
    for enabled, make_edits in steps:
        if enabled:
            text = _seed_apply_edits(text, make_edits(text))
    return text


_STEPS = (
    "nfc", "lowercase", "expand_acronyms", "normalize_punctuation",
    "correct_spelling", "collapse_whitespace",
)
_STEP_SUBSETS = [
    tuple(step for bit, step in enumerate(_STEPS) if mask >> bit & 1)
    for mask in range(2 ** len(_STEPS))
]
_ACRONYMS = {
    "rsv": "respiratory syncytial virus", "dx": "diagnosis", "b.i.d": "twice daily",
    "b.i.d.": "twice a day", "t.i.d": "", "copd": "chronic obstructive pulmonary disease",
}
_LEXICON = ("asthma", "astma", "eczema", "migraine", "flu")
_CHARS = (
    list("aAbBeEiIsSkKxX019_.'-,? \t\n")
    + ["Σ", "σ", "ς", "İ", "ı", "ſ", "K", "ß", "é", "\u0301", "\u0308", "\u0327"]
    + list(_SEED_PUNCT_REPLACEMENTS)
    + ["\u00a0", "\u2028", "\u2029", "\x1c", "\x1f", "\u3000", "\x85"]
)
_FRAGMENTS = (
    list(_ACRONYMS) + [k.upper() for k in _ACRONYMS] + ["Rsv", "B.I.D.", "rſv", "dX"]
    # lexicon words and words at edit distance 1 from them
    + list(_LEXICON) + ["asthm", "asthmaa", "ashma", "ASTHMx", "ecezma", "eczma", "fl", "flux"]
    + ["asthm4", "fl_"]  # distance 1, but not alphabetic
    + ["ΟΔΟΣ", "ΣΑΣ"]  # a word-final capital sigma
)
_raw_texts = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_CHARS), st.sampled_from(_FRAGMENTS)),
        st.sampled_from(["", "", " ", "  ", "\t", "."]),
    ),
    max_size=16,
).map(lambda pieces: "".join(piece + sep for piece, sep in pieces))


@settings(max_examples=500)
@given(
    raw=_raw_texts,
    acronym_keys=st.sets(st.sampled_from(sorted(_ACRONYMS))),
    # Whole permutations keep "asthma" and "astma" together, so the
    # lexicon-order tie for "asthm" comes up in both orders.
    lexicon=st.one_of(
        st.permutations(_LEXICON),
        st.lists(st.sampled_from(_LEXICON), unique=True, max_size=4),
    ).map(tuple),
)
def test_normalize_text_matches_seed_for_every_step_subset(raw, acronym_keys, lexicon):
    acronyms = {k: _ACRONYMS[k] for k in acronym_keys}
    configs = [PreprocessConfig(acronyms=acronyms, lexicon=lexicon)] + [
        PreprocessConfig.only(*steps, acronyms=acronyms, lexicon=lexicon)
        for steps in _STEP_SUBSETS
    ]
    for config in configs:
        try:
            expected = seed_normalize(raw, config)
        except KeyError:
            # The seed crashed on an acronym match that is not its key
            # lowercased ("rſv"); the expansion is then checked by example.
            assert isinstance(normalize_text(raw, config), str)
            continue
        assert normalize_text(raw, config) == expected, config


@given(text=st.one_of(
    st.lists(st.sampled_from(
        ["ΟΔΟΣ", "ΣΑΣ", "Σ", "ΑΣ.", "ΟΔΟΣ'", "ΑΣ\u0301", "σ", "ς", "İ", "ſ", "ß", "x", " ", "\n"]
    ), max_size=8).map("".join),
    st.text(),
))
def test_lowercase_step_matches_a_per_character_lowercase(text):
    assert (normalize_text(text, PreprocessConfig.only("lowercase"))
            == "".join(c.lower() for c in text))


# --- acronym map and spelling lexicon files ---------------------------------

@pytest.mark.parametrize("separator", ["\x85", "\u2028"])
def test_acronym_expansion_and_lexicon_word_may_hold_a_unicode_line_separator(
    tmp_path, separator
):
    acronyms = tmp_path / "acronyms.txt"
    acronyms.write_text(f"rsv = respiratory{separator}syncytial virus", encoding="utf-8")
    assert load_acronym_map(acronyms) == {"rsv": f"respiratory{separator}syncytial virus"}
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(f"asthma\nrespiratory{separator}syncytial\n", encoding="utf-8")
    assert load_lexicon(lexicon) == ("asthma", f"respiratory{separator}syncytial")


def test_acronym_map_bad_line_number_counts_only_newlines(tmp_path):
    path = tmp_path / "acronyms.txt"
    path.write_text("dx = diagnosis\u2028 rsv = virus\r\nno equals sign\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^line 2: expected 'acronym = expansion'$"):
        load_acronym_map(path)


def test_acronym_map_bare_carriage_return_does_not_end_a_line(tmp_path):
    path = tmp_path / "acronyms.txt"
    path.write_bytes(b"bid = twice daily\rqid = four times daily\n")
    assert load_acronym_map(path) == {"bid": "twice daily\rqid = four times daily"}


# --- Doccano import/export --------------------------------------------------

def test_import_single_annotation_hand_counted():
    line = json.dumps({"record_id": "r1", "text": "has asthma", "label": [[4, 10, "mesh:D001249"]]})
    annotations, texts = import_doccano([line])
    (ann,) = annotations.for_record("r1")
    assert ann.surface == "asthma"
    assert ann.concept == ConceptId("D001249")
    assert ann.source is Source.HUMAN
    assert texts["r1"] == "has asthma"


def test_import_negative_record_keeps_empty_entry():
    line = json.dumps({"record_id": "r9", "text": "no issues", "label": []})
    annotations, texts = import_doccano([line])
    assert annotations.for_record("r9") == ()
    assert "r9" in texts


def test_import_out_of_bounds_span_names_line():
    line = json.dumps({"record_id": "r1", "text": "0123456789", "label": [[4, 20, "NONE"]]})
    with pytest.raises(ValidationError, match="line 1.*out of bounds"):
        import_doccano([line])


def test_import_bad_label_string_rejected():
    line = json.dumps({"record_id": "r1", "text": "has asthma", "label": [[4, 10, "icd:J45"]]})
    with pytest.raises(ValidationError, match="line 1"):
        import_doccano([line])


def test_import_synthesizes_record_ids():
    line = json.dumps({"text": "has asthma", "label": [[4, 10, "NONE"]]})
    annotations, texts = import_doccano([line])
    assert list(texts) == ["line-000001"]
    assert len(annotations) == 1


def test_import_rejects_duplicate_human_spans():
    line = json.dumps(
        {"record_id": "r1", "text": "has asthma", "label": [[4, 10, "NONE"], [4, 10, "mesh:D001249"]]}
    )
    with pytest.raises(ValidationError, match="duplicate"):
        import_doccano([line])


def test_import_synthesized_ids_count_blank_lines():
    line = json.dumps({"text": "has asthma", "label": []})
    _, texts = import_doccano(["", line])
    assert list(texts) == ["line-000002"]


def three_record_fixture():
    texts = {
        "r1": "child has asthma and eczema",
        "r2": "no conditions reported",
        "r3": "recurrent ear infections",
    }
    annotations = AnnotationSet(
        [
            NormalizedAnnotation("r1", TextSpan(10, 16), "asthma", ConceptId("D001249"), Source.HUMAN),
            NormalizedAnnotation("r1", TextSpan(21, 27), "eczema", ConceptId("D004485"), Source.HUMAN),
            NormalizedAnnotation("r3", TextSpan(10, 24), "ear infections", NONE_CONCEPT, Source.HUMAN),
        ]
    )
    return annotations, texts


def test_export_import_round_trip():
    annotations, texts = three_record_fixture()
    lines = export_doccano(annotations, texts)
    reimported, retexts = import_doccano(lines)
    assert reimported == annotations
    assert retexts == texts
    assert export_doccano(reimported, retexts) == lines


def test_export_zero_annotation_record_emits_empty_label():
    annotations, texts = three_record_fixture()
    r2_line = next(l for l in export_doccano(annotations, texts) if '"r2"' in l)
    assert json.loads(r2_line)["label"] == []


def test_export_unknown_record_is_error():
    annotations, _ = three_record_fixture()
    with pytest.raises(ValidationError, match="'r3'"):
        export_doccano(annotations, {"r1": "child has asthma and eczema", "r2": "x"})


# --- invariants -------------------------------------------------------------

def test_surface_always_matches_span_substring():
    annotations, texts = three_record_fixture()
    for ann in annotations:
        ann.check_against(texts[ann.record_id])


def test_annotation_set_sorted_by_span():
    anns = [
        NormalizedAnnotation("r", TextSpan(5, 9), "xxxx", NONE_CONCEPT, Source.NER_BACKEND),
        NormalizedAnnotation("r", TextSpan(1, 3), "xx", NONE_CONCEPT, Source.NER_BACKEND),
        NormalizedAnnotation("r", TextSpan(1, 2), "x", NONE_CONCEPT, Source.NER_BACKEND),
    ]
    ordered = AnnotationSet(anns).for_record("r")
    assert [(a.span.begin, a.span.end) for a in ordered] == [(1, 2), (1, 3), (5, 9)]


def test_model_sets_may_overlap_human_sets_may_not():
    dup = [
        NormalizedAnnotation("r", TextSpan(1, 3), "xx", NONE_CONCEPT, Source.NER_BACKEND),
        NormalizedAnnotation("r", TextSpan(1, 3), "xx", ConceptId("D1"), Source.NER_BACKEND),
    ]
    assert len(AnnotationSet(dup).for_record("r")) == 2
    human_dup = [
        NormalizedAnnotation("r", TextSpan(1, 3), "xx", NONE_CONCEPT, Source.HUMAN),
        NormalizedAnnotation("r", TextSpan(1, 3), "xx", ConceptId("D1"), Source.HUMAN),
    ]
    with pytest.raises(ValidationError):
        AnnotationSet(human_dup)


def test_concept_id_parsing_and_rendering():
    assert ConceptId.parse("mesh:D001249").render() == "mesh:D001249"
    assert ConceptId.parse("MESH:d003920") == ConceptId("D003920")
    assert ConceptId.parse("NONE").is_none
    with pytest.raises(ValueError):
        ConceptId.parse("D001249")
    with pytest.raises(ValueError):
        ConceptId("X12")


@given(
    prefix=st.sampled_from(["mesh:", "MESH:", "MeSh:"]),
    d=st.sampled_from("dD"),
    digits=st.text(alphabet="0123456789", min_size=1, max_size=8),
    pad=st.tuples(st.sampled_from(["", " ", "\t", "\u2028"]), st.sampled_from(["", " ", "\n"])),
)
def test_concept_id_parse_equals_constructed_id(prefix, d, digits, pad):
    parsed = ConceptId.parse(pad[0] + prefix + d + digits + pad[1])
    constructed = ConceptId("D" + digits)
    assert type(parsed) is ConceptId
    assert parsed == constructed
    assert hash(parsed) == hash(constructed)
    assert parsed.render() == "mesh:D" + digits


@pytest.mark.parametrize("digit", ["\u0663", "\u0966", "\uff19"])  # Arabic-Indic, Devanagari, fullwidth
def test_concept_id_rejects_non_ascii_digits(digit):
    with pytest.raises(ValueError, match="cannot parse concept id"):
        ConceptId.parse(f"mesh:D1{digit}")
    with pytest.raises(ValueError, match="malformed MeSH identifier"):
        ConceptId(f"D{digit}")


@pytest.mark.parametrize("text", ["me\u017fh:D1", "ME\u017fH:d1"])  # U+017F LATIN SMALL LETTER LONG S
def test_concept_id_rejects_a_non_ascii_letter_in_its_prefix(text):
    # Unicode case folding takes "ſ" for "s"; the grammar folds ASCII only.
    for read in (ConceptId.parse, ConceptId.canonical):
        with pytest.raises(ValueError, match="cannot parse concept id"):
            read(text)


@pytest.mark.parametrize("value", [5, None, ["mesh:D1"]])
def test_concept_id_parse_rejects_non_string_with_type_error(value):
    # A TypeError is what the JSONL readers turn into "line N: bad ..." (exit 1).
    with pytest.raises(TypeError, match="must be a string"):
        ConceptId.parse(value)


def _outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return "returned", call()
    except Exception as exc:
        return type(exc), str(exc)


# Canonical ids, their case and whitespace variants (and "ſ", which only
# Unicode case folding takes for "s"), missing or non-ASCII digits, NONE in
# any case, any text and values that are not strings.
_CONCEPT_ID_INPUTS = st.one_of(
    st.builds(
        lambda lead, prefix, d, digits, trail: lead + prefix + d + digits + trail,
        st.sampled_from(["", "", " ", "\t", "\u2028"]),
        st.sampled_from(["mesh:", "MESH:", "MeSh:", "me\u017fh:", "mesh", ""]),
        st.sampled_from(["D", "d", ""]),
        st.one_of(st.text(alphabet="0123456789", min_size=1, max_size=6),
                  st.text(alphabet="0123456789\u0661\uff19x", max_size=6)),
        st.sampled_from(["", "", " ", "\n"]),
    ),
    st.sampled_from(["NONE", "none", " None\n", "NONE1", "mesh:NONE"]),
    st.text(max_size=12),
    st.one_of(st.none(), st.integers(), st.floats(), st.binary(max_size=8),
              st.lists(st.text(max_size=3), max_size=2)),
)


@settings(max_examples=500)
@given(text=_CONCEPT_ID_INPUTS)
@example(text="mesh:D001249")
@example(text="MESH:d001249")
@example(text=" mesh:D001249 ")
@example(text="none")
@example(text="mesh:D")
@example(text="mesh:D\u0661")
@example(text=b"mesh:D001249")
@example(text=None)
def test_concept_id_canonical_equals_parse_then_render(text):
    assert _outcome(lambda: ConceptId.canonical(text)) == _outcome(
        lambda: ConceptId.parse(text).render()
    )
    if isinstance(text, str) and re.fullmatch(r"mesh:D[0-9]+", text):
        assert ConceptId.canonical(text) is text


_CANONICAL_IDS = st.integers(0, 10**7).map(lambda n: f"mesh:D{n:06d}")


@given(texts=st.lists(st.one_of(
    _CONCEPT_ID_INPUTS, _CANONICAL_IDS,
    st.lists(_CANONICAL_IDS, min_size=2, max_size=3).map("\n".join),
    _CANONICAL_IDS.map(lambda text: text + "\n"),
), max_size=4))
@example(texts=[])
@example(texts=["mesh:D1\nmesh:D2"])
@example(texts=["mesh:D1\nmesh:D2", "mesh:D3"])
@example(texts=["mesh:D1\n", "mesh:D2"])
@example(texts=["mesh:D1", ""])
def test_all_canonical_checks_each_id_of_the_column(texts):
    expected = all(isinstance(text, str) and re.fullmatch(r"mesh:D[0-9]+", text)
                   for text in texts)
    assert ConceptId.all_canonical(texts) is expected


@pytest.mark.parametrize("identifier", ["bad", "D", "d001", "D12x", "mesh:D001"])
def test_concept_id_constructor_still_validates(identifier):
    with pytest.raises(ValueError, match="malformed MeSH identifier"):
        ConceptId(identifier)


def test_text_span_validation():
    with pytest.raises(ValueError):
        TextSpan(3, 3)
    with pytest.raises(ValueError):
        TextSpan(-1, 2)
    TextSpan(0, 1).check_bounds("a")
    with pytest.raises(ValueError):
        TextSpan(0, 2).check_bounds("a")


# --- JSONL readers ------------------------------------------------------------

def _error(call):
    with pytest.raises(ValidationError) as info:
        call()
    return str(info.value)


def _file_reader(load):
    def read(tmp_path, lines):
        path = tmp_path / "input.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return _error(lambda: load(path))

    return read


def _raft_questions(tmp_path, lines):
    config = write_e2e_workspace(tmp_path)
    path = tmp_path / "questions.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = CliRunner().invoke(cli.main, ["raft", "-c", str(config), "--questions", str(path)])
    assert result.exit_code == 1
    return result.stderr


# Every JSONL reader: a valid first line for it, and how to run it.
_READERS = {
    "records": (
        json.loads(record_line("r1", preceding=["Any pain?"], expects=True)),
        lambda tmp_path, lines: _error(lambda: ingest_records(lines)),
    ),
    "doccano": (
        {"text": "has asthma", "label": []},
        lambda tmp_path, lines: _error(lambda: import_doccano(lines)),
    ),
    "predictions": (
        {"record_id": "r1", "text": "t", "status": "ok", "question_join": 0, "annotations": [],
         "error": "none"},
        lambda tmp_path, lines: _error(lambda: read_outcomes(lines, {"r1": "t"})),
    ),
    "ontology": (
        {"concept_id": "mesh:D000001", "preferred_name": "asthma"},
        lambda tmp_path, lines: _error(lambda: load_ontology(lines)),
    ),
    "example pool": (
        {"question": "q", "mention": "m", "concept": "c", "verdict": "AGREE"},
        _file_reader(load_example_pool),
    ),
    "scripted rules": (
        {"contains": "", "response": "AGREE"},
        _file_reader(ScriptedLlmBackend.from_file),
    ),
    "verdicts": (
        {"record_id": "r1", "span": [0, 1], "backend_concept": "NONE", "kind": "disagree",
         "proposal": "mesh:D000001", "hallucinated": False},
        lambda tmp_path, lines: _error(lambda: read_verdicts(lines, {"r1": "x"})),
    ),
    "mock lexicon": (
        {"term": "asthma", "concept_id": "mesh:D001249"},
        _file_reader(annotate.load_mock_lexicon),
    ),
    "summaries": ({"candidate": "a", "reference": "b"}, _file_reader(cli._load_summaries)),
    "raft questions": ({"question": "q?", "concept_id": "mesh:D000001"}, _raft_questions),
}


def _json_values():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=6),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
        ),
        max_leaves=8,
    )


_EDGES = st.sampled_from(["", " ", "\t", "\r", "\ufeff", "\u2028", "\xa0", " \n "])


@st.composite
def _jsonl_lines(draw):
    """A JSON value (NaN, nesting, raw separators in strings) dumped with
    either separator style, maybe wrapped in edge whitespace or a BOM and
    maybe followed by extra data; or any text at all."""
    dumped = json.dumps(draw(_json_values()), ensure_ascii=draw(st.booleans()),
                        separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    line = draw(_EDGES) + dumped + draw(_EDGES)
    line += draw(st.sampled_from(["", "1", " {}", "]", "x"]))
    return draw(st.one_of(st.just(line), st.text(max_size=12)))


@given(lines=st.lists(_jsonl_lines(), max_size=4))
def test_read_jsonl_matches_per_line_json_loads(lines):
    expected, message = [], None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            expected.append(json.loads(line))
        except ValueError as exc:
            message = f"line {lineno}: bad thing: {exc}"
            break
    try:
        got = read_jsonl(lines, "thing", lambda _, obj: obj)
    except ValidationError as exc:
        assert str(exc) == message
    else:
        assert message is None
        assert repr(got) == repr(expected)  # repr: NaN equals itself, -0.0 differs from 0.0


# Words that are JSON, almost JSON or not JSON, and arrays nested far
# beyond the recursion limit or well within it.
_SCANNED_CORES = st.one_of(
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity", "tru", "nul",
                     "x", "-", "1e", "01", "1.", '"', '"a', "[", "{", "}", "[1,]", '{"a"}']),
    st.sampled_from([1, 2, 40, 100_000]).map(lambda depth: "[" * depth + "]" * depth),
    _json_values().map(json.dumps),
)
_SCANNED_LINES = st.tuples(
    _EDGES, _SCANNED_CORES, _EDGES, st.sampled_from(["", "1", " {}", "x", "true"])
).map("".join)


@given(lines=st.lists(_SCANNED_LINES, max_size=4))
def test_read_jsonl_scans_like_per_line_json_loads(lines):
    expected, message = [], None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            expected.append(json.loads(line))
        except (ValueError, RecursionError) as exc:
            message = f"line {lineno}: bad thing: {exc}"
            break
    try:
        got = read_jsonl(lines, "thing", lambda _, obj: obj)
    except ValidationError as exc:
        assert str(exc) == message
    else:
        assert message is None
        assert repr(got) == repr(expected)


@given(lines=st.lists(st.one_of(_jsonl_lines(), _SCANNED_LINES), max_size=4),
       accept=st.booleans())
def test_read_jsonl_bulk_gets_each_value_or_defers_to_the_per_line_read(lines, accept):
    seen = []

    def bulk(objects):
        seen.append(objects)
        return "bulk" if accept else None

    per_line = _outcome(lambda: read_jsonl(lines, "thing", lambda _, obj: obj))
    got = _outcome(lambda: read_jsonl(iter(lines), "thing", lambda _, obj: obj, bulk))
    # bulk runs exactly when each non-blank line is one JSON value without
    # edge whitespace, and then gets what the per-line read returns.
    exact = per_line[0] == "returned" and all(
        line == line.strip(" \t\r\n") for line in lines if line.strip()
    )
    assert len(seen) == exact
    if seen:
        assert repr(seen[0]) == repr(per_line[1])
    assert got == (("returned", "bulk") if seen and accept else per_line)


def _nested_objects(depth):
    return '{"a":' * depth + "1" + "}" * depth


# Lines that decode only when joined to a neighbour (an array or a string
# split over two lines), lines holding two objects or the object-comma-object
# pattern (in a string too), a library caller's lines holding "\n", and lines
# no reader takes whole: a BOM, edge whitespace, extra data and values that
# are not objects.
_JOINED_FRAGMENTS = st.sampled_from([
    '{"a":[1', '2]}', '{"s":"}', '{"}', '{"},1,{"t":"}',
    '{"b":1},{"c":2}', '{"b":1} ,\t{"c":2}', '{"b":1}\r,\n{"c":2}', '{"s":"x},{y"}',
    '{"a":1}\n{"b":2}', '{"a":\n1}', '{"a":1}\n', '\n{"a":1}', '{"a":1}{"b":2}',
    '\ufeff{"a":1}', ' {"a":1}', '{"a":1}\t', '{"a":1} x',
    '[1]', '"x"', '1', 'null', '{}', '{"a":{}}', '{"k":[{},{}]}',
])
_OBJECT_LINES = st.dictionaries(st.text(max_size=3), _json_values(), max_size=3).map(
    lambda obj: json.dumps(obj, ensure_ascii=False)
)


# An integer k among the lines stands for objects nested k levels deeper
# than the deepest the per-line read decodes from the test.
@given(lines=st.lists(st.one_of(_JOINED_FRAGMENTS, _OBJECT_LINES, st.integers(-2, 2)),
                      max_size=5),
       accept=st.booleans())
@example(lines=['{"a":[1', "2]}"], accept=True)
@example(lines=['{"s":"}', '{"},1,{"t":"}', '{"}'], accept=True)  # a number among objects
@example(lines=['{"b":1},{"c":2}', '{"s":"}', '{"}'], accept=True)  # two objects on one line
@example(lines=[' {"a":1}'], accept=True)  # edge whitespace
@example(lines=[0, '{"a":1}'], accept=True)  # as deep as the per-line read decodes
@example(lines=[1, '{"a":1}'], accept=True)  # one level deeper
def test_read_jsonl_joined_decode_gives_the_per_line_read(lines, accept):
    deepest, too_deep = 1, 2 * sys.getrecursionlimit()
    while too_deep - deepest > 1:  # read at the depth of the reads below
        middle = (deepest + too_deep) // 2
        one = [_nested_objects(middle)]
        if _outcome(lambda: read_jsonl(one, "thing", lambda _, obj: obj))[0] == "returned":
            deepest = middle
        else:
            too_deep = middle
    lines = [_nested_objects(deepest + line) if isinstance(line, int) else line
             for line in lines]
    seen = []

    def bulk(objects):
        seen.append(objects)
        return "bulk" if accept else None

    per_line = _outcome(lambda: read_jsonl(lines, "thing", lambda _, obj: obj))
    got = _outcome(lambda: read_jsonl(iter(lines), "thing", lambda _, obj: obj, bulk))
    # As in the property above: bulk runs exactly when each non-blank line
    # is one JSON value without edge whitespace, and gets those values.
    exact = per_line[0] == "returned" and all(
        line == line.strip(" \t\r\n") for line in lines if line.strip()
    )
    assert len(seen) == exact
    if seen:
        assert repr(seen[0]) == repr(per_line[1])
    assert got == (("returned", "bulk") if seen and accept else per_line)


@pytest.mark.parametrize("accept", [True, False, None],
                         ids=["bulk accepts", "bulk declines", "no bulk"])
def test_read_jsonl_decodes_each_line_once(accept):
    lines = ['{"a":1}', "", "[1]", " ", '{"b":[2,{"c":3}]}', '"x"', "[1]", "null", "{}"]
    values = [json.loads(line) for line in lines if line.strip()]
    decoded = []
    scan, loads = _DECODER.scan_once, json.loads

    def counted_scan(string, idx):
        decoded.append(string)
        return scan(string, idx)

    def counted_loads(string, *args, **kwargs):
        decoded.append(string)
        return loads(string, *args, **kwargs)

    def bulk(objects):
        assert objects == values
        return "bulk" if accept else None

    with mock.patch.object(_DECODER, "scan_once", counted_scan), \
            mock.patch.object(json, "loads", counted_loads):
        got = read_jsonl(lines, "thing", lambda _, obj: obj, None if accept is None else bulk)
    assert got == ("bulk" if accept else values)
    assert decoded == [line for line in lines if line.strip()]


def _per_line_and_bulk(module, read):
    """``read()``'s outcome with ``module``'s read_jsonl reading line by line
    only, then as shipped; and whether the bulk path built the result."""
    took = []

    def per_line(lines, what, parse, bulk):
        return read_jsonl(lines, what, parse)

    def spying(lines, what, parse, bulk):
        def spy(objects):
            result = bulk(objects)
            took.append(result is not None)
            return result

        return read_jsonl(lines, what, parse, spy)

    outcomes = []
    for reader in (per_line, spying):
        with mock.patch.object(module, "read_jsonl", reader):
            outcomes.append(_outcome(read))
    return outcomes, took == [True]


# Lines that are not one JSON value: bad JSON and nesting too deep. The
# planted "line" defect also adds edge whitespace (fine for the per-line
# read) or extra data after an entry.
_BAD_LINES = st.sampled_from([
    "{", "tru", "[1,]", "{} {}", '{"a": 1} x', "\ufeff{}", "[" * 100_000 + "]" * 100_000,
])
_ID_FORMS = st.sampled_from([
    " MESH:d000001 ", "mesh:d000002", "MESH:D000003", "mesh:D000004\n", "NONE", "none",
    "mesh:D", "D000001", "mesh:D\uff11", "me\u017fh:D1", "mesh:D1\nmesh:D2", "",
])
_NOT_STRINGS = st.sampled_from([None, 1, 1.5, True, ["a"], {"a": "b"}])
_NOT_OBJECTS = st.sampled_from([[], "x", 1, None, ["term", "concept_id"]])


_DEFECTS = [None, "not object", "missing", "not string", "id form", "repeat", "line", "optional"]
# Each bulk-reader property runs once per defect kind, and the kinds share
# the loaded profile's budget of examples (tests/conftest.py).
_PER_DEFECT = settings(max_examples=max(1, settings.default.max_examples // len(_DEFECTS)))


@st.composite
def _planted_file(draw, entries, key, optional, defect):
    """``entries`` as JSONL lines, blank lines between, with ``defect``
    planted at a random line: an entry that is not an object, a missing or
    non-string field, another id form (accepted or not), a repeated ``key``,
    a line the scanner cannot take whole, or a value ``optional`` lists as
    out of range for a field."""
    entries = [dict(entry) for entry in entries]
    at = draw(st.integers(0, len(entries) - 1))
    fields = sorted(entries[at])
    if defect == "missing":
        del entries[at][draw(st.sampled_from(fields))]
    elif defect == "not string":
        entries[at][draw(st.sampled_from(fields))] = draw(_NOT_STRINGS)
    elif defect == "id form":
        entries[at]["concept_id"] = draw(_ID_FORMS)
    elif defect == "repeat":
        entries.insert(draw(st.integers(0, len(entries))),
                       {**entries[draw(st.integers(0, len(entries) - 1))], key: entries[at][key]})
    elif defect == "optional":
        field, values = draw(st.sampled_from(sorted(optional.items())))
        entries[at][field] = draw(st.sampled_from(values))
    lines = [json.dumps(entry) for entry in entries]
    if defect == "not object":
        lines[at] = json.dumps(draw(_NOT_OBJECTS))
    elif defect == "line":
        lines[at] = draw(st.one_of(_BAD_LINES, st.sampled_from(
            [" " + lines[at] + "\t", lines[at] + " x", lines[at] + lines[at]]
        )))
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    for position in sorted(blanks, reverse=True):
        lines.insert(position, draw(st.sampled_from(["", " "])))
    return lines


_lexicon_entries = st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True).flatmap(
    lambda terms: st.tuples(*(_CANONICAL_IDS.map(lambda cid, t=t: {"term": t, "concept_id": cid})
                              for t in terms)).map(list)
)


@pytest.mark.parametrize("defect", _DEFECTS)
@_PER_DEFECT
@given(entries=_lexicon_entries, data=st.data())
def test_mock_lexicon_bulk_read_equals_the_per_line_read(tmp_path_factory, defect, entries,
                                                         data):
    lines = data.draw(_planted_file(entries, "term", {"term": ["", "\n", "a\nb"]}, defect))
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (per_line, shipped), took = _per_line_and_bulk(
        annotate, lambda: list(annotate.load_mock_lexicon(path).items())
    )
    assert shipped == per_line
    if defect is None:
        assert took


_ontology_entries = st.lists(_CANONICAL_IDS, min_size=1, max_size=6, unique=True).flatmap(
    lambda ids: st.tuples(*(st.fixed_dictionaries(
        {"concept_id": st.just(cid), "preferred_name": st.text(min_size=1, max_size=4)},
        optional={"description": st.text(max_size=4),
                  "synonyms": st.lists(st.text(max_size=3), max_size=2)},
    ) for cid in ids)).map(list)
)
_ONTOLOGY_OUT_OF_RANGE = {
    "preferred_name": [""],
    "description": [None, 1, ["a"]],
    "synonyms": [None, "a", ["a", 1], [None], {"a": "b"}],
}


@pytest.mark.parametrize("defect", _DEFECTS)
@_PER_DEFECT
@given(entries=_ontology_entries, data=st.data())
def test_ontology_bulk_read_equals_the_per_line_read(defect, entries, data):
    lines = data.draw(_planted_file(entries, "concept_id", _ONTOLOGY_OUT_OF_RANGE, defect))
    (per_line, shipped), took = _per_line_and_bulk(
        ontology, lambda: [(key, type(key.identifier), value)
                           for key, value in load_ontology(lines)._by_id.items()]
    )
    assert shipped == per_line
    if defect is None:
        assert took


# Raw characters that str.splitlines() breaks a line at, but JSON allows
# inside a string and phenotag writes unescaped.
_SEPARATORS = "a\u2028b\u2029c\x85d"


def _raft_question(tmp_path, path):
    config = write_e2e_workspace(tmp_path)
    result = CliRunner().invoke(cli.main, ["raft", "-c", str(config), "--questions", str(path)])
    assert result.exit_code == 0, result.output + result.stderr
    lines = (tmp_path / "out" / "raft.jsonl").read_text(encoding="utf-8").split("\n")
    return json.loads(lines[0])["question"]


# Every JSONL file reader: a line holding _SEPARATORS in a string, and how
# to read that string back from the file.
_FILE_READERS = {
    "records": (
        json.loads(record_line("r1", answer=_SEPARATORS)),
        lambda tmp_path, path: load_records(path).get("r1").answer_text,
    ),
    # run and eval read gold and predictions files this way; the CLI tests
    # run that chain on such texts too.
    "doccano": (
        {"record_id": "r1", "text": _SEPARATORS, "label": []},
        lambda tmp_path, path: import_doccano(jsonl_lines(path))[1]["r1"],
    ),
    "predictions": (
        json.loads(write_outcomes([AnnotationOutcome("r1", _SEPARATORS, "ok")])[0]),
        lambda tmp_path, path: read_outcomes(jsonl_lines(path), {"r1": _SEPARATORS})[0].text,
    ),
    "ontology": (
        {"concept_id": "mesh:D000001", "preferred_name": _SEPARATORS},
        lambda tmp_path, path: load_ontology(path).concepts()[0].preferred_name,
    ),
    "example pool": (
        {"question": _SEPARATORS, "mention": "m", "concept": "c", "verdict": "AGREE"},
        lambda tmp_path, path: load_example_pool(path)[0].question,
    ),
    "scripted rules": (
        {"contains": "", "response": _SEPARATORS},
        lambda tmp_path, path: ScriptedLlmBackend.from_file(path).complete("p", LlmParams()),
    ),
    "verdicts": (
        {"record_id": _SEPARATORS, "span": [0, 1], "backend_concept": "NONE", "kind": "agree"},
        lambda tmp_path, path: read_verdicts(jsonl_lines(path), {_SEPARATORS: "x"})[1][0].record_id,
    ),
    "mock lexicon": (
        # U+0085, U+2028 and U+2029 are whitespace, so this is a four-word term.
        {"term": _SEPARATORS, "concept_id": "mesh:D001249"},
        lambda tmp_path, path: next(iter(annotate.load_mock_lexicon(path))),
    ),
    "summaries": (
        {"candidate": _SEPARATORS, "reference": "b"},
        lambda tmp_path, path: cli._load_summaries(path)[0][0],
    ),
    "raft questions": ({"question": _SEPARATORS, "concept_id": "mesh:D000001"}, _raft_question),
}


def test_file_readers_cover_every_reader():
    assert set(_FILE_READERS) == set(_READERS)


@pytest.mark.parametrize("reader", sorted(_FILE_READERS))
def test_file_reader_keeps_unicode_line_separators_inside_strings(tmp_path, reader):
    obj, read = _FILE_READERS[reader]
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(obj, ensure_ascii=False) + "\n", encoding="utf-8")
    assert _SEPARATORS in path.read_text(encoding="utf-8")
    assert read(tmp_path, path) == _SEPARATORS


def test_jsonl_lines_splits_on_newline_only(tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_text('{"a": "x\u2028y"}\r\n\n{"b": 1}\x85', encoding="utf-8")
    assert jsonl_lines(path) == ['{"a": "x\u2028y"}', "", '{"b": 1}\x85']


def test_jsonl_carriage_return_between_tokens_is_whitespace(tmp_path):
    path = tmp_path / "ontology.jsonl"
    path.write_bytes(b'{"concept_id":"mesh:D1",\r"preferred_name":"a"}\n')
    assert load_ontology(path).get(ConceptId("D1")).preferred_name == "a"


# File readers, two valid lines for each, and what each read returns.
_CRLF_READERS = {
    "records": (record_line("r1"), record_line("r2", answer="no"),
                lambda path: load_records(path).records),
    "ontology": (
        json.dumps({"concept_id": "mesh:D000001", "preferred_name": "asthma"}),
        json.dumps({"concept_id": "mesh:D000002", "preferred_name": "eczema", "synonyms": ["a"]}),
        lambda path: load_ontology(path).concepts(),
    ),
    "mock lexicon": (
        json.dumps({"term": "asthma", "concept_id": "mesh:D001249"}),
        json.dumps({"term": "eczema", "concept_id": "mesh:D004485"}),
        lambda path: list(annotate.load_mock_lexicon(path).items()),
    ),
}


@pytest.mark.parametrize("defect", [None, "bad line", "repeat"])
@pytest.mark.parametrize("reader", sorted(_CRLF_READERS))
def test_crlf_file_reads_as_its_lf_twin(tmp_path, reader, defect):
    first, second, read = _CRLF_READERS[reader]
    lines = [first, "", second] + {None: [], "bad line": ['{"x": '], "repeat": [first]}[defect]
    outcomes = []
    for number, newline in enumerate(["\n", "\r\n"]):
        path = tmp_path / f"input{number}.jsonl"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        outcomes.append(_outcome(lambda: read(path)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == ("returned" if defect is None else ValidationError)
    if defect is not None:
        assert outcomes[0][1].startswith("line 4: ")


@pytest.mark.parametrize("bad", ['"x"', "5", "null", "[1]", "[" * 100_000 + "]" * 100_000],
                         ids=["string", "number", "null", "list", "nested-too-deep"])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_reader_names_a_line_that_is_not_its_object(tmp_path, reader, bad):
    first, read = _READERS[reader]
    message = read(tmp_path, [json.dumps(first), "", bad])
    assert message.removeprefix("error: ").startswith("line 3: ")


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_reader_names_malformed_line_after_blank_line(tmp_path, reader):
    first, read = _READERS[reader]
    message = read(tmp_path, [json.dumps(first), "", "{not json"])
    assert message.removeprefix("error: ").startswith("line 3: ")


def _annotation(begin, end, surface):
    return {"begin": begin, "end": end, "surface": surface, "concept": "mesh:D001249"}


def _concept(**fields):
    return {"concept_id": "mesh:D000002", **fields}  # not the first line's id


# Lines a reader rejects for one field: (reader, the fields laid over its
# valid first line, the error's detail). Each would be read without error
# but for that field.
_BAD_FIELDS = {
    "prediction-surface-differs": (
        "predictions", {"text": "has asthma", "annotations": [_annotation(4, 10, "zzzplague")]},
        "surface 'zzzplague' does not match text slice 'asthma' at (4, 10)",
    ),
    "prediction-span-past-text": (
        "predictions", {"text": "has asthma", "annotations": [_annotation(44, 50, "asthma")]},
        "span (44, 50) exceeds text of length 10",
    ),
    "summary-candidate-not-string": (
        "summaries", {"candidate": 5}, "candidate must be a string, got 5",
    ),
    "summary-reference-not-string": (
        "summaries", {"reference": None}, "reference must be a string, got None",
    ),
    "question-not-string": (
        "raft questions", {"question": 5}, "question must be a non-blank string, got 5",
    ),
    "question-blank": (
        "raft questions", {"question": "  "}, "question must be a non-blank string, got '  '",
    ),
    "concept-name-not-string": (
        "ontology", _concept(preferred_name=5), "preferred_name must be a string, got 5",
    ),
    "concept-description-null": (
        "ontology", _concept(description=None), "description must be a string, got None",
    ),
    "concept-synonyms-string": (
        "ontology", _concept(synonyms="wheezing"),
        "synonyms must be a list of strings, got 'wheezing'",
    ),
    "concept-synonym-not-string": (
        "ontology", _concept(synonyms=["wheeze", 1]),
        "synonyms must be a list of strings, got ['wheeze', 1]",
    ),
    # JSON types are checked, never converted: each line below was once read
    # as some other value.
    "verdict-span-string-and-float": (
        "verdicts", {"span": ["0", 1.9]}, "span bounds must be integers, got ['0', 1.9]",
    ),
    "verdict-hallucinated-string": (
        "verdicts", {"hallucinated": "false"}, "hallucinated must be a boolean, got 'false'",
    ),
    "verdict-proposal-false": (
        "verdicts", {"proposal": False}, "proposal must be a string, got False",
    ),
    "verdict-record-id-integer": (
        "verdicts", {"record_id": 7}, "record_id must be a string, got 7",
    ),
    "prediction-span-bool-and-string": (
        "predictions", {"text": "has asthma", "annotations": [_annotation(True, "3", "as")]},
        "span bounds must be integers, got [True, '3']",
    ),
    "prediction-question-join-string": (
        "predictions", {"question_join": "3"}, "question_join must be an integer, got '3'",
    ),
    "prediction-question-join-bool": (
        "predictions", {"question_join": True}, "question_join must be an integer, got True",
    ),
    "prediction-record-id-integer": (
        "predictions", {"record_id": 7}, "record_id must be a string, got 7",
    ),
    "prediction-annotations-object": (
        "predictions", {"annotations": {}}, "annotations must be a list, got {}",
    ),
    "prediction-error-number": (
        "predictions", {"status": "failed", "error": 5}, "error must be a string, got 5",
    ),
    "prediction-confidence-bool": (
        "predictions",
        {"text": "has asthma", "annotations": [{**_annotation(4, 10, "asthma"), "confidence": True}]},
        "confidence must be a number, got True",
    ),
    "doccano-float-and-string-offsets": (
        "doccano", {"label": [[4.0, "10", "mesh:D001249"]]},
        "span bounds must be integers, got [4.0, '10']",
    ),
    "doccano-record-id-integer": (
        "doccano", {"record_id": 5}, "record_id must be a string, got 5",
    ),
    "doccano-label-object": ("doccano", {"label": {}}, "label must be a list, got {}"),
    "doccano-label-empty-string": ("doccano", {"label": ""}, "label must be a list, got ''"),
    "doccano-concept-null": (
        "doccano", {"label": [[4, 10, None]]}, "concept id must be a string, got None",
    ),
    "example-question-integer": (
        "example pool", {"question": 5}, "question must be a string, got 5",
    ),
    "example-mention-list": (
        "example pool", {"mention": ["x"]}, "mention must be a string, got ['x']",
    ),
    "example-concept-null": (
        "example pool", {"concept": None}, "concept must be a string, got None",
    ),
}


@pytest.mark.parametrize("case", list(_BAD_FIELDS))
def test_reader_names_a_line_with_a_bad_field(tmp_path, case):
    reader, fields, detail = _BAD_FIELDS[case]
    first, read = _READERS[reader]
    message = read(tmp_path, [json.dumps(first), "", json.dumps({**first, **fields})])
    assert message.removeprefix("error: ").startswith("line 3: bad ")
    assert detail in message


# Each type json.loads gives, and its values; containers hold scalars only.
_JSON_TYPES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(),
    str: st.text(max_size=4),
    list: st.lists(st.one_of(st.integers(), st.text(max_size=2)), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}

# Fields whose documented type takes null as well as its own.
_NULLABLE = {("predictions", "error"), ("verdicts", "proposal")}


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


# Each reader but raft questions, whose reader runs a CLI command per example
# and keeps to its table cases. An integer and a float are different types.
@pytest.mark.parametrize("reader", sorted(set(_READERS) - {"raft questions"}))
@settings(max_examples=60)
@given(data=st.data())
def test_reader_rejects_a_field_of_another_json_type(reader_dir, reader, data):
    first, read = _READERS[reader]
    key = data.draw(st.sampled_from(sorted(first)), label="key")
    others = [kind for kind in _JSON_TYPES if kind is not type(first[key])
              and not (kind is type(None) and (reader, key) in _NULLABLE)]
    value = data.draw(_JSON_TYPES[data.draw(st.sampled_from(others))], label="value")
    message = read(reader_dir, ["", "", json.dumps({**first, key: value})])
    assert message.startswith("line 3: bad ")


def test_every_jsonl_reader_is_in_the_reader_table():
    source = Path(__file__).resolve().parents[1] / "src" / "phenotag"
    calls = sum(len(re.findall(r"(?<!def )read_jsonl\(", path.read_text(encoding="utf-8")))
                for path in source.glob("*.py"))
    assert calls == len(_READERS)
