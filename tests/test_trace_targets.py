"""The benchmark tracer (``benchmarks/spans.py``) swaps package functions
for timing wrappers by name. Every name it swaps must exist, so a refactor
that unbinds one fails here and not only under ``run.py --trace 1``."""

import importlib.util
import types
from pathlib import Path

from phenotag import annotate, cli, config, corpus, evaluate, ontology, orchestrate

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_traced_name_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    package = types.SimpleNamespace(
        annotate=annotate, cli=cli, config=config, corpus=corpus,
        evaluate=evaluate, ontology=ontology, orchestrate=orchestrate,
    )
    targets = spans._targets(package)
    # Tracer.tracing reads a class's own __dict__ and any other owner by getattr.
    unresolved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not callable(owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
    ]
    assert targets
    assert unresolved == []
