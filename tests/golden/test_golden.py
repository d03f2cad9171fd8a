"""Each golden corpus's outputs match its committed hashes."""

import json

import algebra_corpus
import cli_corpus
import closedform_corpus
import decomposition_corpus
import pytest

CORPORA = {
    "algebra": algebra_corpus,
    "cli": cli_corpus,
    "closedform": closedform_corpus,
    "decomposition": decomposition_corpus,
}


@pytest.mark.parametrize("corpus", CORPORA.values(), ids=CORPORA.keys())
def test_sections_match_recorded_hashes(corpus):
    sections = corpus.sections()
    stored = json.loads(corpus.HASHES.read_text(encoding="utf-8"))
    assert sorted(stored) == sorted(sections)
    digest = decomposition_corpus.digest
    changed = [name for name, lines in sections.items() if digest(lines) != stored[name]]
    assert not changed, f"golden sections changed: {changed}"
