"""The command line's outputs match the committed golden hashes."""

import json

from cli_corpus import HASHES, sections
from decomposition_corpus import digest


def test_sections_match_recorded_hashes():
    corpus = sections()
    stored = json.loads(HASHES.read_text(encoding="utf-8"))
    assert sorted(stored) == sorted(corpus)
    changed = [name for name, lines in corpus.items() if digest(lines) != stored[name]]
    assert not changed, f"golden sections changed: {changed}"
