"""The mutant catalogue (`tests/mutants.py`) still applies to the tree: each
snippet occurs exactly once in its file, and each test it must fail exists.
Whether the tests kill the mutants is checked by `python tests/mutants.py`."""

import re

from mutants import MUTANTS, ROOT


def test_catalogue_applies():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / "src" / "startraj" / m.file).read_text()
        assert text.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        for test in m.tests:
            path, *scopes = re.sub(r"\[.*\]$", "", test).split("::")
            source = (ROOT / path).read_text()
            for scope in scopes[:-1]:
                assert f"class {scope}" in source, test
            assert f"def {scopes[-1]}(" in source, test
