"""Every mutant in tests/mutants.py still applies: its text occurs exactly
once in its file, and each test it names is defined. The runner itself,
one pytest run per mutant, is a CI step of its own."""

import re

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_and_names_defined_tests(mutant):
    text = (mutants.ROOT / mutant.path).read_text()
    assert mutants.mutate(text, mutant) != text
    for test in mutant.tests:
        path, *names = test.split("::")
        source = (mutants.ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), test
