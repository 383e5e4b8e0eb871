"""Every mutant of the mutation gate (``tests/mutants.py``) still applies:
its old text occurs exactly once in its file."""

from mutants import KNOWN_MISSES, MUTANTS, ROOT


def test_each_mutant_old_text_occurs_once():
    counts = {
        m.name: (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        for m in MUTANTS + KNOWN_MISSES
    }
    assert {name: n for name, n in counts.items() if n != 1} == {}
    assert len(counts) == len(MUTANTS + KNOWN_MISSES)  # names are unique
