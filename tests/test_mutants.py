"""Every mutant of the mutation gate (``tests/mutants.py``) still applies:
its old text occurs exactly once in its file, and it names test node ids."""

from mutants import KNOWN_MISSES, MUTANTS, ROOT


def test_each_mutant_old_text_occurs_once():
    counts = {
        m.name: (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        for m in MUTANTS + KNOWN_MISSES
    }
    assert {name: n for name, n in counts.items() if n != 1} == {}
    assert len(counts) == len(MUTANTS + KNOWN_MISSES)  # names are unique


def test_each_mutant_names_node_ids_not_files():
    # under a slow mutant a whole file can run until the runner's timeout
    assert [m.name for m in MUTANTS if not all("::" in t for t in m.tests)] == []
