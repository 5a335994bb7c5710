"""The output corpus (``tests/corpus``) reruns in this process and matches
its stored arrays exactly; a mismatch prints the drift table of
``tests/corpus/regen.py``.  Its numbers must also be written as
``cli._fmt`` writes them (``regen._arrays``)."""

from corpus import regen


def test_corpus_outputs_are_unchanged(tmp_path):
    lines = regen.drift(regen.load(), regen.run_requests(tmp_path))
    assert not lines, "\n" + regen.format_table(lines)
