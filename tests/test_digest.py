"""The package's results are those the committed digest pins, bit for bit.

``tests/digest.py`` hashes the benchmark's operation pools and a set of
extreme points one number class at a time.  Here its subset (one seed per
pool) is recomputed and compared with ``tests/golden/digest.json`` class by
class, so a change that moves one ulp anywhere in the subset names the class
it moved.  The full digest is a command: ``PYTHONPATH=src python tests/digest.py``.
"""

import digest


def test_golden_digest_is_of_the_script_plans():
    golden = digest.golden()
    assert golden["full"]["plan"] == digest.FULL
    assert golden["subset"]["plan"] == digest.SUBSET
    for part in ("full", "subset"):
        assert tuple(golden[part]["classes"]) == digest.CLASSES


def test_subset_digest_is_unchanged():
    found = digest.compute(digest.SUBSET)
    expected = digest.golden()["subset"]["classes"]
    assert [name for name in digest.CLASSES if found[name] != expected[name]] == []
