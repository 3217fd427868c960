"""The CLI's behaviour on the seeded corpus of ``tests/digest.py``, pinned.

The corpus (fixtures, the three generators, reduced views, Brieskorn-Pham
cones, redrawn incidence data and a few scans) runs in-process through
`conespec.cli.main`, and its call count and SHA-256 are compared with the
values below. A change that is meant to alter some output updates them the
way a golden file is updated: in a commit of its own, which says which
outputs changed and why, after ``python3 tests/digest.py src`` has shown
the new values.
"""

from digest import corpus_digest

CALLS = 877
SHA256 = "6c2bc843c83e2b38b7a583d5b74ea7afd0af2261b207c5bd271bf32aef5804e4"


def test_corpus_digest_is_unchanged():
    assert corpus_digest() == (CALLS, SHA256)
