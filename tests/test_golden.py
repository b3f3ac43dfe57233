"""The golden CLI corpus: every invocation of ``golden/manifest.json``
replayed in process gives the committed stdout, stderr and exit code byte
for byte.  ``python tests/golden/regenerate.py`` rewrites the corpus."""

import pytest

from golden.regenerate import expected, invoke, manifest

CASES = manifest()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_replay_is_byte_identical(case):
    assert invoke(case["args"]) == expected(case["name"])
