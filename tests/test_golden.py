"""Each entry of golden.ARTIFACTS writes exactly the committed files of its
tests/data/golden/ directory; ``PYTHONPATH=src python tests/golden.py``
rewrites them."""

import pytest

from golden import ARTIFACTS, GOLDEN


def assert_same_files(written_dir, entry):
    """written_dir holds the files of tests/data/golden/<entry>, byte for byte.
    A changed file fails on its list of lines first, so the failure names the
    file and the changed row."""
    pinned_dir = GOLDEN / entry
    assert sorted(p.name for p in written_dir.iterdir()) == sorted(p.name for p in pinned_dir.iterdir())
    for path in sorted(pinned_dir.iterdir()):
        written, pinned = (written_dir / path.name).read_bytes(), path.read_bytes()
        assert written.decode().splitlines() == pinned.decode().splitlines(), path
        assert written == pinned, path


@pytest.mark.parametrize("entry", ARTIFACTS)
def test_golden(entry, tmp_path):
    ARTIFACTS[entry](tmp_path)
    assert_same_files(tmp_path, entry)
