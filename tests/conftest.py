import pytest

from tests.cells import CELL_DIR_ENV


@pytest.fixture
def cell_dir(tmp_path, monkeypatch):
    """Sentinel directory shared with the cells of ``tests.cells``."""
    d = tmp_path / "cells"
    d.mkdir()
    monkeypatch.setenv(CELL_DIR_ENV, str(d))
    return d
