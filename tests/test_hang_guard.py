"""The suite's hang guard (``tests/conftest.py``) fails a test that runs
past its bound, with the stuck stack on stderr."""

import signal

import pytest

from .conftest import hang_guard


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_the_hang_guard_fails_a_test_that_runs_past_its_bound(capfd):
    def spin():
        while True:
            pass

    with pytest.raises(pytest.fail.Exception, match="0.05 s hang bound"):
        with hang_guard(0.05):
            spin()
    assert "in spin" in capfd.readouterr().err
