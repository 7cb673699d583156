"""The suite's conftest fails a session in which any test skips or xfails."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent / "conftest.py"
BODIES = {
    "pass": "def test_it():\n    assert True\n",
    "skip": "import pytest\n\ndef test_it():\n    pytest.skip('not today')\n",
    "skipif": "import pytest\n\n@pytest.mark.skipif(True, reason='never')\ndef test_it():\n    pass\n",
    "xfail": "import pytest\n\n@pytest.mark.xfail(reason='known')\ndef test_it():\n    assert False\n",
    "xpass": "import pytest\n\n@pytest.mark.xfail(reason='known')\ndef test_it():\n    pass\n",
}


@pytest.mark.parametrize("kind", sorted(BODIES))
def test_session_fails_on_a_silenced_test(tmp_path, kind):
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_throwaway.py").write_text(BODIES[kind])
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    if kind == "pass":
        assert done.returncode == 0, done.stdout
    else:
        assert done.returncode == 1, done.stdout
        assert "skipped or xfailed tests fail the suite" in done.stdout
