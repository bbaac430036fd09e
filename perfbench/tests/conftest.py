import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))


@pytest.fixture(scope="session")
def runner():
    from run import Runner
    return Runner(REPO_ROOT)
