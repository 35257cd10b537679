"""The example scripts print the same output whatever the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_example(name: str, hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return completed.stdout


def test_network_robustness_output_is_independent_of_the_hash_seed():
    # The link-failure sweep orders x-facts by capacity; equal capacities
    # used to fall back to set iteration order, which the hash seed changes.
    assert run_example("network_robustness.py", "0") == run_example("network_robustness.py", "123")
