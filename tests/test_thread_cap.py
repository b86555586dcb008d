"""Tests for the ``MHAF_THREADS`` cap, which the package applies on import.

Each case imports :mod:`mhaf` in a fresh interpreter, since the cap only
acts before numpy and BLAS are loaded, and reads back the thread variables.
"""

import json
import os
import subprocess
import sys

import pytest

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def thread_vars_after_import(**env):
    """The thread variables as a fresh interpreter sees them after
    ``import mhaf``, started with none of them set and ``env`` added."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("MHAF_THREADS",)}
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, os, mhaf; "
            f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))",
        ],
        env={**base, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_positive_value_sets_every_unset_variable():
    assert thread_vars_after_import(MHAF_THREADS="3") == dict.fromkeys(THREAD_VARS, "3")


def test_variable_already_set_is_left_alone():
    seen = thread_vars_after_import(MHAF_THREADS=" 2 ", OPENBLAS_NUM_THREADS="5")
    assert seen == {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "5", "MKL_NUM_THREADS": "2"}


@pytest.mark.parametrize("value", ["0", "", "two"], ids=["zero", "empty", "non-integer"])
def test_non_positive_or_invalid_value_sets_nothing(value):
    assert thread_vars_after_import(MHAF_THREADS=value) == dict.fromkeys(THREAD_VARS)
