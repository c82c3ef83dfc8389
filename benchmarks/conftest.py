"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures and
writes the formatted rows to ``benchmarks/out/<artifact>.txt`` (and
the terminal, visible with ``-s``).  ``benchmarks/out/`` is not
tracked, so running the suite leaves the tree clean; the committed
``benchmarks/results/`` is a documented snapshot of earlier runs.
The heavyweight sweeps run reduced default configurations; set
``REPRO_FULL=1`` to run the complete paper protocol (all Table 8
pairs, all Fig. 5/6 models, 10 s Fig. 7 phases).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def full_run() -> bool:
    """Whether to run the complete (slow) paper protocol."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def save_report():
    OUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def save_json():
    """Machine-readable twin of ``save_report``: dump a payload to
    ``benchmarks/out/<name>.json`` (stable key order; numpy
    scalars coerced through float)."""
    OUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, payload: object) -> Path:
        path = OUT_DIR / f"{name}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=float)
            + "\n"
        )
        return path

    return _save


@pytest.fixture(scope="session", autouse=True)
def profile_store():
    """Share one on-disk profile store across every benchmark run.

    Points ``REPRO_PROFILE_STORE`` at ``benchmarks/out`` so
    :func:`repro.experiments.common.get_db` loads persisted profile
    databases instead of re-deriving them, and persists whatever was
    profiled at session end -- the paper's profile-once workflow,
    across processes.
    """
    OUT_DIR.mkdir(exist_ok=True)
    from repro.experiments import common

    previous = os.environ.get(common.PROFILE_STORE_ENV)
    os.environ[common.PROFILE_STORE_ENV] = str(OUT_DIR)
    try:
        yield
        common.persist_profile_stores()
    finally:
        if previous is None:
            os.environ.pop(common.PROFILE_STORE_ENV, None)
        else:
            os.environ[common.PROFILE_STORE_ENV] = previous
