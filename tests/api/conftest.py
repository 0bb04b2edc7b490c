"""Fixtures for the unified audit API tests: a fitted, warmed engine
and a pool of live TCP protocol workers built on it."""

import pytest

from repro.core import Fixy, default_features
from repro.serving.tcp import TcpWorker

from tests.serving.conftest import build_training_scenes


@pytest.fixture(scope="session")
def api_fixy():
    """A fitted engine with warmed density grids (deterministic across
    backends — the same precondition Audit establishes at bind time)."""
    fixy = Fixy(default_features()).fit(build_training_scenes())
    fixy.warmup_fast_eval()
    return fixy


@pytest.fixture(scope="session")
def tcp_workers(api_fixy):
    """Two live TCP workers serving the shared engine (the remote
    backend's worker pool), yielded as their ``host:port`` addresses."""
    workers = [TcpWorker(api_fixy) for _ in range(2)]
    yield [w.address for w in workers]
    for worker in workers:
        worker.stop()
