"""Shared pytest fixtures. Ray is initialised ONCE per session."""

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session", autouse=True)
def quiet_ray_data():
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    yield


@pytest.fixture
def exchange_path(monkeypatch):
    """Force every bucketed pass and the BPE merge loop onto their
    distributed paths (no input is below the one-task size)."""
    from webarchive_discovery_ray.functions import bucketing

    monkeypatch.setattr(bucketing, "TARGET_BLOCK_BYTES", 0)
