"""The engine stays importable from its internal modules, and only there."""

from __future__ import annotations

import pytest


def test_shillruntime_imports_from_historical_location():
    from repro.lang.runner import ShillRuntime
    from repro.world import build_world

    runtime = ShillRuntime(build_world(), user="root", cwd="/root")
    assert runtime.profile["sandbox_count"] == 0


def test_api_session_wraps_the_same_engine():
    from repro.api import Session, World
    from repro.lang.runner import ShillRuntime

    session = Session(World().boot().kernel)
    assert isinstance(session.runtime, ShillRuntime)


@pytest.mark.parametrize("name", ["ShillRuntime", "build_world"])
def test_repro_api_does_not_reexport_the_engine(name):
    import repro.api as api

    with pytest.raises(AttributeError):
        getattr(api, name)


def test_top_level_reexports():
    import repro

    assert repro.World is repro.api.World
    assert repro.Session is repro.api.Session
    assert repro.RunResult is repro.api.RunResult
    with pytest.raises(AttributeError):
        repro.NoSuchName
