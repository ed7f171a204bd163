"""The traced benchmark (``perfbench/run.py --trace 1``) wraps program
functions by name; a rename or deletion must fail here, not in the next
traced run."""

import importlib


def test_trace_patch_targets_resolve():
    """Every ``WORKER_PATCHES`` and ``DRIVER_PATCHES`` target of
    ``perfbench/trace.py`` resolves the way ``Recorder.install`` resolves
    it: import the module, walk the attribute path, and look a class
    member up in the class ``__dict__`` (an inherited member would be
    wrapped on the wrong class)."""
    from perfbench import trace

    patches = trace.WORKER_PATCHES + trace.DRIVER_PATCHES
    assert patches
    for mod, attr, *_ in patches:
        owner = importlib.import_module(mod)
        *path, leaf = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        if isinstance(owner, type):
            assert leaf in owner.__dict__, f"{mod}.{attr} is not defined on its class"
            fn = owner.__dict__[leaf]
        else:
            fn = getattr(owner, leaf, None)
        assert callable(fn), f"{mod}.{attr} does not resolve to a function"
