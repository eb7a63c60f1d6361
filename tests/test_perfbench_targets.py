"""Every layer the benchmark traces still resolves by name.

``perfbench`` patches the functions listed in ``perfbench.tracing.WRAPPED``
at the module (or class) where their callers look them up; a renamed or
removed function would only show up when a traced benchmark run starts.
This looks each target up the way ``Tracer.installed`` does, without
patching anything.
"""

import pytest

from perfbench.tracing import WRAPPED, _resolve


@pytest.mark.parametrize("target", sorted({target for _, target, _ in WRAPPED}))
def test_trace_target_resolves(target):
    owner, name = _resolve(target)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    assert callable(original)
