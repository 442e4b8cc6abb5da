"""Frozen inference engine: steady-state workspace reuse at plan scale.

Repeated matcher-sized batches (a typical chunked plan round) must be
served from the frozen twin's grow-only workspaces without allocating,
and so must a smaller batch after them.  Speed is measured by ``perfbench``; decision parity
with the training forward is asserted in ``tests/test_nn_infer.py``.
"""

import numpy as np

from repro.nn.infer import frozen_twin
from repro.raster.fonts import font_registry
from repro.raster.stacks import stack_registry

#: Batch size of one chunked plan round.
BATCH = 256


def _tile(arr: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` rows, wrapping if the corpus is smaller than ``n``."""
    reps = -(-n // arr.shape[0])
    return np.concatenate([arr] * reps, axis=0)[:n]


def test_workspace_reuse_steady_state(text_model):
    """Repeated same-shape batches must not allocate new workspace arrays."""
    from repro.nn.data import text_dataset

    frozen = frozen_twin(text_model)
    obs, exp, _ = text_dataset(font_registry()[:2], stacks=stack_registry()[:2], seed=3)
    obs = _tile(obs.astype(np.float32), BATCH)
    exp = _tile(exp.astype(np.float32), BATCH)
    nets = (frozen.observed_net, frozen.expected_net, frozen.head_net)

    def total_allocations():
        return sum(net.workspace().allocations for net in nets)

    frozen.predict(obs, exp)
    before = total_allocations()
    for _ in range(5):
        frozen.predict(obs, exp)
    frozen.predict(obs[: BATCH // 3], exp[: BATCH // 3])
    assert total_allocations() == before
