"""Every public call the end-to-end benchmark wraps must still exist.

``benchmarks/e2e/layers.py`` times each layer by swapping the calls in
its ``TARGETS`` table for wrappers.  A target that no longer resolves
(renamed, folded into a caller, moved) only prints a warning there and
the layer silently reads 0, so this test fails loudly instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))

import layers  # noqa: E402


@pytest.mark.parametrize(
    "module, attribute", [target[1:] for target in layers.TARGETS], ids=layers.NAMES
)
def test_target_resolves(module, attribute):
    # Raises ImportError or AttributeError when the call is gone.
    layers._resolve(module, attribute)
