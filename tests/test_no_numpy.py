"""The simulator runs on the standard library alone.

A fresh interpreter generates a trace and replays it batched through
one Bonsai and one SGX cell; numpy must never be imported on the way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_REPLAY_CELLS = """
import sys
from repro.config import SchemeKind, SystemConfig, TreeKind
from repro.controller.factory import build_controller
from repro.crypto.keys import ProcessorKeys
from repro.traces.profiles import profile
from repro.traces.replay import replay_batched
from repro.traces.synthetic import generate_trace

trace = generate_trace(profile("libquantum"), 2000, seed=3)
for scheme, tree in (
    (SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
    (SchemeKind.ASIT, TreeKind.SGX),
):
    config = SystemConfig(scheme=scheme, tree=tree)
    controller = build_controller(config, keys=ProcessorKeys(1))
    replay_batched(controller, trace)
    controller.finalize()
print("numpy" in sys.modules)
"""


def test_replay_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _REPLAY_CELLS],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
