"""Seeded training scripts for the benchmark's workloads.

The program under test only ever sees the text these functions return:
plain Python training scripts that ``from repro import api as flor`` and
log with ``flor.log``.  Device time is modelled with ``time.sleep`` plus a
small NumPy update, as the repository's other benchmarks do.  No script
draws random numbers inside its loops, so a replay that resumes from a
checkpoint recomputes exactly what the recorded run computed.

Every probe adds one ``flor.log("probe", ...)`` line at epoch level.  The
value reads the live ``state`` array, which no recorded log holds, so a
hindsight query for it has to restore checkpoints or replay.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass

PROBE_NAME = "probe"

_LOSS_LINE = '    flor.log("loss", float(state[:8].sum()))\n'


@dataclass(frozen=True)
class Script:
    """One generated training script and what its checkpoints hold."""

    name: str
    source: str
    epochs: int
    #: Bytes of checkpointable training state (the ``state`` array).
    state_nbytes: int

    def probed(self, factor: int = 1) -> str:
        """The script with a hindsight probe whose value scales by ``factor``.

        Distinct factors give distinct probe texts, so a query with a fresh
        factor finds nothing memoized.
        """
        probe = (f'    flor.log("{PROBE_NAME}", '
                 f'float(state[:64].sum()) * {int(factor)})\n')
        return self.source.replace(_LOSS_LINE, _LOSS_LINE + probe)


def _dense(name: str, init_seed: int, elements: int, epochs: int,
           device_seconds: float) -> Script:
    """Every element of ``state`` changes every epoch (no shared chunks)."""
    source = textwrap.dedent(f"""\
        import time

        import numpy as np
        from repro import api as flor

        rng = np.random.default_rng({init_seed})
        state = rng.standard_normal({elements}).astype(np.float32)

        for epoch in range({epochs}):
            for _step in range(1):
                time.sleep({device_seconds})
                state = state * np.float32(0.999) + np.float32((epoch + 1) * 1e-3)
            flor.log("loss", float(state[:8].sum()))
        """)
    return Script(name, source, epochs, elements * 4)


def _finetune(name: str, init_seed: int, elements: int, trainable: int,
              epochs: int, device_seconds: float) -> Script:
    """Only the first ``trainable`` elements change; the rest is frozen."""
    source = textwrap.dedent(f"""\
        import time

        import numpy as np
        from repro import api as flor

        rng = np.random.default_rng({init_seed})
        state = rng.standard_normal({elements}).astype(np.float32)
        lr = np.float32(0.01)

        for epoch in range({epochs}):
            for _step in range(1):
                time.sleep({device_seconds})
                head = state[:{trainable}] * (1 - lr) + lr * np.float32(epoch + 1)
                state = np.concatenate([head, state[{trainable}:]])
            flor.log("loss", float(state[:8].sum()))
        """)
    return Script(name, source, epochs, elements * 4)


def _short(name: str, init_seed: int, elements: int, epochs: int,
           device_seconds: float, epoch_seconds: float) -> Script:
    """A short run with device time both inside and outside its inner block.

    The epoch-level wait is outside the checkpointed block, so every
    replayed iteration pays it again; the inner wait lets the adaptive
    controller afford a few checkpoints, so replay resumes from sparse
    checkpoints instead of from the start.
    """
    source = textwrap.dedent(f"""\
        import time

        import numpy as np
        from repro import api as flor

        rng = np.random.default_rng({init_seed})
        state = rng.standard_normal({elements}).astype(np.float32)

        for epoch in range({epochs}):
            for _step in range(1):
                time.sleep({device_seconds})
                state = state * np.float32(0.99) + np.float32(epoch * 0.5)
            time.sleep({epoch_seconds})
            flor.log("loss", float(state[:8].sum()))
        """)
    return Script(name, source, epochs, elements * 4)


# --------------------------------------------------------------------- #
# Workload shapes
# --------------------------------------------------------------------- #
#: About 4 MB of float32 state.
STATE_ELEMENTS = 1 << 20


def pretrain_dense(seed: int, epochs: int = 20, runs: int = 1) -> list[Script]:
    """Pre-training runs of one script: 4 MB state rewritten every epoch."""
    script = _dense("pretrain", init_seed=seed, elements=STATE_ELEMENTS,
                    epochs=epochs, device_seconds=0.045)
    return [Script(f"pretrain{index}", script.source, script.epochs,
                   script.state_nbytes)
            for index in range(runs)]


def finetune_restore(seed: int, epochs: int = 16) -> list[Script]:
    """Three fine-tuning runs of one script, 95% of the state frozen.

    5% of 4 MB is 200 KiB, less than one 256 KiB chunk, so adjacent epochs
    share all chunks but the trainable head's, and the second and third
    runs find every chunk already stored.  The runs share one source so
    that one probe text is the right probe for every run of the query.
    """
    script = _finetune("finetune", init_seed=seed, elements=STATE_ELEMENTS,
                       trainable=STATE_ELEMENTS // 20, epochs=epochs,
                       device_seconds=0.02)
    return [Script(f"finetune{index}", script.source, script.epochs,
                   script.state_nbytes)
            for index in range(3)]


def short_run(seed: int, index: int) -> Script:
    """One of the small runs the serving workload records and queries."""
    return _short(f"fleet{index}", init_seed=seed * 1000 + index,
                  elements=1 << 16, epochs=8, device_seconds=0.01,
                  epoch_seconds=0.02)
