"""Golden snapshot of the ledger's 400-session epoch scenario.

``tests/data/epoch_400_sessions.txt`` records the perf ledger's
``plan_fleet_epochs`` epoch series at seed 1: 400 synthetic sessions,
300 incremental epochs of three rate redraws each, and a backend failure
(``handle_failure``) plus ``adopt`` every 100 epochs.  One line per
epoch holds the ``EpochUpdate`` fields and a sha256 of the plan (node
ids renumbered by first appearance, floats as ``float.hex()``, the
infeasible list included).  A change to the walk's speed must leave it
byte-identical; regenerate it only for a change that means to move
plans, and say so:

    PYTHONPATH=src python -m tests.test_epoch_snapshot > tests/data/epoch_400_sessions.txt
"""

import difflib
import hashlib
import random
import sys
from pathlib import Path

from repro.core.epoch import EpochScheduler
from tests.test_epoch import _digest, _ledger_loads, _redraw, _update_fields

SNAPSHOT = Path(__file__).parent / "data" / "epoch_400_sessions.txt"
SEED = 1
EPOCHS = 300
FAILURE_EVERY = 100


def _line(kind, update, plan, ids) -> str:
    epoch, time_ms, before, after, moved, triggered, reused = _update_fields(update)
    digest = hashlib.sha256(repr(_digest(plan, ids)).encode()).hexdigest()
    return (
        f"{kind} {epoch} t={time_ms.hex()} gpus={before}->{after} "
        f"moved={moved} triggered={triggered} reused={reused} plan={digest}"
    )


def render() -> str:
    rng = random.Random(SEED)
    loads = _ledger_loads()
    sched = EpochScheduler()
    ids: dict[int, int] = {}
    out = [_line("update", sched.update(0.0, loads), sched.plan, ids)]
    for epoch in range(1, EPOCHS + 1):
        _redraw(rng, loads)
        now = epoch * 30_000.0
        out.append(_line("update", sched.update(now, loads), sched.plan, ids))
        if epoch % FAILURE_EVERY == 0:
            dead = [sched.plan.gpus[rng.randrange(sched.num_gpus)].node_id]
            up = sched.handle_failure(now + 1.0, dead, loads)
            out.append(_line("failure", up, sched.plan, ids))
            sched.adopt(sched.plan, now + 2.0, loads)
    return "\n".join(out) + "\n"


def test_400_session_epochs_match_the_snapshot():
    got = render()
    want = SNAPSHOT.read_text()
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(True), got.splitlines(True),
            "epoch_400_sessions.txt", "this tree", n=1,
        ))
        raise AssertionError("400-session epochs moved:\n" + diff[:4000])


if __name__ == "__main__":
    sys.stdout.write(render())
