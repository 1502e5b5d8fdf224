"""Watch a run from outside, by wrapping two functions it calls.

Every runner (both asynchronous modes, the baselines and the TCP server)
steps the one :class:`fedasync.simulator.RunLoop` class after each
committed update, and the in-process asynchronous modes apply through
``simulator.apply_update``. So wrapping ``RunLoop.step`` sees every
committed model of every algorithm, and wrapping ``apply_update`` sees
every update those modes apply.
"""

from contextlib import contextmanager

import fedasync.simulator as simulator


@contextmanager
def watching():
    """Yield ``(models, applied)``, two lists filled while the block runs:
    a copy of the model after each committed update, and ``(worker_id,
    staleness)`` for each update ``simulator.apply_update`` applies."""
    models, applied = [], []
    step, apply_update = simulator.RunLoop.step, simulator.apply_update

    def watched_step(run, sim_time):
        models.append(run.state.params.copy())
        step(run, sim_time)

    def watched_apply(state, cfg, upd):
        alpha_t = apply_update(state, cfg, upd)
        applied.append((upd.worker_id, state.last_staleness))
        return alpha_t

    simulator.RunLoop.step, simulator.apply_update = watched_step, watched_apply
    try:
        yield models, applied
    finally:
        simulator.RunLoop.step, simulator.apply_update = step, apply_update
