"""Shared test helpers (importable without conftest name clashes)."""

from __future__ import annotations

import random

from repro.core.options import ExecutionOptions
from repro.faults.injector import ExecutionContext
from repro.workload.generator import generate
from repro.workload.params import sample_params


def make_workload(
    seed: int, scale: float = 0.03, multi_valued_targets: bool = False,
    **kwargs,
):
    """One generated workload, deterministic in *seed*."""
    rng = random.Random(seed)
    params = sample_params(rng, **kwargs)
    params.seed = seed
    return generate(
        params, scale=scale, multi_valued_targets=multi_valued_targets
    )


def context(**options) -> ExecutionContext:
    """The execution context of *options* (no options: fault-free)."""
    return ExecutionContext(ExecutionOptions(**options))


def add_nodes(fed, spec):
    """Add one node per ``(kind, site, dst, seconds, deps)`` of *spec* to
    the ``FederationSim`` *fed* (*deps* index earlier entries, repeats
    allowed; a barrier ignores site and seconds); returns *fed*."""
    nodes = []
    for kind, site, dst, seconds, deps in spec:
        deps = [nodes[i] for i in deps]
        if kind == "cpu":
            nodes.append(fed.cpu(site, seconds, deps=deps))
        elif kind == "disk":
            nodes.append(fed.disk(site, seconds, deps=deps))
        elif kind == "transfer":
            nodes.append(fed.transfer(site, dst, seconds, deps=deps))
        elif kind == "delay":
            nodes.append(fed.delay(site, seconds, deps=deps))
        else:
            nodes.append(fed.barrier(deps))
    return fed


#: Wrong schedulers, as (text of ``FederationSim.run``, its replacement).
#: Each breaks one clause of the scheduling contract in the
#: ``repro.sim.taskgraph`` docstring; :func:`wrong_scheduler` builds
#: them, ``tests/test_taskgraph.py::TestHopOrder`` holds a graph each one
#: schedules differently.
SCHEDULER_MUTATIONS = {
    # The releaser's next hop raised before the grant it drained.
    "released-before-drained-grant": (
        """\
                if device.queue:
                    drain(device, now)
                soon_push(index << 3 | _RELEASED)
""",
        """\
                soon_push(index << 3 | _RELEASED)
                if device.queue:
                    drain(device, now)
""",
    ),
    # Events raised during an instant before those already due at it.
    "fifo-before-due-heap": (
        """\
            if later and later[0][0] == now:
                event = heappop(later)[2]
            elif soon:
                event = soon.popleft()
""",
        """\
            if soon:
                event = soon.popleft()
            elif later and later[0][0] == now:
                event = heappop(later)[2]
""",
    ),
    # A zero duration waits in the heap, where it overtakes the FIFO.
    "zero-duration-to-heap": (
        "                if when == now:\n"
        "                    soon_push(index << 3 | _FINISH)\n",
        "                if False:\n"
        "                    soon_push(index << 3 | _FINISH)\n",
    ),
    # No released hop: dependents are notified one hop early.
    "no-released-hop": (
        "                soon_push(index << 3 | _RELEASED)\n",
        "                soon.extend(notifies[index])\n",
    ),
    # A device serves the newest waiter first.
    "lifo-device": (
        "index, since = device.queue.popleft()",
        "index, since = device.queue.pop()",
    ),
}


def wrong_scheduler(mutation: str):
    """``FederationSim.run`` with one of :data:`SCHEDULER_MUTATIONS`
    applied to its source — the flat loop is one function, so a wrong
    hop order cannot be patched in from outside it.  Fails when the text
    to replace is no longer there (the loop was rewritten: rewrite the
    mutation with it)."""
    import inspect

    from repro.sim import taskgraph

    old, new = SCHEDULER_MUTATIONS[mutation]
    source = inspect.getsource(taskgraph.FederationSim.run)
    assert source.count(old) == 1, f"{mutation}: source text not found"
    namespace = dict(vars(taskgraph))
    exec(  # noqa: S102 - our own source, one statement exchanged
        compile("class Mutant:\n" + source.replace(old, new), mutation, "exec"),
        namespace,
    )
    return namespace["Mutant"].run
