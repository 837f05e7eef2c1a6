"""The benchmark's inputs: one fixed workload, measured samples per seed.

Every workload runs on the paper's ``SMALL_SCALE`` preset.  What
defines the workload -- topology, object catalog (sizes and owning
servers) and the popularity ranking of objects -- is fixed at
``WORKLOAD_SEED``, the seed ``scripts/reproduce.py`` uses by default.
So is the first half of the trace, the warm-up every workload replays
before it measures (``warmup_fraction`` 0.5 in the simulator, the
serve workloads' warm-up): it is the WORKLOAD_SEED trace's own.
``--seed`` draws the measured half from that workload: which ranks are
requested, the arrival times and the issuing clients.  Two seeds
therefore measure different request samples of the same workload from
the same warmed caches, and differ by sampling noise only.  Letting the
seed re-draw the catalog too would change which objects are popular and
how large they are, which moves the amount of work per run by tens of
percent; letting it re-draw the warm-up too raised the spread of the
serve workloads' p50 over eight seeds from 0.11 to 0.17, because the
caches then start every measurement from another state.

The draws replay the generator's own order (permutation, ranks,
inter-arrivals, clients from one stream seeded ``seed + 1``), so for
``seed == WORKLOAD_SEED`` the trace is exactly the one
``SMALL_SCALE.with_seed(WORKLOAD_SEED).generator().generate()`` builds;
:func:`check_default_trace` holds the benchmark to that.
"""

from __future__ import annotations

WORKLOAD_SEED = 1


def preset():
    from repro.experiments.presets import SMALL_SCALE

    return SMALL_SCALE.with_seed(WORKLOAD_SEED)


def catalog():
    return preset().generator().catalog


def architecture(name: str):
    from repro.experiments.presets import build_architecture

    return build_architecture(name, preset().workload, seed=WORKLOAD_SEED)


def _draw(seed: int):
    """(objects, arrival times, clients) of a seed's full request draw."""
    import numpy as np

    from repro.workload.zipf import ZipfSampler

    cfg = preset().workload
    popularity = np.random.default_rng(WORKLOAD_SEED + 1).permutation(
        cfg.num_objects
    )
    rng = np.random.default_rng(seed + 1)
    rng.permutation(cfg.num_objects)  # keep the generator's draw order
    ranks = ZipfSampler(cfg.num_objects, cfg.zipf_theta).sample(
        cfg.num_requests, rng
    )
    times = np.cumsum(rng.exponential(1.0 / cfg.request_rate, size=cfg.num_requests))
    clients = rng.integers(cfg.num_clients, size=cfg.num_requests)
    return popularity[ranks], times, clients


def make_trace(seed: int, object_catalog):
    """The workload's warm-up half, then the seed's measured half."""
    import numpy as np

    from repro.workload.trace import Trace, TraceRecord

    objects, times, clients = _draw(WORKLOAD_SEED)
    if seed != WORKLOAD_SEED:
        half = len(times) // 2
        mine_objects, mine_times, mine_clients = _draw(seed)
        objects = np.concatenate([objects[:half], mine_objects[half:]])
        clients = np.concatenate([clients[:half], mine_clients[half:]])
        # The seed's own gaps, continuing from the warm-up's last arrival.
        times = np.concatenate(
            [times[:half], mine_times[half:] - mine_times[half - 1] + times[half - 1]]
        )
    return Trace(
        [
            TraceRecord(
                time=float(t),
                client_id=int(c),
                object_id=int(o),
                server_id=object_catalog.server(int(o)),
                size=object_catalog.size(int(o)),
            )
            for t, c, o in zip(times, clients, objects)
        ]
    )


def check_default_trace(trace) -> bool:
    """Whether ``trace`` is the generator's own trace at WORKLOAD_SEED."""
    return list(trace) == list(preset().generator().generate())
