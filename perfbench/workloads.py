"""The benchmark's workloads: fixed experiment shapes, data drawn from a seed.

Both run PARDON on synthetic PACS (12 clients, 6 per round, 10 rounds,
compute backend ``auto``), once in one process and once over loopback
agents, so that the gap between them is the cost of the wire.

Importing this module does not import ``repro``, so ``run.py`` can read
the table (and fail cleanly) in a checkout that has no ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "CHANCE_MARGIN"]

#: A run's final model must score at least this many times chance
#: (1 / num_classes) on the domains it trained on.  Measured at seeds
#: 0, 7, 8, 17 and 21: 87-94% against 14.3% chance; a broken update path
#: stays near chance.  Unseen-domain accuracy is reported but not gated:
#: it sits at chance on some seeds (seed 8: 15.4% after 10 rounds, 14.3%
#: after 20), a property of the method on this data, not a failed run.
CHANCE_MARGIN = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train: tuple[str, ...]  # synthetic PACS domain names
    test: tuple[str, ...]
    clients: int
    per_round: int
    rounds: int
    engine: str  # "serial" or "remote"
    codec: str
    workers: int  # remote agents; 1 for the serial engine
    #: Minimum cold runs per measurement.  ``run.py`` caps the runs so the
    #: pooled warm rounds stay in one band of ``metrics.tail_band_limit``,
    #: so this fixes which percentile ``round_s_tail`` reports.
    min_reps: int
    #: Distinct generated inputs one measurement cycles through.  Peak RSS
    #: depends on the input (the ensemble backend caches one stacked clone
    #: per group size seen), so a median over several inputs is steadier.
    inputs: int

    @property
    def warm_rounds(self) -> int:
        return self.rounds - 1

    def input_seed(self, seed: int, rep: int) -> int:
        """The seed of cold run ``rep``'s generated inputs under ``--seed``."""
        return 1000 * seed + rep % self.inputs


#: PARDON on synthetic PACS: train on three domains, test on the fourth.
_PACS = dict(
    train=("photo", "art_painting", "cartoon"),
    test=("sketch",),
    clients=12,
    per_round=6,
    rounds=10,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pacs-pardon-serial",
            why=(
                "The paper's method on big shards (~70 samples per client), in "
                "one process: repro.nn conv and PARDON's objective and prepare "
                "dominate and there is no wire."
            ),
            engine="serial",
            codec="identity",
            workers=1,
            min_reps=12,
            inputs=6,
            **_PACS,
        ),
        Workload(
            name="pacs-pardon-remote",
            why=(
                "The pacs-pardon-serial experiment over 2 loopback agents, "
                "pipelined, delta codec: the only path through repro.fl.net; "
                "any gap to the serial workload is wire cost."
            ),
            engine="remote",
            codec="delta",
            workers=2,
            min_reps=5,
            inputs=2,
            **_PACS,
        ),
    )
}
