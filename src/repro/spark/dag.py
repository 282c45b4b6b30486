"""Stage construction: cut the RDD lineage at shuffle dependencies.

A *stage* is a maximal chain of narrow transformations; its terminal
RDD either feeds a shuffle (shuffle-map stage) or the action (result
stage).  ``build_stages`` returns stages in a topological order ending
with the result stage, deduplicating shared shuffle parents by
shuffle id — the same structure Spark's ``DAGScheduler`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.spark.rdd import RDD, ShuffledRDD

__all__ = ["Stage", "build_stages"]


@dataclass
class Stage:
    """One execution stage.

    ``rdd`` is the terminal RDD whose partitions the tasks compute;
    ``shuffle_dep`` is the :class:`ShuffledRDD` this stage writes to
    (``None`` for the result stage).
    """

    stage_id: int
    rdd: RDD
    shuffle_dep: ShuffledRDD | None
    parents: list["Stage"] = field(default_factory=list)

    @property
    def is_result(self) -> bool:
        """Whether this is the final (action) stage."""
        return self.shuffle_dep is None

    @property
    def name(self) -> str:
        """Stage label used in job metadata."""
        kind = "result" if self.is_result else "shuffleMap"
        return f"{kind}:{self.rdd.name}"

    def num_tasks(self) -> int:
        """One task per partition of the terminal RDD."""
        return self.rdd.num_partitions()


def _shuffle_parents(rdd: RDD) -> list[ShuffledRDD]:
    """All ShuffledRDDs reachable through narrow edges from ``rdd``.

    The search stops at each ShuffledRDD: anything above it belongs to
    an earlier stage.
    """
    found: list[ShuffledRDD] = []
    seen: set[int] = set()
    stack: list[RDD] = [rdd]
    while stack:
        node = stack.pop()
        if node.rdd_id in seen:
            continue
        seen.add(node.rdd_id)
        if isinstance(node, ShuffledRDD):
            found.append(node)
            continue  # cut: do not walk past the shuffle
        stack.extend(node.parents)
    return found


def build_stages(final_rdd: RDD) -> list[Stage]:
    """Build all stages for a job ending at ``final_rdd``.

    Returns stages topologically sorted (parents before children); the
    last element is the result stage.
    """
    stage_by_shuffle: dict[int, Stage] = {}
    counter = {"next": 0}
    ordered: list[Stage] = []

    def make_stage(rdd: RDD, dep: ShuffledRDD | None) -> Stage:
        stage = Stage(stage_id=counter["next"], rdd=rdd, shuffle_dep=dep)
        counter["next"] += 1
        for shuffled in _shuffle_parents(rdd):
            parent = stage_by_shuffle.get(shuffled.shuffle_id)
            if parent is None:
                parent = make_stage(shuffled.parent, shuffled)
                stage_by_shuffle[shuffled.shuffle_id] = parent
            stage.parents.append(parent)
        ordered.append(stage)
        return stage

    make_stage(final_rdd, None)
    # make_stage's closure holds itself, so it would keep every stage,
    # RDD and input block alive until a full GC pass; break the cycle.
    del make_stage
    return ordered
