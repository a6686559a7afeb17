"""The invariants of a run, each stated once: make `Invariants(world)` before
the first step, and call `check()` after every step.  A unit has a deadline
exactly while one of its issues waits for a result.  `_validate_centralized`
stops at the first live entry of `central_assigned` (its unit has a deadline)
not yet due, so live entries must stay in deadline order.  Each community's
count of live assignments, which its dissolution check reads, must equal a
recount."""
from collections import Counter


def check_communities(world):
    """Live communities: available managers, no shared member, and
    `live_members` maps each member to the community that holds it."""
    holder = {}
    for comm in world.communities.values():
        assert world._available(comm.tcm) and holder.keys().isdisjoint(comm.members), (
            world.config.name, world.tick, comm.id)
        holder.update(dict.fromkeys(comm.members, comm.id))
    assert world.live_members == holder, (world.config.name, world.tick)


class Invariants:
    def __init__(self, world):
        self.world = world
        self.units = [wu for server in world.servers.values() for wu in server.queue]
        self.ids = sorted(wu.id for wu in self.units)
        assert len(set(self.ids)) == world.config.wu_count == world.open_wus
        self.ended = []  # ids of the units the log shows validated or failed for good
        self.issued_at = {}  # agent -> the tick of the last wu_issued that lists it
        self.committed = 0  # the credit logged so far
        self.read = 0  # the events read so far

    def check(self):
        """Assert every invariant; returns the events logged since the last check."""
        world, timeout = self.world, self.world.config.timeout_ticks
        new, self.read = world.events[self.read:], len(world.events)
        for ev in new:
            p = ev.payload
            if ev.kind == "wu_issued":
                self.issued_at.update(dict.fromkeys(p["members"], ev.tick))
            elif ev.kind == "credit_committed":
                self.committed += sum(p["allocations"].values())
            elif ev.kind == "wu_validated" or ev.kind == "wu_redistributed" and p.get("terminal"):
                self.ended.append(p["wu"])
        where = (world.config.name, world.tick)
        # Each unit is ended, waiting for a result, queued or buffered, just once.
        waiting = [wu for wu in self.units if wu.deadline is not None]
        elsewhere = [wu.id for server in world.servers.values() for wu in server.queue] + [
            wu.id for buffer in world.buffers.values() for wu, _, _ in buffer]
        assert sorted(self.ended + [wu.id for wu in waiting] + elsewhere) == self.ids, where
        assert world.open_wus == world.config.wu_count - len(self.ended), where
        assert world.pending_judgments.keys().isdisjoint(self.ended), where
        assert world.ledger.total_committed() == self.committed, where
        check_communities(world)
        load = Counter(a.community for a in world.assignments.values()
                       if a.community is not None)
        assert {c: n for c, n in world.community_load.items() if n} == load, where
        # A holder's deadline less timeout_ticks is its last wu_issued's tick.
        held = {a.id: a.current_wu for a in world.agents.values() if a.current_wu is not None}
        assert all(wu.deadline - timeout == self.issued_at.get(a)
                   for a, wu in held.items()), where
        if world.trust_mode:
            assert {wu.id for wu in waiting} == world.assignments.keys(), where
            assert {wu.id for wu in held.values()} <= world.assignments.keys(), where
            assert not world.central_assigned, where
            return new
        live = [(wu, holder) for wu, holder in world.central_assigned if wu.deadline is not None]
        assert [wu.deadline for wu, _ in live] == sorted(wu.deadline for wu, _ in live), where
        assert sorted(wu.id for wu, _ in live) == sorted(wu.id for wu in waiting), where
        # Each live entry's holder holds its unit, or is a free rider that dropped it.
        assert all(world.agents[h].current_wu is wu or world.agents[h].profile == "free_rider"
                   for wu, h in live), where
        assert {(wu.id, a) for a, wu in held.items()} <= {(wu.id, h) for wu, h in live}, where
        # At most timeout_ticks + 1 ticks of issues, one per agent each, remain.
        assert len(world.central_assigned) <= len(world.agents) * (timeout + 1), where
        return new
