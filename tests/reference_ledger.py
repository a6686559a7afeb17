"""The credit commit as it was before it became one pass: `split_credits`
sorts, de-duplicates and splits the credit, then `append_block` sorts and
sums it again before the format and the hash.  `test_ledger.py` holds
`Ledger.commit` and the engine's `credit_committed` event to this one, on
generated chains, block for block and error for error."""
from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence

from tdgsim.ledger import GENESIS_PREV, Allocation, CreditBlock, LedgerError


def block_digest(index: int, prev_hash: str, wu: str,
                 allocations: Sequence[Allocation], tick: int) -> str:
    alloc_part = ",".join([f"{agent}:{mc}" for agent, mc in allocations])
    payload = f"{index}|{prev_hash}|{wu}|{alloc_part}|{tick}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def split_credits(total: int, participants: Sequence[str]) -> List[Allocation]:
    """Even split; the remainder goes one millicredit each to the
    participants with the smallest agent ids."""
    if not participants:
        raise LedgerError("cannot split credits among zero participants")
    if total < 0:
        raise LedgerError(f"negative credit total {total}")
    ordered = sorted(set(participants))
    if len(ordered) != len(participants):
        raise LedgerError("duplicate participants in credit split")
    base, remainder = divmod(total, len(ordered))
    return [(agent, base + (1 if i < remainder else 0))
            for i, agent in enumerate(ordered)]


class Ledger:
    def __init__(self, blocks: Optional[List[CreditBlock]] = None) -> None:
        self.blocks: List[CreditBlock] = blocks or []

    def append_block(self, wu: str, allocations: Sequence[Allocation], tick: int,
                     expected_total: Optional[int] = None) -> CreditBlock:
        allocations = tuple(sorted(allocations))
        total = sum([mc for _, mc in allocations])
        if expected_total is not None and total != expected_total:
            raise LedgerError(
                f"allocations for {wu} sum to {total}, expected {expected_total}")
        index = len(self.blocks)
        prev_hash = self.blocks[-1].hash if self.blocks else GENESIS_PREV
        digest = block_digest(index, prev_hash, wu, allocations, tick)
        # Built without the Python-level __new__ that NamedTuple adds.
        block = tuple.__new__(CreditBlock, (index, prev_hash, wu, allocations, tick, digest))
        self.blocks.append(block)
        return block

    # Line format: index prev_hash wu agent:mc,agent:mc tick hash
    def export_lines(self) -> Iterable[str]:
        for index, prev_hash, wu, allocations, tick, digest in self.blocks:
            alloc = ",".join(f"{a}:{mc}" for a, mc in allocations) or "-"
            yield f"{index} {prev_hash} {wu} {alloc} {tick} {digest}"


def commit_credit(ledger: Ledger, wu: str, credit_total: int,
                  participants: List[str], tick: int) -> dict:
    """The engine's old `_commit_credit`: appends the block and returns the
    `credit_committed` event's `allocations`."""
    allocations = split_credits(credit_total, participants)
    ledger.append_block(wu, allocations, tick, expected_total=credit_total)
    return dict(allocations)
