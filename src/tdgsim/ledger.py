"""Single-writer hash-chained credit ledger with even per-WU splits.

Integrity without consensus: every block commits to its predecessor via
SHA-256, so any later tampering is detectable by a full re-verification.
Amounts are integer millicredits for exact, platform-independent sums.
"""
from __future__ import annotations

import hashlib
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

GENESIS_PREV = "0" * 64

Allocation = Tuple[str, int]


class LedgerError(ValueError):
    pass


class AuditError(RuntimeError):
    """A credit chain failed verification (queried or audited after a run)."""


def block_digest(index: int, prev_hash: str, wu: str,
                 allocations: Sequence[Allocation], tick: int) -> str:
    alloc_part = ",".join([f"{agent}:{mc}" for agent, mc in allocations])
    payload = f"{index}|{prev_hash}|{wu}|{alloc_part}|{tick}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CreditBlock(NamedTuple):
    # A tuple, not a frozen dataclass: one is built per committed work unit
    # and per ledger line parsed, and a frozen dataclass pays a setattr call
    # per field.
    index: int
    prev_hash: str
    wu: str
    allocations: Tuple[Allocation, ...]
    tick: int
    hash: str

    @property
    def total(self) -> int:
        return sum(mc for _, mc in self.allocations)


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

    def __len__(self) -> int:
        return len(self.blocks)

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

    def verify_chain(self) -> Optional[int]:
        """None if intact, else the lowest index whose hash or linkage fails."""
        prev = GENESIS_PREV
        for i, block in enumerate(self.blocks):
            index, prev_hash, wu, allocations, tick, digest = block
            if (index != i or prev_hash != prev
                    or digest != block_digest(i, prev_hash, wu, allocations, tick)):
                return i
            prev = digest
        return None

    def total_committed(self) -> int:
        return sum(b.total for b in self.blocks)

    # Line format: index prev_hash wu agent:mc,agent:mc tick hash
    def export_lines(self) -> Iterable[str]:
        for index, prev_hash, wu, allocations, tick, digest in self.blocks:
            alloc = ",".join(f"{a}:{mc}" for a, mc in allocations) or "-"
            yield f"{index} {prev_hash} {wu} {alloc} {tick} {digest}"


def parse_ledger_lines(lines: Iterable[str]) -> Ledger:
    blocks: List[CreditBlock] = []
    for lineno, line in enumerate(lines, start=1):
        # Only ordinary line-ending whitespace is tolerated; anything else
        # must enter the digest check and fail verification.
        line = line.strip(" \r\n")
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 6:
            raise LedgerError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        index, prev_hash, wu, alloc_part, tick, digest = parts
        allocations: List[Allocation] = []
        try:
            if alloc_part != "-":
                for pair in alloc_part.split(","):
                    agent, _, mc = pair.rpartition(":")
                    allocations.append((agent, int(mc)))
            index_n, tick_n = int(index), int(tick)
        except ValueError as exc:
            raise LedgerError(f"line {lineno}: an index, tick or millicredit "
                              f"field is not an integer: {exc}") from None
        blocks.append(CreditBlock(index_n, prev_hash, wu, tuple(allocations),
                                  tick_n, digest))
    return Ledger(blocks)
