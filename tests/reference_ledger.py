"""The credit commit as it was before it became one pass: `split_credits`
sorts, de-duplicates and splits the credit, then `append_block` sorts and
sums it again before the format and the hash.  `test_ledger.py` holds
`Ledger.commit` and the engine's `credit_committed` event to this one, on
generated chains, block for block and error for error.

`parse_ledger_lines` is the exported-ledger parser as it was before it
kept a memo of whole allocation fields: every field is split and each of
its amounts read, and the index and tick are read with `_plain_int`.
`test_ledger.py` holds `tdgsim.ledger.parse_ledger_lines` to it on
generated ledgers, block for block and error for error."""
from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def _plain_int(text: str) -> int:
    """`int(text)`, if `text` is the one spelling str() gives that int."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not written as {value}")
    return value


def parse_ledger_lines(lines: Iterable[str]) -> Ledger:
    blocks: List[CreditBlock] = []
    # Each amount spelling met so far and its value.  A ledger repeats a
    # few amounts, so this pays for the spelling check.
    amounts: Dict[str, int] = {}
    blank = 0  # the first empty line: only empty lines may follow it
    for lineno, line in enumerate(lines, start=1):
        # Only the line ending is removed; any other whitespace must fail
        # the field checks or the digest check.
        line = line.rstrip("\r\n")
        if not line:
            blank = blank or lineno
            continue
        if blank:
            raise LedgerError(f"line {blank}: an empty line before the block "
                              f"on line {lineno}")
        parts = line.split(" ")
        if len(parts) != 6:
            raise LedgerError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        index, prev_hash, wu, alloc_part, tick, digest = parts
        # A number is read back only in the one spelling str() gives it, so
        # "+7", "0500", "5_00", "٥٠٠", "00" or a trailing tab, which int()
        # accepts, cannot stand for the value the digest was taken over.
        try:
            if alloc_part == "-":
                allocations: Tuple[Allocation, ...] = ()
            else:
                pairs = []
                for pair in alloc_part.split(","):
                    agent, _, mc = pair.rpartition(":")
                    mc_n = amounts.get(mc)
                    if mc_n is None:
                        mc_n = amounts[mc] = _plain_int(mc)
                    pairs.append((agent, mc_n))
                allocations = tuple(pairs)
            index_n, tick_n = _plain_int(index), _plain_int(tick)
        except ValueError as exc:
            raise LedgerError(f"line {lineno}: an index, tick or millicredit "
                              f"field is not an integer in plain form: {exc}") from None
        blocks.append(tuple.__new__(CreditBlock, (index_n, prev_hash, wu,
                                                  allocations, tick_n, digest)))
    return Ledger(blocks)
