"""Single-writer hash-chained credit ledger with even per-WU splits.

Integrity without consensus: every block commits to its predecessor via
SHA-256, so any later tampering is detectable by a full re-verification.
Amounts are integer millicredits for exact, platform-independent sums.

`Ledger.commit` credits a work unit in one pass: a one-participant credit
(every centralized one) is its own allocation and text, with no sort and
no split; two or more participants are split once, by `split_credits`,
whose base x n + remainder is the total, so no commit re-sums.  A block's
hash covers the payload that `_digest` states.  An exported ledger parses
back only if its index, tick and amount fields are integers written as
`str(int)` writes them, so no other spelling of a number verifies.  A line
loses only its line ending, and empty lines may only follow the last block.
"""
from __future__ import annotations

import gc
from hashlib import sha256
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

GENESIS_PREV = "0" * 64

Allocation = Tuple[str, int]


class LedgerError(ValueError):
    pass


class AuditError(RuntimeError):
    """A credit chain failed verification (queried or audited after a run)."""


def _alloc_text(allocations: Sequence[Allocation]) -> str:
    if len(allocations) == 1:  # every centralized block: no list, no join
        agent, mc = allocations[0]
        return f"{agent}:{mc}"
    return ",".join([f"{agent}:{mc}" for agent, mc in allocations])


def _digest(index: int, prev_hash: str, wu: str, alloc_text: str, tick: int) -> str:
    """The hash of a block: what a commit writes and `verify_chain` checks."""
    return sha256(f"{index}|{prev_hash}|{wu}|{alloc_text}|{tick}".encode()).hexdigest()


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


def _split(total: int, participants: Sequence[str]) -> Tuple[Allocation, ...]:
    if not participants:
        raise LedgerError("cannot split credits among zero participants")
    if total < 0:
        raise LedgerError(f"negative credit total {total}")
    ordered = sorted(set(participants))
    if len(ordered) != len(participants):
        raise LedgerError("duplicate participants in credit split")
    base, remainder = divmod(total, len(ordered))
    return tuple([(agent, base + (1 if i < remainder else 0))
                  for i, agent in enumerate(ordered)])


def split_credits(total: int, participants: Sequence[str]) -> List[Allocation]:
    """Even split; the remainder goes one millicredit each to the
    participants with the smallest agent ids."""
    return list(_split(total, participants))


class Ledger:
    def __init__(self, blocks: Optional[List[CreditBlock]] = None) -> None:
        self.blocks: List[CreditBlock] = blocks or []
        # The millicredits of the first `_summed` blocks: each read of the
        # total sums only the blocks appended since the last, so neither a
        # commit nor a parse pays for it.
        self._total = self._summed = 0
        # (agent, total) -> the one-participant allocations `((agent,
        # total),)`, built once: sized by agents x amounts, never by blocks.
        self._solo: Dict[Allocation, Tuple[Allocation, ...]] = {}

    def __len__(self) -> int:
        return len(self.blocks)

    def commit(self, wu: str, total: int, participants: Sequence[str],
               tick: int) -> CreditBlock:
        """Credit `total` to `participants` for `wu`, split evenly."""
        if len(participants) == 1:
            if total < 0:
                raise LedgerError(f"negative credit total {total}")
            agent = participants[0]
            pair = (agent, total)
            allocations = self._solo.get(pair)
            if allocations is None:
                allocations = self._solo[pair] = (pair,)
            return self._append(wu, allocations, f"{agent}:{total}", tick)
        allocations = _split(total, participants)
        return self._append(wu, allocations, _alloc_text(allocations), tick)

    def append_block(self, wu: str, allocations: Sequence[Allocation], tick: int,
                     expected_total: Optional[int] = None) -> CreditBlock:
        allocations = tuple(sorted(allocations))
        total = sum([mc for _, mc in allocations])
        if expected_total is not None and total != expected_total:
            raise LedgerError(
                f"allocations for {wu} sum to {total}, expected {expected_total}")
        return self._append(wu, allocations, _alloc_text(allocations), tick)

    def _append(self, wu: str, allocations: Tuple[Allocation, ...], alloc_text: str,
                tick: int) -> CreditBlock:
        blocks = self.blocks
        index = len(blocks)
        prev_hash = blocks[-1].hash if blocks else GENESIS_PREV
        # Built without the Python-level __new__ that NamedTuple adds.
        block = tuple.__new__(CreditBlock, (index, prev_hash, wu, allocations, tick,
                                            _digest(index, prev_hash, wu, alloc_text, tick)))
        blocks.append(block)
        return block

    def verify_chain(self) -> Optional[int]:
        """None if intact, else the lowest index whose hash or linkage fails."""
        prev = GENESIS_PREV
        for i, (index, prev_hash, wu, allocations, tick, digest) in enumerate(self.blocks):
            if (index != i or prev_hash != prev
                    or digest != _digest(i, prev, wu, _alloc_text(allocations), tick)):
                return i
            prev = digest
        return None

    def total_committed(self) -> int:
        blocks = self.blocks
        self._total += sum([mc for block in blocks[self._summed:]
                            for _, mc in block.allocations])
        self._summed = len(blocks)
        return self._total

    # Line format: index prev_hash wu agent:mc,agent:mc tick hash
    def export_lines(self) -> Iterable[str]:
        for index, prev_hash, wu, allocations, tick, digest in self.blocks:
            yield f"{index} {prev_hash} {wu} {_alloc_text(allocations) or '-'} {tick} {digest}"


def _plain_int(text: str) -> int:
    """`int(text)`, if `text` is the one spelling str() gives that int."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not written as {value}")
    return value


def parse_ledger_lines(lines: Iterable[str]) -> Ledger:
    blocks: List[CreditBlock] = []
    # Each allocation field met so far and its allocations, and each amount
    # or tick spelling met so far and its value.  A ledger repeats a few
    # fields (a centralized one, its agents times their amounts), so most
    # lines cost a lookup and share a tuple; a miss is read in full, and
    # only a field that reads is stored.
    fields: Dict[str, Tuple[Allocation, ...]] = {"-": ()}
    amounts: Dict[str, int] = {}
    blank = 0  # the first empty line: only empty lines may follow it
    # Parsed blocks hold no reference cycles, so, as in `World.run`, the
    # cyclic collector would only re-scan the blocks read so far.
    enabled = gc.isenabled()
    gc.disable()
    try:
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
                allocations = fields.get(alloc_part)
                if allocations is None:
                    pairs = []
                    for pair in alloc_part.split(","):
                        agent, _, mc = pair.rpartition(":")
                        mc_n = amounts.get(mc)
                        if mc_n is None:
                            mc_n = amounts[mc] = _plain_int(mc)
                        pairs.append((agent, mc_n))
                    allocations = fields[alloc_part] = tuple(pairs)
                index_n = _plain_int(index)
                tick_n = amounts.get(tick)
                if tick_n is None:
                    tick_n = amounts[tick] = _plain_int(tick)
            except ValueError as exc:
                raise LedgerError(f"line {lineno}: an index, tick or millicredit "
                                  f"field is not an integer in plain form: {exc}") from None
            blocks.append(tuple.__new__(CreditBlock, (index_n, prev_hash, wu,
                                                      allocations, tick_n, digest)))
    finally:
        if enabled:
            gc.enable()
    return Ledger(blocks)
